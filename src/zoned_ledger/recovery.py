"""Block retrieval with hash-consistency elimination and majority vote.

Every zone decodes its stored copy of block t and the previous hash it
shares in one decode, through ``ChainState.cached_decode``, so a (slot,
zone) is decoded at most once while its records are unchanged, across
calls. Peers fall into groups of m/2, which share every zone. While the
voting groups' candidates disagree, the scan makes one pass over them per
slot tau > t and looks each group's zone up once per slot. H_{tau-1} is
recomputed once per distinct (block, H_{tau-2}) pair that the
slot-(tau-1) zones decode, so honest zones share one hash.
A group is dropped when its slot-(tau-1) zone decodes a block but shares
no valid H_{tau-2}, or when that zone's recomputed hash differs from the
H_{tau-1} that the group's slot-tau zone shares. Each surviving group
votes for its slot-t zone's candidate, which picks the winner a vote of
its m/2 peers would; a tie for the most votes is ambiguous.
"""

import json
from collections import Counter, namedtuple

from .errors import AmbiguousRecoveryError, ConfigurationError, UnrecoverableError
from .ledger import ChainState, hash_step
from .zones import zone_of_group


class RecoveryReport(namedtuple(
        "RecoveryReport",
        "recovered per_zone_candidates eliminated_peers slots_scanned unanimous")):
    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps({
            "recovered": None if self.recovered is None else self.recovered.hex(),
            "per_zone_candidates": {
                str(z): None if c is None else c.hex()
                for z, c in sorted(self.per_zone_candidates.items())
            },
            "eliminated_peers": sorted(self.eliminated_peers),
            "slots_scanned": self.slots_scanned,
            "unanimous": self.unanimous,
        }, sort_keys=True)


def recover_block(state: ChainState, t: int, scan_limit: int | None = None) -> RecoveryReport:
    """Recover block t; scan at most scan_limit slots for consistency (0: vote only)."""
    if scan_limit is not None and scan_limit < 0:
        raise ConfigurationError(f"scan_limit must be None or >= 0, got {scan_limit}")
    cfg, lay = state.config, state.layout
    n_zones = cfg.n // cfg.m
    decoded = [state.cached_decode(t, z) for z in range(n_zones)]  # (block, H_{t-1})
    candidates = {z: block for z, (block, _) in enumerate(decoded)}
    if all(c is None for c in candidates.values()):
        raise UnrecoverableError(f"no zone can decode slot {t}")

    groups = range(lay.num_groups)
    home = before = [zone_of_group(lay, t, g) for g in groups]  # each group's zone at t
    alive = set(groups)
    stop, scanned = state.num_blocks, 0
    if scan_limit is not None:
        stop = min(stop, t + 1 + scan_limit)
    for tau in range(t + 1, stop):
        if len({candidates[home[g]] for g in alive} - {None}) <= 1:
            break
        following = [state.cached_decode(tau, z) for z in range(n_zones)]
        after = [zone_of_group(lay, tau, g) for g in groups]
        # one hash per distinct (block, H_{tau-2}) pair: honest zones share one
        recomputed = {pair: hash_step(pair[1], pair[0], cfg.hash_width)
                      for pair in set(decoded) if None not in pair}
        for g in list(alive):
            block, prev = decoded[before[g]]
            if block is None:
                continue
            shared = following[after[g]][1]  # H_{tau-1} as slot tau has it
            if prev is None:  # no_prev_hash: a block with no H_{tau-2} to chain it to
                alive.remove(g)
            elif shared is not None and recomputed[block, prev] != shared:  # hash_mismatch
                alive.remove(g)
        decoded, before, scanned = following, after, scanned + 1

    votes = Counter(candidates[home[g]] for g in alive)
    del votes[None]
    if not votes:
        raise UnrecoverableError(f"all candidate zones for slot {t} were eliminated")
    ranked = votes.most_common(2)
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        raise AmbiguousRecoveryError(f"majority tie while recovering slot {t}")
    eliminated = {p for g in groups if g not in alive for p in lay.group(g)}
    return RecoveryReport(ranked[0][0], candidates, eliminated, scanned,
                          len(set(candidates.values()) - {None}) == 1)
