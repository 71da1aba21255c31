"""Block retrieval with hash-consistency elimination and majority vote.

Every zone decodes its stored copy of the requested block, together
with the previous hash it shares, in one decode. If the candidates
disagree, the chain suffix is scanned, each (slot, zone) decoded at most
once. The scan decides per group of m/2 peers, which share every zone:
for each surviving group, the hash recomputed from its slot-tau zone's
block and previous hash is compared against the hash its slot-(tau+1)
zone shares; mismatching groups are eliminated, as are the groups of a
zone that decodes its block but shares no valid previous hash. The
majority among surviving peers' zone candidates wins.
"""

import json
from collections import Counter

from .errors import AmbiguousRecoveryError, ConfigurationError, SlotError, UnrecoverableError
from .ledger import ChainState, hash_step
from .zones import zone_of_group


class RecoveryReport:
    def __init__(self, recovered: bytes | None, per_zone_candidates: dict[int, bytes | None],
                 eliminated_peers: set[int] | None = None, slots_scanned: int = 0,
                 unanimous: bool = False):
        self.recovered = recovered
        self.per_zone_candidates = per_zone_candidates
        self.eliminated_peers = set() if eliminated_peers is None else eliminated_peers
        self.slots_scanned = slots_scanned
        self.unanimous = unanimous

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
    """Recover block t; scan at most scan_limit slots past t for consistency."""
    if not 0 <= t < state.num_blocks:
        raise SlotError(f"slot {t} not committed")
    if scan_limit is not None and scan_limit < 0:
        raise ConfigurationError(f"scan_limit must be None or >= 0, got {scan_limit}")
    cfg, lay = state.config, state.layout
    n_zones = cfg.n // cfg.m
    zones_t = zones_tau = {g: zone_of_group(lay, t, g) for g in range(lay.num_groups)}
    decoded = [state.zone_decode(t, z) for z in range(n_zones)]  # (block, H_{t-1})
    candidates = {z: block for z, (block, _) in enumerate(decoded)}
    report = RecoveryReport(recovered=None, per_zone_candidates=candidates)
    if all(c is None for c in candidates.values()):
        raise UnrecoverableError(f"no zone can decode slot {t}")

    distinct = {c for c in candidates.values() if c is not None}
    active = set(zones_t)
    if len(distinct) > 1:
        last_tau = state.num_blocks - 2
        if scan_limit is not None:
            last_tau = min(last_tau, t + scan_limit)
        for tau in range(t, last_tau + 1):
            zones_next = {g: zone_of_group(lay, tau + 1, g) for g in active}
            following = [state.zone_decode(tau + 1, z) for z in range(n_zones)]
            recomputed = {
                z: hash_step(prev, block, cfg.hash_width)
                for z, (block, prev) in enumerate(decoded)
                if block is not None and prev is not None
            }
            dropped = set()
            for g in active:
                z = zones_tau[g]
                block, prev = decoded[z]
                if block is not None and prev is None:
                    dropped.add(g)  # decodes a block, but no H_{tau-1} to chain it to
                    continue
                next_hash = following[zones_next[g]][1]  # H_tau as slot tau + 1 shares it
                if z in recomputed and next_hash is not None and recomputed[z] != next_hash:
                    dropped.add(g)
            active -= dropped
            report.eliminated_peers.update(p for g in dropped for p in lay.group(g))
            report.slots_scanned += 1
            decoded, zones_tau = following, zones_next
            if len({candidates[zones_t[g]] for g in active} - {None}) <= 1:
                break

    votes = Counter()
    for g in active:
        c = candidates[zones_t[g]]
        if c is not None:
            votes[c] += cfg.m // 2
    if not votes:
        raise UnrecoverableError(f"all candidate zones for slot {t} were eliminated")
    ranked = votes.most_common()
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        raise AmbiguousRecoveryError(f"majority tie while recovering slot {t}")
    report.recovered = ranked[0][0]
    report.unanimous = len(distinct) == 1
    return report


class ReplicatedLedger:
    """Conventional baseline: every peer stores a full copy of every block."""

    def __init__(self, n: int):
        self.n = n
        self.copies: list[list[bytes]] = [[] for _ in range(n)]

    def commit(self, payload: bytes) -> None:
        for store in self.copies:
            store.append(payload)

    def corrupt(self, peer: int, t: int, payload: bytes) -> None:
        self.copies[peer][t] = payload


def recover_baseline(ledger: ReplicatedLedger, t: int) -> bytes:
    """Majority vote over the n full copies of block t."""
    votes = Counter(store[t] for store in ledger.copies)
    ranked = votes.most_common()
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        raise AmbiguousRecoveryError(f"majority tie at slot {t}")
    return ranked[0][0]
