import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zoned_ledger import recovery
from zoned_ledger.adversary import rewrite_chain_suffix, rewrite_zone_block
from zoned_ledger.errors import (AmbiguousRecoveryError, ConfigurationError,
                                 UnrecoverableError, UnrepairableError)
from zoned_ledger.ledger import (ChainConfig, ChainState, hash_step, share_field,
                                 snapshot_load, snapshot_save)
from zoned_ledger.recovery import recover_block
from zoned_ledger.shamir import Share, split
from zoned_ledger.zones import zone_groups


def make_chain(n=24, m=4, block_bytes=32, blocks=8, seed=0, hash_width=64):
    state = ChainState(ChainConfig(n=n, m=m, block_bytes=block_bytes, hash_width=hash_width))
    rng = random.Random(seed)
    for _ in range(blocks):
        state.commit_block(rng.randbytes(block_bytes), rng)
    return state, rng


def test_honest_path_is_unanimous():
    state, _ = make_chain()
    for t in range(state.num_blocks):
        report = recover_block(state, t)
        assert report.recovered == state.payloads[t]
        assert report.unanimous
        assert report.slots_scanned == 0
        assert report.eliminated_peers == set()


def test_single_zone_corruption_detected_and_eliminated():
    state, rng = make_chain(n=24, m=4, blocks=8, seed=2)
    t = 3
    fake = bytes(32)
    rewrite_zone_block(state, t, 0, fake, rng)
    corrupted_peers = set(state.allocation(t)[0])
    report = recover_block(state, t)
    assert report.recovered == state.payloads[t]
    assert not report.unanimous
    assert report.eliminated_peers == corrupted_peers
    assert report.slots_scanned >= 1


def test_half_the_zones_corrupted_still_recovers():
    state, rng = make_chain(n=24, m=4, blocks=8, seed=5)
    t = 2
    fake = b"\xee" * 32
    n_zones = len(state.allocation(t))
    for z in range(-(-n_zones // 2)):  # ceil(n/2m) zones
        rewrite_zone_block(state, t, z, fake, rng)
    report = recover_block(state, t)
    assert report.recovered == state.payloads[t]
    assert report.slots_scanned >= 1


def test_full_consistent_corruption_wins():
    state, rng = make_chain(n=16, m=4, blocks=6, seed=7)
    fake = b"\x42" * 32
    rewrite_chain_suffix(state, 1, fake, rng)
    report = recover_block(state, 1)
    assert report.recovered == fake
    assert report.unanimous  # indistinguishable from an honest chain


def test_tie_between_two_zones_at_the_newest_slot_is_ambiguous():
    # the newest slot has no later slot to audit it, so 4 peers vote each way
    state, rng = make_chain(n=8, m=4, block_bytes=16, blocks=3, seed=0)
    rewrite_zone_block(state, 2, 1, bytes(16), rng)
    with pytest.raises(AmbiguousRecoveryError):
        recover_block(state, 2)


def test_two_different_rewrites_eliminate_every_peer():
    # both zones keep the true H_{-1}, so neither forged block chains to H_0
    state, rng = make_chain(n=8, m=4, block_bytes=16, blocks=3, seed=0)
    rewrite_zone_block(state, 0, 0, b"\x01" * 16, rng)
    rewrite_zone_block(state, 0, 1, b"\x02" * 16, rng)
    with pytest.raises(UnrecoverableError, match="eliminated"):
        recover_block(state, 0)


def test_chain_suffix_rewrite_leaves_unreadable_zones_untouched():
    # at slot 2, zone 0 has lost a record and zone 1 shares a secret past its
    # byte width; the rewrite re-shares zones 2 and 3 and neither of those
    state, rng = make_chain(n=16, m=4, blocks=4, seed=6)
    state.erase_peer_record(2, state.allocation(2)[0][0])
    gf = share_field(4, 64)
    for peer, share in zip(state.allocation(2)[1], split(gf, gf.modulus - 1, 4, 4, rng)):
        state.records[2][peer] = state.records[2][peer]._replace(share=share)

    def stored(z):
        return [None if r is None else (r.fragment, r.share)
                for r in map(state.records[2].get, state.allocation(2)[z])]

    before = [stored(z) for z in range(4)]
    rewrite_chain_suffix(state, 1, bytes(32), rng)
    assert [stored(z) for z in (0, 1)] == before[:2]
    for z in (2, 3):
        assert [f for f, _ in stored(z)] == [f for f, _ in before[z]]
        assert all(new != old for (_, new), (_, old) in zip(stored(z), before[z]))
    assert not state.reshare_zone(2, 0, 0, rng)
    assert not state.reshare_zone(2, 1, 0, rng)
    assert [stored(z) for z in (0, 1)] == before[:2]


def test_erased_zone_contributes_no_candidate():
    state, _ = make_chain(n=8, m=4, blocks=3, seed=1)
    for peer in state.allocation(1)[0]:
        state.erase_peer_record(1, peer)
    report = recover_block(state, 1)
    assert report.recovered == state.payloads[1]
    assert report.per_zone_candidates[0] is None


def test_all_zones_erased_unrecoverable():
    state, _ = make_chain(n=8, m=4, blocks=2, seed=4)
    for z, members in enumerate(state.allocation(0)):
        state.erase_peer_record(0, members[0])
    with pytest.raises(UnrecoverableError):
        recover_block(state, 0)


def test_scan_limit_monotone():
    state, rng = make_chain(n=24, m=4, blocks=10, seed=8)
    t = 2
    rewrite_zone_block(state, t, 1, b"\x99" * 32, rng)
    results = []
    for limit in (0, 1, 3, None):
        report = recover_block(state, t, scan_limit=limit)
        results.append(report.recovered)
    assert all(r == state.payloads[t] for r in results)


def test_negative_scan_limit_is_a_configuration_error():
    # 0 already turns the scan off; -1 would mean nothing more
    state, rng = make_chain(n=24, m=4, blocks=4, seed=0)
    rewrite_zone_block(state, 0, 0, bytes(32), rng)
    with pytest.raises(ConfigurationError):
        recover_block(state, 0, scan_limit=-1)


def contested_chain():
    """(24,4,32), 8 blocks: zone 0 of slot 2 rewritten, and one of its peers has
    lost its slot-3 record, so that peer's hash check goes unanswered and the
    scan runs the whole chain suffix: slots 2 .. 6, five slots."""
    state, rng = make_chain(n=24, m=4, blocks=8, seed=2)
    t = 2
    rewrite_zone_block(state, t, 0, bytes(32), rng)
    state.erase_peer_record(t + 1, state.allocation(t)[0][0])
    return state, rng, t


@pytest.mark.parametrize("limit,scanned", [(0, 0), (1, 1), (2, 2), (3, 3), (None, 5)])
def test_scan_limit_bounds_the_slots_scanned(limit, scanned):
    state, _, t = contested_chain()
    report = recover_block(state, t, scan_limit=limit)
    assert report.slots_scanned == scanned
    assert report.recovered == state.payloads[t]
    assert not report.unanimous
    if limit == 0:  # a majority vote with no scan eliminates no one
        assert report.eliminated_peers == set()


def test_elimination_requires_a_failed_comparison():
    state, _ = make_chain(n=16, m=4, blocks=6, seed=11)
    for t in range(6):
        assert recover_block(state, t).eliminated_peers == set()


@pytest.mark.parametrize("plant_first", [True, False],
                         ids=["planted_then_rewritten", "rewritten_then_planted"])
def test_out_of_range_previous_hash_does_not_stop_recovery(plant_first):
    # zone 0 of slot 0 is rewritten, and its shares are replaced by shares of
    # its own key followed by a hash part of 2^60 + 1: 8 bytes, as any 60-bit
    # hash takes, but no 60-bit hash. Either way round, the rewritten zone's
    # peers are eliminated at slot 0: by the hash comparison, or for
    # decoding a block with no valid H_{-1}.
    state, rng = make_chain(n=24, m=4, block_bytes=48, blocks=6, seed=17, hash_width=60)
    forged = bytes(b ^ 0xFF for b in state.payloads[0])

    def plant():
        assert state.reshare_zone(0, 0, 2**60 + 1, rng)

    if plant_first:
        plant()
        rewrite_zone_block(state, 0, 0, forged, rng)
    else:
        rewrite_zone_block(state, 0, 0, forged, rng)
        plant()
        assert state.zone_prev_hash(0, 0) is None
    assert state.zone_candidate(0, 0) == forged
    report = recover_block(state, 0)
    assert report.recovered == state.payloads[0]
    assert report.eliminated_peers == set(state.allocation(0)[0])
    assert report.slots_scanned == 1


def test_block_with_no_valid_previous_hash_is_dropped_with_nothing_to_compare():
    # zone 0 of slot 0 decodes a forged block but shares a hash part of 2^60 + 1,
    # and the slot-1 zone of each of its groups has lost a record, so shares no
    # H_0 to compare with: its groups are dropped for the missing H_{-1} alone
    state, rng = make_chain(n=24, m=4, block_bytes=48, blocks=6, seed=17, hash_width=60)
    rewrite_zone_block(state, 0, 0, bytes(48), rng)
    assert state.reshare_zone(0, 0, 2**60 + 1, rng)
    for g in zone_groups(state.layout, 0, 0):
        state.erase_peer_record(1, state.layout.group(g)[0])
    assert state.zone_decode(0, 0) == (bytes(48), None)
    report = recover_block(state, 0)
    assert report.recovered == state.payloads[0]
    assert report.eliminated_peers == set(state.allocation(0)[0])
    assert report.slots_scanned == 1
    assert_matches_reference(state, 0)


def test_shared_value_past_the_byte_width_decodes_to_nothing():
    # a zone's shares of p - 1, with p the sharing field's prime: an element
    # of the field, but past the 10 bytes of key and hash it should fill
    state, rng = make_chain(n=24, m=4, block_bytes=48, blocks=6, seed=3)
    gf = share_field(4, 64)
    for peer, share in zip(state.allocation(1)[2], split(gf, gf.modulus - 1, 4, 4, rng)):
        state.records[1][peer] = state.records[1][peer]._replace(share=share)
    assert state.zone_decode(1, 2) == (None, None)
    report = recover_block(state, 1)
    assert report.recovered == state.payloads[1]
    assert report.per_zone_candidates[2] is None


def test_tampered_key_share_that_decodes_to_a_wrong_key_is_eliminated():
    # every index below key_space(m) is a key, so at m = 4 a random share,
    # whose joint secret then has a random key part, decodes to some valid
    # key about 3 times in 8; the first seed whose tampering is one such
    # case is taken, and the zone yields a wrong block
    state, _ = make_chain(n=24, m=4, block_bytes=48, blocks=6, seed=0)
    t, z = 2, 0
    zone = set(state.allocation(t)[z])
    for seed in range(64):
        rng = random.Random(seed)
        peer = rng.choice(sorted(zone))
        honest = state.records[t][peer]
        state.records[t][peer] = honest._replace(
            share=Share(honest.share.x, share_field(state.config.m, 64).rand(rng)))
        candidate = state.zone_candidate(t, z)
        if candidate is not None and candidate != state.payloads[t]:
            break
        state.records[t][peer] = honest
    else:
        pytest.fail("no seed in 0..63 tampers a share into a valid wrong key")
    report = recover_block(state, t)
    assert report.recovered == state.payloads[t]
    assert report.eliminated_peers and report.eliminated_peers <= zone


def count_decodes(monkeypatch):
    """A Counter of (method, slot, zone): each call of ChainState's three point reads,
    and each memo miss of cached_decode, counted as a zone_decode of its (slot, zone).

    A miss is a call of the records decoder ChainState._decode inside cached_decode
    and not inside a point read, which counts itself. So a miss counts once, whether
    cached_decode decodes the records it read or calls zone_decode.
    """
    calls = Counter()
    under_way = []  # per read in progress: (slot, zone) of a cached_decode, None of a point read

    def wrap(name, is_point_read):
        read = getattr(ChainState, name)

        def counted(self, tau, z):
            if is_point_read:
                calls[name, tau, z] += 1
            under_way.append(None if is_point_read else (tau, z))
            try:
                return read(self, tau, z)
            finally:
                under_way.pop()
        monkeypatch.setattr(ChainState, name, counted)

    for name in ("zone_decode", "zone_candidate", "zone_prev_hash"):
        wrap(name, True)
    wrap("cached_decode", False)

    def decode(self, recs, _decode=ChainState._decode):
        if under_way and under_way[-1] is not None:
            calls["zone_decode", *under_way[-1]] += 1
        return _decode(self, recs)
    monkeypatch.setattr(ChainState, "_decode", decode)
    return calls


def test_recover_block_decodes_each_zone_once(monkeypatch):
    state, _, t = contested_chain()
    calls = count_decodes(monkeypatch)
    report = recover_block(state, t)
    assert report.recovered == state.payloads[t]
    assert report.slots_scanned == state.num_blocks - 1 - t
    assert {name for name, *_ in calls} == {"zone_decode"}
    # every zone of slots t .. num_blocks - 1, each decoded exactly once
    assert sorted(calls) == [("zone_decode", tau, z) for tau in range(t, state.num_blocks)
                             for z in range(len(state.allocation(t)))]
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("limit", [0, 1, 3, None])
def test_recover_block_looks_up_each_group_zone_once_per_slot(monkeypatch, limit):
    # the groups' zones at slot t, then at each scanned slot; a slot's list is
    # reused as the groups' zones one slot back, never looked up again
    state, _, t = contested_chain()
    lookups = Counter()

    def counted(lay, tau, g, _zone_of_group=recovery.zone_of_group):
        lookups[tau] += 1
        return _zone_of_group(lay, tau, g)
    monkeypatch.setattr(recovery, "zone_of_group", counted)
    report = recover_block(state, t, limit)
    assert report.recovered == state.payloads[t]
    groups = state.layout.num_groups
    assert sum(lookups.values()) == groups * (report.slots_scanned + 1)
    assert lookups == {tau: groups for tau in range(t, t + report.slots_scanned + 1)}


def reference_recovery(state, t, scan_limit=None):
    """The scan peer by peer: (recovered block or error type, eliminated peers, slots scanned)."""
    cfg = state.config
    last = state.num_blocks - 1
    if scan_limit is not None:
        last = min(last, t + scan_limit)
    n_zones = cfg.n // cfg.m

    def zone_of_peer(tau):
        return {p: z for z, members in enumerate(state.allocation(tau)) for p in members}

    decoded = [state.zone_decode(t, z) for z in range(n_zones)]
    candidates = [block for block, _ in decoded]
    zones_t = zone_of_peer(t)
    active, eliminated, scanned = set(range(cfg.n)), set(), 0
    if len(set(candidates) - {None}) > 1:
        for tau in range(t, last):
            zones_tau, zones_next = zone_of_peer(tau), zone_of_peer(tau + 1)
            following = [state.zone_decode(tau + 1, z) for z in range(n_zones)]
            dropped = set()
            for peer in active:
                block, prev = decoded[zones_tau[peer]]
                next_hash = following[zones_next[peer]][1]
                if block is not None and (prev is None or next_hash is not None and
                                          hash_step(prev, block, cfg.hash_width) != next_hash):
                    dropped.add(peer)
            active, eliminated, scanned = active - dropped, eliminated | dropped, scanned + 1
            decoded = following
            if len({candidates[zones_t[p]] for p in active} - {None}) <= 1:
                break
    votes = Counter(candidates[zones_t[p]] for p in active) - Counter({None: len(active)})
    ranked = votes.most_common()
    if not ranked or set(candidates) == {None}:
        return UnrecoverableError, eliminated, scanned
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        return AmbiguousRecoveryError, eliminated, scanned
    return ranked[0][0], eliminated, scanned


def assert_matches_reference(state, t, scan_limit=None):
    """recover_block gives reference_recovery's block, eliminated peers and slots scanned,
    or raises its error."""
    recovered, eliminated, scanned = reference_recovery(state, t, scan_limit)
    if isinstance(recovered, type):
        with pytest.raises(recovered):
            recover_block(state, t, scan_limit)
    else:
        report = recover_block(state, t, scan_limit)
        assert (report.recovered, report.eliminated_peers, report.slots_scanned) == (
            recovered, eliminated, scanned)


@pytest.mark.parametrize("seed", range(24))
def test_group_scan_matches_the_peer_by_peer_scan(seed):
    rng = random.Random(seed)
    n, m = rng.choice([(24, 4), (24, 6), (32, 8), (12, 2)])
    state, rng = make_chain(n=n, m=m, block_bytes=2 * m, blocks=6, seed=seed)
    forgeries = [bytes(2 * m), b"\x01" * 2 * m]
    for _ in range(rng.randrange(2, 8)):
        t = rng.randrange(state.num_blocks)
        rewrite_zone_block(state, t, rng.randrange(n // m), rng.choice(forgeries), rng)
    if rng.random() < 0.3:
        rewrite_chain_suffix(state, rng.randrange(state.num_blocks), forgeries[0], rng)
    for _ in range(rng.randrange(8)):
        state.erase_peer_record(rng.randrange(state.num_blocks), rng.randrange(n))
    for t in range(state.num_blocks):
        assert_matches_reference(state, t)


def test_decode_memo_decodes_again_only_what_changed(monkeypatch):
    state, rng, t = contested_chain()
    share_gf = share_field(state.config.m, state.config.hash_width)
    calls = count_decodes(monkeypatch)
    first = recover_block(state, t).to_json()
    calls.clear()
    assert recover_block(state, t).to_json() == first
    assert calls == Counter()  # an unchanged state decodes nothing
    # the same block under a fresh key: new records, the same recovery
    rewrite_zone_block(state, 5, 1, state.payloads[5], rng)
    calls.clear()  # the rewrite reads the zone's previous hash itself
    assert recover_block(state, t).to_json() == first
    assert calls == Counter({("zone_decode", 5, 1): 1})
    # a record replaced outside ChainState's writers at the last slot, which the scan reaches
    calls.clear()
    last = state.num_blocks - 1
    peer = state.allocation(last)[0][0]
    rec = state.records[last][peer]
    state.records[last][peer] = rec._replace(
        share=Share(rec.share.x, (rec.share.y + 1) % share_gf.modulus))
    recover_block(state, t)
    assert calls == Counter({("zone_decode", last, 0): 1})
    assert_matches_reference(state, t)
    # the point reads decode on every call
    calls.clear()
    for _ in range(2):
        state.zone_candidate(last, 1)
        state.zone_prev_hash(last, 1)
        state.zone_decode(last, 1)
    assert calls == Counter({("zone_candidate", last, 1): 2, ("zone_prev_hash", last, 1): 2,
                             ("zone_decode", last, 1): 6})


def test_writes_drop_the_zone_memo_entry():
    # so the memo keeps no replaced fragment or share alive
    state, rng, t = contested_chain()
    recover_block(state, t)
    memo = vars(state)["_decoded"]
    before = set(memo)
    assert {(5, 1), (4, 2)} <= before
    rewrite_zone_block(state, 5, 1, state.payloads[5], rng)
    state.erase_peer_record(4, state.allocation(4)[2][1])
    assert set(memo) == before - {(5, 1), (4, 2)}


MEMO_CHAINS = [(8, 4, 16), (24, 4, 48), (16, 8, 32)]  # (n, m, block_bytes)
MEMO_STEPS = ["rewrite_zone", "rewrite_suffix", "reshare", "erase", "repair",
              "replace_share", "snapshot"]


def apply_step(state, step, rng, folder):
    """One write of MEMO_STEPS on a random (slot, zone); returns the state to go on with."""
    cfg = state.config
    t, z = rng.randrange(state.num_blocks), rng.randrange(cfg.n // cfg.m)
    forged = rng.choice([bytes(cfg.block_bytes), b"\x01" * cfg.block_bytes])
    if step == "rewrite_zone":
        rewrite_zone_block(state, t, z, forged, rng)
    elif step == "rewrite_suffix":
        rewrite_chain_suffix(state, t, forged, rng)
    elif step == "reshare":
        state.reshare_zone(t, z, rng.choice([state.hashes[t], rng.getrandbits(64)]), rng)
    elif step == "erase":
        state.erase_peer_record(t, rng.randrange(cfg.n))
    elif step == "repair":
        try:
            state.repair_zone(t, z, rng)
        except UnrepairableError:
            pass
    elif step == "replace_share":
        peer = rng.randrange(cfg.n)
        rec = state.records[t].get(peer)
        if rec is not None:
            gf = share_field(cfg.m, cfg.hash_width)
            state.records[t][peer] = rec._replace(share=Share(rec.share.x, gf.rand(rng)))
    else:
        path = Path(folder) / "chain.jsonl"
        snapshot_save(state, path)
        state = snapshot_load(path)
    return state


def check_memo(state):
    """cached_decode agrees with zone_decode, recover_block with the reference scan."""
    n_zones = state.config.n // state.config.m
    for t in range(state.num_blocks):
        for z in range(n_zones):
            assert state.cached_decode(t, z) == state.zone_decode(t, z)
    # one entry per (slot, zone) at most
    assert set(vars(state)["_decoded"]) <= {(t, z) for t in range(state.num_blocks)
                                            for z in range(n_zones)}
    for t in range(state.num_blocks):
        assert_matches_reference(state, t)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MEMO_CHAINS), st.integers(0, 2**16),
       st.lists(st.tuples(st.sampled_from(MEMO_STEPS), st.integers(0, 2**16)), max_size=8))
def test_decode_memo_follows_every_write(chain, seed, steps):
    n, m, block_bytes = chain
    state, _ = make_chain(n=n, m=m, block_bytes=block_bytes, blocks=5, seed=seed)
    check_memo(state)
    with tempfile.TemporaryDirectory() as folder:
        for step, step_seed in steps:
            state = apply_step(state, step, random.Random(step_seed), folder)
            check_memo(state)


# a rewrite of zone 1 at slot 4, the newest, which no later slot audits: two groups each way
TIE_EXAMPLE = ((8, 4, 16), 0, [("rewrite_zone", 5)])


def written_chain(chain, seed, steps):
    """A MEMO_CHAINS chain of 5 blocks after the apply_step writes of steps."""
    n, m, block_bytes = chain
    state, _ = make_chain(n=n, m=m, block_bytes=block_bytes, blocks=5, seed=seed)
    with tempfile.TemporaryDirectory() as folder:
        for step, step_seed in steps:
            state = apply_step(state, step, random.Random(step_seed), folder)
    return state


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MEMO_CHAINS), st.integers(0, 2**16),
       st.lists(st.tuples(st.sampled_from(MEMO_STEPS), st.integers(0, 2**16)),
                min_size=1, max_size=6))
@example(*TIE_EXAMPLE)
def test_limited_scan_matches_the_peer_by_peer_scan(chain, seed, steps):
    state = written_chain(chain, seed, steps)
    for scan_limit in (None, 0, 1, 2, 3):
        for t in range(state.num_blocks):
            assert_matches_reference(state, t, scan_limit)


def test_tie_example_reaches_the_majority_tie():
    state = written_chain(*TIE_EXAMPLE)
    assert reference_recovery(state, 4)[0] is AmbiguousRecoveryError
    with pytest.raises(AmbiguousRecoveryError, match="majority tie"):
        recover_block(state, 4)


def test_report_json_round_trippable():
    import json
    state, rng = make_chain(n=8, m=4, blocks=4, seed=13)
    rewrite_zone_block(state, 1, 0, b"\x01" * 32, rng)
    report = recover_block(state, 1)
    data = json.loads(report.to_json())
    assert bytes.fromhex(data["recovered"]) == state.payloads[1]
    assert data["slots_scanned"] == report.slots_scanned

