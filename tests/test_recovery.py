import random
from collections import Counter

import pytest

from zoned_ledger.adversary import rewrite_chain_suffix, rewrite_zone_block
from zoned_ledger.errors import (AmbiguousRecoveryError, ConfigurationError,
                                 UnrecoverableError)
from zoned_ledger.ledger import ChainConfig, ChainState, share_field
from zoned_ledger.recovery import (ReplicatedLedger, recover_baseline,
                                   recover_block)
from zoned_ledger.shamir import Share, split


def make_chain(n=24, m=4, block_bytes=32, blocks=8, seed=0, hash_width=64):
    state = ChainState(ChainConfig(n=n, m=m, block_bytes=block_bytes,
                                   hash_width=hash_width, seed=seed))
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
    for rec, share in zip(state.zone_records(2, 1), split(gf, gf.modulus - 1, 4, 4, rng)):
        rec.share = share

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
    # unchecked, -1 turns the scan off: no slot scanned, no peer eliminated
    state, rng = make_chain(n=24, m=4, blocks=4, seed=0)
    rewrite_zone_block(state, 0, 0, bytes(32), rng)
    with pytest.raises(ConfigurationError):
        recover_block(state, 0, scan_limit=-1)


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


def test_shared_value_past_the_byte_width_decodes_to_nothing():
    # a zone's shares of p - 1, with p the sharing field's prime: an element
    # of the field, but past the 10 bytes of key and hash it should fill
    state, rng = make_chain(n=24, m=4, block_bytes=48, blocks=6, seed=3)
    gf = share_field(4, 64)
    recs = state.zone_records(1, 2)
    for rec, share in zip(recs, split(gf, gf.modulus - 1, 4, 4, rng)):
        rec.share = share
    assert state.zone_decode(1, 2) == (None, None)
    report = recover_block(state, 1)
    assert report.recovered == state.payloads[1]
    assert report.per_zone_candidates[2] is None


def test_tampered_key_share_that_decodes_to_a_wrong_key_is_eliminated():
    # every index below key_space(m) is a key, so at m = 4 a random share,
    # whose joint secret then has a random key part, decodes to some valid
    # key about 3 times in 8; this seeded tampering is one such case, and
    # the zone yields a wrong block
    state, _ = make_chain(n=24, m=4, block_bytes=48, blocks=6, seed=0)
    t, z = 2, 0
    zone = set(state.allocation(t)[z])
    rng = random.Random(0)
    rec = state.records[t][rng.choice(sorted(zone))]
    rec.share = Share(rec.share.x, share_field(state.config.m, 64).rand(rng))
    candidate = state.zone_candidate(t, z)
    assert candidate is not None and candidate != state.payloads[t]
    report = recover_block(state, t)
    assert report.recovered == state.payloads[t]
    assert report.eliminated_peers and report.eliminated_peers <= zone


def test_recover_block_decodes_each_zone_once(monkeypatch):
    state, rng = make_chain(n=24, m=4, blocks=8, seed=2)
    t = 2
    rewrite_zone_block(state, t, 0, bytes(32), rng)
    # one rewritten peer loses its slot t+1 record, so its hash check goes
    # unanswered and the scan runs the whole chain suffix
    state.erase_peer_record(t + 1, state.allocation(t)[0][0])
    calls = Counter()
    for name in ("zone_decode", "zone_candidate", "zone_prev_hash"):
        def counted(self, tau, z, _name=name, _decode=getattr(ChainState, name)):
            calls[_name, tau, z] += 1
            return _decode(self, tau, z)
        monkeypatch.setattr(ChainState, name, counted)
    report = recover_block(state, t)
    assert report.recovered == state.payloads[t]
    assert report.slots_scanned == state.num_blocks - 1 - t
    assert {name for name, *_ in calls} == {"zone_decode"}
    # every zone of slots t .. num_blocks - 1, each decoded exactly once
    assert sorted(calls) == [("zone_decode", tau, z) for tau in range(t, state.num_blocks)
                             for z in range(len(state.allocation(t)))]
    assert set(calls.values()) == {1}


def test_report_json_round_trippable():
    import json
    state, rng = make_chain(n=8, m=4, blocks=4, seed=13)
    rewrite_zone_block(state, 1, 0, b"\x01" * 32, rng)
    report = recover_block(state, 1)
    data = json.loads(report.to_json())
    assert bytes.fromhex(data["recovered"]) == state.payloads[1]
    assert data["slots_scanned"] == report.slots_scanned


def test_baseline_majority():
    led = ReplicatedLedger(9)
    led.commit(b"honest")
    for peer in range(4):  # floor(n/2) corrupted
        led.corrupt(peer, 0, b"evil..")
    assert recover_baseline(led, 0) == b"honest"
    led.corrupt(4, 0, b"evil..")  # floor(n/2)+1 corrupted
    assert recover_baseline(led, 0) == b"evil.."


def test_baseline_tie_is_ambiguous():
    led = ReplicatedLedger(4)
    led.commit(b"a")
    led.corrupt(0, 0, b"b")
    led.corrupt(1, 0, b"b")
    with pytest.raises(AmbiguousRecoveryError):
        recover_baseline(led, 0)
