import hashlib
import json
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoned_ledger.adversary import rewrite_chain_suffix, rewrite_zone_block
from zoned_ledger.errors import (ConfigurationError, InsufficientSharesError,
                                 SlotError, SnapshotError, UnrepairableError)
from zoned_ledger.field import Field, prime_field
from zoned_ledger.ledger import (GENESIS_HASH, SNAPSHOT_FORMAT, ChainConfig, ChainState,
                                 hash_field, hash_step, share_field,
                                 snapshot_load, snapshot_save,
                                 storage_cost_formula)
from zoned_ledger.mining import DifficultyTarget, mine, mining_cost_law, mining_hash
from zoned_ledger.recovery import recover_block
from zoned_ledger.shamir import Share, reconstruct, reconstruct_bytes
from zoned_ledger.tree_cipher import (CipherKey, RootedTree, decrypt, encrypt, sample_key,
                                      sample_tree, tree_from_prufer)


def make_chain(n=8, m=4, block_bytes=16, blocks=4, seed=0, hash_width=64):
    cfg = ChainConfig(n=n, m=m, block_bytes=block_bytes, hash_width=hash_width)
    state = ChainState(cfg)
    rng = random.Random(seed)
    for _ in range(blocks):
        state.commit_block(rng.randbytes(block_bytes), rng)
    return state, rng


def test_hash_step_deterministic():
    payload = b"same block twice"
    assert hash_step(7, payload, 64) == hash_step(7, payload, 64)


def test_hash_step_sensitivity():
    rng = random.Random(4)
    seen = set()
    for _ in range(1000):
        payload = bytearray(rng.randbytes(24))
        h1 = hash_step(0, bytes(payload), 64)
        payload[rng.randrange(24)] ^= 1 << rng.randrange(8)
        h2 = hash_step(0, bytes(payload), 64)
        assert h1 != h2
        seen.update((h1, h2))
    assert len(seen) == 2000  # no collisions at width 64


def test_hash_step_width_256_matches_sha256():
    prev = int.from_bytes(hashlib.sha256(b"prev").digest(), "big")
    payload = b"abc"
    expected = hashlib.sha256(prev.to_bytes(32, "big") + payload).digest()
    assert hash_step(prev, payload, 256) == int.from_bytes(expected, "big")
    # sanity: the hashlib primitive matches the published "abc" vector
    assert hashlib.sha256(b"abc").hexdigest() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ChainConfig(n=8, m=3, block_bytes=12)
    with pytest.raises(ConfigurationError):
        ChainConfig(n=8, m=4, block_bytes=15)
    with pytest.raises(ConfigurationError):
        ChainConfig(n=6, m=4, block_bytes=16)


@pytest.mark.parametrize("n,m,width", [(256, 256, 8), (512, 256, 8), (512, 512, 9)])
def test_config_rejects_zone_without_enough_width_bit_abscissas(n, m, width):
    # a zone's m shares need m distinct x in [1, 2^width): m >= 2^width has too few
    with pytest.raises(ConfigurationError):
        ChainConfig(n, m, m, hash_width=width)
    ChainConfig(n, m, m, hash_width=width + 1)
    ChainConfig(m - 2, m - 2, m - 2, hash_width=width)  # one x to spare


def test_genesis_and_chain_consistency():
    state, _ = make_chain(blocks=5)
    assert state.hashes[0] == GENESIS_HASH == 0
    for t, payload in enumerate(state.payloads):
        assert state.hashes[t + 1] == hash_step(state.hashes[t], payload,
                                                state.config.hash_width)


def test_commit_rejects_bad_length():
    state, rng = make_chain(blocks=0)
    with pytest.raises(ValueError):
        state.commit_block(b"\x00" * 15, rng)


@pytest.mark.parametrize("write", [
    lambda state, rng: state.encode_zone(1, 0, bytes(8), state.hashes[1], rng),
    lambda state, rng: rewrite_zone_block(state, 1, 0, bytes(8), rng),
    lambda state, rng: rewrite_chain_suffix(state, 0, bytes(8), rng),
    lambda state, rng: state.commit_block(bytes(8), rng),
], ids=["encode_zone", "rewrite_zone_block", "rewrite_chain_suffix", "commit_block"])
def test_payload_of_the_wrong_length_is_rejected_and_nothing_written(tmp_path, write):
    # 8 bytes is a multiple of m = 4, so the cipher alone would store 2-byte fragments
    state, rng = make_chain(n=8, m=4, blocks=2, seed=5)
    before = [dict(slot) for slot in state.records]
    with pytest.raises(ValueError, match="payload must be 16 bytes, got 8"):
        write(state, rng)
    assert state.records == before
    assert (state.num_blocks, len(state.hashes)) == (2, 3)
    snapshot_save(state, tmp_path / "chain.jsonl")
    assert snapshot_load(tmp_path / "chain.jsonl").records == state.records


def test_zone_candidates_decode_after_commit():
    state, _ = make_chain(n=12, m=4, blocks=3)
    for t in range(3):
        for z in range(3):
            assert state.zone_candidate(t, z) == state.payloads[t]
            assert state.zone_prev_hash(t, z) == state.hashes[t]


def test_zone_fragments_independent_across_zones():
    state, _ = make_chain(n=16, m=4, blocks=2)
    frag_sets = []
    for z in range(4):
        recs = state.zone_records(0, z)
        frag_sets.append(tuple(r.fragment for r in recs))
    assert len(set(frag_sets)) == 4


def test_share_threshold_is_m_of_m():
    state, _ = make_chain(n=8, m=4, blocks=2)
    f = share_field(4, state.config.hash_width)
    with pytest.raises(InsufficientSharesError):
        reconstruct(f, [r.share for r in state.zone_records(1, 0)[:3]], 4)
    # all 4 shares give the joint secret, whose low 8 bytes are H_{t-1};
    # forcing interpolation through only 3 of them misses it
    for z in range(2):
        shares = [r.share for r in state.zone_records(1, z)]
        secret = reconstruct(f, shares, 4)
        assert secret % 2**64 == state.hashes[1]
        assert f.lagrange_interpolate(shares[:3], 0) != secret


def test_repair_zone_round_trip():
    state, rng = make_chain(n=12, m=4, blocks=3, seed=9)
    victim = state.allocation(1)[0]
    old_frags = [state.records[1][p].fragment for p in sorted(victim)]
    state.erase_peer_record(1, victim[0])
    assert state.zone_candidate(1, 0) is None
    state.repair_zone(1, 0, rng)
    assert state.zone_candidate(1, 0) == state.payloads[1]
    assert state.zone_prev_hash(1, 0) == state.hashes[1]
    new_frags = [state.records[1][p].fragment for p in sorted(victim)]
    assert new_frags != old_frags  # fresh key, new codewords


def test_repair_unrepairable_when_every_zone_hit():
    state, rng = make_chain(n=8, m=4, blocks=2, seed=3)
    for z, members in enumerate(state.allocation(0)):
        state.erase_peer_record(0, members[0])
    with pytest.raises(UnrepairableError):
        state.repair_zone(0, 0, rng)


@pytest.mark.parametrize("width", [8, 60, 64, 256])
def test_every_write_draws_distinct_width_bit_abscissas(width):
    def assert_width_bit_xs(t, z):
        xs = [r.share.x for r in state.zone_records(t, z)]
        assert len(set(xs)) == len(xs) and all(0 < x < 2**width for x in xs)

    state, rng = make_chain(n=12, m=4, blocks=3, seed=width, hash_width=width)
    for t in range(state.num_blocks):  # committed
        for z in range(3):
            assert_width_bit_xs(t, z)
    state.erase_peer_record(1, state.allocation(1)[2][0])
    state.repair_zone(1, 2, rng)  # repaired
    assert_width_bit_xs(1, 2)
    assert state.reshare_zone(2, 1, state.hashes[2], rng)  # re-shared
    assert_width_bit_xs(2, 1)
    assert recover_block(state, 1).recovered == state.payloads[1]


# A (24, 4, 48) chain of 4 blocks has 6 zones per slot. Unchecked, t = -1
# would read (and repair would write) slot 3's records with residue 10's zones.
@pytest.mark.parametrize("call", [
    lambda s, rng: s.zone_records(-1, 0),
    lambda s, rng: s.zone_records(0, 6),
    lambda s, rng: s.zone_decode(-1, 0),
    lambda s, rng: s.zone_decode(4, 0),
    lambda s, rng: s.zone_decode(0, -1),
    lambda s, rng: s.zone_candidate(9, 0),
    lambda s, rng: s.zone_prev_hash(0, 6),
    lambda s, rng: s.cached_decode(-1, 0),
    lambda s, rng: s.cached_decode(0, 6),
    lambda s, rng: s.repair_zone(-1, 0, rng),
    lambda s, rng: s.repair_zone(4, 0, rng),
    lambda s, rng: s.repair_zone(0, -1, rng),
    lambda s, rng: s.repair_zone(0, 6, rng),
    lambda s, rng: s.encode_zone(4, 0, bytes(48), 0, rng),
    lambda s, rng: s.encode_zone(0, 6, bytes(48), 0, rng),
    lambda s, rng: s.reshare_zone(-1, 0, 0, rng),
    lambda s, rng: s.reshare_zone(0, 6, 0, rng),
    lambda s, rng: s.erase_peer_record(-1, 0),
    lambda s, rng: s.erase_peer_record(4, 0),
    lambda s, rng: s.erase_peer_record(0, -1),
    lambda s, rng: s.erase_peer_record(0, 24),
    lambda s, rng: s.storage_cost_measured(0, -1),
    lambda s, rng: s.storage_cost_measured(0, 4),
    lambda s, rng: s.storage_cost_measured(-1, 0),
    lambda s, rng: s.storage_cost_measured(24, 0),
    lambda s, rng: recover_block(s, -1),
    lambda s, rng: recover_block(s, 4),
], ids=["records_t_neg", "records_z_past", "decode_t_neg", "decode_t_past", "decode_z_neg",
        "candidate_t_past", "prev_hash_z_past", "cached_t_neg", "cached_z_past", "repair_t_neg",
        "repair_t_past", "repair_z_neg", "repair_z_past", "encode_t_past", "encode_z_past",
        "reshare_t_neg", "reshare_z_past", "erase_t_neg", "erase_t_past", "erase_peer_neg",
        "erase_peer_past", "cost_t_neg",
        "cost_t_past", "cost_peer_neg", "cost_peer_past", "recover_t_neg", "recover_t_past"])
def test_slot_or_zone_out_of_range_raises_slot_error(call):
    state, rng = make_chain(n=24, m=4, block_bytes=48, blocks=4, seed=0)
    with pytest.raises(SlotError):
        call(state, rng)
    for t in range(state.num_blocks):  # and no record was touched
        for z in range(len(state.allocation(t))):
            assert state.zone_decode(t, z) == (state.payloads[t], state.hashes[t])
        assert len(state.records[t]) == 24


@pytest.mark.parametrize("width,prev_hash", [(64, -1), (64, 2**64), (60, 2**64)])
@pytest.mark.parametrize("write", ["encode", "reshare"])
def test_previous_hash_past_its_bytes_is_a_configuration_error(width, prev_hash, write):
    # 2^60 + 1 fits the 8 bytes of a 60-bit hash and may be stored; 2^64 does not
    state, rng = make_chain(n=8, m=4, blocks=2, hash_width=width)
    before = [dict(slot) for slot in state.records]
    with pytest.raises(ConfigurationError):
        if write == "encode":
            state.encode_zone(1, 0, bytes(16), prev_hash, rng)
        else:
            state.reshare_zone(1, 0, prev_hash, rng)
    assert state.records == before


@pytest.mark.parametrize("call,error", [
    (lambda: hash_step(2**64, b"", 64), ConfigurationError),
    (lambda: hash_step(-1, b"", 64), ConfigurationError),
    (lambda: reconstruct(prime_field(16), [Share(3, 1), Share(3, 2)], 2),
     InsufficientSharesError),
    (lambda: mine(b"", DifficultyTarget(64, 0.5), -1, random.Random(0)), ConfigurationError),
    (lambda: mining_cost_law(0.5, -1), ConfigurationError),
    (lambda: hash_step(0, b"", 300), ConfigurationError),
    (lambda: hash_step(0, b"x", -8), ConfigurationError),
    (lambda: hash_step(0, b"", 0), ConfigurationError),
    (lambda: hash_step(0, b"", 7), ConfigurationError),
    (lambda: mining_hash(1, -9, b"", 64), ConfigurationError),
    (lambda: mining_hash(1, 8, b"", 300), ConfigurationError),
    (lambda: mining_hash(1, 8, b"", 7), ConfigurationError),
    (lambda: mining_hash(300, 8, b"", 64), ConfigurationError),
    (lambda: mining_hash(-1, 8, b"", 64), ConfigurationError),
    (lambda: reconstruct(prime_field(16), [Share(3, 1)], 0), ConfigurationError),
    (lambda: reconstruct_bytes([Share(3, 1)], 1, -1), ConfigurationError),
    (lambda: sample_key(0, random.Random(0)), ConfigurationError),
    (lambda: sample_tree(-1, random.Random(0)), ConfigurationError),
    (lambda: tree_from_prufer([], 0, 0), ConfigurationError),
    (lambda: tree_from_prufer([5], 3, 0), ConfigurationError),
    (lambda: RootedTree((1, 0), 0), ConfigurationError),
    (lambda: RootedTree((0, 5), 0), ConfigurationError),
    (lambda: RootedTree((0, 2, 1), 0), ConfigurationError),
    (lambda: CipherKey(RootedTree((0, 0, 1), 0), (0, 2, 0), (0, 1, 2)), ConfigurationError),
    (lambda: CipherKey(RootedTree((0, 0, 1), 0), (0, 0, 0), (0, 0, 1)), ConfigurationError),
    (lambda: encrypt(bytes(5), sample_key(4, random.Random(0))), ConfigurationError),
    (lambda: decrypt([bytes(2)] * 3, sample_key(4, random.Random(0))), ConfigurationError),
    (lambda: decrypt([bytes(2)] * 3 + [bytes(3)], sample_key(4, random.Random(0))),
     ConfigurationError),
    (lambda: make_chain(blocks=0)[0].commit_block(bytes(15), random.Random(0)),
     ConfigurationError),
], ids=["hash_past_width", "negative_hash", "duplicate_abscissa", "negative_nonce_bits",
        "negative_q_bits", "hash_width_300", "hash_width_negative", "hash_width_0",
        "hash_width_7", "mining_hash_negative_nonce_bits", "mining_hash_width_300",
        "mining_hash_width_7", "mining_hash_nonce_past_its_bytes",
        "mining_hash_negative_nonce", "reconstruct_threshold_0",
        "reconstruct_bytes_negative_length", "sample_key_m_0", "sample_tree_m_negative",
        "tree_from_prufer_m_0", "tree_from_prufer_digit_past_m", "tree_root_not_own_parent",
        "tree_parent_past_m", "tree_cycle", "key_flip_not_a_bit",
        "key_assignment_not_a_permutation", "encrypt_block_not_divisible",
        "decrypt_fragment_count", "decrypt_fragment_lengths", "payload_length"])
def test_malformed_input_raises_a_typed_error_not_a_bare_one(call, error):
    # each of these raised a bare OverflowError or ValueError from a shift or to_bytes,
    # or (a hash width of 0 or 7) returned a hash that no chain can have, or (a
    # threshold of 0) an InsufficientSharesError for "fewer than 0 distinct shares"
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("n", [2**16, 2**40])
def test_config_and_state_of_a_huge_network_take_no_memory_per_peer(n):
    tracemalloc.start()
    try:
        ChainState(ChainConfig(n=n, m=4, block_bytes=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_storage_cost_formula_values():
    baseline, distributed, gain = storage_cost_formula(1024, 256, 8)
    assert baseline == 1280
    assert distributed == 128 + 48 + 512 + 1 == 689
    assert gain == 591


def test_storage_cost_formula_m1_no_savings():
    baseline, distributed, gain = storage_cost_formula(512, 64, 1)
    assert distributed >= baseline
    assert gain <= 0


def test_storage_cost_gain_sign_condition():
    rng = random.Random(0)
    for _ in range(100):
        q_bits = rng.randrange(64, 4096)
        p_bits = rng.randrange(32, 512)
        m = rng.randrange(2, 32)
        _, _, gain = storage_cost_formula(q_bits, p_bits, m)
        lhs = (1 - 1 / m) * q_bits
        rhs = 2 * m * math.log2(m) + p_bits + 1
        assert (gain > 0) == (lhs > rhs)


def test_storage_cost_measured_fragment_portion():
    state, _ = make_chain(n=8, m=4, block_bytes=32, blocks=1)
    rec = state.records[0][0]
    assert 8 * len(rec.fragment) == 8 * 32 / 4


@pytest.mark.parametrize("m,key_bits", [(4, 17), (6, 33), (8, 49), (16, 129)])
def test_storage_cost_measured_key_share_bits(m, key_bits):
    # the key travels in the one share of key and previous hash: a 64-bit x
    # and a y in the prime field just above 2^(8 * key_nbytes(m) + 64), of
    # the key_bits - 1 bits of the key part (2m log2 m is 16 / 31 / 48 / 128)
    # plus 64 of the hash part, so 81 / 97 / 113 / 193 bits
    state, _ = make_chain(n=2 * m, m=m, block_bytes=m, blocks=1)
    share_bits = share_field(m, 64).modulus.bit_length()
    assert share_bits == key_bits + 64 == {4: 81, 6: 97, 8: 113, 16: 193}[m]
    other = 8 + math.ceil(math.log2(m))
    assert state.storage_cost_measured(0, 0) == 64 + share_bits + other


def test_storage_cost_measured_linear_in_block_size():
    deltas = set()
    for block_bytes in (16, 32, 64, 128):
        state, _ = make_chain(n=8, m=4, block_bytes=block_bytes, blocks=1)
        measured = state.storage_cost_measured(0, 0)
        _, formula, _ = storage_cost_formula(8 * block_bytes, 64, 4)
        deltas.add(round(measured - formula, 6))
    assert len(deltas) == 1  # constant serialization overhead, independent of L


def test_storage_cost_measured_of_an_erased_record_is_a_lookup_error():
    # a peer in range with no record is missing data, not a bad index
    state, _ = make_chain(n=8, m=4, blocks=1)
    state.erase_peer_record(0, 3)
    with pytest.raises(LookupError) as info:
        state.storage_cost_measured(3, 0)
    assert not isinstance(info.value, SlotError)


def test_records_are_replaced_not_edited():
    state, _ = make_chain(n=8, m=4, blocks=1)
    rec = state.records[0][0]
    for field in ("share", "fragment"):
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    # perfbench's hash-out-of-range probe sets an attribute that no reader uses
    rec.hash_share = Share(1, 2)
    assert (rec.fragment, rec.share) == tuple(rec) and rec == state.records[0][0]
    assert rec._replace(share=Share(1, 2)) != rec


def test_snapshot_round_trip(tmp_path):
    state, _ = make_chain(n=8, m=4, blocks=3, seed=12)
    path = tmp_path / "chain.jsonl"
    snapshot_save(state, path)
    loaded = snapshot_load(path)
    assert loaded.payloads == state.payloads
    assert loaded.hashes == state.hashes
    for t in range(3):
        for peer in range(8):
            assert loaded.records[t][peer] == state.records[t][peer]
    path2 = tmp_path / "chain2.jsonl"
    snapshot_save(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    # a config line that still carries the seed ChainConfig once had loads the same
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "seed": 12}, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    assert snapshot_load(path).records == state.records


def test_snapshot_of_a_pinned_chain_has_pinned_bytes_and_loads_back(tmp_path):
    # a change to the file's bytes must come with a new SNAPSHOT_FORMAT
    state, _ = make_chain(n=8, m=4, block_bytes=16, blocks=3, seed=12)
    path = tmp_path / "chain.jsonl"
    snapshot_save(state, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "faf1be2eee758fefc88d872ee451e27b396638151efb74fc68a993781651cacd"
    assert json.loads(path.read_text().splitlines()[0])["format"] == SNAPSHOT_FORMAT == 1
    loaded = snapshot_load(path)
    assert (loaded.payloads, loaded.hashes, loaded.records) == \
        (state.payloads, state.hashes, state.records)


@pytest.mark.parametrize("version,found", [
    (None, "no format (unversioned)"), (0, "format 0"), (2, "format 2"), ("1", "format '1'"),
    (True, "format True"), (1.0, "format 1.0"),
], ids=["missing", "older", "newer", "str", "bool", "float"])
def test_snapshot_load_rejects_another_format_before_any_record(tmp_path, version, found):
    state, _ = make_chain(n=8, m=4, blocks=1, seed=12)
    path = tmp_path / "chain.jsonl"
    snapshot_save(state, path)
    header = json.loads(path.read_text().splitlines()[0])
    if version is None:
        del header["format"]
    else:
        header["format"] = version
    # a record the loader would refuse, so the error shows it read no record
    path.write_text(json.dumps(header) + "\n" + '{"type": "record"}\n')
    with pytest.raises(SnapshotError, match=rf"snapshot has {re.escape(found)}; "
                                            rf"this version reads format 1$"):
        snapshot_load(path)


@pytest.mark.parametrize("edit", [
    lambda rec: rec.pop("share"),
    lambda rec: rec.pop("peer"),
    lambda rec: rec.update(t=3),
    lambda rec: rec.update(t=-1),
    lambda rec: rec.update(peer=8),
    lambda rec: rec.update(peer=-1),
    lambda rec: rec.update(share=[1, 2, 3]),
    lambda rec: rec.update(share=5),
    lambda rec: rec.update(share=["1", 2]),
    lambda rec: rec.update(type="peer"),
    lambda rec: rec.update(fragment="zz"),
    lambda rec: rec.update(fragment=5),
    lambda rec: rec.update(fragment="00"),
], ids=["missing_field", "missing_peer", "undeclared_slot", "negative_slot",
        "peer_past_n", "negative_peer", "share_triple", "share_scalar",
        "share_not_int", "unknown_type", "fragment_not_hex", "fragment_not_str",
        "fragment_wrong_length"])
def test_snapshot_load_rejects_malformed_record(tmp_path, edit):
    _load_with_edited_record(tmp_path, edit)


def _load_with_edited_record(tmp_path, edit, **chain):
    _load_with_edited_line(tmp_path, 2, edit, **chain)  # config, slot 0, then its first record


def _load_with_edited_line(tmp_path, i, edit, m=4, hash_width=64):
    state, _ = make_chain(n=8, m=m, blocks=3, seed=12, hash_width=hash_width)
    path = tmp_path / "chain.jsonl"
    snapshot_save(state, path)
    lines = path.read_text().splitlines()
    line = json.loads(lines[i])
    edit(line)
    lines[i] = json.dumps(line)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SnapshotError):
        snapshot_load(path)


# the one share carries the key and the previous hash; each case widens one
# part of that secret, so the field the loader checks against follows it.
# Its x is drawn below 2^width, so x = 2^width is refused though it is in the field.
@pytest.mark.parametrize("m,hash_width", [(8, 64), (4, 128)],
                         ids=["key_share", "hash_share"])
@pytest.mark.parametrize("point", [
    lambda p, w, y: [0, y],
    lambda p, w, y: [-1, y],
    lambda p, w, y: [p, y],
    lambda p, w, y: [2**w, y],
    lambda p, w, y: [p - 1, y],
    lambda p, w, y: [1, -1],
    lambda p, w, y: [1, p],
], ids=["x_zero", "x_negative", "x_modulus", "x_width", "x_below_modulus", "y_negative",
        "y_modulus"])
def test_snapshot_load_rejects_share_outside_field(tmp_path, m, hash_width, point):
    p = share_field(m, hash_width).modulus
    assert p > share_field(4, 64).modulus > 2**64
    _load_with_edited_record(
        tmp_path, lambda rec: rec.update(share=point(p, hash_width, rec["share"][1])),
        m=m, hash_width=hash_width)


def test_snapshot_load_keeps_a_share_at_the_largest_width_bit_x(tmp_path):
    state, _ = make_chain(n=8, m=4, blocks=1, seed=12)
    path = tmp_path / "chain.jsonl"
    snapshot_save(state, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["share"][0] = 2**64 - 1
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    assert snapshot_load(path).records[0][rec["peer"]].share.x == 2**64 - 1


def test_snapshot_load_rejects_key_share_of_the_byte_per_digit_encoding(tmp_path):
    # at m = 4 the key was once 8 bytes; shared with an 8-byte hash in a
    # 129-bit field, such a share has a y far past the 81-bit field
    _load_with_edited_record(tmp_path, lambda rec: rec.update(share=[3, 2**128 + 5]))


def test_snapshot_load_rejects_record_with_separate_key_and_hash_shares(tmp_path):
    def two_shares(rec):
        x, y = rec.pop("share")
        rec.update(key_share=[x, y >> 64], hash_share=[x, y % 2**64])

    _load_with_edited_record(tmp_path, two_shares)


@pytest.mark.parametrize("edit", [
    lambda h: h.update(n="8"),
    lambda h: h.update(n=8.0),
    lambda h: h.update(n=True),
    lambda h: h.update(block_bytes=None),
    lambda h: h.update(hash_width="64"),
    lambda h: h.update(n=6),
    lambda h: h.update(hash_width=300),
], ids=["n_str", "n_float", "n_bool", "block_bytes_null", "hash_width_str",
        "n_not_multiple_of_m", "hash_width_too_wide"])
def test_snapshot_load_rejects_malformed_config(tmp_path, edit):
    _load_with_edited_line(tmp_path, 0, edit)


@pytest.mark.parametrize("edit", [
    lambda rec: rec.update(t=7),
    lambda rec: rec.update(t=1.0),
    lambda rec: rec.update(payload=rec["payload"][:-2]),
    lambda rec: rec.update(payload=rec["payload"] + "00"),
], ids=["t_not_position", "t_float", "payload_short", "payload_long"])
def test_snapshot_load_rejects_malformed_slot(tmp_path, edit):
    _load_with_edited_line(tmp_path, 1, edit)


@pytest.fixture(scope="module")
def snapshot_lines(tmp_path_factory):
    """The lines of a saved (8, 4, 16) chain of three blocks."""
    state, _ = make_chain(n=8, m=4, block_bytes=16, blocks=3, seed=12)
    path = tmp_path_factory.mktemp("snapshot") / "chain.jsonl"
    snapshot_save(state, path)
    return tuple(path.read_text().splitlines())


JSON_VALUES = st.one_of(st.integers(-2**64, 2**64), st.text(max_size=8), st.floats(),
                        st.booleans(), st.none(),
                        st.lists(st.integers(-2**64, 2**64), max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_snapshot_load_of_a_mutated_line_loads_or_raises_snapshot_error(
        tmp_path_factory, snapshot_lines, data):
    lines = list(snapshot_lines)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    mutation = data.draw(st.sampled_from(["drop", "set", "truncate"]), label="mutation")
    if mutation == "truncate":
        lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i]) - 1), label="length")]
    else:
        line = json.loads(lines[i])
        key = data.draw(st.sampled_from(sorted(line)), label="key")
        if mutation == "drop":
            del line[key]
        else:
            line[key] = data.draw(JSON_VALUES, label="value")
        lines[i] = json.dumps(line)
    path = tmp_path_factory.getbasetemp() / "mutated_chain.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        assert isinstance(snapshot_load(path), ChainState)
    except SnapshotError:
        pass


@pytest.mark.parametrize("line", ['{"type": "slot"', '[1, 2]', '{"type": "slot", "t": 0}'],
                         ids=["not_json", "not_an_object", "slot_missing_field"])
def test_snapshot_load_rejects_malformed_line(tmp_path, line):
    state, _ = make_chain(n=8, m=4, blocks=1, seed=12)
    path = tmp_path / "chain.jsonl"
    snapshot_save(state, path)
    header = path.read_text().splitlines()[0]
    path.write_text(header + "\n" + line + "\n")
    with pytest.raises(SnapshotError):
        snapshot_load(path)


def test_allocation_over_a_period_keeps_no_schedule():
    # a per-residue peer -> zone cache once held ~2n^2/m entries here: 25.9 MiB
    state = ChainState(ChainConfig(n=1024, m=4, block_bytes=4))
    tracemalloc.start()
    try:
        for t in range(state.layout.period):
            state.allocation(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    # the decode memo is the one attribute besides the chain itself
    assert set(vars(state)) == {"config", "layout", "payloads", "hashes", "records", "_decoded"}


def test_hash_field_is_injective_for_width():
    f = hash_field(64)
    assert f.modulus > 2**64
    assert Field(f.modulus) == f


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([60, 64]), st.lists(st.integers(), min_size=4, max_size=4))
def test_zone_decode_returns_for_any_share_values(width, ys):
    state, _ = make_chain(n=8, m=4, blocks=1, hash_width=width)
    for peer, y in zip(state.allocation(0)[0], ys):
        rec = state.records[0][peer]
        state.records[0][peer] = rec._replace(share=Share(rec.share.x, y))
    block, prev_hash = state.zone_decode(0, 0)
    assert block is None or len(block) == 16
    assert prev_hash is None or 0 <= prev_hash < 2**width


def test_zone_decode_of_a_fragment_of_another_length_reads_no_block():
    # decrypt's typed error is a ValueError, which the decode catches: the zone reads
    # no block, and its shares still give the previous hash
    state, _ = make_chain(n=8, m=4, blocks=1)
    peer = state.allocation(0)[0][0]
    rec = state.records[0][peer]
    state.records[0][peer] = rec._replace(fragment=rec.fragment + b"\x00")
    assert state.zone_decode(0, 0) == (None, state.hashes[0])
