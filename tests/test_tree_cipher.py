import itertools
import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoned_ledger.adversary import enumerate_keys, zone_corruption_exact
from zoned_ledger.errors import ConfigurationError, KeyDecodeError
from zoned_ledger.tree_cipher import (CipherKey, RootedTree, corruption_oracle,
                                      decrypt, deserialize_key, encrypt, key_nbytes,
                                      key_space, prufer_sequence, sample_key, serialize_key,
                                      tree_from_prufer)


def all_rooted_trees(m):
    for seq in itertools.product(range(m), repeat=max(0, m - 2)):
        for root in range(m):
            yield tree_from_prufer(list(seq), m, root)


def reference_subtree(tree, node):
    """The nodes below and at node, by a search over rebuilt child lists."""
    kids = [[] for _ in range(tree.m)]
    for i, p in enumerate(tree.parents):
        if i != tree.root:
            kids[p].append(i)
    out, stack = set(), [node]
    while stack:
        v = stack.pop()
        out.add(v)
        stack.extend(kids[v])
    return out


def reference_corruption_oracle(key, corrupted_peers, target_change):
    """corruption_oracle as the union of the targets' subtrees and the root."""
    target = set(target_change)
    if not target:
        return True
    required = {key.tree.root}.union(*(reference_subtree(key.tree, v) for v in target))
    corrupted = set(corrupted_peers)
    return all(peer in corrupted
               for peer, node in enumerate(key.assignment) if node in required)


def encode_values(values, key, mask):
    """Node-indexed codewords for node-indexed plaintext fragment values, node by node:
    the reference for encrypt."""
    m, root = key.m, key.tree.root
    parents, flips = key.tree.parents, key.flips
    codes = [0] * m
    acc = values[root]
    for i in range(m):
        if i == root:
            continue
        c = values[i] ^ values[parents[i]]
        if flips >> i & 1:
            c ^= mask
        codes[i] = c
        acc ^= c
    codes[root] = acc ^ mask if flips >> root & 1 else acc
    return codes


def reference_encrypt(block, key):
    """encrypt with the block split anew and encoded node by node."""
    fl = len(block) // key.m
    values = [int.from_bytes(block[i * fl:(i + 1) * fl], "big") for i in range(key.m)]
    codes = encode_values(values, key, (1 << (8 * fl)) - 1)
    return [codes[node].to_bytes(fl, "big") for node in key.assignment]


def decode_values(codes, key, mask):
    """Invert encode_values, node-indexed in and out: the reference for decrypt.

    The root's plaintext comes first; every other node's is filled in along
    its path up to the nearest node already known.
    """
    m, root = key.m, key.tree.root
    parents, flips = key.tree.parents, key.flips
    root_code = codes[root] ^ mask if flips >> root & 1 else codes[root]
    plain = [None] * m
    plain[root] = reduce(lambda a, j: a ^ codes[j],
                         (j for j in range(m) if j != root), root_code)
    for node in range(m):
        path = []
        while plain[node] is None:
            path.append(node)
            node = parents[node]
        for v in reversed(path):
            c = codes[v] ^ mask if flips >> v & 1 else codes[v]
            plain[v] = c ^ plain[parents[v]]
    return plain


def reference_deserialize_key(data, m):
    """deserialize_key digit by digit, with the key built through its checks."""
    if len(data) != key_nbytes(m):
        raise KeyDecodeError(f"expected {key_nbytes(m)} bytes for m={m}, got {len(data)}")
    index = int.from_bytes(data, "big")
    if index >= key_space(m):
        raise KeyDecodeError(f"key index {index} is not below key_space({m})")
    ranks = []
    for base in range(1, m + 1):
        index, rank = divmod(index, base)
        ranks.append(rank)
    unplaced = list(range(m))
    assignment = tuple(unplaced.pop(rank) for rank in reversed(ranks))
    flips = index % 2**m
    index //= 2**m
    index, root = divmod(index, m)
    seq = [0] * max(0, m - 2)
    for i in range(len(seq) - 1, -1, -1):
        index, seq[i] = divmod(index, m)
    return CipherKey(tree_from_prufer(seq, m, root), flips, assignment)


@st.composite
def codec_cases(draw):
    """(m, fragment length, key bytes): m in 1..16, fragments of 0..64 bytes."""
    m = draw(st.integers(1, 16))
    index = draw(st.integers(0, key_space(m) - 1))
    return m, draw(st.integers(0, 64)), index.to_bytes(key_nbytes(m), "big")


@settings(max_examples=300, deadline=None)
@given(codec_cases(), st.data())
def test_encrypt_and_decrypt_match_the_node_by_node_reference(case, data):
    m, fl, key_bytes = case
    key = deserialize_key(key_bytes, m)
    assert key == reference_deserialize_key(key_bytes, m)
    mask = (1 << (8 * fl)) - 1
    block = data.draw(st.binary(min_size=m * fl, max_size=m * fl))
    fragments = encrypt(block, key)
    assert fragments == reference_encrypt(block, key)
    # any m fragments decrypt to something, not only encrypt's
    for frags in (fragments, data.draw(st.lists(st.binary(min_size=fl, max_size=fl),
                                                min_size=m, max_size=m))):
        node_codes = [0] * m
        for node, frag in zip(key.assignment, frags):
            node_codes[node] = int.from_bytes(frag, "big")
        assert decrypt(frags, key) == b"".join(
            v.to_bytes(fl, "big") for v in decode_values(node_codes, key, mask))
    assert decrypt(fragments, key) == block


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16).flatmap(lambda m: st.tuples(st.just(m), st.one_of(
    st.binary(max_size=20), st.binary(min_size=key_nbytes(m), max_size=key_nbytes(m)),
    st.integers(0, key_space(m) - 1).map(lambda i: i.to_bytes(key_nbytes(m), "big"))))))
def test_deserialize_key_matches_the_reference(m_data):
    m, data = m_data
    try:
        expected = reference_deserialize_key(data, m)
    except KeyDecodeError:
        with pytest.raises(KeyDecodeError):
            deserialize_key(data, m)
        return
    key = deserialize_key(data, m)
    assert key == expected
    assert type(key.flips) is int and type(key.assignment) is tuple


@pytest.mark.parametrize("m,expected", [(1, 1), (2, 2), (3, 9), (4, 64), (5, 625)])
def test_cayley_counts(m, expected):
    trees = {(t.parents, t.root) for t in all_rooted_trees(m)}
    assert len(trees) == expected == m ** (m - 1)


def test_sample_key_m1():
    key = sample_key(1, random.Random(0))
    assert key.tree == RootedTree((0,), 0)
    assert key.assignment == (0,)
    assert key.flips in (0, 1)


@pytest.mark.parametrize("m", [2, 3])
def test_tree_sampling_uniform(m):
    rng = random.Random(99)
    n = 100_000
    counts = Counter()
    for _ in range(n):
        t = sample_key(m, rng).tree
        counts[(t.parents, t.root)] += 1
    k = m ** (m - 1)
    assert len(counts) == k
    p = 1 / k
    tol = 3.5 * math.sqrt(p * (1 - p) / n)
    for c in counts.values():
        assert abs(c / n - p) <= tol


def test_encrypt_hand_example_m2():
    # path on 2 nodes, root = node 0, no flips, identity assignment
    key = CipherKey(RootedTree((0, 0), 0), 0, (0, 1))
    frags = encrypt(b"\xff\x00", key)
    assert frags[1] == b"\xff"  # B_1 xor B_0
    assert frags[0] == b"\x00"  # C~_1 xor B_0
    assert decrypt(frags, key) == b"\xff\x00"


def test_m1_flip_complements():
    key = CipherKey(RootedTree((0,), 0), 1, (0,))
    block = b"\xa5\x0f"
    assert encrypt(block, key) == [b"\x5a\xf0"]
    assert decrypt([b"\x5a\xf0"], key) == block


@pytest.mark.parametrize("m", [1, 2, 3, 6, 8, 16])
def test_round_trip_random(m):
    rng = random.Random(m)
    for _ in range(200):
        key = sample_key(m, rng)
        block = rng.randbytes(m * rng.randrange(1, 9))
        assert decrypt(encrypt(block, key), key) == block


def test_wrong_key_fails():
    rng = random.Random(17)
    m, wrong = 6, 0
    for _ in range(2000):
        key = sample_key(m, rng)
        other = sample_key(m, rng)
        if other == key:
            continue
        block = rng.randbytes(m * 4)
        if decrypt(encrypt(block, key), other) == block:
            wrong += 1
    assert wrong <= 2000 * 0.01


def test_block_length_must_divide():
    key = sample_key(3, random.Random(0))
    with pytest.raises(ValueError):
        encrypt(b"\x00" * 4, key)
    with pytest.raises(ValueError):
        decrypt([b"\x00", b"\x00"], key)
    with pytest.raises(ValueError):
        decrypt([b"\x00", b"\x00", b"\x00\x00"], key)


def test_key_space_size_at_least_2_to_m():
    for m in range(1, 6):
        key_count = m ** (m - 1) * 2**m * math.factorial(m)
        assert key_count >= 2**m


def test_corruption_oracle_trivial_cases():
    rng = random.Random(5)
    for m in (2, 4, 6):
        key = sample_key(m, rng)
        assert corruption_oracle(key, set(range(m)), {1})
        assert not corruption_oracle(key, set(), {0})
        assert corruption_oracle(key, set(), set())


def test_corruption_oracle_path_example():
    # path root -> a -> b (nodes 0 -> 1 -> 2), identity assignment
    key = CipherKey(RootedTree((0, 0, 1), 0), 0, (0, 1, 2))
    assert corruption_oracle(key, {2, 0}, {2})
    assert not corruption_oracle(key, {2}, {2})
    # altering the middle node drags its subtree {1, 2} plus the root
    assert corruption_oracle(key, {0, 1, 2}, {1})
    assert not corruption_oracle(key, {0, 1}, {1})


def test_corruption_oracle_matches_exhaustive_rewrite():
    # cross-check on the 3-node path: a rewrite confined to the corrupted
    # peers can flip fragment b (and only b) iff the oracle says so
    key = CipherKey(RootedTree((0, 0, 1), 0), 0b010, (0, 1, 2))
    block = b"\x13\x77\xc2"
    frags = encrypt(block, key)
    target = bytearray(block)
    target[2] ^= 0xFF
    target = bytes(target)

    def rewrite_reaches(corrupted):
        spaces = [range(256) if i in corrupted else [frags[i][0]] for i in range(3)]
        for combo in itertools.product(*spaces):
            if decrypt([bytes([v]) for v in combo], key) == target:
                return True
        return False

    assert corruption_oracle(key, {0, 2}, {2}) == rewrite_reaches({0, 2}) is True
    assert corruption_oracle(key, {2}, {2}) == rewrite_reaches({2}) is False


@given(st.integers(1, 16).flatmap(lambda m: st.tuples(
    st.just(m), st.randoms(use_true_random=False),
    st.sets(st.integers(0, m - 1)), st.sets(st.integers(0, m - 1)))))
def test_corruption_oracle_matches_subtree_reference(case):
    m, rng, corrupted, target = case
    key = sample_key(m, rng)
    assert corruption_oracle(key, corrupted, target) == \
        reference_corruption_oracle(key, corrupted, target)


@pytest.mark.parametrize("m", range(1, 7))
def test_zone_corruption_exact_matches_tree_enumeration(m):
    # the assignment and the corrupted peers are uniform, so the corrupted
    # nodes are a uniform c-subset: count the (tree, subset) pairs that
    # cover subtree(0) and the root, over all m^(m-1) rooted trees
    required = [reference_subtree(t, 0) | {t.root} for t in all_rooted_trees(m)]
    for c in range(1, m + 1):
        subsets = [set(s) for s in itertools.combinations(range(m), c)]
        hits = sum(need <= s for need in required for s in subsets)
        exact = Fraction(hits, len(required) * len(subsets))
        assert zone_corruption_exact(m, c) == float(exact)


@pytest.mark.parametrize("parents,root", [((0, 2), 0), ((0, -2), 0), ((0, 2, 1), 0),
                                          ((1, 0), 0), ((0,), 1)])
def test_rooted_tree_rejects_bad_parents(parents, root):
    with pytest.raises(ValueError):
        RootedTree(parents, root)


@pytest.mark.parametrize("flips,assignment", [((0, 1, 0), (0, 1, 2)), (True, (0, 1, 2)),
                                               (-1, (0, 1, 2)), (1 << 3, (0, 1, 2)),
                                               (0, (0, 1, 1)), (0, (0, 1, 3)), (0, (0, 1))])
def test_cipher_key_rejects_bad_flips_or_assignment(flips, assignment):
    with pytest.raises(ValueError):
        CipherKey(RootedTree((0, 0, 1), 0), flips, assignment)


def reference_is_rooted_tree(parents, root):
    """The O(m * depth) check: every node's walk up reaches root within m hops."""
    m = len(parents)
    if not 0 <= root < m or parents[root] != root:
        return False
    if min(parents) < 0 or max(parents) >= m:
        return False
    for i in range(m):
        node, hops = i, 0
        while node != root:
            node = parents[node]
            hops += 1
            if hops > m:
                return False
    return True


@given(st.integers(1, 8).flatmap(lambda m: st.tuples(
    st.lists(st.integers(-1, m), min_size=m, max_size=m).map(tuple),
    st.integers(-1, m))))
def test_rooted_tree_accepts_what_the_reference_walk_accepts(case):
    parents, root = case
    try:
        RootedTree(parents, root)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == reference_is_rooted_tree(parents, root)


@pytest.mark.parametrize("m", range(1, 17))
def test_sample_key_decodes_one_randrange_index(m):
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        index = theirs.randrange(key_space(m))
        assert sample_key(m, ours) == reference_deserialize_key(_index_bytes(index, m), m)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("m", range(1, 5))
def test_every_index_is_a_distinct_key_of_enumerate_keys(m):
    # the codec is a bijection onto all keys, so a uniform index is a uniform key
    keys = [deserialize_key(_index_bytes(index, m), m) for index in range(key_space(m))]
    assert len(set(keys)) == len(keys) == key_space(m)
    assert set(keys) == set(enumerate_keys(m))


def test_statistical_security_of_missing_fragment():
    # with 1-bit fragments on m=3, knowing the plaintext and all but one
    # codeword never pins the missing codeword beyond probability 1/2
    m, mask = 3, 1
    keys = [CipherKey(t, flips, assignment)
            for t in all_rooted_trees(m)
            for flips in range(1 << m)
            for assignment in itertools.permutations(range(m))]
    for block in itertools.product((0, 1), repeat=m):
        for j in range(m):
            groups = Counter()
            joint = Counter()
            for key in keys:
                codes = encode_values(list(block), key, mask)
                by_peer = tuple(codes[key.assignment[p]] for p in range(m))
                rest = by_peer[:j] + by_peer[j + 1:]
                groups[rest] += 1
                joint[(rest, by_peer[j])] += 1
            for (rest, _), cnt in joint.items():
                assert cnt / groups[rest] <= 0.5 + 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_serialize_round_trip(m):
    rng = random.Random(m * 7)
    for _ in range(200):
        key = sample_key(m, rng)
        data = serialize_key(key)
        assert len(data) == key_nbytes(m)
        assert deserialize_key(data, m) == key


def test_encrypt_of_a_block_it_split_before_matches_the_reference():
    # encrypt keeps the values of the last bytes block it split, at its m: a hit needs
    # an equal block and the same m (one block at m = 8 then 4 would reuse eight
    # 6-byte values for four 12-byte fragments), and a bytearray is never kept
    rng = random.Random(5)
    keys = {m: sample_key(m, rng) for m in (2, 4, 8)}
    a, b = bytes(range(7, 55)), bytes(range(100, 148))
    for block, m in [(a, 8), (a, 4), (a, 2), (a, 8), (b, 8), (a, 8), (b, 8),
                     (bytes(bytearray(b)), 8), (b[:24] + b[24:], 8), (memoryview(b), 4)]:
        assert encrypt(block, keys[m]) == reference_encrypt(block, keys[m])
    mutable = bytearray(a)
    for i in range(3):  # changed in place between calls
        mutable[i] ^= 0xFF
        assert encrypt(mutable, keys[4]) == reference_encrypt(bytes(mutable), keys[4])


@pytest.mark.parametrize("m", range(1, 17))
def test_serialize_key_of_a_drawn_key_matches_the_full_encoder(m):
    # serialize_key writes the key sample_key drew last from the index it drew; an
    # equal copy, and any other key, go through the full encoder
    rng = random.Random(m)
    for _ in range(20):
        key = sample_key(m, rng)
        data = serialize_key(key)
        assert data == serialize_key(CipherKey(*key))
        assert deserialize_key(data, m) == key
        other = _index_bytes((int.from_bytes(data, "big") + 1) % key_space(m), m)
        assert serialize_key(deserialize_key(other, m)) == other


def test_slots_stay_exact_under_threads():
    # each slot is one tuple, read and replaced whole, so no thread switch pairs one
    # thread's key with another's index, or one block with another's values; four
    # threads on a short switch interval, bounded in time
    failures = []

    def work(seed):
        rng = random.Random(seed)
        block = bytes(rng.getrandbits(8) for _ in range(48))
        try:
            for _ in range(300):
                key = sample_key(rng.choice((2, 4, 6, 8)), rng)
                if (serialize_key(key) != serialize_key(CipherKey(*key))
                        or encrypt(block, key) != reference_encrypt(block, key)):
                    failures.append(seed)
        except Exception as exc:  # a thread's exception would otherwise be only a warning
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_serialize_truncated_rejected():
    key = sample_key(4, random.Random(1))
    data = serialize_key(key)
    with pytest.raises(KeyDecodeError):
        deserialize_key(data[:-1], 4)
    with pytest.raises(KeyDecodeError):
        deserialize_key(data + b"\x00", 4)


def _edges(tree):
    return frozenset(frozenset((c, p)) for c, p in enumerate(tree.parents) if c != tree.root)


def test_prufer_round_trip():
    # every sequence, with every root up to m = 6 (at m = 7, 823,543 rooted
    # trees are too many, so each sequence gets one root, cycling); the
    # trees are m^(m-2) distinct unrooted trees, which by Cayley's formula
    # is all of them, so tree -> sequence -> tree holds for every tree too
    for m in range(1, 8):
        edge_sets = set()
        for i, seq in enumerate(itertools.product(range(m), repeat=max(0, m - 2))):
            unrooted = _edges(tree_from_prufer(seq, m, m - 1))
            for root in range(m) if m < 7 else [i % m]:
                tree = tree_from_prufer(seq, m, root)
                assert tree.root == root and _edges(tree) == unrooted
                assert prufer_sequence(tree) == list(seq)
                assert tree_from_prufer(prufer_sequence(tree), m, root) == tree
            edge_sets.add(unrooted)
        assert len(edge_sets) == m ** max(0, m - 2)


@pytest.mark.parametrize("seq,m,root", [([3], 3, 0), ([0, 0], 3, 0), ([], 3, 0),
                                        ([-1], 3, 0), ([0], 3, 3), ([0], 3, -1)])
def test_tree_from_prufer_rejects_bad_input(seq, m, root):
    with pytest.raises(ValueError):
        tree_from_prufer(seq, m, root)


@pytest.mark.parametrize("m,nbytes", [(1, 1), (2, 1), (4, 2), (6, 4), (8, 6), (16, 16)])
def test_key_size_is_the_key_entropy_rounded_up(m, nbytes):
    assert key_space(m) == m ** (m - 1) * 2**m * math.factorial(m)
    assert key_nbytes(m) == nbytes
    assert 256 ** (nbytes - 1) < key_space(m) <= 256**nbytes


def test_key_space_rejects_empty_zone():
    with pytest.raises(ConfigurationError):
        key_space(0)


def _index_bytes(index, m):
    return index.to_bytes(key_nbytes(m), "big")


@given(st.integers(1, 16).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, key_space(m) - 1))))
def test_every_index_below_key_space_is_a_key(m_index):
    m, index = m_index
    key = deserialize_key(_index_bytes(index, m), m)
    assert key.m == m
    assert int.from_bytes(serialize_key(key), "big") == index


@pytest.mark.parametrize("m", range(1, 17))
@pytest.mark.parametrize("past", [0, 1])
def test_index_at_or_past_key_space_rejected(m, past):
    with pytest.raises(KeyDecodeError):
        deserialize_key(_index_bytes(key_space(m) + past, m), m)


def revalidated(key):
    """key rebuilt through the checks of RootedTree and CipherKey, which raise if it is malformed."""
    return CipherKey(RootedTree(*key.tree), key.flips, key.assignment)


@pytest.mark.parametrize("m", range(1, 5))
def test_every_decoded_key_passes_the_checks_it_skips(m):
    for index in range(key_space(m)):
        key = deserialize_key(_index_bytes(index, m), m)
        assert type(key) is CipherKey and type(key.tree) is RootedTree
        assert revalidated(key) == key


@given(st.integers(5, 16).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, key_space(m) - 1))))
def test_decoded_keys_pass_the_checks_they_skip(m_index):
    m, index = m_index
    key = deserialize_key(_index_bytes(index, m), m)
    assert revalidated(key) == key


@pytest.mark.parametrize("m", range(1, 17))
def test_sampled_keys_pass_the_checks_they_skip(m):
    rng = random.Random(m)
    for _ in range(200):
        key = sample_key(m, rng)
        assert type(key) is CipherKey and type(key.tree) is RootedTree
        assert revalidated(key) == key


@given(st.integers(1, 16).flatmap(lambda m: st.tuples(st.just(m), st.one_of(
    st.binary(max_size=20), st.binary(min_size=key_nbytes(m), max_size=key_nbytes(m))))))
def test_arbitrary_bytes_give_a_key_or_key_decode_error(m_data):
    m, data = m_data
    try:
        key = deserialize_key(data, m)
    except KeyDecodeError:
        return
    assert isinstance(key, CipherKey) and key.m == m
    assert serialize_key(key) == data


# key bytes, and the fragments encrypt gives for bytes(range(48)) under their key; these
# are the bytes of a saved chain, so a change here makes old snapshots unreadable
CODEC_PINS = [
    (4, "2f20", "c3c3c3c3cbcbcbcbf3f3f3f33c3d3e3f30313233040506070c0c0c0c141414141c1c1c1c"
                "d7d7d7d7c7c7c7c7c7c7c7c7"),
    (8, "12976868edcd", "1e1e1a1a0606f7f6c5c4d3d20a0a0e0e0a0ac7c7c7c7c7c734340c0c0c0c1e1e1212"
                        "16163a3a06060a0ad5d5d1d1d5d5"),
    (16, "00eb014340f3ac7dddbca257ee27aae9", "d6d0d6e7e7e7070503e8eeec36363222222e2e2a2a0b0937"
                                             "fcfaf8e3ead9f9e5e5fcfaf80a0a0e0c0c0c2838382b3537"),
]


@pytest.mark.parametrize("m,key_hex,fragments_hex", CODEC_PINS, ids=[4, 8, 16])
def test_pinned_key_bytes_give_pinned_fragments(m, key_hex, fragments_hex):
    data = bytes.fromhex(key_hex)
    key = deserialize_key(data, m)
    assert serialize_key(key) == data
    assert b"".join(encrypt(bytes(range(48)), key)).hex() == fragments_hex
