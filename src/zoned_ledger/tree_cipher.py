"""Private-key block cipher over a uniformly random rooted labeled tree.

A key is (tree, flip bits, peer assignment). The block is cut into m
positional fragments, one per tree node. Each non-root node stores its
fragment XOR its parent's fragment; the root stores the XOR of every
other codeword with its own fragment. A node's codeword is bit-flipped
when its flip bit is set, and peer i holds the codeword of the node it
is assigned to. A key serializes to its index among the key_space(m)
keys, in the fewest bytes that hold every index.
"""

import math
from collections import namedtuple
from functools import cache, reduce
from operator import xor

from .errors import ConfigurationError, KeyDecodeError
from .field import randbelow_list


class RootedTree(namedtuple("RootedTree", "parents root")):
    """parents[i] is the parent of node i; parents[root] == root."""

    __slots__ = ()

    def __new__(cls, parents, root):
        m = len(parents)
        if not 0 <= root < m or parents[root] != root:
            raise ConfigurationError("root must be its own parent")
        if min(parents) < 0 or max(parents) >= m:
            raise ConfigurationError("parent pointers must name nodes")
        # walk[v] is the first walk up the parent pointers to pass v. A node an
        # earlier walk passed reaches the root, so walk i stops there, or at a node
        # it passed itself, which closes a cycle. Each node is walked once.
        walk = [-1] * m
        walk[root] = m
        for i in range(m):
            node = i
            while walk[node] < 0:
                walk[node] = i
                node = parents[node]
            if walk[node] == i:
                raise ConfigurationError("parent pointers contain a cycle")
        return super().__new__(cls, parents, root)

    @property
    def m(self) -> int:
        return len(self.parents)


class CipherKey(namedtuple("CipherKey", "tree flips assignment")):
    """assignment[i] is the node whose codeword peer i holds."""

    __slots__ = ()

    def __new__(cls, tree: RootedTree, flips, assignment):
        m = tree.m
        if len(flips) != m or any(b not in (0, 1) for b in flips):
            raise ConfigurationError("flips must be m bits")
        if sorted(assignment) != list(range(m)):
            raise ConfigurationError("assignment must be a permutation of [m]")
        return super().__new__(cls, tree, flips, assignment)

    @property
    def m(self) -> int:
        return self.tree.m


def _reroot(parents: list[int], node: int) -> None:
    """Make node the root in place by reversing its path to the old root."""
    prev = node
    while parents[node] != node:
        parents[node], prev, node = prev, node, parents[node]
    parents[node] = prev


def tree_from_prufer(seq, m: int, root: int) -> RootedTree:
    """Build the labeled tree of a Prufer sequence and orient it at root.

    The input is checked here, where it enters; the tree is then built
    without RootedTree's cycle walk, because every sequence of m-2
    digits below m is the sequence of a tree.
    """
    if m < 1:
        raise ConfigurationError(f"zone size must be >= 1, got m={m}")
    seq = list(seq)
    if len(seq) != max(0, m - 2) or any(not 0 <= v < m for v in seq + [root]):
        raise ConfigurationError(f"no tree on {m} nodes has Prufer sequence {seq} and root {root}")
    return _prufer_tree(seq, m, root)


def _prufer_tree(seq, m: int, root: int) -> RootedTree:
    """tree_from_prufer for digits and root already known to be below m.

    Linear time: the smallest leaf is tracked with a forward pointer, and
    a node that becomes a leaf below the pointer is removed at once.
    The tree comes out rooted at m-1, the node never removed.
    """
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    ptr = degree.index(1)
    leaf = ptr
    parents = [m - 1] * m
    for v in seq:
        parents[leaf] = v
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr = degree.index(1, ptr + 1)
            leaf = ptr
    _reroot(parents, root)
    return RootedTree._make((tuple(parents), root))


def prufer_sequence(tree: RootedTree) -> list[int]:
    """Canonical Prufer sequence of the underlying unrooted tree.

    The same linear pointer walk as tree_from_prufer, over the tree
    re-rooted at m-1, where each removed leaf's neighbour is its parent.
    """
    m = tree.m
    if m <= 2:
        return []
    parents = list(tree.parents)
    _reroot(parents, m - 1)
    degree = [1] * (m - 1) + [0]
    for i in range(m - 1):
        degree[parents[i]] += 1
    seq = []
    ptr = degree.index(1)
    leaf = ptr
    for _ in range(m - 2):
        v = parents[leaf]
        seq.append(v)
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr = degree.index(1, ptr + 1)
            leaf = ptr
    return seq


def sample_tree(m: int, rng) -> RootedTree:
    """Uniform over the m^(m-1) rooted labeled trees: a root, then m-2 Prufer digits."""
    if m < 1:
        raise ConfigurationError(f"zone size must be >= 1, got m={m}")
    draws = randbelow_list(rng.getrandbits, m, max(1, m - 1))  # the root, then the digits
    return _prufer_tree(draws[1:], m, draws[0])


def sample_key(m: int, rng) -> CipherKey:
    """Uniform key: tree, i.i.d. fair flip bits, uniform peer assignment.

    The rng draws are those of m calls rng.randrange(2) and then
    rng.shuffle(list(range(m))), bit for bit (see field.randbelow_list). The
    key skips CipherKey's checks: the flips are 0/1 draws and the
    assignment is a shuffle of range(m).
    """
    tree = sample_tree(m, rng)
    getrandbits = rng.getrandbits
    flips = tuple(randbelow_list(getrandbits, 2, m))
    assignment = list(range(m))
    for i in range(m - 1, 0, -1):
        # randrange(i + 1)'s rejection loop, inlined: the bound changes on
        # every draw, so randbelow_list's run of one bound does not fit
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        assignment[i], assignment[j] = assignment[j], assignment[i]
    return CipherKey._make((tree, flips, tuple(assignment)))


def encrypt(block: bytes, key: CipherKey) -> list[bytes]:
    """Split block into m fragments and return peer-indexed codewords.

    A node's codeword is its fragment XOR its parent's, flipped by its
    flip bit; the root's own term is then 0 or the flip mask, so the
    root's codeword is its fragment XOR every node's term.
    """
    m = key.m
    if len(block) % m != 0:
        raise ConfigurationError(f"block length {len(block)} not divisible by m={m}")
    fl = len(block) // m
    mask = (1 << (8 * fl)) - 1
    values = [int.from_bytes(block[i * fl:(i + 1) * fl], "big") for i in range(m)]
    codes = [v ^ values[p] ^ mask if f else v ^ values[p]
             for v, p, f in zip(values, key.tree.parents, key.flips)]
    root = key.tree.root
    codes[root] = reduce(xor, codes, values[root])
    return [codes[node].to_bytes(fl, "big") for node in key.assignment]


def decrypt(fragments, key: CipherKey) -> bytes:
    """Invert encrypt given the m peer-indexed fragments.

    The root's plaintext is the XOR of every codeword, unflipped by the
    root's flip bit; every other node's is filled in along its path up
    to the nearest node already known.
    """
    fragments = list(fragments)
    m = key.m
    if len(fragments) != m:
        raise ConfigurationError(f"expected {m} fragments, got {len(fragments)}")
    if len({len(f) for f in fragments}) != 1:
        raise ConfigurationError("fragments must have equal lengths")
    fl = len(fragments[0])
    mask = (1 << (8 * fl)) - 1
    parents, root, flips = key.tree.parents, key.tree.root, key.flips
    codes = [0] * m
    for node, frag in zip(key.assignment, fragments):
        codes[node] = int.from_bytes(frag, "big")
    plain = [None] * m
    plain[root] = reduce(xor, codes, mask if flips[root] else 0)
    for node in range(m):
        path = []
        while plain[node] is None:
            path.append(node)
            node = parents[node]
        for v in reversed(path):
            c = codes[v] ^ plain[parents[v]]
            plain[v] = c ^ mask if flips[v] else c
    return b"".join([v.to_bytes(fl, "big") for v in plain])


def corruption_oracle(key: CipherKey, corrupted_peers, target_change) -> bool:
    """Whether rewriting only corrupted peers can alter the target nodes.

    Changing the plaintext of node i forces codeword rewrites in the whole
    subtree rooted at i, and any change at all forces a rewrite at the root.
    So a node is required iff it is the root or its walk up the parent
    pointers meets a target node.
    """
    target = set(target_change)
    if not target:
        return True
    corrupted = set(corrupted_peers)
    parents, root = key.tree.parents, key.tree.root
    for peer, node in enumerate(key.assignment):
        if peer in corrupted:
            continue
        if node == root:
            return False
        while node not in target and node != root:
            node = parents[node]
        if node in target:
            return False
    return True


@cache
def key_space(m: int) -> int:
    """Number of keys for zone size m: m^(m-1) rooted trees, 2^m flips, m! assignments."""
    if m < 1:
        raise ConfigurationError(f"zone size must be >= 1, got m={m}")
    return m ** (m - 1) * 2 ** m * math.factorial(m)


@cache
def key_nbytes(m: int) -> int:
    """Serialized key size: the bytes of the largest key index, key_space(m) - 1."""
    return ((key_space(m) - 1).bit_length() + 7) // 8


def serialize_key(key: CipherKey) -> bytes:
    """The key's index below key_space(m), as key_nbytes(m) big-endian bytes.

    The index is one mixed-radix integer, most significant first: the
    m-2 Prufer digits and the root in base m, the m flip bits (flip i is
    bit i), then the Lehmer code of the assignment (digit i, in base
    m - i, is the rank of assignment[i] among assignment[i:]). Every
    index below key_space(m) is a key, so the bytes carry no redundancy.
    """
    m = key.m
    index = 0
    for v in prufer_sequence(key.tree):
        index = index * m + v
    index = index * m + key.tree.root
    for bit in reversed(key.flips):
        index = index << 1 | bit
    unplaced = list(range(m))
    for node in key.assignment:
        rank = unplaced.index(node)
        index = index * len(unplaced) + rank
        del unplaced[rank]
    return index.to_bytes(key_nbytes(m), "big")


def deserialize_key(data: bytes, m: int) -> CipherKey:
    """Invert serialize_key.

    Raises KeyDecodeError unless data is key_nbytes(m) bytes holding an
    index below key_space(m); every such index decodes to a key. That
    check is the only one: each digit is a remainder below its base, so
    the tree and the key are built without RootedTree's and CipherKey's
    checks.
    """
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
    assignment = tuple([unplaced.pop(rank) for rank in reversed(ranks)])
    flips = tuple([(index >> i) & 1 for i in range(m)])
    index >>= m
    index, root = divmod(index, m)
    seq = [0] * max(0, m - 2)
    for i in range(len(seq) - 1, -1, -1):
        index, seq[i] = divmod(index, m)
    return CipherKey._make((_prufer_tree(seq, m, root), flips, assignment))
