"""Private-key block cipher over a uniformly random rooted labeled tree.

A key is (tree, flip bits, peer assignment). The block is cut into m
positional fragments, one per tree node. Each non-root node stores its
fragment XOR its parent's fragment; the root stores the XOR of every
other codeword with its own fragment. A node's codeword is bit-flipped
when its flip bit is set, and peer i holds the codeword of the node it
is assigned to.
"""

from dataclasses import dataclass
from functools import reduce

from .errors import KeyDecodeError


@dataclass(frozen=True)
class RootedTree:
    """parents[i] is the parent of node i; parents[root] == root."""

    parents: tuple[int, ...]
    root: int

    @property
    def m(self) -> int:
        return len(self.parents)

    def __post_init__(self):
        m = len(self.parents)
        if not 0 <= self.root < m or self.parents[self.root] != self.root:
            raise ValueError("root must be its own parent")
        seen = 0
        for i in range(m):
            node, hops = i, 0
            while node != self.root:
                node = self.parents[node]
                hops += 1
                if hops > m:
                    raise ValueError("parent pointers contain a cycle")
            seen += 1
        if seen != m:
            raise ValueError("not all nodes reach the root")

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in range(self.m)]
        for i, p in enumerate(self.parents):
            if i != self.root:
                kids[p].append(i)
        return kids

    def subtree(self, node: int) -> set[int]:
        kids = self.children()
        out, stack = set(), [node]
        while stack:
            v = stack.pop()
            out.add(v)
            stack.extend(kids[v])
        return out

    def topological_order(self) -> list[int]:
        """Root first, every node after its parent."""
        kids = self.children()
        order, stack = [], [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(kids[v])
        return order


@dataclass(frozen=True)
class CipherKey:
    tree: RootedTree
    flips: tuple[int, ...]
    assignment: tuple[int, ...]  # peer i holds the codeword of node assignment[i]

    @property
    def m(self) -> int:
        return self.tree.m

    def __post_init__(self):
        m = self.tree.m
        if len(self.flips) != m or any(b not in (0, 1) for b in self.flips):
            raise ValueError("flips must be m bits")
        if sorted(self.assignment) != list(range(m)):
            raise ValueError("assignment must be a permutation of [m]")


def tree_from_prufer(seq, m: int, root: int) -> RootedTree:
    """Build the labeled tree of a Prufer sequence and orient it at root."""
    if m == 1:
        return RootedTree((0,), 0)
    seq = list(seq)
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    adj: list[list[int]] = [[] for _ in range(m)]

    def add_edge(a, b):
        adj[a].append(b)
        adj[b].append(a)

    import heapq

    leaves = [i for i in range(m) if degree[i] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        add_edge(leaf, v)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    add_edge(u, w)

    parents = [0] * m
    parents[root] = root
    stack, seen = [root], {root}
    while stack:
        v = stack.pop()
        for nb in adj[v]:
            if nb not in seen:
                seen.add(nb)
                parents[nb] = v
                stack.append(nb)
    return RootedTree(tuple(parents), root)


def prufer_sequence(tree: RootedTree) -> list[int]:
    """Canonical Prufer sequence of the underlying unrooted tree."""
    m = tree.m
    if m <= 2:
        return []
    adj: list[set[int]] = [set() for _ in range(m)]
    for i, p in enumerate(tree.parents):
        if i != tree.root:
            adj[i].add(p)
            adj[p].add(i)
    import heapq

    leaves = [i for i in range(m) if len(adj[i]) == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(m - 2):
        leaf = heapq.heappop(leaves)
        nb = adj[leaf].pop()
        adj[nb].discard(leaf)
        seq.append(nb)
        if len(adj[nb]) == 1:
            heapq.heappush(leaves, nb)
    return seq


def sample_tree(m: int, rng) -> RootedTree:
    """Uniform over the m^(m-1) rooted labeled trees."""
    if m < 1:
        raise ValueError("m must be >= 1")
    root = rng.randrange(m)
    if m <= 2:
        return tree_from_prufer([], m, root)
    seq = [rng.randrange(m) for _ in range(m - 2)]
    return tree_from_prufer(seq, m, root)


def sample_key(m: int, rng) -> CipherKey:
    """Uniform key: tree, i.i.d. fair flip bits, uniform peer assignment."""
    tree = sample_tree(m, rng)
    flips = tuple(rng.randrange(2) for _ in range(m))
    assignment = list(range(m))
    rng.shuffle(assignment)
    return CipherKey(tree, flips, tuple(assignment))


def encode_values(values, key: CipherKey, mask: int) -> list[int]:
    """Node-indexed codewords for node-indexed plaintext fragment values."""
    m, root = key.m, key.tree.root
    parents, flips = key.tree.parents, key.flips
    codes = [0] * m
    acc = values[root]
    for i in range(m):
        if i == root:
            continue
        c = values[i] ^ values[parents[i]]
        if flips[i]:
            c ^= mask
        codes[i] = c
        acc ^= c
    codes[root] = acc ^ mask if flips[root] else acc
    return codes


def decode_values(codes, key: CipherKey, mask: int) -> list[int]:
    """Invert encode_values; input and output are node-indexed."""
    m, root = key.m, key.tree.root
    flips = key.flips
    root_code = codes[root] ^ mask if flips[root] else codes[root]
    b_root = reduce(lambda a, j: a ^ codes[j],
                    (j for j in range(m) if j != root), root_code)
    plain = [0] * m
    plain[root] = b_root
    parents = key.tree.parents
    for i in key.tree.topological_order()[1:]:
        c = codes[i] ^ mask if flips[i] else codes[i]
        plain[i] = c ^ plain[parents[i]]
    return plain


def encrypt(block: bytes, key: CipherKey) -> list[bytes]:
    """Split block into m fragments and return peer-indexed codewords."""
    m = key.m
    if len(block) % m != 0:
        raise ValueError(f"block length {len(block)} not divisible by m={m}")
    fl = len(block) // m
    mask = (1 << (8 * fl)) - 1
    values = [int.from_bytes(block[i * fl:(i + 1) * fl], "big") for i in range(m)]
    codes = encode_values(values, key, mask)
    return [codes[key.assignment[i]].to_bytes(fl, "big") for i in range(m)]


def decrypt(fragments, key: CipherKey) -> bytes:
    """Invert encrypt given the m peer-indexed fragments."""
    fragments = list(fragments)
    m = key.m
    if len(fragments) != m:
        raise ValueError(f"expected {m} fragments, got {len(fragments)}")
    if len({len(f) for f in fragments}) != 1:
        raise ValueError("fragments must have equal lengths")
    fl = len(fragments[0])
    mask = (1 << (8 * fl)) - 1
    codes = [0] * m
    for peer, frag in enumerate(fragments):
        codes[key.assignment[peer]] = int.from_bytes(frag, "big")
    plain = decode_values(codes, key, mask)
    return b"".join(v.to_bytes(fl, "big") for v in plain)


def corruption_oracle(key: CipherKey, corrupted_peers, target_change) -> bool:
    """Whether rewriting only corrupted peers can alter the target nodes.

    Changing the plaintext of node i forces codeword rewrites in the whole
    subtree rooted at i, and any change at all forces a rewrite at the root.
    """
    target = set(target_change)
    if not target:
        return True
    required_nodes: set[int] = {key.tree.root}
    for node in target:
        required_nodes |= key.tree.subtree(node)
    corrupted = set(corrupted_peers)
    return all(peer in corrupted
               for peer, node in enumerate(key.assignment)
               if node in required_nodes)


def key_nbytes(m: int) -> int:
    """Serialized key size: prufer + root + flip bitmap + assignment."""
    return max(0, m - 2) + 1 + (m + 7) // 8 + m


def serialize_key(key: CipherKey) -> bytes:
    """Canonical byte layout: prufer sequence, root, flips, assignment."""
    m = key.m
    if m > 255:
        raise ValueError("serialization supports m <= 255")
    out = bytearray(prufer_sequence(key.tree))
    out.append(key.tree.root)
    bitmap = 0
    for i, b in enumerate(key.flips):
        bitmap |= b << i
    out += bitmap.to_bytes((m + 7) // 8, "little")
    out += bytes(key.assignment)
    return bytes(out)


def deserialize_key(data: bytes, m: int) -> CipherKey:
    if len(data) != key_nbytes(m):
        raise KeyDecodeError(f"expected {key_nbytes(m)} bytes for m={m}, got {len(data)}")
    plen = max(0, m - 2)
    seq = list(data[:plen])
    root = data[plen]
    if any(v >= m for v in seq) or root >= m:
        raise KeyDecodeError("node index out of range")
    fbytes = (m + 7) // 8
    bitmap = int.from_bytes(data[plen + 1:plen + 1 + fbytes], "little")
    if bitmap >> m:
        raise KeyDecodeError("stray bits in flip bitmap")
    flips = tuple((bitmap >> i) & 1 for i in range(m))
    assignment = tuple(data[plen + 1 + fbytes:])
    if sorted(assignment) != list(range(m)):
        raise KeyDecodeError("assignment is not a permutation")
    try:
        return CipherKey(tree_from_prufer(seq, m, root), flips, assignment)
    except (ValueError, IndexError) as exc:
        raise KeyDecodeError(str(exc)) from exc
