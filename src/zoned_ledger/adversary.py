"""Adversary and availability experiments.

Monte Carlo trials for hash-share corruption, zone corruption under the
tree cipher, joint corruption across zones, exposure growth under the
cyclic schedule and recovery availability under peer inactivity, and an
enumeration of every cipher key at tiny zone sizes. Every estimate is
reported with its trial count, seed, and 3-sigma binomial radius. Only
ChainState writes records: the ledger rewrites call its encode_zone and reshare_zone.
"""

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

from . import tree_cipher
from .errors import ConfigurationError
from .field import prime_field
from .ledger import ChainState, hash_step
from .shamir import Share, reconstruct, split
from .tree_cipher import CipherKey, corruption_oracle, sample_key
from .zones import allocation_at, layout


# Coins per availability draw: caps the array at 0.5 MB of float64 for any trials × n
# with m <= 2^16 (a draw holds whole zones, so at most max(2^16, m) coins).
_DRAW_BLOCK = 2**16


class TrialSummary(namedtuple("TrialSummary", "trials successes estimate bound seed")):
    __slots__ = ()

    @property
    def sigma(self) -> float:
        """One-sigma binomial radius of the estimate."""
        p = self.estimate
        return math.sqrt(max(p * (1 - p), 1e-12) / self.trials)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigurationError(f"need trials >= 1, got {trials}")


def _check_rho(rho: float) -> None:
    if not 0 <= rho < 1:  # NaN fails both comparisons
        raise ConfigurationError(f"rho must be in [0, 1), got {rho}")


def _summary(trials, successes, bound, seed) -> TrialSummary:
    return TrialSummary(trials, successes, successes / trials, bound, seed)


def hash_corruption_trial(m: int, field_bits: int, trials: int, seed: int) -> TrialSummary:
    """Rewrite a zone's shared hash with one honest peer remaining.

    The adversary knows the secret H, the target H', and m-1 shares, but
    not the honest peer's abscissa. It guesses an unused abscissa x_hat,
    shifts its own shares by the degree-1 polynomial that moves the
    intercept from H to H' while fixing x_hat, and wins iff
    reconstruction with the true honest share yields H'. Success
    probability is exactly 1/(q - m): one over the abscissas left to guess.
    The ledger draws x from [1, 2^width), so there the same forger wins
    with 1/(2^width - m), no better odds than forging the width-bit hash.
    """
    if m < 2:
        raise ConfigurationError("need m >= 2 for a corruption trial")
    _check_trials(trials)
    f = prime_field(field_bits)
    q = f.modulus
    rng = random.Random(seed)
    successes = 0
    for _ in range(trials):
        secret = f.rand(rng)
        target = (secret + rng.randrange(1, q)) % q
        shares = split(f, secret, m, m, rng)
        honest = shares[-1]
        known = shares[:-1]
        used = {s.x for s in known}
        while True:
            x_hat = rng.randrange(1, q)
            if x_hat not in used:
                break
        # delta(x) = (H' - H) * (x_hat - x) / x_hat: delta(0) moves the
        # intercept, delta(x_hat) = 0 keeps the guessed point fixed.
        scale = (target - secret) * pow(x_hat, -1, q) % q
        forged = [Share(s.x, (s.y + scale * (x_hat - s.x)) % q) for s in known]
        if reconstruct(f, forged + [honest], m) == target:
            successes += 1
    return _summary(trials, successes, 1.0 / (q - m), seed)


def _sample_range(getrandbits, n: int, k: int) -> list[int]:
    """random.Random.sample(range(n), k), 0 <= k <= n, from the same getrandbits calls.

    CPython's two branches, without sample's Sequence check and per-draw
    method calls: a pool of the n values that each draw swaps its pick
    out of, while that list is smaller than a k-element set, and else
    draws below n, redrawn until unseen. Each draw is randrange's
    rejection loop, as in field.randbelow_list.
    """
    setsize = 21  # sample's size of a small set minus that of an empty list
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))  # a big set's table
    out = []
    if n <= setsize:
        pool = list(range(n))
        for left in range(n, n - k, -1):
            bits = left.bit_length()
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            out.append(pool[j])
            pool[j] = pool[left - 1]
        return out
    bits = n.bit_length()
    selected = set()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in selected:
            j = getrandbits(bits)
        selected.add(j)
        out.append(j)
    return out


def _rewrites(m: int, per_zone_c, trials: int, seed: int) -> int:
    """Trials in which every zone's c random peers of m can rewrite node 0. Each
    zone draws a fresh key, then its peers; a trial stops at the first failure."""
    if not all(1 <= c <= m for c in per_zone_c):
        raise ConfigurationError(f"need every c in [1, {m}], got {list(per_zone_c)}")
    _check_trials(trials)
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    successes = 0
    for _ in range(trials):
        for c in per_zone_c:
            if not corruption_oracle(sample_key(m, rng), _sample_range(getrandbits, m, c),
                                     {0}):
                break
        else:
            successes += 1
    return successes


def zone_corruption_trial(m: int, c: int, trials: int, seed: int) -> TrialSummary:
    """Probability that c randomly corrupted peers can rewrite one fragment.

    The target is a fixed plaintext position (node 0); success requires
    corrupting the peers holding node 0's subtree and the root. Compared
    against the c(c-1)/(m(m-1)) bound.
    """
    bound = c * (c - 1) / (m * (m - 1)) if m > 1 else 1.0
    return _summary(trials, _rewrites(m, [c], trials, seed), bound, seed)


def zone_corruption_exact(m: int, c: int) -> float:
    """Exact success probability of zone_corruption_trial, as a sum of m terms.

    The required nodes are subtree(0) and the root. The root is node 0
    in 1/m of the m^(m-1) rooted trees, and then all m nodes are
    required; otherwise |subtree(0)| = s in (m-1)·C(m-2, s-1)·s^(s-2)·
    (m-s)^(m-s-1) of them, by counting rooted forests (Moon, Counting
    Labelled Trees, 1970). The assignment and the corrupted c-subset are
    uniform, so r required nodes are all corrupted with probability
    C(m-r, c-r)/C(m, c).
    """
    if not 1 <= c <= m:
        raise ConfigurationError("need 1 <= c <= m")
    total = Fraction(int(c == m), m)  # root is node 0: r = m, so c = m wins
    for s in range(1, c):  # root elsewhere: r = s + 1 <= c
        trees = ((m - 1) * math.comb(m - 2, s - 1)
                 * Fraction(s) ** (s - 2) * (m - s) ** (m - s - 1))
        total += trees / m ** (m - 1) * math.comb(m - s - 1, c - s - 1)
    return float(total / math.comb(m, c))


def joint_corruption_bound(n: int, m: int, per_zone_c) -> float:
    """exp((n/m) * log(2 * sum(c_i) / n)), the joint corruption bound."""
    layout(n, m)
    total = sum(per_zone_c)
    if total <= 0:
        return 0.0
    return math.exp((n / m) * math.log(2 * total / n))


def min_corruption_for_success(n: int, m: int, eps: float) -> float:
    """(n/2) (1-eps)^(m/n): total corruption needed for success >= 1-eps, eps in [0, 1]."""
    layout(n, m)
    if not 0 <= eps <= 1:  # NaN fails both comparisons
        raise ConfigurationError(f"eps must be in [0, 1], got {eps}")
    return (n / 2) * (1 - eps) ** (m / n)


def consistent_corruption_trial(n: int, m: int, per_zone_c, trials: int,
                                seed: int) -> TrialSummary:
    """Joint success of independent zone corruptions: the zone trial over 1 to n/m zones."""
    layout(n, m)
    if not 1 <= len(per_zone_c) <= n // m:
        raise ConfigurationError(f"need 1 to {n // m} attacked zones, got {len(per_zone_c)}")
    successes = _rewrites(m, per_zone_c, trials, seed)
    return _summary(trials, successes, joint_corruption_bound(n, m, per_zone_c), seed)


def dynamic_exposure_scan(n: int, m: int, initial_corrupted, slots: int) -> list[int]:
    """Newly required corruptions per slot under the cyclic schedule.

    A zone mixing corrupted and honest peers forces the adversary to
    corrupt the zone's honest peers to keep its chain consistent.
    """
    lay = layout(n, m)
    corrupted = set(initial_corrupted)
    out = []
    for t in range(1, slots + 1):
        new: set[int] = set()
        for zone in allocation_at(lay, t):
            members = set(zone)
            if members & corrupted and not members <= corrupted:
                new |= members - corrupted
        corrupted |= new
        out.append(len(new))
    return out


def availability_closed_form(n: int, m: int, rho: float) -> float:
    """P(some zone has all peers active) = 1 - (1 - (1-rho)^m)^(n/m), rho in [0, 1)."""
    layout(n, m)
    _check_rho(rho)
    return 1 - (1 - (1 - rho) ** m) ** (n // m)


def availability_bounds(n: int, m: int, rho: float) -> tuple[float, float]:
    """(union bound on success, exponential bound on failure), rho in [0, 1)."""
    layout(n, m)
    _check_rho(rho)
    union = (n / m) * (1 - rho) ** m
    failure = math.exp(-((1 - rho) ** m) * n / m)
    return union, failure


def availability_trial(n: int, m: int, rho: float, trials: int, seed: int) -> TrialSummary:
    """Each peer inactive i.i.d. w.p. rho; success iff some zone fully active.

    The coins are drawn in blocks of about _DRAW_BLOCK values, so memory is
    O(block), not O(trials × n): whole trials while n fits in a block, and
    for a wider n one trial at a time in zone-aligned column blocks whose
    zone results are ORed. Generator.random fills doubles in stream order,
    so the blocks draw the same values as one (trials, n) call. A block's
    coin tests are copied once into member-major order, shape (m, zones,
    trials), so that the AND over members and then the OR over zones each
    combine whole rows: no reduction runs along a short m- or
    zones-wide axis.
    """
    layout(n, m)
    _check_rho(rho)
    _check_trials(trials)
    import numpy as np  # here, not at module top: it costs ~0.15 s and nothing else uses it
    gen = np.random.default_rng(seed)
    rows = max(1, _DRAW_BLOCK // n)
    cols = max(m, _DRAW_BLOCK // m * m)  # >= n if n <= _DRAW_BLOCK, so only rows of 1 split
    successes = 0
    for start in range(0, trials, rows):
        k = min(rows, trials - start)
        alive = np.zeros(k, dtype=bool)
        for col in range(0, n, cols):
            active = gen.random((k, min(cols, n - col))) >= rho
            active = np.ascontiguousarray(active.reshape(k, -1, m).T)  # (m, zones, k)
            alive |= active.all(axis=0).any(axis=0)
        successes += int(alive.sum())
    return _summary(trials, successes, availability_closed_form(n, m, rho), seed)


def dos_tolerance(n: int, m: int) -> int:
    """Denial-of-service outages survivable: one per zone, n/m total."""
    layout(n, m)
    return n // m


def enumerate_keys(m: int):
    """All m^(m-1) * 2^m * m! cipher keys, for exhaustive probes."""
    if m > 4:
        raise ConfigurationError("key enumeration limited to m <= 4")
    for seq in itertools.product(range(m), repeat=max(0, m - 2)):
        for root in range(m):
            tree = tree_cipher.tree_from_prufer(list(seq), m, root)
            for flips in itertools.product((0, 1), repeat=m):
                for assignment in itertools.permutations(range(m)):
                    yield CipherKey(tree, flips, assignment)


def rewrite_zone_block(state: ChainState, t: int, z: int, payload: bytes, rng) -> None:
    """Adversary with all m peers of a zone re-encodes block t as payload.

    The zone keeps sharing the previous hash it shared before (the true
    H_{t-1} if it shared none), so downstream slots become inconsistent
    with the rewritten block.
    """
    prev = state.zone_prev_hash(t, z)
    if prev is None:
        prev = state.hashes[t]
    state.encode_zone(t, z, payload, prev, rng)


def rewrite_chain_suffix(state: ChainState, t: int, payload: bytes, rng) -> None:
    """Full-network consistent rewrite: block t becomes payload everywhere,
    and every later zone that can be read re-shares its own key with the
    matching forged hash."""
    cfg = state.config
    for z in range(cfg.n // cfg.m):
        rewrite_zone_block(state, t, z, payload, rng)
    forged = hash_step(state.hashes[t], payload, cfg.hash_width)
    for tau in range(t + 1, state.num_blocks):
        for z in range(cfg.n // cfg.m):
            state.reshare_zone(tau, z, forged, rng)
        forged = hash_step(forged, state.payloads[tau], cfg.hash_width)
