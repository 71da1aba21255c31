import itertools
import random

import pytest

from zoned_ledger.errors import (ConfigurationError, InsufficientSharesError,
                                 KeyDecodeError)
from zoned_ledger.field import Field, prime_field
from zoned_ledger.shamir import (Share, reconstruct, reconstruct_bytes, split,
                                 split_bytes)


def test_hand_checkable_polynomial():
    # the sharing polynomial 3 + 2x over GF(7) at x = 1, 2, 3
    f = Field(7)
    shares = [Share(x, f.eval_poly([3, 2], x)) for x in (1, 2, 3)]
    assert shares == [Share(1, 5), Share(2, 0), Share(3, 2)]
    assert reconstruct(f, shares[:2], 2) == 3
    assert reconstruct(f, shares[1:], 2) == 3


def test_split_shares_lie_on_degree_k_minus_1_polynomial():
    f = Field(13)
    rng = random.Random(2)
    shares = split(f, 9, 3, 5, rng)
    assert len(shares) == 5
    assert len({s.x for s in shares}) == 5
    assert all(s.x != 0 for s in shares)
    # every 3-subset reconstructs the same secret
    for sub in itertools.combinations(shares, 3):
        assert reconstruct(f, sub, 3) == 9


def test_k_equals_1_share_is_secret():
    f = Field(11)
    shares = split(f, 6, 1, 4, random.Random(0))
    assert all(s.y == 6 for s in shares)
    assert reconstruct(f, [Share(4, 9)], 1) == 9


def test_zero_secret_round_trip():
    f = Field(11)
    shares = split(f, 0, 2, 2, random.Random(1))
    assert reconstruct(f, shares, 2) == 0


def test_field_too_small():
    with pytest.raises(ConfigurationError):
        split(Field(7), 1, 3, 7, random.Random(0))


def test_default_bound_draws_the_whole_field_bit_for_bit():
    # abscissas of the unbounded path, pinned: callers that give no bound
    # (the adversary trials, the benchmark's probe) keep their draws
    assert [s.x for s in split(prime_field(64), 5, 3, 4, random.Random(7))] == [
        691672907343361485, 7713914763314685787, 17482144350526720242, 10801332806156616912]
    assert [s.x for s in split(Field(13), 5, 2, 4, random.Random(7))] == [4, 11, 6, 8]
    assert split_bytes(b"ab", 2, 3, random.Random(7)) == [
        Share(19773, 23093), Share(51751, 58033), Share(6329, 23172)]
    f = prime_field(64)
    assert split(f, 5, 3, 4, random.Random(7), f.modulus) == split(f, 5, 3, 4, random.Random(7))


def test_bounded_abscissas_are_one_randrange_each_skipping_repeats():
    # 4n < 2^8 for every n here, so split takes the rejection path, and the larger
    # n redraw many repeats: a batch that draws more values than are still missing
    # reads other bits, or leaves the generator elsewhere
    f, bound = prime_field(64), 2**8
    for n in range(4, 61):
        for seed in range(3):
            ours, theirs = random.Random(seed), random.Random(seed)
            xs = [s.x for s in split(f, 5, 3, n, ours, bound)]
            for _ in range(2):  # the two random coefficients
                theirs.randrange(f.modulus)
            expected = []
            while len(expected) < n:
                x = 1 + theirs.randrange(bound - 1)
                if x not in expected:
                    expected.append(x)
            assert xs == expected, (n, seed)
            assert ours.getstate() == theirs.getstate(), (n, seed)


@pytest.mark.parametrize("bound,n", [(2**64, 16), (2**8, 16), (2**8, 255), (6, 5), (64, 16)])
def test_bounded_abscissas_are_distinct_and_below_the_bound(bound, n):
    f = prime_field(64)
    shares = split(f, 42, n, n, random.Random(bound + n), bound)
    xs = [s.x for s in shares]
    assert len(set(xs)) == n and all(0 < x < bound for x in xs)
    assert reconstruct(f, shares, n) == 42
    if n == bound - 1:
        assert sorted(xs) == list(range(1, bound))


def test_bounded_abscissas_are_uniform():
    # 3 of the 7 values in [1, 8) each time: every value is drawn 3/7 of the time
    rng = random.Random(5)
    counts = [0] * 8
    for _ in range(7000):
        for s in split(Field(13), 1, 3, 3, rng, 8):
            counts[s.x] += 1
    assert counts[0] == 0
    assert all(abs(c - 3000) < 4 * (7000 * 3 / 7 * 4 / 7) ** 0.5 for c in counts[1:])


@pytest.mark.parametrize("bound,n", [(6, 1), (4, 4), (2**64, 1)])
def test_abscissa_bound_too_small_or_past_the_field(bound, n):
    f = Field(5) if bound < 2**64 else prime_field(63)
    with pytest.raises(ConfigurationError):
        split(f, 1, 1, n, random.Random(0), bound)


def test_insufficient_shares():
    f = Field(11)
    shares = split(f, 5, 3, 4, random.Random(3))
    with pytest.raises(InsufficientSharesError):
        reconstruct(f, shares[:2], 3)


@pytest.mark.parametrize("q", [7, 11, 13])
def test_all_k_subsets_reconstruct(q):
    f = Field(q)
    rng = random.Random(q)
    for k in range(1, 5):
        for n in range(k, min(7, q - 1)):
            secret = rng.randrange(q)
            shares = split(f, secret, k, n, rng)
            for sub in itertools.combinations(shares, k):
                assert reconstruct(f, sub, k) == secret


def test_secrecy_posterior_uniform_gf7():
    # GF(7), k=3: any 2 shares admit exactly one completion per candidate
    # secret, so the posterior over secrets is uniform.
    f = Field(7)
    known = [Share(1, 4), Share(5, 2)]
    completions = {s: 0 for s in range(7)}
    for a1, a2 in itertools.product(range(7), repeat=2):
        for s in range(7):
            coeffs = [s, a1, a2]
            if all(f.eval_poly(coeffs, sh.x) == sh.y for sh in known):
                completions[s] += 1
    counts = set(completions.values())
    assert counts == {1}


def test_conditional_final_share_uncertainty_gf7():
    # given k-1 shares and the secret, the last share is uniform over a
    # set of size q - k (one consistent y per remaining abscissa)
    q, k = 7, 3
    f = Field(q)
    secret = 4
    known = [Share(2, 1), Share(6, 3)]
    consistent = set()
    for a1, a2 in itertools.product(range(q), repeat=2):
        coeffs = [secret, a1, a2]
        if all(f.eval_poly(coeffs, s.x) == s.y for s in known):
            for x in range(1, q):
                if x not in {s.x for s in known}:
                    consistent.add((x, f.eval_poly(coeffs, x)))
    xs = {x for x, _ in consistent}
    assert len(xs) == q - k
    assert len(consistent) == len(xs)  # exactly one y per abscissa


@pytest.mark.parametrize("secret,k,n", [
    (b"", 2, 3),
    (b"\x00", 2, 2),
    (bytes(range(16)), 4, 4),
    (b"seven-byte-boundary!!", 3, 5),
])
def test_split_bytes_round_trip(secret, k, n):
    rng = random.Random(len(secret))
    if not secret:
        # b"" is shared in GF(2), which has a single nonzero abscissa
        with pytest.raises(ConfigurationError):
            split_bytes(secret, k, n, rng)
        return
    shares = split_bytes(secret, k, n, rng)
    assert len(shares) == n
    assert all(isinstance(s, Share) for s in shares)
    assert reconstruct_bytes(shares[:k], k, len(secret)) == secret
    assert reconstruct_bytes(shares[n - k:], k, len(secret)) == secret


@pytest.mark.parametrize("nbytes", [1, 8, 33])
def test_tampered_byte_shares_decode_or_raise_key_decode_error(nbytes):
    f = prime_field(8 * nbytes)
    rng = random.Random(nbytes)
    for _ in range(300):
        shares = split_bytes(rng.randbytes(nbytes), 4, 4, rng)
        j = rng.randrange(4)
        shares[j] = Share(shares[j].x, f.rand(rng))
        try:
            assert len(reconstruct_bytes(shares, 4, nbytes)) == nbytes
        except KeyDecodeError:
            pass
    # field elements past the byte width: the smallest and the largest
    for value in (2**(8 * nbytes), f.modulus - 1):
        with pytest.raises(KeyDecodeError):
            reconstruct_bytes(split(f, value, 4, 4, rng), 4, nbytes)
