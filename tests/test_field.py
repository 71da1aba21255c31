import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoned_ledger.errors import ConfigurationError
from zoned_ledger.field import Field, is_prime, next_prime, randbelow
from zoned_ledger.ledger import share_field

SHARE_MODULI = [share_field(m, 64).modulus for m in (4, 8, 16)]  # 81, 113 and 193 bits


def test_field_construction():
    assert Field(7).modulus == 7
    assert Field(2**61 - 1).modulus == 2**61 - 1


@pytest.mark.parametrize("bad", [6, 1, 0, -3, 4, 2**61 - 2])
def test_composite_or_small_modulus_rejected(bad):
    with pytest.raises(ConfigurationError):
        Field(bad)


def strong_probable_prime(n, a):
    """One Miller-Rabin round of odd n > 3 to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@pytest.mark.parametrize("k,gap", [(96, 61), (112, 25), (176, 427), (192, 133)])
def test_next_prime_above_the_proven_range(k, gap):
    # above 3.3 * 10^24 the 12 fixed bases give only a probable prime, so pin the
    # result and back it with 64 more rounds on random bases; each odd number in
    # the gap failed some round, which proves it composite
    p = next_prime(2**k)
    assert p - 2**k == gap
    rng = random.Random(0)
    assert all(strong_probable_prime(p, rng.randrange(2, p - 1)) for _ in range(64))


def test_next_prime():
    assert next_prime(2**16) == 65537
    assert next_prime(1) == 2
    assert is_prime(next_prime(2**64))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 8, 16]
                         + SHARE_MODULI + [q - 1 for q in SHARE_MODULI])
def test_randbelow_draws_what_randrange_draws(n):
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [randbelow(ours.getrandbits, n) for _ in range(20)] == \
            [theirs.randrange(n) for _ in range(20)]
        assert ours.random() == theirs.random()


def test_interpolate_two_points():
    # oracle: P(x) = 3 + 2x over GF(7) gives P(1)=5, P(2)=0
    f = Field(7)
    assert f.eval_poly([3, 2], 1) == 5
    assert f.eval_poly([3, 2], 2) == 0
    assert f.lagrange_interpolate([(1, 5), (2, 0)], 0) == 3


def test_interpolate_single_point_is_constant():
    f = Field(11)
    for x, y in [(1, 4), (6, 0), (10, 9)]:
        assert f.lagrange_interpolate([(x, y)], 3) == y


def test_interpolate_degree_three_from_oracle():
    f = Field(13)
    rng = random.Random(0)
    coeffs = [rng.randrange(13) for _ in range(4)]
    pts = [(x, f.eval_poly(coeffs, x)) for x in (2, 5, 7, 11)]
    assert f.lagrange_interpolate(pts, 0) == coeffs[0]


def test_interpolate_duplicate_x_rejected():
    f = Field(7)
    with pytest.raises(ValueError):
        f.lagrange_interpolate([(1, 2), (1, 3)], 0)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_field_axioms_exhaustive(q):
    f = Field(q)
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        if b != 0:
            assert f.mul(f.inv(b), b) == 1
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q,k", [(5, 2), (7, 3), (11, 4), (13, 4)])
def test_interpolation_recovers_polynomial_everywhere(q, k):
    f = Field(q)
    rng = random.Random(q * k)
    for _ in range(20):
        coeffs = [rng.randrange(q) for _ in range(k)]
        xs = rng.sample(range(q), k)
        pts = [(x, f.eval_poly(coeffs, x)) for x in xs]
        for x0 in range(q):
            assert f.lagrange_interpolate(pts, x0) == f.eval_poly(coeffs, x0)


_MODULI = [2, 3, 13, 65537, 2**61 - 1, next_prime(2**64), next_prime(2**130)]


def _abscissas(data, q, k):
    """k abscissas distinct mod q, some unreduced or negative."""
    residues = data.draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k, unique=True))
    return [r + q * data.draw(st.integers(-2, 2)) for r in residues]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_interpolation_matches_eval_poly(data):
    q = data.draw(st.sampled_from(_MODULI))
    f = Field(q)
    k = data.draw(st.integers(1, min(q, 16)))
    coeffs = data.draw(st.lists(st.integers(-2**140, 2**140), min_size=k, max_size=k))
    xs = _abscissas(data, q, k)
    points = [(x, f.eval_poly(coeffs, x)) for x in xs]
    x0 = data.draw(st.one_of(st.just(0), st.sampled_from(xs), st.integers(-2**140, 2**140)))
    assert f.lagrange_interpolate(points, x0) == f.eval_poly(coeffs, x0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_interpolation_rejects_abscissas_equal_mod_p(data):
    q = data.draw(st.sampled_from(_MODULI))
    f = Field(q)
    xs = _abscissas(data, q, data.draw(st.integers(1, min(q, 8))))
    twin = data.draw(st.sampled_from(xs)) + q * data.draw(st.integers(-2, 2))
    xs.insert(data.draw(st.integers(0, len(xs))), twin)
    with pytest.raises(ValueError, match="duplicate abscissa"):
        f.lagrange_interpolate([(x, 1) for x in xs], 0)
