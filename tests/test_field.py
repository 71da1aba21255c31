import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoned_ledger.errors import ConfigurationError
from zoned_ledger.field import Field, is_prime, next_prime, randbelow_list
from zoned_ledger.ledger import hash_nbytes, share_field
from zoned_ledger.shamir import reconstruct_bytes, split_bytes
from zoned_ledger.tree_cipher import key_nbytes

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


def plain_next_prime(n):
    """next_prime without its small-factor gcd: is_prime on every odd candidate."""
    if n < 2:
        return 2
    c = n + 1 if n % 2 == 0 else n + 2
    while not is_prime(c):
        c += 2
    return c


def test_next_prime_matches_the_plain_loop_below_5000():
    assert [next_prime(n) for n in range(5000)] == [plain_next_prime(n) for n in range(5000)]


# the byte lengths of the share fields of zones of m = 1..64 at hash width 64
SHARE_FIELD_BYTES = sorted({key_nbytes(m) + hash_nbytes(64) for m in range(1, 65)})


@pytest.mark.parametrize("nbytes", SHARE_FIELD_BYTES)
def test_next_prime_matches_the_plain_loop_at_share_field_sizes(nbytes):
    assert next_prime(2 ** (8 * nbytes)) == plain_next_prime(2 ** (8 * nbytes))


# "randbelow" in these names is CPython's Random._randbelow, which randrange(n) calls
@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 8, 16]
                         + SHARE_MODULI + [q - 1 for q in SHARE_MODULI])
@pytest.mark.parametrize("count", [0, 1, 2, 7, 40])
def test_randbelow_list_draws_what_repeated_randbelow_draws(n, count):
    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert randbelow_list(ours.getrandbits, n, count) == \
            [theirs.randrange(n) for _ in range(count)]
        assert ours.getstate() == theirs.getstate()


def test_randbelow_of_one_still_draws_bits():
    # randrange(1) draws one bit and redraws a 1, so a draw below 1 moves the stream
    ours, theirs = random.Random(3), random.Random(3)
    assert randbelow_list(ours.getrandbits, 1, 1) == [0]
    assert randbelow_list(ours.getrandbits, 1, 5) == [0] * 5
    assert ours.getstate() != random.Random(3).getstate()
    for _ in range(6):
        assert theirs.randrange(1) == 0
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 8, 16]
                         + SHARE_MODULI + [q - 1 for q in SHARE_MODULI])
def test_randbelow_draws_what_randrange_draws(n):
    # one value per call, as Field.rand draws it
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [randbelow_list(ours.getrandbits, n, 1)[0] for _ in range(20)] == \
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


# Oracles that share no code with the kernels under test: evaluation as a sum of
# modular powers, and interpolation as it stood before the barycentric kernel.
def reference_eval(q, coeffs, x):
    return sum(c * pow(x, i, q) for i, c in enumerate(coeffs)) % q


def reference_interpolate(q, points, x0):
    """Prefix/suffix numerators and a k^2 loop of denominators, one inversion."""
    xs = [x % q for x, _ in points]
    k = len(xs)
    nums = [1] * k
    acc = 1
    for i, xi in enumerate(xs):
        nums[i] = acc
        acc = acc * (x0 - xi) % q
    acc = 1
    for i in range(k - 1, -1, -1):
        nums[i] = nums[i] * acc % q
        acc = acc * (x0 - xs[i]) % q
    dens, below, acc = [], [], 1
    for xi in xs:
        den = 1
        for xj in xs:
            if xj != xi:
                den = den * (xi - xj) % q
        dens.append(den)
        below.append(acc)
        acc = acc * den % q
    inv = pow(acc, -1, q)
    total = 0
    for i in range(k - 1, -1, -1):
        total += points[i][1] * nums[i] * inv * below[i] % q
        inv = inv * dens[i] % q
    return total % q


# every field is paired with the largest k drawn in it: k = 1..m in a zone's share field
_KERNEL_FIELDS = [(q, min(q, 16)) for q in _MODULI] + \
    [(share_field(m, 64).modulus, m) for m in range(2, 65, 2)]
_ANY_INT = st.integers(-2**1000, 2**1000)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_poly_matches_the_sum_of_powers(data):
    q, max_k = data.draw(st.sampled_from(_KERNEL_FIELDS))
    coeffs = data.draw(st.lists(_ANY_INT, min_size=0, max_size=max_k))
    x = data.draw(st.one_of(st.integers(-2, 2), st.integers(-2**64, 2**64), _ANY_INT,
                            st.integers(-2, 2).map(lambda d: q + d)))
    assert Field(q).eval_poly(coeffs, x) == reference_eval(q, coeffs, x)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_interpolation_matches_the_reference_kernel(data):
    q, max_k = data.draw(st.sampled_from(_KERNEL_FIELDS))
    k = data.draw(st.integers(1, max_k))
    xs = _abscissas(data, q, k)
    points = [(x, data.draw(st.one_of(st.integers(0, q - 1), _ANY_INT))) for x in xs]
    node = data.draw(st.sampled_from(xs))
    x0 = data.draw(st.one_of(st.just(0), st.just(node), st.just(node + q), st.just(node - q),
                             _ANY_INT))
    assert Field(q).lagrange_interpolate(points, x0) == reference_interpolate(q, points, x0)


@pytest.mark.parametrize("m", [4, 8, 16, 64])
def test_zone_secret_round_trips_through_split_and_reconstruct_bytes(m):
    # the ledger's sharing: the serialized key and a 64-bit hash, m-of-m below 2^64
    nbytes = key_nbytes(m) + hash_nbytes(64)
    q = share_field(m, 64).modulus
    rng = random.Random(m)
    for _ in range(10):
        secret = rng.randbytes(nbytes)
        shares = split_bytes(secret, m, m, rng, 2**64)
        assert all(0 < x < 2**64 and 0 <= y < q for x, y in shares)
        rng.shuffle(shares)
        assert reconstruct_bytes(shares, m, nbytes) == secret
        assert reference_interpolate(q, shares, 0) == int.from_bytes(secret, "big")
