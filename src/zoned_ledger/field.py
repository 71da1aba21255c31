"""Prime field arithmetic and Lagrange interpolation.

Elements are plain Python ints reduced modulo the field prime; the
``Field`` object carries the modulus so values stay lightweight.
Horner evaluation reduces once, at its end; barycentric interpolation
takes one ``math.prod`` per weight and sums the weighted values as one
running fraction, so it makes one inversion per call.
``randbelow_list`` draws a run of uniform ints from the same bits as
that many calls of ``random.Random.randrange``.
"""

import math
from functools import cache

from .errors import ConfigurationError

# Miller-Rabin bases that prove primality only below 3.3 * 10^24 (about 2^81), which
# covers hash_field(64) and the m = 4 share field; above it they give a probable prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact for n < 3.3 * 10^24; above that, a strong probable-prime test to 12 bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def randbelow_list(getrandbits, n: int, count: int) -> list[int]:
    """count uniform ints in [0, n), n >= 1, from the bits of count calls randrange(n).

    CPython's rejection loop (Random._randbelow_with_getrandbits), without
    randrange's argument checks: redraw n.bit_length() bits until below n.
    Each value's rejection draws come before the next value's first draw.
    """
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


_SIEVE_BOUND = 2000


@cache
def _small_odd_primes_product() -> int:
    """The product of the odd primes below _SIEVE_BOUND, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * _SIEVE_BOUND
    for p in range(3, math.isqrt(_SIEVE_BOUND) + 1, 2):
        if sieve[p]:
            sieve[p * p::2 * p] = bytes(len(range(p * p, _SIEVE_BOUND, 2 * p)))
    return math.prod(p for p in range(3, _SIEVE_BOUND, 2) if sieve[p])


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n.

    An odd candidate above _SIEVE_BOUND that shares a factor with the odd
    primes below it is composite; one gcd rules it out before is_prime.
    """
    c = n + 1 if n % 2 == 0 else n + 2
    if n < 2:
        return 2
    small = _small_odd_primes_product()
    while c > _SIEVE_BOUND and math.gcd(c, small) != 1 or not is_prime(c):
        c += 2
    return c


class Field:
    """Arithmetic context for GF(modulus) with modulus prime."""

    def __init__(self, modulus: int):
        if modulus < 2 or not is_prime(modulus):
            raise ConfigurationError(f"field modulus must be prime >= 2, got {modulus}")
        self.modulus = modulus

    def __eq__(self, other):
        return isinstance(other, Field) and other.modulus == self.modulus

    def __repr__(self):
        return f"Field({self.modulus})"

    def rand(self, rng) -> int:
        return randbelow_list(rng.getrandbits, self.modulus, 1)[0]

    def eval_poly(self, coeffs, x: int) -> int:
        """sum(coeffs[i] * x^i) by Horner's rule on x mod p, reduced only at the end."""
        x %= self.modulus
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc % self.modulus

    def lagrange_interpolate(self, points, x0: int) -> int:
        """Value at x0 of the unique degree-(len-1) polynomial through points.

        points holds (x, y) pairs with x distinct mod p. Barycentric form:
        f(x0) = prod_j (x0 - x_j) * sum_i y_i / d_i, where each
        d_i = (x0 - x_i) * prod_{j != i} (x_i - x_j) is one math.prod.
        One forward loop keeps the sum as a single fraction num / den,
        so one inversion, of den, ends the call. At a node x0 = x_i,
        f(x0) = y_i.
        """
        if not points:
            raise ConfigurationError("need at least one point")
        mod = self.modulus
        xs = [x % mod for x, _ in points]
        if len(set(xs)) != len(xs):
            raise ConfigurationError("duplicate abscissa in interpolation points")
        x0 %= mod
        if x0 in xs:
            return points[xs.index(x0)][1] % mod
        num, den = 0, 1  # sum_i y_i / d_i over the points so far
        for i, xi in enumerate(xs):
            diffs = [xi - xj for xj in xs]
            diffs[i] = x0 - xi
            d = math.prod(diffs) % mod
            num = (num * d + points[i][1] * den) % mod
            den = den * d % mod
        return math.prod([x0 - xj for xj in xs]) % mod * num * pow(den, -1, mod) % mod


@cache
def prime_field(bits: int) -> Field:
    """The field of the smallest prime above 2^bits: every bits-bit value is an element."""
    return Field(next_prime(2**bits))
