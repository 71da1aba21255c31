"""Prime field arithmetic and Lagrange interpolation.

Elements are plain Python ints reduced modulo the field prime; the
``Field`` object carries the modulus so values stay lightweight.
Lagrange interpolation takes one modular inversion per call, however
many points it is given. ``randbelow`` draws uniform ints from the same
bits as ``random.Random.randrange``.
"""

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


def randbelow(getrandbits, n: int) -> int:
    """Uniform int in [0, n), n >= 1, from the bits random.Random.randrange(n) draws.

    CPython's rejection loop (Random._randbelow_with_getrandbits), without
    randrange's argument checks: redraw n.bit_length() bits until below n.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1 if n % 2 == 0 else n + 2
    if n < 2:
        return 2
    while not is_prime(c):
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

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def inv(self, a: int) -> int:
        if a % self.modulus == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, -1, self.modulus)

    def rand(self, rng) -> int:
        return randbelow(rng.getrandbits, self.modulus)

    def eval_poly(self, coeffs, x: int) -> int:
        """Evaluate sum(coeffs[i] * x^i) by Horner's rule."""
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % self.modulus
        return acc

    def lagrange_interpolate(self, points, x0: int) -> int:
        """Value at x0 of the unique degree-(len-1) polynomial through points.

        points is a sequence of (x, y) pairs with distinct x. The
        numerators prod_{j != i}(x0 - x_j) come from prefix and suffix
        products, and all the denominators prod_{j != i}(x_i - x_j) are
        inverted together (Montgomery's trick): one modular inversion
        per call.
        """
        if not points:
            raise ValueError("need at least one point")
        mod = self.modulus
        xs = [x % mod for x, _ in points]
        if len(set(xs)) != len(xs):
            raise ValueError("duplicate abscissa in interpolation points")
        k = len(xs)
        nums = [1] * k
        acc = 1
        for i, xi in enumerate(xs):
            nums[i] = acc
            acc = acc * (x0 - xi) % mod
        acc = 1
        for i in range(k - 1, -1, -1):
            nums[i] = nums[i] * acc % mod
            acc = acc * (x0 - xs[i]) % mod
        dens = []
        below = []  # below[i] = dens[0] * ... * dens[i-1]
        acc = 1
        for xi in xs:
            den = 1
            for xj in xs:
                if xj != xi:
                    den = den * (xi - xj) % mod
            dens.append(den)
            below.append(acc)
            acc = acc * den % mod
        inv = pow(acc, -1, mod)  # inverse of dens[0] * ... * dens[k-1]
        total = 0
        for i in range(k - 1, -1, -1):
            # here inv is the inverse of dens[0] * ... * dens[i]
            total += points[i][1] * nums[i] * inv * below[i] % mod
            inv = inv * dens[i] % mod
        return total % mod


@cache
def prime_field(bits: int) -> Field:
    """The field of the smallest prime above 2^bits: every bits-bit value is an element."""
    return Field(next_prime(2**bits))
