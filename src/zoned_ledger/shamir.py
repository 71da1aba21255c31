"""Shamir (k, n) secret sharing over a prime field.

Abscissas are drawn uniformly without replacement from [1, bound), where
the bound is the field modulus unless the caller gives a smaller one, so
by default from the nonzero field elements. A share is the full point
(x, y), not just the ordinate. The ledger bounds x by 2^width: an
abscissa only has to be secret and distinct, and width bits make it as
hard to guess as the hash, while split and interpolation multiply by the
small operand.
A byte-string secret is read as one big-endian integer and shared as a
single element of the smallest prime field above 2^(8 * its length); the
ledger shares each zone's serialized cipher key and previous hash this
way, as one byte string.
"""

from collections import namedtuple

from .errors import ConfigurationError, InsufficientSharesError, KeyDecodeError
from .field import Field, prime_field, randbelow_list

Share = namedtuple("Share", "x y")


def _sample_abscissas(field: Field, n: int, rng, bound: int) -> list[int]:
    """n distinct abscissas, uniform without replacement from [1, bound)."""
    if bound > field.modulus:
        raise ConfigurationError(f"abscissa bound {bound} exceeds GF({field.modulus})")
    if n >= bound:
        raise ConfigurationError(f"cannot draw {n} distinct abscissas from [1, {bound})")
    if bound <= 4 * n:
        pool = list(range(1, bound))
        rng.shuffle(pool)
        return pool[:n]
    # draw the missing count at once and skip repeats: the same bits, in the
    # same order, as one draw per abscissa; a dict keeps each value's first place
    drawn: dict[int, None] = {}
    while len(drawn) < n:
        drawn.update(dict.fromkeys(randbelow_list(rng.getrandbits, bound - 1, n - len(drawn))))
    return [r + 1 for r in drawn]


def split(field: Field, secret: int, k: int, n: int, rng,
          x_bound: int | None = None) -> list[Share]:
    """Share secret with threshold k among n parties, each x in [1, x_bound).

    x_bound defaults to the field modulus and may not exceed it.
    """
    if not 1 <= k <= n:
        raise ConfigurationError(f"need 1 <= k <= n, got k={k}, n={n}")
    mod = field.modulus
    coeffs = [secret % mod] + randbelow_list(rng.getrandbits, mod, k - 1)
    xs = _sample_abscissas(field, n, rng, mod if x_bound is None else x_bound)
    return [Share(x, field.eval_poly(coeffs, x)) for x in xs]


def reconstruct(field: Field, shares, k: int) -> int:
    """Recover the secret (the polynomial intercept) from >= k shares, k >= 1."""
    if k < 1:
        raise ConfigurationError(f"need a threshold k >= 1, got {k}")
    shares = list(shares)
    if len(shares) < k:
        raise InsufficientSharesError(f"got {len(shares)} shares, need {k}")
    try:
        return field.lagrange_interpolate(shares[:k], 0)
    except ValueError as exc:  # two of the shares at one abscissa
        raise InsufficientSharesError(f"{exc}: fewer than {k} distinct shares") from None


def split_bytes(secret: bytes, k: int, n: int, rng,
                x_bound: int | None = None) -> list[Share]:
    """Share a byte string; returns one share per party, x_bound as in split.

    The byte length is not embedded in the shares; callers keep it as
    cleartext metadata and pass it to reconstruct_bytes.
    """
    return split(prime_field(8 * len(secret)), int.from_bytes(secret, "big"), k, n, rng,
                 x_bound)


def reconstruct_bytes(shares, k: int, nbytes: int) -> bytes:
    """Invert split_bytes given >= k parties' shares of an nbytes >= 0 secret."""
    if nbytes < 0:
        raise ConfigurationError(f"need a byte length nbytes >= 0, got {nbytes}")
    value = reconstruct(prime_field(8 * nbytes), shares, k)
    if value >> (8 * nbytes):
        raise KeyDecodeError(f"shared value does not fit in {nbytes} bytes")
    return value.to_bytes(nbytes, "big")
