"""Proof-of-work mining simulation and the urn-model cost law.

The difficulty target is a threshold on the truncated hash value; a
nonce is accepted when hash(nonce || prev_data) falls below it. The
expected number of tries matches drawing without replacement from an
urn until the first blue ball: (total + 1) / (blue + 1).
"""

import hashlib
import random
import statistics
from collections import namedtuple
from fractions import Fraction
from itertools import chain

from .errors import ConfigurationError, MiningExhaustedError
from .ledger import ChainConfig, ChainState

try:
    # CPython's own SHA-256: the same digests as hashlib's OpenSSL one, for
    # less per one-block message, most of whose cost under OpenSSL is making
    # the hash object (0.40 us against 0.10 us; 2-vCPU VM, Python 3.11.7,
    # OpenSSL 3.0). ledger.hash_step stays on hashlib: on a CPU with the SHA
    # extensions, OpenSSL's compression wins from a few blocks on. There the
    # builtin took 0.48 us against 0.66 us on a 22-byte nonce message, but
    # 7.4 us against 1.7 us at 1 KiB and 26.9 us against 4.2 us at 4 KiB.
    from _sha256 import sha256 as _fast_sha256
except ImportError:
    try:  # the same module, renamed in CPython 3.12
        from _sha2 import sha256 as _fast_sha256
    except ImportError:  # not built into this interpreter
        _fast_sha256 = hashlib.sha256


class DifficultyTarget(namedtuple("DifficultyTarget", "hash_width_bits target_fraction")):
    __slots__ = ()

    def __new__(cls, hash_width_bits: int, target_fraction: float):
        if not 0 < target_fraction <= 1:
            raise ConfigurationError("target_fraction must be in (0, 1]")
        if not 8 <= hash_width_bits <= 256:
            raise ConfigurationError("hash_width_bits must be in [8, 256]")
        self = super().__new__(cls, hash_width_bits, target_fraction)
        if self.threshold == 0:
            # no hash is below 0, so mine would try every nonce before it raised
            raise ConfigurationError(
                f"target_fraction {target_fraction} of 2^{hash_width_bits} rounds to a "
                "threshold of 0, which no hash meets")
        return self

    @property
    def threshold(self) -> int:
        return round(Fraction(self.target_fraction) * (1 << self.hash_width_bits))


MiningResult = namedtuple("MiningResult", "nonce hash tries")


def mining_hash(nonce: int, nonce_bits: int, prev_data: bytes, width: int) -> int:
    if nonce_bits < 0 or not 8 <= width <= 256:
        raise ConfigurationError(
            f"need nonce_bits >= 0 and width in [8, 256], got {nonce_bits} and {width}")
    nbytes = (nonce_bits + 7) // 8
    try:
        nonce_bytes = nonce.to_bytes(nbytes, "big")
    except OverflowError:  # negative, or past the nonce's bytes
        raise ConfigurationError(f"nonce {nonce} does not fit in {nbytes} bytes") from None
    digest = hashlib.sha256(nonce_bytes + prev_data).digest()
    return int.from_bytes(digest, "big") >> (256 - width)


def mine(prev_data: bytes, target: DifficultyTarget, nonce_bits: int,
         rng: random.Random) -> MiningResult:
    """Enumerate nonces without repetition until the hash meets the target.

    Enumeration is sequential from an rng-chosen starting point, wrapping
    around the nonce space; rng only sets the order, never resamples.
    The start nonce is hashed by `mining_hash`; every later nonce is written
    into one message buffer and its digest compared as bytes against a bound
    worked out once, which gives the same hit as `mining_hash` would.
    """
    width = target.hash_width_bits
    threshold = target.threshold
    try:
        space = 1 << nonce_bits
    except ValueError:  # a negative shift count
        raise ConfigurationError(f"nonce_bits must be >= 0, got {nonce_bits}") from None
    start = rng.randrange(space)
    # threshold == 2**width (every hash meets it) and a one-nonce space are
    # both settled here, so the bound below fits in 32 bytes when it is needed
    value = mining_hash(start, nonce_bits, prev_data, width)
    if value < threshold:
        return MiningResult(start, value, 1)
    shift = 256 - width
    # Exact: digest >> shift < threshold iff digest < threshold << shift, and
    # 32-byte big-endian strings order as the integers they encode.
    bound = (threshold << shift).to_bytes(32, "big")
    last = (nonce_bits + 7) // 8 - 1
    msg = bytearray(last + 1) + prev_data
    sha = _fast_sha256
    for head, lows in chain(_low_byte_runs(start + 1, space), _low_byte_runs(0, start)):
        msg[:last] = head.to_bytes(last, "big")
        for low in lows:
            msg[last] = low
            digest = sha(msg).digest()
            if digest < bound:
                nonce = head << 8 | low
                return MiningResult(nonce, int.from_bytes(digest, "big") >> shift,
                                    (nonce - start) % space + 1)
    raise MiningExhaustedError(f"no nonce in 2^{nonce_bits} met fraction "
                               f"{target.target_fraction}")


def _low_byte_runs(lo: int, hi: int):
    """Nonces lo..hi-1 in order, as (nonce >> 8, range of the low byte) pairs."""
    while lo < hi:
        head, low = divmod(lo, 256)
        yield head, range(low, min(hi - (head << 8), 256))
        lo = (head + 1) << 8


def urn_expected_draws(blue: int, red: int) -> Fraction:
    """Expected draws without replacement until the first blue ball."""
    if blue < 1:
        raise ConfigurationError("need at least one blue ball")
    return Fraction(blue + red + 1, blue + 1)


def mining_cost_law(pprime_fraction: float, q_bits: int) -> float:
    """Expected tries for a nonce space of 2^q_bits at the given fraction.

    Maps the search to an urn with (p'/p) * 2^q_bits blue balls; for
    p' << p this is approximately p/p'.
    """
    if not 0 < pprime_fraction <= 1:
        raise ConfigurationError("pprime_fraction must be in (0, 1]")
    try:
        total = 1 << q_bits
    except ValueError:  # a negative shift count
        raise ConfigurationError(f"q_bits must be >= 0, got {q_bits}") from None
    blue = Fraction(pprime_fraction) * total
    return float(Fraction(total + 1) / (blue + 1))


def mining_trials(target: DifficultyTarget, nonce_bits: int, runs: int, seed: int) -> dict:
    """Run independent mines of one fixed message; compare the mean tries to the cost law."""
    if runs < 1:
        raise ConfigurationError(f"need runs >= 1, got {runs}")
    rng = random.Random(seed)
    tries = [mine(b"zoned-ledger-bench", target, nonce_bits, rng).tries for _ in range(runs)]
    mean = statistics.fmean(tries)
    law = mining_cost_law(target.target_fraction, nonce_bits)
    sigma = statistics.stdev(tries) / runs**0.5 if runs > 1 else 0.0
    return {
        "target_fraction": target.target_fraction,
        "runs": runs,
        "mean_tries": mean,
        "law": law,
        "sigma": sigma,
        "seed": seed,
    }


def scheme_cost_comparison(n: int, m: int, p_bits: int, pprime_fraction: float,
                           runs: int = 200, seed: int = 0) -> dict:
    """Measured hash evaluations per committed block, PoW vs this scheme.

    PoW cost is the empirical mean tries of actual mining runs over 32-bit
    nonces. The distributed scheme hashes once per block; its extra work is
    the per-zone secret-sharing polynomial evaluations, counted from the
    records actually written.
    """
    target = DifficultyTarget(p_bits, pprime_fraction)
    pow_stats = mining_trials(target, 32, runs, seed)

    block_bytes = m * 8
    state = ChainState(ChainConfig(n=n, m=m, block_bytes=block_bytes,
                                   hash_width=min(p_bits, 64)))
    rng = random.Random(seed)
    state.commit_block(rng.randbytes(block_bytes), rng)
    share_evals = len(state.records[0])  # one share of key and previous hash per record
    return {
        "pow_mean_hash_evals": pow_stats["mean_tries"],
        "pow_law": pow_stats["law"],
        "scheme_hash_evals": 1,
        "scheme_share_evaluations": share_evals,
        "zones": n // m,
        "runs": runs,
        "seed": seed,
    }
