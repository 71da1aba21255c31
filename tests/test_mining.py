import itertools
import random
from fractions import Fraction

import pytest

from zoned_ledger.errors import ConfigurationError, MiningExhaustedError
from zoned_ledger.mining import (DifficultyTarget, mine, mining_cost_law,
                                 mining_hash, mining_trials,
                                 scheme_cost_comparison, urn_expected_draws)


def test_target_threshold():
    assert DifficultyTarget(64, 1.0).threshold == 1 << 64
    assert DifficultyTarget(64, 0.5).threshold == 1 << 63
    assert DifficultyTarget(16, 2**-16).threshold == 1


def test_target_validation():
    with pytest.raises(ConfigurationError):
        DifficultyTarget(64, 0.0)
    with pytest.raises(ConfigurationError):
        DifficultyTarget(64, 1.5)
    with pytest.raises(ConfigurationError):
        DifficultyTarget(4, 0.5)


@pytest.mark.parametrize("width,fraction", [(8, 2**-10), (8, 2**-9), (64, 1e-30),
                                            (256, 2**-258)])
def test_target_with_a_zero_threshold_rejected(width, fraction):
    # round(fraction * 2^width) == 0 (2^-9 of 2^8 is one half, which rounds to even)
    with pytest.raises(ConfigurationError, match="threshold of 0"):
        DifficultyTarget(width, fraction)


def test_smallest_nonzero_threshold_accepted():
    assert DifficultyTarget(8, 2**-8).threshold == 1
    assert DifficultyTarget(8, 3 * 2**-10).threshold == 1


def test_fraction_one_always_first_try():
    rng = random.Random(0)
    target = DifficultyTarget(64, 1.0)
    for _ in range(50):
        assert mine(b"x", target, 16, rng).tries == 1


def test_mine_result_reproduces_hash():
    rng = random.Random(3)
    target = DifficultyTarget(32, 2**-6)
    for _ in range(20):
        res = mine(b"prev", target, 32, rng)
        assert mining_hash(res.nonce, 32, b"prev", 32) == res.hash
        assert res.hash < target.threshold


def test_mine_exhausts_tiny_space():
    # an 8-bit nonce space rarely contains a hash below 2^-16 of the range
    rng = random.Random(1)
    with pytest.raises(MiningExhaustedError):
        for _ in range(20):
            mine(b"hopeless", DifficultyTarget(64, 2**-16), 8, rng)


def test_mine_never_repeats_a_nonce():
    rng = random.Random(5)
    target = DifficultyTarget(16, 2**-8)
    res = mine(b"seq", target, 10, rng)
    assert res.tries <= 1 << 10


def brute_force_mine(prev, target, nonce_bits, start):
    """First nonce in wrap-around order from start meeting the target, by mining_hash."""
    space = 1 << nonce_bits
    for pos in range(space):
        nonce = (start + pos) % space
        value = mining_hash(nonce, nonce_bits, prev, target.hash_width_bits)
        if value < target.threshold:
            return nonce, value, pos + 1
    return None


@pytest.mark.parametrize("width,fraction", [(8, 2**-3), (8, 1.0), (16, 2**-6),
                                            (64, 2**-5), (256, 2**-7),
                                            (256, 1.0)])
def test_mine_matches_brute_force_reference(width, fraction):
    nonce_bits, space = 10, 1 << 10
    target = DifficultyTarget(width, fraction)
    # a seed whose first start is the top nonce, so the order wraps to 0
    top_seed = next(s for s in itertools.count()
                    if random.Random(s).randrange(space) == space - 1)
    wrapped = 0
    for seed in [*range(20), top_seed]:
        rng, twin = random.Random(seed), random.Random(seed)
        prev = b"ref-%d" % seed
        for _ in range(50):
            start = twin.randrange(space)
            expect = brute_force_mine(prev, target, nonce_bits, start)
            assert expect is not None
            res = mine(prev, target, nonce_bits, rng)
            assert (res.nonce, res.hash, res.tries) == expect
            wrapped += res.nonce < start
    if fraction < 1:
        assert wrapped > 0
    else:
        assert wrapped == 0


def brute_force_expected_draws(blue, red):
    total = blue + red
    acc = Fraction(0)
    count = 0
    for arrangement in itertools.permutations(range(total), total):
        draws = next(i + 1 for i, ball in enumerate(arrangement) if ball < blue)
        acc += draws
        count += 1
    return acc / count


@pytest.mark.parametrize("blue,red", [(1, 0), (1, 3), (2, 3), (3, 3), (2, 5)])
def test_urn_law_matches_brute_force(blue, red):
    assert urn_expected_draws(blue, red) == brute_force_expected_draws(blue, red)


def test_urn_law_rejects_no_blue():
    with pytest.raises(ConfigurationError):
        urn_expected_draws(0, 5)


def test_cost_law_monotone_in_difficulty():
    laws = [mining_cost_law(2**-k, 32) for k in range(0, 16, 2)]
    assert laws == sorted(laws)
    assert laws[0] == pytest.approx(1.0, abs=1e-6)


def test_cost_law_approximates_inverse_fraction():
    for k in (4, 8, 12):
        assert mining_cost_law(2**-k, 32) == pytest.approx(2**k, rel=1e-3)


def test_mean_tries_matches_law():
    target = DifficultyTarget(64, 2**-5)
    stats = mining_trials(target, 32, runs=3000, seed=11)
    assert abs(stats["mean_tries"] - stats["law"]) <= 3.5 * stats["sigma"]


@pytest.mark.parametrize("runs", [0, -3])
def test_runs_below_one_is_a_configuration_error(runs):
    with pytest.raises(ConfigurationError, match="runs >= 1"):
        mining_trials(DifficultyTarget(64, 2**-5), 32, runs, seed=0)


def test_scheme_cost_comparison_shape():
    out = scheme_cost_comparison(n=8, m=4, p_bits=64, pprime_fraction=2**-5,
                                 runs=300, seed=2)
    assert out["scheme_hash_evals"] == 1
    assert out["pow_mean_hash_evals"] > out["scheme_hash_evals"]
    # each of the 8 peers stores one share of key and previous hash
    assert out["scheme_share_evaluations"] == 8 * 1
    assert abs(out["pow_mean_hash_evals"] - out["pow_law"]) < out["pow_law"]
