import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoned_ledger import adversary
from zoned_ledger.adversary import (availability_bounds,
                                    availability_closed_form,
                                    availability_trial,
                                    consistent_corruption_trial,
                                    min_corruption_for_success, dos_tolerance,
                                    dynamic_exposure_scan, enumerate_keys,
                                    hash_corruption_trial, joint_corruption_bound,
                                    zone_corruption_exact,
                                    zone_corruption_trial)
from zoned_ledger.errors import ConfigurationError, UnrecoverableError
from zoned_ledger.ledger import ChainConfig, ChainState
from zoned_ledger.recovery import recover_block
from zoned_ledger.tree_cipher import corruption_oracle, key_space

from test_tree_cipher import decode_values, encode_values


def test_hash_corruption_matches_exact_rate():
    # tiny field so 1/(q - m) is large enough to resolve quickly
    s = hash_corruption_trial(m=4, field_bits=7, trials=40000, seed=1)
    exact = s.bound
    assert abs(s.estimate - exact) <= 3.5 * math.sqrt(exact * (1 - exact) / s.trials)


def test_hash_corruption_bound_value():
    s = hash_corruption_trial(m=4, field_bits=7, trials=10, seed=0)
    assert s.bound == 1 / (131 - 4)  # next prime above 2^7 is 131


def test_hash_corruption_rare_at_realistic_width():
    s = hash_corruption_trial(m=4, field_bits=32, trials=2000, seed=2)
    assert s.successes == 0


def test_zone_corruption_edge_cases():
    assert zone_corruption_trial(6, 1, 2000, 0).successes == 0
    assert zone_corruption_trial(6, 6, 500, 0).estimate == 1.0
    with pytest.raises(ConfigurationError):
        zone_corruption_trial(6, 0, 10, 0)
    with pytest.raises(ConfigurationError):
        zone_corruption_trial(6, 7, 10, 0)
    for c in (0, 7):
        with pytest.raises(ConfigurationError):
            zone_corruption_exact(6, c)


@pytest.mark.parametrize("m,c", [(2, 2), (3, 2), (4, 2), (4, 3), (6, 3)])
def test_zone_corruption_matches_exhaustive(m, c):
    exact = zone_corruption_exact(m, c)
    s = zone_corruption_trial(m, c, 40000, seed=m * 10 + c)
    assert abs(s.estimate - exact) <= 3.5 * math.sqrt(
        max(exact * (1 - exact), 1e-9) / s.trials)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_every_coalition_of_c_peers_wins_under_the_same_share_of_keys(m):
    # The trials corrupt peers 0 to c-1; that is as good as a random c-set
    # only if every c-set of peers wins under exactly the same keys' count.
    keys = list(enumerate_keys(m))
    for c in range(1, m + 1):
        wins = round(zone_corruption_exact(m, c) * key_space(m))
        for coalition in itertools.combinations(range(m), c):
            assert sum(corruption_oracle(key, coalition, {0}) for key in keys) == wins, \
                (m, coalition)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 8, 16])
def test_zone_corruption_exact_below_bound(m):
    for c in range(2, m):
        assert zone_corruption_exact(m, c) <= c * (c - 1) / (m * (m - 1)) + 1e-12


@pytest.mark.parametrize("c,expected", [(2, 0.0032), (4, 0.0201), (8, 0.1072)])
def test_zone_corruption_exact_at_m16(c, expected):
    assert round(zone_corruption_exact(16, c), 4) == expected


def test_joint_corruption_bound_values():
    assert joint_corruption_bound(24, 4, [0, 0, 0]) == 0.0
    assert joint_corruption_bound(24, 4, [12]) == pytest.approx(1.0)
    assert joint_corruption_bound(24, 6, [3, 3]) == pytest.approx((12 / 24) ** 4)


def test_min_corruption_for_success_value():
    # n=24, m=6, eps=0.1: (n/2) * 0.9^(1/4)
    assert min_corruption_for_success(24, 6, 0.1) == pytest.approx(12 * 0.9**0.25)


def test_consistent_corruption_joint_product():
    # joint success of independent zone attacks is the per-zone product
    per_zone = [4, 4]
    single = zone_corruption_exact(6, 4)
    s = consistent_corruption_trial(24, 6, per_zone, 40000, seed=3)
    expected = single**2
    assert abs(s.estimate - expected) <= 3.5 * math.sqrt(
        expected * (1 - expected) / s.trials)
    assert s.bound == pytest.approx(joint_corruption_bound(24, 6, per_zone))


def test_corruption_trials_keep_their_draws():
    # Each zone draws one key and corrupts its peers 0 to c-1, and a trial
    # stops at the first zone that fails: a change of that order changes
    # these counts.
    assert [zone_corruption_trial(6, c, 500, 40 + c).successes
            for c in range(1, 7)] == [0, 17, 39, 104, 205, 500]
    assert [consistent_corruption_trial(24, 6, per_zone, 2000, seed).successes
            for per_zone, seed in [([5, 5], 5), ([3, 4, 6], 7), ([6], 1), ([2, 6, 6, 1], 9)]
            ] == [331, 37, 2000, 0]


@pytest.mark.parametrize("per_zone", [[0], [7], [-1], [3, 0], [], [2] * 5],
                         ids=["c_0", "c_past_m", "c_negative", "second_c_0", "no_zone",
                              "past_n_over_m_zones"])
def test_joint_trial_rejects_a_c_outside_1_to_m_or_a_zone_count_outside_1_to_n_over_m(
        per_zone):
    with pytest.raises(ConfigurationError):
        consistent_corruption_trial(24, 6, per_zone, 10, 0)


def test_dynamic_exposure_forces_full_network():
    from zoned_ledger.zones import allocation_at, layout
    # corrupt half the slot-0 zones outright
    slot0 = allocation_at(layout(48, 4), 0)
    initial = {p for zone in slot0[:6] for p in zone}
    per_slot = dynamic_exposure_scan(48, 4, initial, 12)
    assert per_slot[:6] == [4, 4, 4, 4, 4, 4]
    assert per_slot[6:] == [0] * 6
    assert len(initial) + sum(per_slot) == 48


def test_dynamic_exposure_small_network():
    per_slot = dynamic_exposure_scan(8, 4, {0, 1, 2, 3}, 3)
    assert per_slot == [4, 0, 0]


def test_dynamic_exposure_no_initial_corruption():
    assert dynamic_exposure_scan(24, 4, set(), 11) == [0] * 11


@pytest.mark.parametrize("closed_form", [
    lambda: availability_closed_form(24, 0, 0.1),
    lambda: availability_bounds(24, 0, 0.1),
    lambda: joint_corruption_bound(24, 0, [1]),
    lambda: joint_corruption_bound(0, 4, [1]),
    lambda: min_corruption_for_success(0, 4, 0.1),
], ids=["availability_m_0", "bounds_m_0", "joint_m_0", "joint_n_0", "min_corruption_n_0"])
def test_closed_forms_reject_a_layout_that_layout_rejects(closed_form):
    with pytest.raises(ConfigurationError):
        closed_form()


@pytest.mark.parametrize("call", [
    lambda: availability_closed_form(24, 4, 3.0),
    lambda: availability_bounds(24, 4, -1.0),
    lambda: min_corruption_for_success(24, 6, 2.0),
    lambda: availability_closed_form(24, 4, math.nan),
    lambda: availability_bounds(24, 4, math.nan),
    lambda: min_corruption_for_success(24, 6, math.nan),
    lambda: availability_trial(24, 4, math.nan, 10, 0),
], ids=["availability_rho_3", "bounds_rho_negative", "min_corruption_eps_2",
        "availability_rho_nan", "bounds_rho_nan",
        "min_corruption_eps_nan", "trial_rho_nan"])
def test_closed_forms_reject_a_probability_outside_its_range(call):
    # rho must be in [0, 1) and eps in [0, 1]: the closed forms returned -11390624.0,
    # a union bound of 96.0, the complex 8.49+8.49j, or NaN; the trial shares their check
    with pytest.raises(ConfigurationError):
        call()


def test_closed_forms_take_the_ends_of_their_ranges():
    assert availability_closed_form(24, 4, 0.0) == 1.0
    assert availability_bounds(24, 4, 0.0) == (6.0, math.exp(-6.0))
    assert min_corruption_for_success(24, 6, 0.0) == 12.0
    assert min_corruption_for_success(24, 6, 1.0) == 0.0


def test_availability_closed_form_values():
    assert availability_closed_form(8, 4, 0.0) == 1.0
    p = 1 - (1 - 0.9**4) ** 2
    assert availability_closed_form(8, 4, 0.1) == pytest.approx(p)


def test_availability_trial_matches_closed_form():
    for n, m, rho in [(24, 4, 0.2), (48, 6, 0.1), (16, 8, 0.3)]:
        s = availability_trial(n, m, rho, 100000, seed=7)
        p = availability_closed_form(n, m, rho)
        assert abs(s.estimate - p) <= 3.5 * math.sqrt(
            max(p * (1 - p), 1e-9) / s.trials)


def digit_planes(j):
    """A getrandbits stub over 2^j coins: plane p gives coin i binary digit p of
    i / 2^j, so coin i's uniform is exactly i / 2^j."""
    shifts = iter(range(j - 1, -1, -1))

    def getrandbits(bits):
        assert bits == 2**j
        shift = next(shifts, None)
        assert shift is not None, "drew more planes than rho has digits"
        return sum(1 << i for i in range(bits) if i >> shift & 1)
    return getrandbits


@pytest.mark.parametrize("j,a", sorted({(j, a) for j in (1, 2, 3, 5, 8)
                                        for a in (0, 1, 3, 2**(j - 1) + 1, 2**j - 1)
                                        if a < 2**j}))
def test_coin_is_active_with_probability_exactly_one_minus_rho(j, a):
    # every uniform i / 2^j once: U >= a / 2^j for exactly the coins i >= a
    active = adversary._active_coins(digit_planes(j), 2**j, a / 2**j)
    assert active == (1 << 2**j) - (1 << a)
    assert active.bit_count() == 2**j - a


def per_coin_successes(n, m, rho, trials, seed):
    """The reference: the trial's blocks and bit-planes, each coin compared with
    rho's binary digits on its own, and each zone and trial read coin by coin."""
    getrandbits = random.Random(seed).getrandbits
    num, den = rho.as_integer_ratio()
    digits = [num >> p & 1 for p in range(den.bit_length() - 2, -1, -1)]
    rows = max(1, adversary._DRAW_BLOCK // n)
    cols = max(m, adversary._DRAW_BLOCK // m * m)
    successes = 0
    for start in range(0, trials, rows):
        k = min(rows, trials - start)
        alive = [False] * k
        for col in range(0, n, cols):
            w = min(cols, n - col)
            active = [None] * (k * w)  # None while the coin's digits equal rho's
            for digit in digits:
                if None not in active:
                    break
                plane = f"{getrandbits(k * w):0{k * w}b}"[::-1]  # plane[i]: coin i's digit
                for i, state in enumerate(active):
                    if state is None and int(plane[i]) != digit:
                        active[i] = digit == 0
            for t in range(k):
                zones = [active[t * w + z * m:t * w + (z + 1) * m] for z in range(w // m)]
                alive[t] |= any(False not in zone for zone in zones)
        successes += sum(alive)
    return successes


@pytest.mark.parametrize("n,m,trials", [(16, 4, 10), (16, 4, 8), (24, 4, 1), (68, 4, 3),
                                        (72, 12, 2), (192, 8, 2), (256, 128, 2), (8, 8, 30),
                                        (10, 2, 70), (32, 16, 15)],
                         ids=["partial_last_block", "exact_multiple", "fewer_trials_than_rows",
                              "one_row_per_block", "zone_aligned_column_blocks",
                              "whole_column_blocks", "zone_wider_than_a_block", "one_zone",
                              "pairs", "wide_zones"])
def test_availability_trial_matches_per_coin_reference(monkeypatch, n, m, trials):
    monkeypatch.setattr(adversary, "_DRAW_BLOCK", 64)  # every block shape at a small size
    for seed, rho in [(1, 0.5), (7, 0.05), (3, 0.0), (4, 0.75)]:
        s = availability_trial(n, m, rho, trials, seed)
        assert s.successes == per_coin_successes(n, m, rho, trials, seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.sampled_from([2, 4, 6, 8, 16]),
       st.floats(0, 1, exclude_max=True), st.integers(1, 3000), st.integers(0, 2**32))
def test_availability_trial_matches_per_coin_reference_for_any_shape(zones, m, rho, trials,
                                                                     seed):
    n = zones * m
    s = availability_trial(n, m, rho, trials, seed)
    assert s.successes == per_coin_successes(n, m, rho, trials, seed)


def test_availability_trial_reads_rho_as_its_double():
    # a Fraction's denominator is no power of two: its digits are those of float(rho)
    for rho in [Fraction(1, 3), Fraction(1, 2), 0]:
        s = availability_trial(16, 4, rho, 500, 1)
        assert s.successes == availability_trial(16, 4, float(rho), 500, 1).successes


def test_availability_trial_memory_does_not_grow_with_trials():
    availability_trial(16, 4, 0.5, 10, seed=0)
    tracemalloc.start()
    try:
        availability_trial(16, 4, 0.5, 10**6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # a one-shot (10^6, 16) float64 draw alone is 128 MB


def test_availability_trial_memory_does_not_grow_with_n():
    availability_trial(16, 4, 0.5, 1, seed=0)
    tracemalloc.start()
    try:
        availability_trial(2**20, 4, 0.5, 2, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # a one-row (1, 2^20) float64 draw alone is 8 MB


@pytest.mark.parametrize("trial", [
    lambda trials: hash_corruption_trial(4, 7, trials, 0),
    lambda trials: zone_corruption_trial(6, 2, trials, 0),
    lambda trials: consistent_corruption_trial(24, 4, [2, 2], trials, 0),
    lambda trials: availability_trial(24, 4, 0.1, trials, 0),
], ids=["hash", "zone", "consistent", "availability"])
@pytest.mark.parametrize("trials", [0, -3])
def test_trials_below_one_is_a_configuration_error(trial, trials):
    with pytest.raises(ConfigurationError, match="trials >= 1"):
        trial(trials)


def test_availability_bounds_bracket_truth():
    for n, m, rho in [(24, 4, 0.2), (64, 4, 0.1), (48, 6, 0.3)]:
        p = availability_closed_form(n, m, rho)
        union, failure = availability_bounds(n, m, rho)
        assert p <= union
        assert 1 - p <= failure


def test_dos_tolerance_by_scripted_erasure():
    assert dos_tolerance(24, 4) == 6
    state = ChainState(ChainConfig(n=8, m=4, block_bytes=16))
    rng = random.Random(0)
    state.commit_block(rng.randbytes(16), rng)
    # one outage per zone leaves no decodable zone; one fewer survives
    state.erase_peer_record(0, state.allocation(0)[0][0])
    assert recover_block(state, 0).recovered == state.payloads[0]
    state.erase_peer_record(0, state.allocation(0)[1][0])
    with pytest.raises(UnrecoverableError):
        recover_block(state, 0)


def test_enumerate_keys_count():
    for m in (2, 3):
        keys = list(enumerate_keys(m))
        assert len(keys) == m ** (m - 1) * 2**m * math.factorial(m)
        assert len(set(keys)) == len(keys)


def confidentiality_probe(m, leaked_peers, fragment_bits, seed):
    """(deviation, candidates, keys) of an exhaustive posterior over plaintexts.

    Samples one true (block, key) pair, reveals the codewords of
    leaked_peers peers, and weighs every block by the keys that encode it
    to the leak. deviation is the largest distance of a position's
    posterior marginal from uniform; with the full codeword leaked,
    candidates counts the distinct blocks that some key decrypts it to.
    """
    rng = random.Random(seed)
    mask = (1 << fragment_bits) - 1
    keys = list(enumerate_keys(m))
    true_block = [rng.randrange(mask + 1) for _ in range(m)]
    true_key = keys[rng.randrange(len(keys))]
    codes = encode_values(true_block, true_key, mask)
    observed = {peer: codes[true_key.assignment[peer]]
                for peer in rng.sample(range(m), leaked_peers)}

    candidates = None
    if leaked_peers == m:
        decoded = set()
        for key in keys:
            node_codes = [0] * m
            for peer in range(m):
                node_codes[key.assignment[peer]] = observed[peer]
            decoded.add(tuple(decode_values(node_codes, key, mask)))
        candidates = len(decoded)

    weights = {}
    for block in itertools.product(range(mask + 1), repeat=m):
        w = 0
        for key in keys:
            kc = encode_values(list(block), key, mask)
            w += all(kc[key.assignment[peer]] == code for peer, code in observed.items())
        if w:
            weights[block] = w
    total = sum(weights.values())
    marginals = [[0.0] * (mask + 1) for _ in range(m)]
    for block, w in weights.items():
        for pos, v in enumerate(block):
            marginals[pos][v] += w / total
    deviation = max(abs(p - 1 / (mask + 1)) for row in marginals for p in row)
    return deviation, candidates, len(keys)


def test_confidentiality_no_leak_is_uniform():
    deviation, _, _ = confidentiality_probe(3, leaked_peers=0, fragment_bits=1, seed=0)
    assert deviation <= 1e-12


def test_confidentiality_partial_leak_is_uniform():
    # leaking any strict subset of codewords reveals nothing
    for seed in range(4):
        for leaked in (1, 2):
            deviation, _, _ = confidentiality_probe(3, leaked, fragment_bits=1, seed=seed)
            assert deviation <= 1e-12, (seed, leaked)


def test_confidentiality_full_leak_leaves_many_candidates():
    _, candidates, key_count = confidentiality_probe(2, leaked_peers=2, fragment_bits=4, seed=1)
    assert candidates is not None
    assert 1 < candidates <= key_count
