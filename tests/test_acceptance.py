"""End-to-end acceptance checks, one test per numbered criterion.

Each criterion gets a single test function; a terminal-summary hook in
conftest.py prints one PASS/FAIL line per criterion after the run.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from zoned_ledger.adversary import (availability_bounds,
                                    availability_closed_form,
                                    availability_trial,
                                    consistent_corruption_trial,
                                    min_corruption_for_success, enumerate_keys,
                                    joint_corruption_bound, zone_corruption_exact,
                                    zone_corruption_trial,
                                    dynamic_exposure_scan)
from zoned_ledger.cli import main as cli_main
from zoned_ledger.errors import UnrecoverableError
from zoned_ledger.field import Field
from zoned_ledger.ledger import ChainConfig, ChainState, storage_cost_formula
from zoned_ledger.mining import (DifficultyTarget, mining_trials,
                                 urn_expected_draws)
from zoned_ledger.recovery import recover_block
from zoned_ledger.shamir import Share, reconstruct
from zoned_ledger.tree_cipher import corruption_oracle
from zoned_ledger.zones import allocation_at, coverage_slots, layout


def make_chain(n, m, block_bytes, blocks, seed):
    state = ChainState(ChainConfig(n=n, m=m, block_bytes=block_bytes))
    rng = random.Random(seed)
    for _ in range(blocks):
        state.commit_block(rng.randbytes(block_bytes), rng)
    return state, rng


def test_criterion_01_round_trip_integrity():
    start = time.monotonic()
    for m in (2, 4, 6, 8):
        for n in (8, 24, 48):
            if n % m:
                continue
            for block_bytes in (48, 96):
                state, _ = make_chain(n, m, block_bytes, 50, seed=n + m)
                for t in range(50):
                    report = recover_block(state, t)
                    assert report.recovered == state.payloads[t], (n, m, t)
                    assert report.unanimous
    assert time.monotonic() - start < 10.0


def test_criterion_02_storage_formulas():
    baseline, distributed, gain = storage_cost_formula(1024, 256, 8)
    assert (baseline, distributed, gain) == (1280, 689, 591)
    # q/m + 2m log2 m + 2p + 1, checked symbolically on a sweep
    for q, p, m in [(512, 64, 4), (4096, 256, 16), (96 * 8, 64, 6)]:
        b, d, g = storage_cost_formula(q, p, m)
        assert b == q + p
        assert d == pytest.approx(q / m + 2 * m * math.log2(m) + 2 * p + 1)
        assert g == pytest.approx(b - d)
    # measured per-peer cost is the formula plus a constant serialization
    # overhead: the deviation is intercept-only across the block-size sweep
    deviations = set()
    for block_bytes in (16, 32, 64, 128, 256):
        state, _ = make_chain(8, 4, block_bytes, 1, seed=0)
        measured = state.storage_cost_measured(0, 0)
        _, formula, _ = storage_cost_formula(8 * block_bytes, 64, 4)
        deviations.add(round(measured - formula, 6))
    assert len(deviations) == 1


def test_criterion_03_shamir_secrecy_exhaustive():
    f = Field(7)
    xs = (1, 2, 3, 4)
    counts: dict = {}
    for secret in range(7):
        for a1 in range(7):
            for a2 in range(7):
                shares = [Share(x, f.eval_poly([secret, a1, a2], x)) for x in xs]
                # any 3 shares reconstruct exactly
                for trio in itertools.combinations(shares, 3):
                    assert reconstruct(f, list(trio), 3) == secret
                # tally posteriors over every 2-share view
                for duo in itertools.combinations(shares, 2):
                    key = (duo[0], duo[1])
                    counts.setdefault(key, [0] * 7)[secret] += 1
    for tally in counts.values():
        assert tally == [tally[0]] * 7  # exactly uniform over secrets


def test_criterion_04_zone_corruption_bound():
    start = time.monotonic()
    for c in (2, 3, 4, 5):
        s = zone_corruption_trial(6, c, 100_000, seed=40 + c)
        assert s.estimate <= s.bound + 3 * s.sigma, (c, s)
    # for m <= 4 the trial's success probability is known exactly: fully
    # exhaustive enumeration over keys and corrupted subsets must agree
    for m in (2, 3, 4):
        for c in range(1, m + 1):
            hits = 0
            total = 0
            subsets = list(itertools.combinations(range(m), c))
            for key in enumerate_keys(m):
                for subset in subsets:
                    hits += corruption_oracle(key, set(subset), {0})
                    total += 1
            assert Fraction(hits, total) == pytest.approx(
                zone_corruption_exact(m, c), abs=1e-12)
    assert time.monotonic() - start < 30.0


def test_criterion_05_joint_corruption_and_minimum():
    n, m = 24, 6
    s = consistent_corruption_trial(n, m, [5, 5], 40_000, seed=5)
    assert s.estimate <= joint_corruption_bound(n, m, [5, 5]) + 3 * s.sigma
    # minimal total corruption whose best two-zone split reaches 0.9
    best: dict[int, float] = {}
    for c1 in range(1, m + 1):
        for c2 in range(c1, m + 1):
            est = consistent_corruption_trial(
                n, m, [c1, c2], 2000, seed=100 + 10 * c1 + c2).estimate
            total = c1 + c2
            best[total] = max(best.get(total, 0.0), est)
    minimal = min(t for t, est in best.items() if est >= 0.9)
    assert minimal == 12
    assert minimal >= min_corruption_for_success(n, m, 0.1)


def test_criterion_06_coverage_exact():
    for m in range(2, 49, 2):
        for n in range(m, 49, m):
            lay = layout(n, m)
            period = coverage_slots(n, m)
            assert period == 2 * n // m - 1
            met: set = set()
            allocations = []
            for t in range(period):
                zones = allocation_at(lay, t)
                allocations.append(zones)
                for z in zones:
                    met.update(itertools.combinations(z, 2))
                if t == period - 2:
                    partial = len(met)
            assert len(met) == n * (n - 1) // 2, (n, m)
            if period > 1:
                assert partial < n * (n - 1) // 2  # needs the full period
            # the schedule's minimal period is exactly 2n/m - 1
            assert len({tuple(a) for a in allocations}) == period
            assert allocation_at(lay, period) == allocations[0]
            # each group pair co-zoned exactly once per period
            seen = []
            for zones in allocations:
                for z in zones:
                    seen.append(tuple(sorted({i for i in range(lay.num_groups)
                                              if lay.group(i)[0] in z})))
            g = lay.num_groups
            assert len(seen) == len(set(seen)) == g * (g - 1) // 2


def test_criterion_07_dynamic_exposure():
    n, m = 48, 4
    slot0 = allocation_at(layout(n, m), 0)
    initial = {p for zone in slot0[: n // (2 * m)] for p in zone}
    assert len(initial) == n // 2
    per_slot = dynamic_exposure_scan(n, m, initial, 12)
    exhausted = False
    forced = 0
    for fresh in per_slot:
        if exhausted:
            assert fresh == 0
        else:
            assert fresh >= m
            forced += fresh
            exhausted = len(initial) + forced == n
    assert exhausted
    slots_needed = next(i + 1 for i in range(len(per_slot))
                        if len(initial) + sum(per_slot[: i + 1]) == n)
    assert slots_needed <= n // (2 * m) == 6


def test_criterion_08_availability():
    grid = [(64, 4, 0.1), (24, 4, 0.2), (48, 6, 0.3), (32, 8, 0.05)]
    for n, m, rho in grid:
        s = availability_trial(n, m, rho, 100_000, seed=8)
        p = availability_closed_form(n, m, rho)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / s.trials)
        assert abs(s.estimate - p) <= 3 * sigma, (n, m, rho, s.estimate, p)
        _, failure_bound = availability_bounds(n, m, rho)
        assert 1 - s.estimate <= failure_bound + 3 * sigma


def test_criterion_09_mining_law():
    start = time.monotonic()
    for i, fraction in enumerate([2**-4, 2**-6, 2**-8, 2**-10, 2**-12]):
        target = DifficultyTarget(64, fraction)
        stats = mining_trials(target, 32, runs=10_000, seed=90 + i)
        assert abs(stats["mean_tries"] - stats["law"]) <= 3 * stats["sigma"], stats
    for blue in range(1, 13):
        for red in range(0, 13 - blue):
            total = blue + red
            # exhaustive: every placement of the blue balls is equally likely
            acc = Fraction(0)
            placements = list(itertools.combinations(range(total), blue))
            for positions in placements:
                acc += min(positions) + 1
            assert urn_expected_draws(blue, red) == acc / len(placements)
    assert time.monotonic() - start < 60.0


def test_criterion_10_dos_and_repair():
    state, rng = make_chain(24, 4, 32, 4, seed=10)
    t = 1
    zones = state.allocation(t)
    # erase one peer in every zone but the last: still recoverable
    for members in zones[:-1]:
        state.erase_peer_record(t, members[0])
    assert recover_block(state, t).recovered == state.payloads[t]
    # repair restores full redundancy in every damaged zone
    for z in range(len(zones) - 1):
        state.repair_zone(t, z, rng)
        assert state.zone_candidate(t, z) == state.payloads[t]
        assert state.zone_prev_hash(t, z) == state.hashes[t]
    assert recover_block(state, t).unanimous
    # one erasure in every zone kills the slot
    for members in zones:
        state.erase_peer_record(t, members[0])
    with pytest.raises(UnrecoverableError):
        recover_block(state, t)


def test_criterion_11_cli_determinism(tmp_path, capsys):
    commands = [
        ["simulate", "--n", "24", "--m", "4", "--blocks", "10", "--seed", "7"],
        ["attack", "--m", "4", "--trials", "1000", "--seed", "7"],
        ["availability", "--n", "24", "--m", "4", "--trials", "20000",
         "--seed", "7"],
        ["mining", "--trials", "300", "--target-fraction", "0.0625",
         "--seed", "7"],
        ["storage-cost", "--seed", "7"],
        ["coverage", "--n", "24", "--m", "4", "--seed", "7"],
    ]
    for i, cmd in enumerate(commands):
        outputs = []
        for run in range(2):
            out = tmp_path / f"{i}-{run}.jsonl"
            assert cli_main(cmd + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes() + capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1], cmd[0]
