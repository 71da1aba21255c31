import itertools
import math

import pytest

from zoned_ledger.errors import ConfigurationError
from zoned_ledger.ledger import ChainConfig, ChainState
from zoned_ledger.zones import (allocation_at, allocation_count,
                                coverage_slots, layout, zone_groups,
                                zone_of, zone_of_group)


def valid_configs(max_n=48, sizes=(2, 4, 6, 8)):
    for m in sizes:
        for n in range(m, max_n + 1, m):
            yield n, m


def reference_allocation(lay, t):
    """The circle method written out: rotate the groups, pair them, sort by smallest peer."""
    g = lay.num_groups
    arr = [(i + t) % (g - 1) + 1 for i in range(g - 1)]
    pairs = [(0, arr[0])]
    for i in range(1, (g - 1) // 2 + 1):
        pairs.append((arr[i], arr[g - 1 - i]))
    zones = [tuple(sorted(lay.group(a) + lay.group(b))) for a, b in pairs]
    return sorted(zones, key=lambda z: z[0])


@pytest.mark.parametrize("n,m", list(valid_configs(96, range(2, 97, 2))))
def test_closed_form_schedule_matches_circle_method(n, m):
    lay = layout(n, m)
    state = ChainState(ChainConfig(n=n, m=m, block_bytes=m))
    for t in range(2 * lay.period):
        zones = allocation_at(lay, t)
        reference = reference_allocation(lay, t)
        assert sorted(zones) == reference
        assert zones[0] == reference[0]  # zone 0 holds peer 0, as before
        assert state.allocation(t) == zones
        for z in range(n // m):
            a, b = zone_groups(lay, t, z)
            assert a < b
            assert zone_of_group(lay, t, a) == zone_of_group(lay, t, b) == z
            assert zones[z] == lay.group(a) + lay.group(b)
        for peer in range(n):
            assert zone_of(zones, peer) == zone_of_group(lay, t, peer // (m // 2))


def test_layout_consecutive_groups():
    lay = layout(8, 4)
    assert lay.groups == ((0, 1), (2, 3), (4, 5), (6, 7))


def test_layout_single_zone_network():
    lay = layout(6, 6)
    assert len(lay.groups) == 2
    assert allocation_at(lay, 0) == [(0, 1, 2, 3, 4, 5)]
    assert allocation_at(lay, 12) == [(0, 1, 2, 3, 4, 5)]


@pytest.mark.parametrize("n,m", [(6, 4), (8, 3), (8, 5), (4, 8), (0, 2)])
def test_invalid_configs_rejected(n, m):
    with pytest.raises(ConfigurationError):
        layout(n, m)


def test_k4_matchings_covered():
    lay = layout(8, 4)
    seen = set()
    for t in range(3):
        zones = allocation_at(lay, t)
        pairs = frozenset(
            frozenset({g for g, grp in enumerate(lay.groups) if grp[0] in z})
            for z in zones)
        seen.add(pairs)
    assert len(seen) == 3  # the 3 perfect matchings of K_4


def test_partition_validity_and_periodicity():
    for n, m in valid_configs():
        lay = layout(n, m)
        period = coverage_slots(n, m)
        for t in range(period + 3):
            zones = allocation_at(lay, t)
            assert len(zones) == n // m
            assert sorted(p for z in zones for p in z) == list(range(n))
            assert all(len(z) == m for z in zones)
        for t in range(period):
            assert allocation_at(lay, t) == allocation_at(lay, t + period)


def test_every_pair_covered_within_period():
    for n, m in valid_configs():
        lay = layout(n, m)
        period = coverage_slots(n, m)
        met = set()
        for t in range(period):
            for z in allocation_at(lay, t):
                met.update(itertools.combinations(z, 2))
        assert len(met) == n * (n - 1) // 2, (n, m)


def test_group_pairs_once_per_period():
    for n, m in [(24, 4), (48, 4), (24, 6), (16, 8)]:
        lay = layout(n, m)
        g = len(lay.groups)
        period = coverage_slots(n, m)
        seen = []
        for t in range(period):
            for z in allocation_at(lay, t):
                groups = tuple(sorted({i for i, grp in enumerate(lay.groups)
                                       if grp[0] in z}))
                seen.append(groups)
        assert len(seen) == len(set(seen)) == g * (g - 1) // 2


def test_coverage_slots_values():
    assert coverage_slots(8, 4) == 3
    assert coverage_slots(6, 6) == 1
    assert coverage_slots(24, 4) == 11
    assert coverage_slots(48, 4) == 23


def test_handshake_lower_bound():
    for n, m in valid_configs():
        assert coverage_slots(n, m) >= math.ceil((n - 1) / (m - 1))


def test_allocation_count():
    assert allocation_count(4, 2) == 6
    assert allocation_count(6, 6) == 1
    assert allocation_count(6, 3) == 20  # only via the raw formula
    assert allocation_count(8, 2) == math.factorial(8) // 16


def test_zone_of():
    lay = layout(8, 4)
    zones = allocation_at(lay, 1)
    for peer in range(8):
        assert peer in zones[zone_of(zones, peer)]
