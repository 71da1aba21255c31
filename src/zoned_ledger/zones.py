"""Cyclic zone allocation via the round-robin circle method.

Peers fall into 2n' consecutive groups of m/2 (n' = n/m). Each slot pairs
the groups with one perfect matching of the complete graph on group
vertices: group 0 stays fixed, the others rotate, giving a schedule
with period P = 2n' - 1 in which every group pair meets exactly once.
At slot t, group x >= 1 sits at position (x - 1 - t) mod P; zone 0 pairs
group 0 (so peer 0) with the group at position 0, and zone z >= 1 pairs
the groups at positions z and P - z. ``zone_groups`` and its inverse
``zone_of_group`` compute this in O(1).
"""

import math
from collections import namedtuple

from .errors import ConfigurationError, SlotError


class GroupLayout(namedtuple("GroupLayout", "n m")):
    """Peers 0..n-1 in 2n/m consecutive groups of m/2, each built on demand."""

    __slots__ = ()

    @property
    def num_groups(self) -> int:
        return 2 * self.n // self.m

    @property
    def period(self) -> int:
        return 2 * self.n // self.m - 1

    def group(self, g: int) -> tuple[int, ...]:
        half = self.m // 2
        return tuple(range(g * half, (g + 1) * half))


def layout(n: int, m: int) -> GroupLayout:
    """Partition peers 0..n-1 into 2n/m consecutive groups of m/2."""
    if m < 2 or m % 2 != 0:
        raise ConfigurationError(f"zone size m must be even and >= 2, got {m}")
    if n % m != 0 or n < m:
        raise ConfigurationError(f"n={n} must be a positive multiple of m={m}")
    return GroupLayout(n, m)


def zone_groups(lay: GroupLayout, t: int, z: int) -> tuple[int, int]:
    """The two groups (a, b), a < b, that form zone z at slot t."""
    p = lay.period
    if z == 0:
        return 0, t % p + 1
    a, b = (t + z) % p + 1, (t - z) % p + 1
    return (a, b) if a < b else (b, a)


def zone_of_group(lay: GroupLayout, t: int, g: int) -> int:
    """The zone that group g belongs to at slot t; inverts zone_groups."""
    pos = (g - 1 - t) % lay.period
    return min(pos, lay.period - pos) if g else 0


def allocation_at(lay: GroupLayout, t: int) -> list[tuple[int, ...]]:
    """Zones for slot t: each zone is a sorted tuple of m peer indices.

    Zone z holds the groups zone_groups(lay, t, z): zone 0 holds group 0,
    so peer 0, and zone z >= 1 the groups at positions z and P - z.
    """
    pairs = (zone_groups(lay, t, z) for z in range(lay.n // lay.m))
    return [lay.group(a) + lay.group(b) for a, b in pairs]


def zone_of(zones, peer: int) -> int:
    """The index of the zone in zones that holds peer; SlotError if none does."""
    for z, members in enumerate(zones):
        if peer in members:
            return z
    raise SlotError(f"peer {peer} not in any zone")


def coverage_slots(n: int, m: int) -> int:
    """Slots until every peer pair has shared a zone: 2n/m - 1."""
    return layout(n, m).period


def allocation_count(n: int, m: int) -> int:
    """n! / (m!)^(n/m), the number of ordered zone assignments.

    Pure counting; unlike the scheduler it does not require m even.
    """
    if m < 1 or n < m or n % m != 0:
        raise ConfigurationError(f"n={n} must be a positive multiple of m={m}")
    return math.factorial(n) // math.factorial(m) ** (n // m)
