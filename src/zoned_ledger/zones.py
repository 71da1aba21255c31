"""Cyclic zone allocation via the round-robin circle method.

Peers fall into 2n' consecutive groups of m/2 (n' = n/m). Each slot pairs
the groups with one perfect matching of the complete graph on group
vertices: group 0 stays fixed, the others rotate, giving a schedule
with period 2n' - 1 in which every group pair meets exactly once.
"""

import math
from collections import namedtuple

from .errors import ConfigurationError


class GroupLayout(namedtuple("GroupLayout", "n m")):
    """Peers 0..n-1 in 2n/m consecutive groups of m/2, each built on demand."""

    __slots__ = ()

    @property
    def num_groups(self) -> int:
        return 2 * self.n // self.m

    @property
    def period(self) -> int:
        return self.num_groups - 1

    def group(self, g: int) -> tuple[int, ...]:
        half = self.m // 2
        return tuple(range(g * half, (g + 1) * half))

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Every group, in order; builds all n peers, so only for small n."""
        return tuple(self.group(g) for g in range(self.num_groups))


def layout(n: int, m: int) -> GroupLayout:
    """Partition peers 0..n-1 into 2n/m consecutive groups of m/2."""
    if m < 2 or m % 2 != 0:
        raise ConfigurationError(f"zone size m must be even and >= 2, got {m}")
    if n % m != 0 or n < m:
        raise ConfigurationError(f"n={n} must be a positive multiple of m={m}")
    return GroupLayout(n, m)


def allocation_at(lay: GroupLayout, t: int) -> list[tuple[int, ...]]:
    """Zones for slot t: each zone is a sorted tuple of m peer indices.

    Zones are listed in order of their smallest peer, so the allocation
    is a deterministic function of (n, m, t).
    """
    g = lay.num_groups
    arr = [(i + t) % (g - 1) + 1 for i in range(g - 1)]
    pairs = [(0, arr[0])]
    for i in range(1, (g - 1) // 2 + 1):
        pairs.append((arr[i], arr[g - 1 - i]))
    zones = [tuple(sorted(lay.group(a) + lay.group(b))) for a, b in pairs]
    return sorted(zones, key=lambda z: z[0])


def zone_of(zones, peer: int) -> int:
    for z, members in enumerate(zones):
        if peer in members:
            return z
    raise ValueError(f"peer {peer} not in any zone")


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
