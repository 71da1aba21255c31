"""Monte Carlo corruption rates against their closed forms and bounds.

Run: python demos/corruption_bounds.py
"""

from zoned_ledger.adversary import (hash_corruption_trial, joint_corruption_bound,
                                    consistent_corruption_trial,
                                    zone_corruption_exact,
                                    zone_corruption_trial)

m, trials = 6, 50_000

print(f"single-zone fragment rewrite, m={m}, {trials} trials per c:")
print("  c  estimate   exact      bound c(c-1)/(m(m-1))")
for c in range(2, m + 1):
    s = zone_corruption_trial(m, c, trials, seed=c)
    exact = zone_corruption_exact(m, c)
    print(f"  {c}  {s.estimate:.5f}    {exact:.5f}    {s.bound:.5f}")

print()
print("single-zone fragment rewrite, exact closed form at larger zones:")
print("  m   c  exact      bound c(c-1)/(m(m-1))")
for big_m in (8, 16):
    for c in range(2, big_m + 1, 2):
        bound = c * (c - 1) / (big_m * (big_m - 1))
        print(f"  {big_m:<2}  {c:<2} {zone_corruption_exact(big_m, c):.5f}    {bound:.5f}")

print()
print("hash-share rewrite with one honest peer, small field (q=131):")
s = hash_corruption_trial(m=4, field_bits=7, trials=100_000, seed=1)
print(f"  estimate {s.estimate:.6f} vs exact 1/(q-m) = {s.bound:.6f}")

print()
print("joint corruption of two zones (n=24, m=6):")
for per_zone in ([3, 3], [5, 5], [6, 6]):
    s = consistent_corruption_trial(24, 6, per_zone, 20_000, seed=3)
    bound = joint_corruption_bound(24, 6, per_zone)
    print(f"  c={per_zone}: estimate {s.estimate:.4f}, bound {bound:.4f}")
