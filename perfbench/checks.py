"""Output checks computed apart from the library.

Each function returns a list of mismatch messages; an empty list means
the output agrees with the independent computation.
"""

import hashlib
import math
from fractions import Fraction


def hash_chain(payloads, width):
    """[H_0, ..., H_B] by SHA-256 over (previous hash bytes || payload)."""
    out = [0]
    for payload in payloads:
        prev = out[-1].to_bytes((width + 7) // 8, "big")
        digest = hashlib.sha256(prev + payload).digest()
        out.append(int.from_bytes(digest, "big") >> (256 - width))
    return out


def urn_law(fraction, nonce_bits):
    """Expected tries (2^q + 1) / (f 2^q + 1), exactly."""
    total = 1 << nonce_bits
    return Fraction(total + 1) / (Fraction(fraction) * total + 1)


def check_attack(records, m, trials):
    errors = []
    by_c = {r["c"]: r for r in records if r.get("kind") == "zone_corruption"}
    if sorted(by_c) != list(range(1, m + 1)) or len(records) != m:
        return [f"attack: expected one record per c in 1..{m}, got {sorted(by_c)}"]
    for c, r in by_c.items():
        if r["trials"] != trials or r["m"] != m:
            errors.append(f"attack c={c}: wrong trials or m")
        est = r["successes"] / trials
        sigma = math.sqrt(est * (1 - est) / trials)
        bound = c * (c - 1) / (m * (m - 1))
        if est - 3 * sigma > bound:
            errors.append(f"attack c={c}: estimate {est} above bound {bound}")
    if by_c[1]["successes"] != 0:
        errors.append("attack c=1: a single peer rewrote a fragment")
    if by_c[m]["successes"] != trials:
        errors.append("attack c=m: the whole zone failed to rewrite a fragment")
    return errors


def check_mining(records, fractions, trials, nonce_bits):
    errors = []
    got = sorted(r["target_fraction"] for r in records)
    if got != sorted(fractions) or len(records) != len(fractions):
        return [f"mining: fractions {got}, expected {sorted(fractions)}"]
    for r in records:
        f = r["target_fraction"]
        law = urn_law(f, nonce_bits)
        if r["runs"] != trials or not math.isclose(r["law"], float(law), rel_tol=1e-12):
            errors.append(f"mining f={f}: runs or law disagree ({r['law']} vs {float(law)})")
        # tries are geometric with success rate f: variance (1 - f) / f^2
        sigma = math.sqrt((1 - f) / f**2 / trials)
        if abs(r["mean_tries"] - float(law)) > 4 * sigma:
            errors.append(f"mining f={f}: mean tries {r['mean_tries']} not within "
                          f"4 sigma of {float(law)}")
    return errors


def check_availability(records, n, m, rho, trials):
    if len(records) != 1:
        return ["availability: expected one record"]
    r = records[0]
    p = 1 - (1 - (1 - rho) ** m) ** (n // m)
    sigma = math.sqrt(p * (1 - p) / trials)
    if r["trials"] != trials or abs(r["successes"] / trials - p) > 4 * sigma:
        return [f"availability: estimate {r['estimate']} not within 4 sigma of {p}"]
    return []


def check_simulate(records, blocks):
    slots = sorted(r["slot"] for r in records if r.get("kind") == "slot_audit")
    if slots != list(range(blocks)) or len(records) != blocks:
        return [f"simulate: expected slots 0..{blocks - 1}"]
    bad = [r["slot"] for r in records if not (r["recovered_ok"] and r["unanimous"])]
    return [f"simulate: slots {bad[:5]} not recovered_ok and unanimous"] if bad else []
