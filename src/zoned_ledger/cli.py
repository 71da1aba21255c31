"""Batch experiment runner.

Subcommands: simulate, attack, availability, mining, storage-cost,
coverage. Every run is a pure function of (config, seed): records are
emitted as sorted JSON lines (to --out or stdout) followed by an
aligned summary table on stdout.

Importing this module loads the ledger, recovery and adversary layers.
The rest loads when a run first needs it: argparse with the parser,
mining with the mining subcommand, decimal with coverage, and numpy
inside the availability trial.
"""

import json
import random
import sys

from . import adversary, zones
from .errors import ConfigurationError, MiningExhaustedError
from .ledger import ChainConfig, ChainState, storage_cost_formula
from .recovery import recover_block

DEFAULT_FRACTIONS = [2**-4, 2**-6, 2**-8, 2**-10, 2**-12]
JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _emit(records, summary_rows, out_path):
    lines = sorted(json.dumps(r, sort_keys=True) for r in records)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    if summary_rows:
        widths = [max(len(str(row[i])) for row in summary_rows)
                  for i in range(len(summary_rows[0]))]
        for row in summary_rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())


def cmd_simulate(args) -> int:
    if args.scan_limit is not None and args.scan_limit < 0:
        raise ConfigurationError(f"--scan-limit must be >= 0, got {args.scan_limit}")
    if args.blocks < 0:
        raise ConfigurationError(f"--blocks must be >= 0, got {args.blocks}")
    cfg = ChainConfig(n=args.n, m=args.m, block_bytes=args.block_bytes,
                      hash_width=args.hash_width)
    state = ChainState(cfg)
    rng = random.Random(args.seed)
    for _ in range(args.blocks):
        state.commit_block(rng.randbytes(cfg.block_bytes), rng)
    records = []
    all_ok = True
    for t in range(args.blocks):
        report = recover_block(state, t, scan_limit=args.scan_limit)
        ok = report.recovered == state.payloads[t]
        all_ok &= ok
        records.append({
            "kind": "slot_audit", "slot": t, "recovered_ok": ok,
            "unanimous": report.unanimous, "hash": state.hashes[t + 1],
        })
    _emit(records, [
        ("blocks", "n", "m", "all_recovered"),
        (args.blocks, args.n, args.m, all_ok),
    ], args.out)
    return 0 if all_ok else 1


def cmd_attack(args) -> int:
    if args.m < 1:
        raise ConfigurationError(f"--m must be >= 1, got {args.m}")
    records = []
    for c in range(1, args.m + 1):
        s = adversary.zone_corruption_trial(args.m, c, args.trials, args.seed + c)
        records.append({"kind": "zone_corruption", "m": args.m, "c": c,
                        **s._asdict(), "sigma": s.sigma})
    rows = [("c", "estimate", "bound", "within_bound")]
    for r in sorted(records, key=lambda r: r["c"]):
        rows.append((r["c"], f"{r['estimate']:.5f}", f"{r['bound']:.5f}",
                     r["estimate"] - 3 * r["sigma"] <= r["bound"]))
    _emit(records, rows, args.out)
    return 0


def cmd_availability(args) -> int:
    s = adversary.availability_trial(args.n, args.m, args.rho, args.trials, args.seed)
    union, failure = adversary.availability_bounds(args.n, args.m, args.rho)
    record = {
        "kind": "availability", "n": args.n, "m": args.m, "rho": args.rho,
        "trials": s.trials, "successes": s.successes, "estimate": s.estimate,
        "closed_form": s.bound, "union_bound": union,
        "failure_bound": failure, "sigma": s.sigma, "seed": s.seed,
    }
    _emit([record], [
        ("n", "m", "rho", "estimate", "closed_form"),
        (args.n, args.m, args.rho, f"{s.estimate:.5f}", f"{s.bound:.5f}"),
    ], args.out)
    return 0


def cmd_mining(args) -> int:
    from . import mining
    if args.nonce_bits < 0:
        raise ConfigurationError(f"--nonce-bits must be >= 0, got {args.nonce_bits}")
    fractions = (DEFAULT_FRACTIONS if args.target_fraction is None
                 else [args.target_fraction])
    targets = [mining.DifficultyTarget(args.hash_width, f) for f in fractions]
    records = []
    for i, target in enumerate(targets):
        stats = mining.mining_trials(target, args.nonce_bits, args.trials, args.seed + i)
        stats["kind"] = "mining"
        records.append(stats)
    rows = [("fraction", "runs", "mean_tries", "law")]
    for r in sorted(records, key=lambda r: -r["target_fraction"]):
        rows.append((f"{r['target_fraction']:.8f}", r["runs"],
                     f"{r['mean_tries']:.2f}", f"{r['law']:.2f}"))
    _emit(records, rows, args.out)
    return 0


def cmd_storage_cost(args) -> int:
    baseline, distributed, gain = storage_cost_formula(args.q_bits, args.p_bits, args.m)
    record = {
        "kind": "storage_cost", "q_bits": args.q_bits, "p_bits": args.p_bits,
        "m": args.m, "baseline_bits": baseline,
        "distributed_bits": distributed, "gain_bits": gain,
    }
    _emit([record], [
        ("q_bits", "p_bits", "m", "baseline", "distributed", "gain"),
        (args.q_bits, args.p_bits, args.m,
         f"{baseline:g}", f"{distributed:g}", f"{gain:g}"),
    ], args.out)
    return 0


def cmd_coverage(args) -> int:
    lay = zones.layout(args.n, args.m)
    period = zones.coverage_slots(args.n, args.m)
    met = bytearray(args.n * args.n)  # met[a * n + b]: a and b shared a zone
    for t in range(period):
        for zone in zones.allocation_at(lay, t):
            for a in zone:
                row = a * args.n
                for b in zone:
                    met[row + b] = 1
    all_pairs = 0 not in met
    # Decimal, not str(int): no 4300-digit limit, which the count passes near n = 1800 at m = 4
    import decimal
    count = str(decimal.Decimal(zones.allocation_count(args.n, args.m)))
    record = {
        "kind": "coverage", "n": args.n, "m": args.m, "period": period,
        "all_pairs_covered": all_pairs, "allocation_count": count,
    }
    _emit([record], [
        ("n", "m", "period", "all_pairs_covered"),
        (args.n, args.m, period, all_pairs),
    ], args.out)
    return 0 if all_pairs else 1


def build_parser() -> "argparse.ArgumentParser":
    import argparse
    parser = argparse.ArgumentParser(
        prog="zoned-ledger",
        description="Zone-coded distributed ledger storage experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file of defaults; explicit flags override")
        p.add_argument("--seed", type=int, default=None, required=False)
        p.add_argument("--out", type=str, default=None)
        defaults, types = {}, {"seed": int, "out": str}
        for flag, (ftype, default) in flags.items():
            attr = flag.replace("-", "_")
            p.add_argument(f"--{flag}", type=ftype, default=None, dest=attr)
            defaults[attr], types[attr] = default, ftype
        p.set_defaults(fn=fn, _defaults=defaults, _types=types)
        return p

    add("simulate", cmd_simulate, n=(int, 24), m=(int, 4),
        **{"block-bytes": (int, 48)}, blocks=(int, 20),
        **{"hash-width": (int, 64), "scan-limit": (int, None)})
    add("attack", cmd_attack, m=(int, 6), trials=(int, 20000))
    add("availability", cmd_availability, n=(int, 64), m=(int, 4),
        rho=(float, 0.1), trials=(int, 100000))
    add("mining", cmd_mining, trials=(int, 2000),
        **{"target-fraction": (float, None), "hash-width": (int, 64),
           "nonce-bits": (int, 32)})
    add("storage-cost", cmd_storage_cost, m=(int, 8),
        **{"q-bits": (int, 1024), "p-bits": (int, 256)})
    add("coverage", cmd_coverage, n=(int, 24), m=(int, 4))
    return parser


def _apply_config_file(args) -> None:
    if not args.config:
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            defaults = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigurationError(f"cannot read config file {args.config!r}: {exc}") from exc
    if not isinstance(defaults, dict):
        raise ConfigurationError(f"config file {args.config!r} must hold a JSON object")
    for key, value in defaults.items():
        attr = key.replace("-", "_")
        ftype = args._types.get(attr)
        if ftype is None:
            raise ConfigurationError(f"config key {key!r} is no flag of {args.command!r}")
        if value is not None:
            if type(value) not in JSON_TYPES[ftype]:  # no bool for an int flag
                raise ConfigurationError(
                    f"config key {key!r} must be a JSON {ftype.__name__}, got {value!r}")
            value = ftype(value)
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_config_file(args)
        for attr, default in getattr(args, "_defaults", {}).items():
            if getattr(args, attr) is None:
                setattr(args, attr, default)
        if args.seed is None:
            raise ConfigurationError("--seed is required (reproducibility contract)")
        return args.fn(args)
    except (ConfigurationError, MiningExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
