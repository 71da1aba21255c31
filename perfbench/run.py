"""Benchmark of the zoned-ledger library: one workload per run.

    python3 perfbench/run.py --workload chain-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run repeats whole rounds of its workload until --seconds have passed
(at least two rounds), checks every output, and prints two lines: a
report with each workload metric and the operations attempted and
failed per kind, then the result object with the gated metrics. With
--trace 1 each untraced round is followed by a traced round on the same
inputs, and the result carries the per-layer metrics. --smoke runs
every workload at tiny sizes, traced and untraced, in a few seconds.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up samples per untraced run, taken at even intervals over the run
# (between rounds) so that their median is not that of a single moment.
SETUP_SAMPLES = 15
# One set-up sample, in a fresh interpreter: import the library and build
# the workload's initial objects. Interpreter start-up is not counted.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.setup(sys.argv[3], sys.argv[4] == "1")
print(time.perf_counter() - start)
"""

if not (SRC / "zoned_ledger" / "__init__.py").is_file():
    print(f"error: no library sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import zoned_ledger  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI_COMMANDS = ("attack", "mining", "availability", "simulate")


def per_layer_names():
    """(name, unit) of every per-layer metric, in output order."""
    names = []
    for layer in TARGETS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names += [("field.interpolate_points", "count"), ("ledger.decodes_per_recover", "ratio"),
              ("recovery.slots_scanned", "count"), ("mining.tries", "count")]
    names += [(f"cli.{c}.wall_s", "s") for c in CLI_COMMANDS]
    names.append(("trace.overhead_s", "s"))
    return names


def setup_sample(name, smoke):
    """Time to import the library and build the workload's initial
    objects, in a fresh interpreter (interpreter start excluded)."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), name, str(int(smoke))]
    out = subprocess.run(argv, check=True, cwd=ROOT, timeout=120,
                         capture_output=True, text=True).stdout
    return float(out.split()[-1])


def round_seed(wl, seed, k):
    return seed * 1_000_003 + (k if wl.vary_inputs else 0)


def one_round(wl, seed, digests):
    rnd = wl.run_round(seed)
    if hasattr(wl, "run_probes"):
        wl.run_probes(rnd)
    first = digests.setdefault(seed, rnd.digest)
    rnd.expect(rnd.digest == first, f"outputs for round seed {seed} changed between runs")
    return rnd


def traced_round(wl, seed, tracer, digests):
    tracer.reset()
    tracer.install()
    try:
        rnd = wl.run_round(seed, tracer)
    finally:
        tracer.uninstall()
    rnd.expect(rnd.digest == digests[seed], "traced round gave other outputs than untraced")
    calls = dict(tracer.calls)
    rnd.expect(calls.get("tree_cipher.sample_key", 0) == wl.expected_sample_keys(),
               f"sample_key called {calls.get('tree_cipher.sample_key', 0)} times, "
               f"expected one fresh key per zone encoding: {wl.expected_sample_keys()}")
    if "tries" in rnd.figures:
        rnd.expect(tracer.counts["tries"] == rnd.figures["tries"],
                   "mine() tries disagree with the mining output")
    return rnd, calls, dict(tracer.counts), dict(tracer.self_s)


def layer_metrics(traced, untraced):
    """Per-layer values per traced round; counts must repeat exactly."""
    calls, counts = traced[0][1], traced[0][2]
    for rnd, c, n, _ in traced[1:]:
        rnd.expect(c == calls and n == counts, "traced call counts differ between rounds")
    values = {}
    for layer in TARGETS:
        values[f"{layer}.calls"] = calls.get(layer, 0)
        values[f"{layer}.self_s"] = statistics.median(s.get(layer, 0.0) for *_, s in traced)
    values["field.interpolate_points"] = counts.get("interpolate_points", 0)
    distinct = counts.get("distinct_decodes", 0)
    values["ledger.decodes_per_recover"] = counts.get("decodes", 0) / distinct if distinct else 0.0
    values["recovery.slots_scanned"] = counts.get("slots_scanned", 0)
    values["mining.tries"] = counts.get("tries", 0)
    for c in CLI_COMMANDS:
        walls = [r.times[f"cli.{c}"][0] for r, *_ in traced if r.times.get(f"cli.{c}")]
        values[f"cli.{c}.wall_s"] = statistics.median(walls) if walls else 0.0
    values["trace.overhead_s"] = (statistics.median(r.busy_s for r, *_ in traced)
                                  - statistics.median(r.busy_s for r in untraced))
    return values


def best_round_s(rounds):
    """Sum over a round's operations of the fastest time each took in the run.

    Every round runs the same operations in the same order, so the i-th
    operation of a kind does the same work in every round. Interference
    from other processes only ever adds time, and on a shared host it
    comes and goes within seconds: per operation, the fastest of the
    run's rounds is far steadier from run to run than the median.

    How many nonces the mining sweep hashes depends on the seed (the
    tries of a seed's 50 runs vary by about 15%), so its time is scaled
    to the number the urn law expects, as recorded in `work_scale`.
    """
    total = 0.0
    for kind in rounds[0].times:
        scale = rounds[0].work_scale.get(kind, 1.0)
        total += scale * sum(map(min, zip(*(r.times[kind] for r in rounds))))
    return total


def run_workload(name, seed, seconds, trace, smoke=False):
    """Run whole rounds for `seconds`; return (result, report)."""
    wl = WORKLOADS[name](smoke)
    tracer = Tracer(zoned_ledger) if trace else None
    untraced, traced, digests, setup = [], [], {}, []
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while k < 2 or time.perf_counter() < deadline:
        while (not trace and len(setup) < SETUP_SAMPLES
               and time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES):
            setup.append(setup_sample(name, smoke))
        s = round_seed(wl, seed, 0 if trace else k)
        untraced.append(one_round(wl, s, digests))
        if trace:
            traced.append(traced_round(wl, s, tracer, digests))
        k += 1
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(name, smoke))

    rounds = untraced + [t[0] for t in traced]
    errors = [e for r in rounds for e in r.errors]
    ops = {}
    for r in untraced:
        for kind, (attempted, failed) in r.ops.items():
            a, f = ops.get(kind, (0, 0))
            ops[kind] = (a + attempted, f + failed)
    attempted = sum(a for a, _ in ops.values())
    failed = sum(f for _, f in ops.values())

    if trace:
        values = layer_metrics(traced, untraced)
        units = dict(per_layer_names())
        metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "round_s": {"value": best_round_s(untraced), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    report = {
        "workload": name, "seed": seed, "rounds": len(untraced), "traced_rounds": len(traced),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in wl.metrics(untraced).items()},
        "ops": {k: {"attempted": a, "failed": f} for k, (a, f) in sorted(ops.items())},
        "probes": untraced[0].probes,
    }
    for e in dict.fromkeys(errors):
        print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def smoke():
    """Every workload at tiny sizes, untraced then traced; all checks on."""
    results = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, report = run_workload(name, seed=1, seconds=0, trace=trace, smoke=True)
            print(json.dumps(report, sort_keys=True))
            results.append(result)
    expected = _declared_metrics()
    if expected is not None:
        got = (sorted(results[0]["metrics"]), sorted(results[1]["metrics"]))
        if got != expected:
            print("check failed: metric names differ from BENCHMARK.json", file=sys.stderr)
            results.append({"correct": False, "attempted": 0, "failed": 0})
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": {}}


def _declared_metrics():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return (sorted(m["name"] for m in spec["end_to_end"]),
            sorted(m["name"] for m in spec["per_layer"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        result = smoke()
    elif args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    else:
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
        print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
