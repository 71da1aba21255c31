"""What ``perfbench`` relies on in the library, checked in process at smoke size.

``perfbench/run.py --smoke`` takes several seconds, most of it in fresh
interpreters timing set-up. This runs one round of each workload at its
smoke size, untraced and then again under the tracer, and checks what a
benchmark run checks: no output check fails, the traced round gives the
same outputs, every zone encoding draws one fresh key, and of the fault
probes only ``probe_repair_after_rewrite`` (the first-donor repair rule)
fails. It also pins the field-kernel and ``hash_step`` calls of traced
rounds, so a change that decodes a zone again, hashes a scanned slot's
zones or groups rather than its distinct decodes, or hides a kernel from
the tracer, fails here without any timing.
"""

import importlib
import sys
from pathlib import Path

import pytest

import zoned_ledger

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # Sweeps.run_round sets it; monkeypatch puts back what it was before
    monkeypatch.setenv("ZONED_LEDGER_THREADS", "1")
    modules = {name: importlib.import_module(name) for name in ("workloads", "tracer")}
    yield modules
    for name in ("workloads", "tracer", "checks"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["chain-wide", "churn-contested", "sweeps"])
def test_workload_round_at_smoke_size(perfbench, name):
    workloads, tracer_module = perfbench["workloads"], perfbench["tracer"]
    wl = workloads.WORKLOADS[name](smoke=True)
    plain = wl.run_round(SEED)
    if hasattr(wl, "run_probes"):
        wl.run_probes(plain)
        assert plain.probes["probe_hash_out_of_range"] == "ok"
    tracer = tracer_module.Tracer(zoned_ledger)
    tracer.install()
    try:
        traced = wl.run_round(SEED, tracer)
    finally:
        tracer.uninstall()
    assert plain.errors == [] and traced.errors == []
    assert traced.digest == plain.digest
    assert tracer.calls["tree_cipher.sample_key"] == wl.expected_sample_keys()
    failed = {kind for kind, (_, f) in plain.ops.items() if f}
    assert failed <= {"probe_repair_after_rewrite"}


def traced_round(perfbench, name):
    """One traced smoke-size round of workload name: (round, tracer)."""
    wl = perfbench["workloads"].WORKLOADS[name](smoke=True)
    tracer = perfbench["tracer"].Tracer(zoned_ledger)
    tracer.install()
    try:
        traced = wl.run_round(SEED, tracer)
    finally:
        tracer.uninstall()
    assert traced.errors == []
    return traced, tracer


def test_contested_round_decodes_each_zone_once_per_ledger_state(perfbench):
    # 115 interpolations when every recovery and repair decoded afresh
    traced, tracer = traced_round(perfbench, "churn-contested")
    assert traced.figures["slots_scanned"] == 17
    assert tracer.calls["field.lagrange_interpolate"] == 54


@pytest.mark.parametrize("name,evaluations,interpolations",
                         [("chain-wide", 72, 18), ("churn-contested", 260, 54)])
def test_traced_round_makes_the_pinned_field_kernel_calls(perfbench, name, evaluations,
                                                          interpolations):
    # one Horner evaluation per share and one interpolation per zone decode; a split
    # that evaluates its polynomial inline, where the tracer cannot see it, fails here
    _, tracer = traced_round(perfbench, name)
    assert tracer.calls["field.eval_poly"] == evaluations
    assert tracer.calls["field.lagrange_interpolate"] == interpolations


@pytest.mark.parametrize("name,hash_steps", [("chain-wide", 3), ("churn-contested", 32)])
def test_traced_round_makes_the_pinned_hash_steps(perfbench, name, hash_steps):
    # one hash per committed block, and one per distinct (block, previous hash) pair
    # of each scanned slot; a scan that hashes once per zone (95 here) or once per
    # group exceeds the pin
    _, tracer = traced_round(perfbench, name)
    assert tracer.calls["ledger.hash_step"] == hash_steps
