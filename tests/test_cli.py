import hashlib
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

from zoned_ledger.cli import main
from zoned_ledger.zones import allocation_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_recovers_everything(capsys, tmp_path):
    out = tmp_path / "sim.jsonl"
    code, stdout, _ = run_cli(capsys, "simulate", "--n", "8", "--m", "4",
                              "--blocks", "5", "--seed", "3",
                              "--out", str(out))
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 5
    assert all(r["recovered_ok"] for r in records)
    assert "all_recovered" in stdout


def test_determinism_same_seed_same_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "attack", "--m", "4", "--trials", "500",
                             "--seed", "9", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_different_output(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_cli(capsys, "attack", "--m", "4", "--trials", "500",
            "--seed", "1", "--out", str(a))
    run_cli(capsys, "attack", "--m", "4", "--trials", "500",
            "--seed", "2", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_availability_record(capsys, tmp_path):
    out = tmp_path / "avail.jsonl"
    code, _, _ = run_cli(capsys, "availability", "--n", "24", "--m", "4",
                         "--rho", "0.2", "--trials", "20000",
                         "--seed", "4", "--out", str(out))
    assert code == 0
    rec = json.loads(out.read_text())
    assert abs(rec["estimate"] - rec["closed_form"]) <= 4 * rec["sigma"] + 1e-9
    assert rec["estimate"] <= rec["union_bound"] + 4 * rec["sigma"]


def test_mining_single_fraction(capsys, tmp_path):
    out = tmp_path / "mine.jsonl"
    code, stdout, _ = run_cli(capsys, "mining", "--trials", "200",
                              "--target-fraction", "0.125",
                              "--seed", "5", "--out", str(out))
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["target_fraction"] == 0.125
    assert rec["law"] == pytest.approx(8.0, rel=1e-6)
    assert "mean_tries" in stdout


def test_storage_cost_values(capsys):
    code, stdout, _ = run_cli(capsys, "storage-cost", "--q-bits", "1024",
                              "--p-bits", "256", "--m", "8", "--seed", "0")
    assert code == 0
    rec = json.loads(stdout.splitlines()[0])
    assert rec["baseline_bits"] == 1280
    assert rec["distributed_bits"] == 689
    assert rec["gain_bits"] == 591


def test_coverage_period(capsys):
    code, stdout, _ = run_cli(capsys, "coverage", "--n", "24", "--m", "4",
                              "--seed", "0")
    assert code == 0
    rec = json.loads(stdout.splitlines()[0])
    assert rec["period"] == 11
    assert rec["all_pairs_covered"] is True


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 8, "m": 4, "seed": 12}))
    code, stdout, _ = run_cli(capsys, "coverage", "--config", str(cfg))
    assert code == 0
    rec = json.loads(stdout.splitlines()[0])
    assert rec["n"] == 8 and rec["period"] == 3


def test_explicit_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 8, "m": 4, "seed": 12}))
    code, stdout, _ = run_cli(capsys, "coverage", "--config", str(cfg),
                              "--n", "16")
    assert code == 0
    assert json.loads(stdout.splitlines()[0])["n"] == 16


def test_missing_seed_is_an_error(capsys):
    code, _, stderr = run_cli(capsys, "coverage", "--n", "8", "--m", "4")
    assert code == 2
    assert "seed" in stderr


def test_invalid_config_exits_2(capsys):
    code, _, stderr = run_cli(capsys, "coverage", "--n", "6", "--m", "4",
                              "--seed", "0")
    assert code == 2
    assert "error:" in stderr


def test_negative_scan_limit_exits_2(capsys):
    code, stdout, stderr = run_cli(capsys, "simulate", "--n", "8", "--m", "4",
                                   "--blocks", "3", "--scan-limit", "-1", "--seed", "0")
    assert code == 2
    assert stdout == "" and "--scan-limit" in stderr


@pytest.mark.parametrize("argv,flag", [
    (("availability", "--trials", "0"), "trials"),
    (("availability", "--trials", "-3"), "trials"),
    (("attack", "--trials", "0"), "trials"),
    (("mining", "--trials", "0"), "runs"),
    (("mining", "--nonce-bits", "-1"), "--nonce-bits"),
    (("simulate", "--blocks", "-1"), "--blocks"),
    (("attack", "--m", "0"), "--m"),
    (("storage-cost", "--q-bits", "-5"), "q_bits"),
    (("storage-cost", "--p-bits", "-1"), "p_bits"),
], ids=["availability_trials_0", "availability_trials_negative", "attack_trials_0",
        "mining_trials_0", "mining_nonce_bits_negative", "simulate_blocks_negative",
        "attack_m_0", "storage_cost_q_bits_negative", "storage_cost_p_bits_negative"])
def test_count_out_of_range_exits_2(capsys, argv, flag):
    code, stdout, stderr = run_cli(capsys, *argv, "--seed", "1")
    assert code == 2
    assert stdout == "" and stderr.startswith("error: ") and flag in stderr


@pytest.mark.parametrize("bits", ["0", "8", "11"])
def test_exhausted_nonce_space_exits_2(capsys, bits):
    # at the default fractions and --seed 1, these nonce spaces run dry; 2^12 does not
    code, stdout, stderr = run_cli(capsys, "mining", "--nonce-bits", bits,
                                   "--trials", "2", "--seed", "1")
    assert code == 2
    assert stdout == "" and stderr.startswith(f"error: no nonce in 2^{bits} met fraction ")


def test_zero_mining_threshold_exits_2_at_once(capsys):
    # 2^-10 and 2^-12 of 2^8 round to a threshold of 0, which no hash meets;
    # mining it would walk all 2^32 nonces (about 40 minutes) before raising
    start = time.perf_counter()
    code, stdout, stderr = run_cli(capsys, "mining", "--hash-width", "8", "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert stdout == "" and stderr.startswith("error: ") and "threshold of 0" in stderr


def test_nonce_space_of_2_to_the_12_completes(capsys):
    code, stdout, _ = run_cli(capsys, "mining", "--nonce-bits", "12", "--trials", "2",
                              "--seed", "1")
    assert code == 0 and stdout


def test_coverage_count_beyond_the_int_to_str_digit_limit(capsys):
    # n! / (4!)^(n/4) has 5188 digits at n = 2048, past str(int)'s 4300-digit limit
    code, stdout, _ = run_cli(capsys, "coverage", "--n", "2048", "--m", "4", "--seed", "0")
    assert code == 0
    record = json.loads(stdout.splitlines()[0])
    assert record["all_pairs_covered"] is True
    assert Decimal(record["allocation_count"]) == allocation_count(2048, 4)


NUMPY_PROBE = """
import sys
import zoned_ledger
from zoned_ledger import adversary, cli, mining
for argv in (["simulate", "--n", "8", "--m", "4", "--blocks", "3"],
             ["coverage", "--n", "8", "--m", "4"], ["storage-cost"],
             ["attack", "--m", "4", "--trials", "50"], ["mining", "--trials", "5"]):
    assert cli.main(argv + ["--seed", "0"]) == 0, argv
assert "numpy" not in sys.modules, "numpy loaded before the availability trial"
assert cli.main(["availability", "--trials", "100", "--seed", "0"]) == 0
assert "numpy" in sys.modules
"""


IMPORT_PROBE = """
import sys
import zoned_ledger
from zoned_ledger import adversary, cli, mining, recovery
for argv in (["simulate", "--n", "8", "--m", "4", "--blocks", "3"],
             ["attack", "--m", "4", "--trials", "50"], ["coverage", "--n", "8", "--m", "4"]):
    assert cli.main(argv + ["--seed", "0"]) == 0, argv
for name in ("dataclasses", "inspect"):
    assert name not in sys.modules, f"{name} loaded"
"""


LAZY_PROBE = """
import sys
from zoned_ledger import adversary, cli, ledger, recovery, shamir
for name in ("zoned_ledger.mining", "argparse"):
    assert name not in sys.modules, f"{name} loaded on import"
for argv in (["simulate", "--n", "8", "--m", "4", "--blocks", "3"],
             ["attack", "--m", "4", "--trials", "50"], ["availability", "--trials", "100"],
             ["coverage", "--n", "8", "--m", "4"], ["storage-cost"]):
    assert cli.main(argv + ["--seed", "0"]) == 0, argv
assert "zoned_ledger.mining" not in sys.modules, "a subcommand other than mining loaded it"
assert cli.main(["mining", "--trials", "2", "--nonce-bits", "12", "--seed", "0"]) == 0
assert "zoned_ledger.mining" in sys.modules
"""


def run_fresh(code):
    """Run code in a fresh interpreter that imports the library from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))


def test_only_the_availability_trial_loads_numpy():
    # in a fresh interpreter: importing numpy costs ~0.15 s of every process
    result = run_fresh(NUMPY_PROBE)
    assert result.returncode == 0, result.stderr


def test_library_loads_neither_dataclasses_nor_inspect():
    # importing dataclasses pulls in inspect, ast, dis and tokenize: 8-10 ms of every process
    result = run_fresh(IMPORT_PROBE)
    assert result.returncode == 0, result.stderr


def test_a_subcommand_loads_mining_and_argparse_only_when_it_runs():
    # the library import stays free of them; only the mining subcommand loads mining
    result = run_fresh(LAZY_PROBE)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command,config", [
    ("simulate", {"n": "8"}),
    ("attack", {"trials": "50"}),
    ("simulate", {"blocks": 2.5}),
    ("coverage", {"n": True}),
    ("availability", {"rho": "0.1"}),
    ("coverage", {"seed": 1.0}),
    ("coverage", {"out": 5}),
], ids=["int_as_str", "trials_as_str", "int_as_float", "int_as_bool", "float_as_str",
        "seed_as_float", "out_as_int"])
def test_config_value_of_the_wrong_json_type_exits_2(capsys, tmp_path, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, _, stderr = run_cli(capsys, command, "--config", str(path), "--seed", "1")
    assert code == 2
    assert f"config key {next(iter(config))!r}" in stderr


@pytest.mark.parametrize("command,config", [
    ("availability", {"n": 8, "m": 4, "trails": 5}),
    ("coverage", {"n": 8, "rho": 0.1}),
], ids=["typo", "flag_of_another_subcommand"])
def test_config_key_that_is_no_flag_exits_2(capsys, tmp_path, command, config):
    # an ignored key would leave a record that does not describe its run
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, stdout, stderr = run_cli(capsys, command, "--config", str(path), "--seed", "1")
    assert (code, stdout) == (2, "")
    key = list(config)[-1]
    assert f"config key {key!r}" in stderr and repr(command) in stderr


@pytest.mark.parametrize("content", ["[1]", '{"n": 8', None],
                         ids=["not_an_object", "truncated", "missing_file"])
def test_malformed_config_file_exits_2(capsys, tmp_path, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    code, _, stderr = run_cli(capsys, "coverage", "--config", str(path), "--seed", "0")
    assert code == 2
    assert stderr.startswith("error: ") and "cfg.json" in stderr


def test_config_int_for_a_float_flag_gives_the_flag_bytes(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 8, "m": 4, "rho": 0, "trials": 200}))
    flags = ("--n", "8", "--m", "4", "--rho", "0", "--trials", "200", "--seed", "1")
    assert run_cli(capsys, "availability", "--config", str(path), "--seed", "1") == \
        run_cli(capsys, "availability", *flags)


# the availability flags of the benchmark's sweeps workload, at its trial count
SWEEPS_AVAILABILITY = ("availability", "--n", "16", "--m", "4", "--rho", "0.5",
                       "--trials", "100000", "--seed", "1")

PINNED_STDOUT = {
    ("attack", "--m", "4", "--trials", "500", "--seed", "1"):
        "6859d57b6313017871c3329934676000b57a697ed049f27c67ddea1444dfaabb",
    ("mining", "--trials", "20", "--seed", "3"):
        "f53e403fb2b397f61456c68e3c8aa79fa58fbe4e7bdf5d7a06dc121c326907f7",
    ("availability", "--trials", "2000", "--seed", "2"):
        "dd643047e666e6563ec18be5da8530772695b6341183c7db399f1844f7945dab",
    ("storage-cost", "--m", "16", "--seed", "0"):
        "8c297b7a9be13a27479ba611560a34adb4ad161d8fa1603271d79453f9c67f0a",
    ("coverage", "--n", "24", "--m", "4", "--seed", "0"):
        "01ecea9018af1c52ea7f1254c7399fe586fa20dc76ce5d160d618708824bc9d9",
    ("simulate", "--n", "8", "--m", "4", "--blocks", "5", "--seed", "3"):
        "1821b98eed2d4092476d52bf70155b35b36983285d4d5016808bd344af13a1fd",
    SWEEPS_AVAILABILITY:
        "d7b164e760912d53d4bc24b2a6115e1a941cba07b266eeb942b358431329ce0e",
}


@pytest.mark.parametrize("argv,digest", [
    pytest.param(argv, digest,
                 id="availability-sweeps" if argv == SWEEPS_AVAILABILITY else argv[0])
    for argv, digest in PINNED_STDOUT.items()])
def test_output_bytes_pinned(capsys, argv, digest):
    # sha256 of stdout; a change here is a change to the reproducibility
    # contract (same flags and seed, same bytes) and must be deliberate
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest
