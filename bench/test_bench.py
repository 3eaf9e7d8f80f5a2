"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run it in-process at tiny trial counts, against reference outputs
recorded at those counts, so they check what it prints and what it
rejects, not how fast anything is.
"""
import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("dephasim_bench", BENCH / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny(bench, monkeypatch, tmp_path, capsys):
    """Every workload at 24 trials, with references recorded at that count."""
    for spec in bench.WORKLOADS.values():
        monkeypatch.setitem(spec["params"], "trials", 24)
    monkeypatch.setattr(bench, "REFERENCE", tmp_path / "reference")
    monkeypatch.setattr(bench, "OUT", tmp_path / "out")
    assert bench.main(["--record-reference"]) == 0
    capsys.readouterr()
    return bench


def run(bench, capsys, *args):
    code = bench.main(["--seed", "5", *args])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    code, result = run(tiny, capsys, "--workload", workload, "--seconds", "0.5",
                       "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_tracer_charges_a_childs_bookkeeping_to_neither_span(bench):
    tracer = bench.Tracer()

    def slow_count(*args):
        time.sleep(0.05)
        return {"child.calls": 1}

    child = tracer.wrap("child", lambda: None, slow_count)
    parent = tracer.wrap("parent", lambda: [child() for _ in range(4)])
    parent()
    prof = tracer.profile(0)
    assert prof["child.calls"] == 4 and prof["parent.calls"] == 1
    assert prof["parent.total"] > 0.2
    assert prof["parent.self"] < 0.01 and prof["child.self"] < 0.01


def test_perturbed_csv_fails_the_reference_comparison(bench, tmp_path):
    ref = BENCH / "reference" / "memory_sweep"
    for csv in ref.glob("*.csv"):
        shutil.copy(csv, tmp_path / csv.name)
    assert bench.compare_reference(tmp_path, ref)[0] == 0.0

    path = tmp_path / "decay_a020.csv"
    lines = path.read_text().splitlines()
    t, mag, fit = lines[5].split(",")
    lines[5] = f"{t},{float(mag) + 1e-6:.12g},{fit}"
    path.write_text("\n".join(lines) + "\n")
    diff, _ = bench.compare_reference(tmp_path, ref)
    assert diff > bench.REFERENCE_TOL


def test_decay_point_far_from_its_closed_form_fails(bench, tmp_path):
    params = dict(bench.WORKLOADS["memory_pulsed"]["params"])
    ref = BENCH / "reference" / "memory_pulsed"
    shutil.copy(ref / "decay_a025.csv", tmp_path / "decay_a025.csv")
    (tmp_path / "summary.txt").write_text("")
    bench.check_memory(tmp_path, params)

    path = tmp_path / "decay_a025.csv"
    lines = path.read_text().splitlines()
    t, mag, fit = lines[-1].split(",")
    lines[-1] = f"{t},{float(mag) - 0.45:.12g},{fit}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(bench.CheckFailed, match="SE from retention"):
        bench.check_memory(tmp_path, params)


def test_perturbed_cli_output_counts_as_failed(tiny, monkeypatch, capsys):
    cli = tiny.import_cli()
    monkeypatch.setattr(cli, "_fmt", lambda x: f"{float(x) + 1e-6:.12g}")
    code, result = run(tiny, capsys, "--workload", "transmission_free", "--seconds", "0",
                       "--trace", "0")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "memory_sweep", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_crash_inside_the_cli_counts_as_failed(tiny, monkeypatch, capsys):
    tiny.import_cli()
    from dephasim import experiments

    def broken(config):
        raise RuntimeError("broken kernel")

    monkeypatch.setattr(experiments, "run_memory", broken)
    code, result = run(tiny, capsys, "--workload", "memory_sweep", "--seconds", "0",
                       "--trace", "1")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
