"""Tests of the benchmark itself, at tiny problem sizes.

    python3 -m pytest perfbench -q
"""

import json
import sys
import time

import pytest

import run
from tracer import TARGETS, Tracer

sys.path.insert(0, str(run.SRC))

import sdze.optimizer  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "poisson100": run.Training(d=16, steps=6, test_points=50, eval_every=3),
    "poisson10k": run.Training(d=20, steps=4, test_points=50),
    "crns-sweep": run.Sweep(d=6, width=5, rank=2, replicates=20, B=4, b=2, test_points=50),
}


def test_tiny_workloads_cover_every_benchmark_workload():
    assert set(TINY) == set(run.WORKLOADS) >= {w["name"] for w in BENCH["workloads"]}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_printed_metrics_match_benchmark_json(workload, trace, section, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, workload, TINY[workload])
    monkeypatch.setattr(run, "OUT", tmp_path)
    run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():  # the human-readable lines agree
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}") for line in lines)


def test_traced_self_times_fit_in_traced_wall_time():
    t0 = time.perf_counter()
    with Tracer("optimizer.step") as tr:
        done = run._run(TINY["poisson100"], 0, 0.0, setups=False, hook=tr)
    wall = time.perf_counter() - t0
    summary = tr.summary()
    assert tr.units == done.units == TINY["poisson100"].steps
    assert all(row["self_s"] >= -1e-9 for row in summary.values())
    assert 0.0 < sum(row["self_s"] for row in summary.values()) <= wall


def test_absent_wrapped_name_is_reported_not_fatal():
    original = sdze.optimizer.directional_delta
    missing = (
        ("sdze.optimizer", "no_such_function", "optimizer.gone"),
        ("sdze.net", "PerturbView.no_such_method", "net.gone"),
        ("sdze.no_such_module", "anything", "gone.gone"),
    )
    with Tracer("optimizer.step", TARGETS + missing) as tr:
        done = run._run(TINY["poisson100"], 0, 0.0, setups=False, hook=tr)
    assert tr.absent == [f"{m}.{p}" for m, p, _ in missing]
    assert tr.units == done.units > 0
    assert "optimizer.delta" in tr.summary()
    assert sdze.optimizer.directional_delta is original  # wrappers removed on exit


@pytest.mark.parametrize("workload", sorted(TINY))
def test_setup_is_sampled_at_least_setup_samples_times(workload):
    done = run._timed(TINY[workload], 0, 0.0, setups=True)
    assert len(done.setups) >= run.SETUP_SAMPLES
    assert all(t > 0 for t in done.setups)
    assert all(ok for _, ok, _ in done.checks)


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "poisson100", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
