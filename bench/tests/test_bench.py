"""The benchmark's own tests: smoke runs at minimal size, the correctness
gate, determinism, and refusal to run without famv's sources.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SMOKE = {name: dataclasses.replace(w, runs=min(w.runs, 2), groups=2, budget=120)
         for name, w in run.WORKLOADS.items()}


@pytest.fixture(autouse=True)
def _scratch_output(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "bench_out")


def test_spec_lists_the_workloads_and_metrics_the_code_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    result = run.measure(SMOKE[name], seed=3, seconds=0, trace=trace, label=name)
    buf = io.StringIO()
    run.report(result, trace, out=buf)
    lines = buf.getvalue().splitlines()

    expected = SPEC["per_layer" if trace else "end_to_end"]
    printed = {line.split()[0]: line.split()[1:] for line in lines[:-1]}
    for metric in expected:
        value, unit = printed[metric["name"]]
        assert unit == metric["unit"]
        assert math.isfinite(float(value))
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert {k: v["unit"] for k, v in final["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if trace:
        metrics = final["metrics"]
        w = SMOKE[name]
        runs_per_pass = max(len(w.problems), 1) * len(run.ALGORITHMS) * w.runs
        assert final["attempted"] == 2 * w.groups * runs_per_pass
        # exact count check: one objective call per FE charged
        assert metrics["problems.objective.calls"]["value"] == runs_per_pass * w.budget
        categorical = metrics["firefly.alpha_step.categorical.calls"]["value"]
        assert (categorical > 0) == (name == "mixed-cat")


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_same_seed_same_outputs_other_seed_same_metric_names(name):
    first = run.measure(SMOKE[name], seed=5, seconds=0, trace=False, label=name)
    again = run.measure(SMOKE[name], seed=5, seconds=0, trace=False, label=name)
    other = run.measure(SMOKE[name], seed=6, seconds=0, trace=False, label=name)
    assert first.digest == again.digest
    quality = [k for k in first.metrics if k.startswith("log10_ae.")]
    assert [first.metrics[k] for k in quality] == [again.metrics[k] for k in quality]
    assert other.digest != first.digest
    assert other.metrics.keys() == first.metrics.keys()


class FirstEvaluationNaN:
    """A user problem whose first evaluation returns NaN."""

    name = "first-nan"
    reference_optimum = 0.0

    def __init__(self, core):
        self.space = core.SearchSpace([core.Continuous(-1.0, 1.0),
                                       core.IntegerRange(0, 5),
                                       core.Categorical(("a", "b"))])
        self.calls = 0

    def __call__(self, sol):
        self.calls += 1
        if self.calls == 1:
            return math.nan
        return float(sol.cont[0] ** 2) + sol.disc[0] + (sol.disc[1] == "b")


@pytest.mark.parametrize("algo", run.ALGORITHMS)
def test_gate_fails_a_run_poisoned_by_a_nan_first_evaluation(algo, tmp_path):
    famv = run.load_famv()
    problem = FirstEvaluationNaN(famv.core)
    trace = famv.harness.run_algorithm(algo, problem, 200, 0)
    path = tmp_path / "trace.csv"
    famv.harness.emit_trace(trace, path, 1)
    error = gate.check_run(problem, trace, 200, path)
    poisoned = not all(math.isfinite(best) for _, best in trace.samples)
    # A recorder that ignores the NaN gives a sound run, which must pass.
    assert (error is not None) == poisoned, error


def test_count_check_fails_a_run_with_an_uncharged_evaluation(monkeypatch):
    famv = run.load_famv()
    problem = run.MixedCatProblem(famv.core, 0)

    def leaky(problem, max_fe, seed, overrides=None):
        trace = famv.harness.ALGORITHMS["fa"](problem, max_fe, seed, overrides)
        problem(trace.final.solution)   # an evaluation no budget charged
        return trace
    monkeypatch.setitem(famv.harness.ALGORITHMS, "leaky", leaky)
    tracer = run.instrument(famv)
    try:
        famv.harness.run_algorithm("fa", problem, 50, 0)
        famv.harness.run_algorithm("leaky", problem, 50, 0)
    finally:
        tracer.restore()
    p = run.Pass(run.BlockTimer(), {}, runs=2)
    run._check_counts(p, tracer, base_seed=0)
    assert list(p.failed) == [("mixed-cat", "leaky", 0)]


def _rewrite(path: Path, edit) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_grid_gate_flags_corrupted_outputs(tmp_path):
    famv = run.load_famv()
    w = SMOKE["engineering"]
    problems = {name: famv.problems.get_problem(name) for name in w.problems}
    refs = {name: p.reference_optimum for name, p in problems.items()}
    clean = tmp_path / "clean"
    p, check = run.grid_pass(famv, w, problems, 0, clean)
    check()
    assert p.failed == {}

    def failed_after(edit_path, edit):
        out = tmp_path / f"case{len(list(tmp_path.iterdir()))}"
        shutil.copytree(clean, out)
        _rewrite(out / edit_path, edit)
        return gate.check_grid(out, refs, run.ALGORITHMS, w.runs, w.budget)

    def nan_best(rows):
        rows[1][5] = "nan"
    assert set(failed_after("famv-h/summary.csv", nan_best)) == {("vessel", "famv-h", 0)}

    def best_rises(rows):
        rows[1][1] = repr(float(rows[-1][1]) - 1.0)
    assert set(failed_after("ga/traces/beam__ga__run001.csv", best_rises)) == \
        {("beam", "ga", 1)}

    def fe_repeats(rows):
        rows.insert(1, list(rows[1]))
    assert set(failed_after("fa/traces/csd__fa__run000.csv", fe_repeats)) == \
        {("csd", "fa", 0)}

    def ends_early(rows):
        del rows[-1]
    assert set(failed_after("famv-g/traces/vessel__famv-g__run001.csv", ends_early)) == \
        {("vessel", "famv-g", 1)}

    def missing_row(rows):
        del rows[-1]
    assert len(failed_after("fa/summary.csv", missing_row)) == \
        len(w.problems) * w.runs

    def two_best(rows):
        for row in rows[1:]:
            if row[0] == "csd":
                row[4] = row[5] = "true"
    assert set(failed_after("merged/results.csv", two_best)) == \
        {("csd", a, r) for a in run.ALGORITHMS for r in range(w.runs)}


def test_refuses_to_run_without_famv_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "synth-d50",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
