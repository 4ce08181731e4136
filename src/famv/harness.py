"""Experiment orchestrator: runs (algorithm x problem x seed) grids under FE
budgets, writes convergence traces and result tables, and feeds the stats
pipeline."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import ObjectiveFunction, RunTrace
from .distances import DistanceKind
from .firefly import FireflyConfig, run_classical_fa, run_famv
from .ga import GaConfig, run_ga
from .problems import ENGINEERING_NAMES, get_problem
from .stats import compare

DEFAULT_SYNTHETIC_BUDGET = 100_000
DEFAULT_ENGINEERING_BUDGET = 10_000


def _firefly_runner(distance: DistanceKind | None, adapt_alpha: bool, adapt_gamma: bool):
    def run(problem: ObjectiveFunction, max_fe: int, seed: int,
            overrides: dict | None = None) -> RunTrace:
        params = dict(
            max_fe=max_fe,
            seed=seed,
            alpha=2.0 if adapt_alpha else 1.5,
            gamma=0.05 if adapt_gamma else 0.1,
            distance=distance or DistanceKind.MIXED_EH,
            adapt_alpha=adapt_alpha,
            adapt_gamma=adapt_gamma,
        )
        params.update(overrides or {})
        config = FireflyConfig(**params)
        if distance is None:
            return run_classical_fa(problem, config)
        return run_famv(problem, config)
    return run


def _ga_runner(problem: ObjectiveFunction, max_fe: int, seed: int,
               overrides: dict | None = None) -> RunTrace:
    config = GaConfig(max_fe=max_fe, seed=seed, **(overrides or {}))
    return run_ga(problem, config)


# famv-{h,g}{,-adaptive,-alpha,-gamma}: distance x (adapt_alpha, adapt_gamma)
_SCHEDULES = {"": (False, False), "-adaptive": (True, True),
              "-alpha": (True, False), "-gamma": (False, True)}
ALGORITHMS = {
    "fa": _firefly_runner(None, False, False),
    **{f"famv-{tag}{suffix}": _firefly_runner(kind, *adapt)
       for tag, kind in (("h", DistanceKind.MIXED_EH), ("g", DistanceKind.GOWER))
       for suffix, adapt in _SCHEDULES.items()},
    "ga": _ga_runner,
}


def run_algorithm(name: str, problem: ObjectiveFunction, max_fe: int, seed: int,
                  overrides: dict | None = None) -> RunTrace:
    try:
        runner = ALGORITHMS[name]
    except KeyError:
        raise KeyError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")
    return runner(problem, max_fe, seed, overrides)


@dataclass
class ExperimentSpec:
    """An experiment grid and the defaults of every run setting; the CLI
    passes only the settings a user gave.  Bad settings are rejected here,
    before any output is written."""

    problems: list[str] = field(default_factory=list)
    algorithms: list[str] = field(default_factory=list)
    out_dir: str = ""
    runs: int = 30
    budget: int | None = None       # None: per-problem default
    base_seed: int = 0
    stride: int = 250
    dim: int = 50                   # synthetic problems only

    def __post_init__(self):
        for name in ("problems", "algorithms", "out_dir"):
            if not getattr(self, name):
                raise ValueError(f"no {name} given")
        for name, least in (("runs", 1), ("budget", 1), ("stride", 1), ("base_seed", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")

    def budget_for(self, problem_name: str) -> int:
        if self.budget is not None:
            return self.budget
        if problem_name in ENGINEERING_NAMES:
            return DEFAULT_ENGINEERING_BUDGET
        return DEFAULT_SYNTHETIC_BUDGET


def _fmt(value: float) -> str:
    return repr(float(value))


def emit_trace(trace: RunTrace, path: str | Path, stride: int = 250) -> None:
    """Write a `fe,best` CSV: samples thinned to the stride plus the final point."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    path = Path(path)
    rows = []
    last_fe = None
    for fe, best in trace.samples[:-1]:
        if last_fe is None or fe >= last_fe + stride:
            rows.append((fe, best))
            last_fe = fe
    rows.append(trace.samples[-1])
    try:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fe", "best"])
            for fe, best in rows:
                writer.writerow([fe, _fmt(best)])
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


@dataclass
class ResultRow:
    problem: str
    algorithm: str
    mean_ae: float
    std_ae: float
    is_best: bool
    is_similar_to_best: bool


def emit_results_table(rows: list[ResultRow], results_path: str | Path,
                       counts_path: str | Path) -> None:
    """Write the per-cell results CSV plus the per-algorithm counts CSV."""
    with Path(results_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "algorithm", "mean_ae", "std_ae",
                         "is_best", "is_similar_to_best"])
        for row in rows:
            writer.writerow([row.problem, row.algorithm, _fmt(row.mean_ae),
                             _fmt(row.std_ae), str(row.is_best).lower(),
                             str(row.is_similar_to_best).lower()])
    algorithms = []
    for row in rows:
        if row.algorithm not in algorithms:
            algorithms.append(row.algorithm)
    with Path(counts_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "n_best", "n_similar_to_best"])
        for algo in algorithms:
            n_best = sum(1 for r in rows if r.algorithm == algo and r.is_best)
            n_similar = sum(1 for r in rows if r.algorithm == algo
                            and r.is_similar_to_best)
            writer.writerow([algo, n_best, n_similar])


def _comparison_rows(ae_by_problem: dict[str, dict[str, list[float]]]) -> list[ResultRow]:
    rows = []
    for problem_name, groups in ae_by_problem.items():
        if len(groups) >= 2 and sum(len(v) for v in groups.values()) >= 3:
            report = compare(groups)
            for algo in groups:
                rows.append(ResultRow(problem_name, algo, report.means[algo],
                                      report.stds[algo], algo == report.best_group,
                                      algo in report.similar_to_best))
        else:
            # a single cell cannot be compared; it is trivially best
            for algo, values in groups.items():
                mean = float(np.mean(values))
                std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
                rows.append(ResultRow(problem_name, algo, mean, std, True, True))
    return rows


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Execute the grid and write traces, summary, results and counts files."""
    for name in spec.problems:
        get_problem(name, dim=spec.dim)  # fail fast on unknown names
    for name in spec.algorithms:
        if name not in ALGORITHMS:
            raise KeyError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")

    out = Path(spec.out_dir)
    traces_dir = out / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    ae_by_problem: dict[str, dict[str, list[float]]] = {}
    for problem_name in spec.problems:
        problem = get_problem(problem_name, dim=spec.dim)
        budget = spec.budget_for(problem_name)
        ae_by_problem[problem_name] = {}
        for algo in spec.algorithms:
            aes = []
            for run_idx in range(spec.runs):
                seed = spec.base_seed + run_idx
                trace = run_algorithm(algo, problem, budget, seed)
                trace_path = traces_dir / f"{problem_name}__{algo}__run{run_idx:03d}.csv"
                emit_trace(trace, trace_path, spec.stride)
                best = trace.final.fitness
                ae = problem.absolute_error(best)
                aes.append(ae)
                summary_rows.append((problem_name, algo, run_idx, seed,
                                     trace.samples[-1][0], best, ae))
            ae_by_problem[problem_name][algo] = aes

    with (out / "summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "algorithm", "run", "seed", "final_fe",
                         "best", "ae"])
        for problem_name, algo, run_idx, seed, fe, best, ae in summary_rows:
            writer.writerow([problem_name, algo, run_idx, seed, fe,
                             _fmt(best), _fmt(ae)])

    rows = _comparison_rows(ae_by_problem)
    emit_results_table(rows, out / "results.csv", out / "counts.csv")
    return rows


def compare_directory(out_dir: str | Path) -> list[ResultRow]:
    """Recompute results/counts from an existing summary.csv."""
    out = Path(out_dir)
    summary = out / "summary.csv"
    if not summary.exists():
        raise FileNotFoundError(f"no summary.csv in {out}")
    ae_by_problem: dict[str, dict[str, list[float]]] = {}
    with summary.open(newline="") as fh:
        for record in csv.DictReader(fh):
            groups = ae_by_problem.setdefault(record["problem"], {})
            groups.setdefault(record["algorithm"], []).append(float(record["ae"]))
    rows = _comparison_rows(ae_by_problem)
    emit_results_table(rows, out / "results.csv", out / "counts.csv")
    return rows
