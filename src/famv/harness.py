"""Experiment orchestrator: runs (algorithm x problem x seed) grids under FE
budgets, writes convergence traces and result tables, and feeds the stats
pipeline."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .core import ObjectiveFunction, RunTrace, check_integer
from .distances import DistanceKind
from .firefly import FireflyConfig, run_classical_fa, run_famv
from .ga import GaConfig, run_ga
from .problems import ENGINEERING_NAMES, SYNTHETIC_DIM, get_problem
from .stats import compare

DEFAULT_SYNTHETIC_BUDGET = 100_000
DEFAULT_ENGINEERING_BUDGET = 10_000


def _make_runner(engine: str, config_type: type, **decided):
    """A registry entry: runs the engine named ``engine`` in this module,
    looked up at call time so that a replaced engine is the one run, on a
    ``config_type`` of the run's budget and seed, the settings the name
    ``decided`` and the caller's ``overrides``, which win."""
    def run(problem: ObjectiveFunction, max_fe: int, seed: int,
            overrides: dict | None = None) -> RunTrace:
        config = config_type(max_fe=max_fe, seed=seed, **{**decided, **(overrides or {})})
        return globals()[engine](problem, config)
    return run


# famv-{h,g}{,-adaptive,-alpha,-gamma}: distance x schedule; a decaying
# alpha starts at 2.0 and a decaying gamma at 0.05
_ADAPT_ALPHA = dict(adapt_alpha=True, alpha=2.0)
_ADAPT_GAMMA = dict(adapt_gamma=True, gamma=0.05)
_SCHEDULES = {"": {}, "-adaptive": {**_ADAPT_ALPHA, **_ADAPT_GAMMA},
              "-alpha": _ADAPT_ALPHA, "-gamma": _ADAPT_GAMMA}
ALGORITHMS = {
    "fa": _make_runner("run_classical_fa", FireflyConfig),
    **{f"famv-{tag}{suffix}": _make_runner("run_famv", FireflyConfig, distance=kind, **schedule)
       for tag, kind in (("h", DistanceKind.MIXED_EH), ("g", DistanceKind.GOWER))
       for suffix, schedule in _SCHEDULES.items()},
    "ga": _make_runner("run_ga", GaConfig),
}


def _runner(name: str):
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise KeyError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}") from None


def run_algorithm(name: str, problem: ObjectiveFunction, max_fe: int, seed: int,
                  overrides: dict | None = None) -> RunTrace:
    """Run the registry algorithm ``name`` on ``problem``.  Its config is
    built from ``max_fe`` and ``seed``, the settings the name decides, and
    then ``overrides``, which win; an unknown name is a KeyError listing the
    known ones."""
    return _runner(name)(problem, max_fe, seed, overrides)


@dataclass
class ExperimentSpec:
    """An experiment grid and the defaults of every run setting; the CLI
    passes only the settings a user gave.  Bad settings are rejected here,
    before any output is written, each naming the setting.  A TypeError:
    ``problems`` or ``algorithms`` that is not a list or tuple of str (a
    bare string included), ``out_dir`` that is not a str or an
    ``os.PathLike``, or a non-integer ``runs``, ``budget``, ``stride``,
    ``base_seed`` or ``dim``.  A ValueError: an empty problem or algorithm
    list or output directory, a repeated or unknown problem or algorithm
    name, ``runs``, ``budget`` or ``stride`` below 1, a negative
    ``base_seed``, or ``dim`` below 2."""

    problems: list[str] = field(default_factory=list)
    algorithms: list[str] = field(default_factory=list)
    out_dir: str | os.PathLike = ""
    runs: int = 30
    budget: int | None = None       # None: per-problem default
    base_seed: int = 0
    stride: int = 250
    dim: int = SYNTHETIC_DIM        # synthetic problems only

    def __post_init__(self):
        for name in ("problems", "algorithms"):
            names = getattr(self, name)
            if not isinstance(names, (list, tuple)) or not all(isinstance(v, str) for v in names):
                raise TypeError(f"{name} must be a list or tuple of str, got {names!r}")
            for k, value in enumerate(names):
                if value in names[:k]:
                    raise ValueError(f"{name} repeats {value!r}")
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise TypeError(f"out_dir must be a str or an os.PathLike, got {self.out_dir!r}")
        for name in ("problems", "algorithms", "out_dir"):
            if not getattr(self, name):
                raise ValueError(f"no {name} given")
        for name, least in (("runs", 1), ("budget", 1), ("stride", 1), ("base_seed", 0)):
            if getattr(self, name) is not None:
                check_integer(name, getattr(self, name), least)
        check_integer("dim", self.dim, 2)
        for name in self.problems:
            get_problem(name, dim=self.dim)
        for name in self.algorithms:
            _runner(name)

    def budget_for(self, problem_name: str) -> int:
        if self.budget is not None:
            return self.budget
        if problem_name in ENGINEERING_NAMES:
            return DEFAULT_ENGINEERING_BUDGET
        return DEFAULT_SYNTHETIC_BUDGET


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    """Write ``header`` and then ``rows`` to the CSV file ``path``: the one
    place a result file is opened, so every write failure is an OSError
    naming the file."""
    try:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit_trace(trace: RunTrace, path: str | Path, stride: int) -> None:
    """Write a `fe,best` CSV: samples thinned to the stride plus the final point."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rows = []
    last_fe = None
    for fe, best in trace.samples[:-1]:
        if last_fe is None or fe >= last_fe + stride:
            rows.append((fe, best))
            last_fe = fe
    rows.append(trace.samples[-1])
    _write_csv(path, ["fe", "best"], ((fe, _fmt(best)) for fe, best in rows))


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
    """Write the per-cell results CSV plus the per-algorithm counts CSV,
    whose algorithms come in the order they first appear in ``rows``."""
    _write_csv(results_path, ["problem", "algorithm", "mean_ae", "std_ae",
                              "is_best", "is_similar_to_best"],
               ((row.problem, row.algorithm, _fmt(row.mean_ae), _fmt(row.std_ae),
                 str(row.is_best).lower(), str(row.is_similar_to_best).lower())
                for row in rows))
    counts: dict[str, list[int]] = {}   # algorithm -> [n_best, n_similar_to_best]
    for row in rows:
        count = counts.setdefault(row.algorithm, [0, 0])
        count[0] += row.is_best
        count[1] += row.is_similar_to_best
    _write_csv(counts_path, ["algorithm", "n_best", "n_similar_to_best"],
               ((algo, *count) for algo, count in counts.items()))


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Execute the grid, write traces and summary, then rank the summary
    with `compare_directory`."""
    out = Path(spec.out_dir)
    traces_dir = out / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    for problem_name in spec.problems:
        problem = get_problem(problem_name, dim=spec.dim)
        budget = spec.budget_for(problem_name)
        for algo in spec.algorithms:
            for run_idx in range(spec.runs):
                seed = spec.base_seed + run_idx
                trace = run_algorithm(algo, problem, budget, seed)
                trace_path = traces_dir / f"{problem_name}__{algo}__run{run_idx:03d}.csv"
                emit_trace(trace, trace_path, spec.stride)
                best = trace.final.fitness
                summary_rows.append((problem_name, algo, run_idx, seed,
                                     trace.samples[-1][0], _fmt(best),
                                     _fmt(problem.absolute_error(best))))
    _write_csv(out / "summary.csv",
               ["problem", "algorithm", "run", "seed", "final_fe", "best", "ae"],
               summary_rows)
    return compare_directory(out)


def compare_directory(out_dir: str | Path) -> list[ResultRow]:
    """Rank every problem of summary.csv with `stats.compare` and write
    results.csv and counts.csv: the one source of the result tables, for
    `run_experiment` too.

    summary.csv is checked before anything is written: a header without a
    ``problem``, ``algorithm`` or ``ae`` column, a row with a missing field
    or an ``ae`` that is not a number or is NaN (+inf is legal), and a last
    row without its line terminator (a file cut short) each raise a
    ValueError naming the file, and the line for a row."""
    out = Path(out_dir)
    summary = out / "summary.csv"
    if not summary.exists():
        raise FileNotFoundError(f"no summary.csv in {out}")
    with summary.open(newline="") as fh:
        lines = fh.readlines()
    reader = csv.DictReader(lines)
    for column in ("problem", "algorithm", "ae"):
        if column not in (reader.fieldnames or ()):
            raise ValueError(f"{summary} has no {column!r} column")
    ae_by_problem: dict[str, dict[str, list[float]]] = {}
    for record in reader:
        where = f"{summary}, line {reader.line_num}"
        if None in record or None in record.values():
            raise ValueError(f"{where}: expected {len(reader.fieldnames)} fields")
        try:
            ae = float(record["ae"])
        except ValueError:
            ae = math.nan
        if math.isnan(ae):   # +inf is legal: a run's non-finite objective
            raise ValueError(f"{where}: ae {record['ae']!r} is not a number")
        groups = ae_by_problem.setdefault(record["problem"], {})
        groups.setdefault(record["algorithm"], []).append(ae)
    # `_write_csv` ends every row with one, so its absence means a cut file
    if not lines[-1].endswith("\n"):
        raise ValueError(f"{summary}, line {len(lines)}: no line terminator; "
                         "the file was cut short")
    rows = []
    for problem_name, groups in ae_by_problem.items():
        report = compare(groups)
        for algo in groups:
            rows.append(ResultRow(problem_name, algo, report.means[algo],
                                  report.stds[algo], algo == report.best_group,
                                  algo in report.similar_to_best))
    emit_results_table(rows, out / "results.csv", out / "counts.csv")
    return rows
