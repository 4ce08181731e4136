"""Correctness gate.  Every run of a pass is checked; a run that fails any
check counts once in the benchmark's ``failed`` total.

Grid passes are checked from the files the harness wrote: the summary rows
against the grid's cells, each trace CSV against its summary row, and the
merged results table.  Runs made through ``run_algorithm`` are checked from
the returned trace: the final solution must conform to the space and
re-evaluate to the reported fitness.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path


def check_trace_csv(path: Path, final_fe: int, best: float) -> str | None:
    """Describe what is wrong with a ``fe,best`` trace file, or return None.

    ``fe`` must strictly increase, ``best`` must be finite and never increase,
    and the last row must equal (``final_fe``, ``best``)."""
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return f"cannot read trace {path.name}: {exc}"
    if len(rows) < 2 or rows[0] != ["fe", "best"]:
        return f"trace {path.name} has no samples"
    prev_fe, prev_best = 0, math.inf
    try:
        for fe_text, best_text in rows[1:]:
            fe, value = int(fe_text), float(best_text)
            if fe <= prev_fe:
                return f"trace {path.name}: fe {fe} after {prev_fe}"
            if not (math.isfinite(value) and value <= prev_best):
                return f"trace {path.name}: best {value} after {prev_best}"
            prev_fe, prev_best = fe, value
    except ValueError as exc:
        return f"trace {path.name}: malformed row: {exc}"
    if (prev_fe, prev_best) != (final_fe, best):
        return (f"trace {path.name} ends at ({prev_fe}, {prev_best}), "
                f"summary says ({final_fe}, {best})")
    return None


def _check_summary_row(row: dict, reference: float, budget: int,
                       trace_path: Path) -> str | None:
    try:
        final_fe, best, ae = int(row["final_fe"]), float(row["best"]), float(row["ae"])
    except (KeyError, ValueError) as exc:
        return f"malformed summary row: {exc}"
    if not 1 <= final_fe <= budget:
        return f"final_fe {final_fe} outside [1, {budget}]"
    if not math.isfinite(best):
        return f"best {best} is not finite"
    if ae != abs(best - reference):
        return f"ae {ae} != |{best} - {reference}|"
    return check_trace_csv(trace_path, final_fe, best)


def check_grid(out: Path, references: dict[str, float], algorithms: tuple[str, ...],
               runs: int, budget: int) -> dict[tuple[str, str, int], str]:
    """Check one grid pass written as ``out/<algorithm>/`` sub-grids plus the
    merged ``out/merged/results.csv``.  Returns the failed runs, keyed by
    (problem, algorithm, run), each with the first problem found."""
    failed: dict[tuple[str, str, int], str] = {}
    for algo in algorithms:
        cells = {(p, algo, r) for p in references for r in range(runs)}
        try:
            with (out / algo / "summary.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            failed.update(dict.fromkeys(cells, f"no summary: {exc}"))
            continue
        seen = {}
        for row in rows:
            run = row.get("run") or ""
            key = (row.get("problem"), row.get("algorithm"),
                   int(run) if run.isdigit() else -1)
            if key in cells and key not in seen:
                seen[key] = row
        if len(rows) != len(cells) or len(seen) != len(cells):
            failed.update(dict.fromkeys(
                cells, f"summary of {algo} has {len(rows)} rows for {len(cells)} cells"))
            continue
        for (problem, _, run), row in seen.items():
            trace = out / algo / "traces" / f"{problem}__{algo}__run{run:03d}.csv"
            error = _check_summary_row(row, references[problem], budget, trace)
            if error:
                failed[(problem, algo, run)] = error

    try:
        with (out / "merged" / "results.csv").open(newline="") as fh:
            results = list(csv.DictReader(fh))
    except OSError as exc:
        results = []
        reason = f"no results table: {exc}"
    else:
        reason = None
    for problem in references:
        mine = [r for r in results if r["problem"] == problem]
        best = [r for r in mine if r["is_best"] == "true"]
        error = reason
        if error is None and len(mine) != len(algorithms):
            error = f"results has {len(mine)} rows for {problem}"
        elif error is None and len(best) != 1:
            error = f"results has {len(best)} best rows for {problem}"
        elif error is None and best[0]["is_similar_to_best"] != "true":
            error = f"best row of {problem} is not similar to best"
        if error:
            for algo in algorithms:
                for run in range(runs):
                    failed.setdefault((problem, algo, run), error)
    return failed


def check_run(problem, trace, budget: int, trace_path: Path) -> str | None:
    """Check one run made through ``run_algorithm`` and its emitted trace.
    Re-evaluates the final solution, so call it with tracing switched off."""
    final = trace.final
    final_fe = trace.samples[-1][0]
    if not 1 <= final_fe <= budget:
        return f"final fe {final_fe} outside [1, {budget}]"
    if not math.isfinite(final.fitness):
        return f"final fitness {final.fitness} is not finite"
    if not final.solution.conforms(problem.space):
        return "final solution does not conform to the space"
    again = problem(final.solution)
    if again != final.fitness:
        return f"re-evaluation gives {again}, trace says {final.fitness}"
    return check_trace_csv(trace_path, final_fe, final.fitness)
