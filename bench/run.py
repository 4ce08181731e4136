#!/usr/bin/env python3
"""famv benchmark: one workload per call, measured end to end or traced.

    python3 bench/run.py --workload synth-d50 --seed 0 --seconds 30 --trace 0

Run it from anywhere in a checkout; it imports famv from the checkout's
``src/`` and writes only under ``.bench_out/``.  The workload runs in this
process, one optimizer run at a time (a closed loop: no threads, no worker
processes).  A workload's runs are split into seed groups, and one pass runs
one group over the whole (problem x algorithm) grid.  Passes cycle through
the groups until ``--seconds`` have gone by and every group has run once.
Times are medians over passes; solution quality comes from the first cycle,
so it depends on ``--seed`` alone; and a pass that repeats a group must
write the same bytes as that group's first pass.

The end-to-end times are wall times scaled to a fixed machine speed.  A
reference loop (``reference_s``) that does not touch famv runs between timed
blocks of work (each algorithm's share of a pass, and the set-ups), and each
block's time is multiplied by ``REF_S`` over the mean of the two reference
times around it.  On a shared machine the speed of one core drifts by a
third within seconds; the scaling takes most of that drift out.  The unscaled wall
times are printed too, as ``wall`` lines.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics; the traced
passes wrap famv's functions from outside (see ``tracer.py``) and the spans
are written to ``.bench_out/spans-<workload>-s<seed>.npz``.

Every run is checked by ``gate.py``.  The last line of standard output is one
JSON object with ``correct``, ``attempted`` (runs), ``failed`` (runs that
failed the gate) and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
from mixedcat import MixedCatProblem
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

ALGORITHMS = ("fa", "famv-h", "famv-g", "ga")
SETUP_REPEATS = 15
REF_S = 0.02        # scaled times read as if the reference loop took this long
STRIDE = 1          # every improvement goes to the trace files, and is checked
WARMUP_FE = 300
AE_FLOOR = 1e-12    # log10 of an exact hit reads as -12


@dataclass(frozen=True)
class Workload:
    """Run seeds are ``1000 * seed + group * runs + k`` for k < ``runs``."""

    problems: tuple[str, ...]   # registry names; empty selects the mixed-cat problem
    runs: int                   # seeds per (problem, algorithm) cell in one pass
    groups: int                 # seed groups; a cell gets runs * groups seeds in all
    budget: int                 # FE per run
    dim: int = 50               # synthetic problems only


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "synth-d50": Workload(("sphere", "rastrigin"), runs=1, groups=6, budget=500),
    "engineering": Workload(("vessel", "beam", "csd"), runs=5, groups=6, budget=500),
    "mixed-cat": Workload((), runs=2, groups=6, budget=1000),
}

# --- metric names --------------------------------------------------------

END_TO_END = {
    "setup_s": "s", "grid_s": "s", "fe_per_s": "FE/s",
    **{f"us_per_fe.{a}": "us" for a in ALGORITHMS},
    **{f"log10_ae.{a}": "log10" for a in ALGORITHMS},
    "peak_rss_mb": "MB",
}

# Spanned layers, reported as <layer>.calls and <layer>.s (inclusive time).
LAYERS = (
    "firefly.alpha_step", "firefly.beta_step", "core.clamp",
    "distances.mixed_eh", "distances.gower", "firefly.continuous_move",
    "distances.euclidean", "firefly.relaxed_decode", "ga.decode",
    "ga.one_point_crossover", "problems.objective", "core.random_solution",
    "harness.run_algorithm", "harness.emit_trace", "stats.compare",
)
COUNTED = ("firefly.alpha_step.integer", "firefly.alpha_step.categorical",
           "core.budget.consume")
ENGINE = {"fa": "firefly.run_classical_fa", "famv-h": "firefly.run_famv",
          "famv-g": "firefly.run_famv", "ga": "ga.run_ga"}
HARNESS = ("harness.run_experiment", "harness.compare_directory",
           "harness.run_algorithm")
_FIREFLY_PARTS = ("firefly.alpha_step", "firefly.beta_step", "core.clamp",
                  "firefly.continuous_move", "core.random_solution",
                  "problems.objective")
SPLIT = {   # layers each algorithm reaches, reported per algorithm
    "fa": ("firefly.continuous_move", "distances.euclidean",
           "firefly.relaxed_decode", "problems.objective"),
    "famv-h": ("distances.mixed_eh",) + _FIREFLY_PARTS,
    "famv-g": ("distances.gower",) + _FIREFLY_PARTS,
    "ga": ("ga.decode", "ga.one_point_crossover", "problems.objective"),
}
ATTRACT = ("fa", "famv-h", "famv-g")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    for engine in dict.fromkeys(ENGINE.values()):
        units[f"{engine}.self_s"] = "s"
    units.update({"harness.self_s": "s", "harness.bytes_written": "bytes",
                  "firefly.attract_frac": "ratio",
                  "optimizer_overhead_ratio": "ratio",
                  "tracing_overhead_s": "s"})
    for algo, layers in SPLIT.items():
        for layer in layers:
            units[f"split.{algo}.{layer}.s"] = "s"
        units[f"split.{algo}.{ENGINE[algo]}.self_s"] = "s"
        if algo in ATTRACT:
            units[f"split.{algo}.firefly.attract_frac"] = "ratio"
    return units


PER_LAYER = per_layer_units()

# --- set-up ----------------------------------------------------------------


def load_famv():
    """Import famv from this checkout's ``src/``.  Earlier imports of famv are
    dropped first, so every call pays famv's whole import."""
    if not (SRC / "famv" / "__init__.py").is_file():
        raise FileNotFoundError(f"no famv sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "famv" or m.startswith("famv.")]:
        del sys.modules[name]
    famv = importlib.import_module("famv")
    if Path(famv.__file__).resolve().parent != (SRC / "famv").resolve():
        raise ImportError(f"famv imported from {famv.__file__}, not from {SRC}")
    return famv


def setup(workload: Workload, seed: int):
    """Import famv and build the workload's problems."""
    famv = load_famv()
    if workload.problems:
        problems = {name: famv.problems.get_problem(name, dim=workload.dim)
                    for name in workload.problems}
    else:
        problem = MixedCatProblem(famv.core, seed)
        problems = {problem.name: problem}
    return famv, problems


def reference_s() -> float:
    """Wall time of a fixed loop with the mix of an optimizer step: small
    numpy calls and interpreted arithmetic.  It does not touch famv, so a
    change to famv cannot change it; only the machine's speed does."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = np.zeros(8)
    total = 0.0
    for _ in range(1500):
        x = np.clip(x + rng.random(8) - 0.5, -1.0, 1.0)
        total += float(x.sum())
        total += sum(j * 0.5 if j % 3 else min(max(j, 2), 9) for j in range(12))
    return time.perf_counter() - start


class BlockTimer:
    """Times named blocks of work, with a reference measurement before the
    first block and after each one."""

    def __init__(self):
        self.wall: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self._ref = reference_s()

    @contextmanager
    def block(self, name: str):
        start = time.perf_counter()
        yield
        wall = time.perf_counter() - start
        ref = reference_s()
        self.wall[name] = wall
        self.scaled[name] = wall * REF_S / statistics.fmean((self._ref, ref))
        self._ref = ref


def warm_up(famv, problems) -> None:
    """One short untimed run per algorithm, so lazy set-up inside numpy and
    the interpreter is done before the first timed pass."""
    problem = next(iter(problems.values()))
    for algo in ALGORITHMS:
        famv.harness.run_algorithm(algo, problem, WARMUP_FE, 0)


def instrument(famv) -> Tracer:
    """Wrap the names famv's callers look up, layer by layer."""
    t = Tracer()
    core, dist, ff, ga, harness = (famv.core, famv.distances, famv.firefly,
                                   famv.ga, famv.harness)
    t.runs_of(harness, "run_algorithm", "harness.run_algorithm")
    t.span(harness, "run_experiment", "harness.run_experiment")
    t.span(harness, "compare_directory", "harness.compare_directory")
    t.span(harness, "emit_trace", "harness.emit_trace")
    t.span(harness, "compare", "stats.compare")
    t.span(harness, "run_famv", "firefly.run_famv")
    t.span(harness, "run_classical_fa", "firefly.run_classical_fa")
    t.span(harness, "run_ga", "ga.run_ga")
    t.span(ff, "_alpha_step_all", "firefly.alpha_step")
    t.count(ff, "alpha_step_integer", "firefly.alpha_step.integer")
    t.count(ff, "alpha_step_categorical", "firefly.alpha_step.categorical")
    t.span(ff, "beta_step", "firefly.beta_step")
    t.span(ff, "clamp", "core.clamp")
    t.span(ff, "continuous_move", "firefly.continuous_move")
    t.span(ff, "relaxed_decode", "firefly.relaxed_decode")
    t.span(ff, "random_solution", "core.random_solution")
    t.span(ff, "euclidean", "distances.euclidean")
    t.span(dist, "euclidean", "distances.euclidean")
    t.span(dist, "mixed_eh", "distances.mixed_eh")
    t.span(dist, "gower", "distances.gower")
    t.count(ff, "attractiveness", "firefly.attractiveness", hit=lambda b: b > 1e-3)
    t.span(ga, "decode", "ga.decode")
    t.span(ga, "one_point_crossover", "ga.one_point_crossover")
    t.span(famv.problems.Problem, "__call__", "problems.objective")
    t.span(MixedCatProblem, "__call__", "problems.objective")
    t.count(core.EvaluationBudget, "consume", "core.budget.consume", hit=bool)
    return t

# --- one pass ----------------------------------------------------------------


@dataclass
class Pass:
    timer: BlockTimer                 # one block per algorithm, plus "compare"
    fe: dict[str, int]                # FE charged per algorithm
    runs: int
    failed: dict = field(default_factory=dict)   # (problem, algorithm, run) -> reason
    aes: dict = field(default_factory=dict)      # problem -> algorithm -> [AE]
    group: int = 0
    digest: str = ""
    bytes_written: int = 0
    tracer: Tracer | None = None


def _log10_ae(aes_by_problem: dict[str, dict[str, list[float]]]) -> dict:
    """Per algorithm: the median over runs of log10 AE on each problem,
    averaged over problems.  Non-finite AEs (failed runs) are left out."""
    out = {}
    for algo in ALGORITHMS:
        medians = []
        for by_algo in aes_by_problem.values():
            logs = [math.log10(max(ae, AE_FLOOR)) for ae in by_algo.get(algo, [])
                    if math.isfinite(ae)]
            if logs:
                medians.append(statistics.median(logs))
        out[algo] = statistics.fmean(medians) if medians else None
    return out


def _merge_summaries(out: Path, problems: tuple[str, ...]) -> None:
    """Concatenate the per-algorithm summaries in the harness's own row order
    (problem, algorithm, run), keeping each field's text as written."""
    rows, header = [], None
    for algo in ALGORITHMS:
        with (out / algo / "summary.csv").open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows += list(reader)
    rank = {name: i for i, name in enumerate(problems + ALGORITHMS)}
    rows.sort(key=lambda r: (rank.get(r[0], -1), rank.get(r[1], -1), int(r[2])))
    (out / "merged").mkdir()
    with (out / "merged" / "summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def grid_pass(famv, w: Workload, problems, base_seed: int, out: Path):
    """Each algorithm's sub-grid is its own ``run_experiment`` call, timed
    from outside; one ``compare_directory`` then ranks the merged summary.
    Returns the pass and its gate, which must run with tracing off."""
    timer = BlockTimer()
    for algo in ALGORITHMS:
        spec = famv.harness.ExperimentSpec(
            list(w.problems), [algo], str(out / algo), runs=w.runs,
            budget=w.budget, base_seed=base_seed, stride=STRIDE, dim=w.dim)
        with timer.block(algo):
            famv.harness.run_experiment(spec)
    with timer.block("compare"):
        _merge_summaries(out, w.problems)
        famv.harness.compare_directory(out / "merged")
    p = Pass(timer, {a: len(w.problems) * w.runs * w.budget for a in ALGORITHMS},
             runs=len(w.problems) * len(ALGORITHMS) * w.runs)

    def check():
        refs = {name: problem.reference_optimum for name, problem in problems.items()}
        p.failed.update(gate.check_grid(out, refs, ALGORITHMS, w.runs, w.budget))
        p.aes = {name: {} for name in w.problems}
        with (out / "merged" / "summary.csv").open(newline="") as fh:
            for row in csv.DictReader(fh):
                p.aes[row["problem"]].setdefault(row["algorithm"], []).append(float(row["ae"]))
    return p, check


def mixedcat_pass(famv, w: Workload, problems, base_seed: int, out: Path):
    """Runs go through ``run_algorithm`` directly, because no registry problem
    has a categorical dimension; each algorithm's block of runs is timed.
    Returns the pass and its gate, which must run with tracing off."""
    problem = problems[MixedCatProblem.name]
    out.mkdir(parents=True)
    timer, done = BlockTimer(), []
    for algo in ALGORITHMS:
        with timer.block(algo):
            for k in range(w.runs):
                trace = famv.harness.run_algorithm(algo, problem, w.budget, base_seed + k)
                path = out / f"{problem.name}__{algo}__run{k:03d}.csv"
                famv.harness.emit_trace(trace, path, STRIDE)
                done.append((algo, k, trace, path))
    p = Pass(timer, {a: w.runs * w.budget for a in ALGORITHMS}, runs=len(done))

    def check():
        aes = p.aes.setdefault(problem.name, {})
        with (out / "finals.txt").open("w") as fh:
            for algo, k, trace, path in done:
                error = gate.check_run(problem, trace, w.budget, path)
                if error:
                    p.failed[(problem.name, algo, k)] = error
                aes.setdefault(algo, []).append(problem.absolute_error(trace.final.fitness))
                sol = trace.final.solution
                fh.write(f"{algo} {k} {trace.final.fitness!r} "
                         f"{sol.cont.tolist()!r} {sol.disc!r}\n")
    return p, check


def _digest(out: Path) -> tuple[str, int]:
    """sha256 over every output file (path and bytes), and the bytes the
    harness wrote (the benchmark's own merged summary and finals excluded)."""
    h = hashlib.sha256()
    written = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        data = path.read_bytes()
        h.update(rel.encode() + b"\0" + data + b"\0")
        if rel not in ("merged/summary.csv", "finals.txt"):
            written += len(data)
    return h.hexdigest(), written


def _check_counts(p: Pass, tracer: Tracer, base_seed: int) -> None:
    """Exact count check: each traced run evaluated its objective exactly as
    many times as its budget was charged, and spent its whole budget."""
    names = np.array(tracer.names)
    spans = tracer.arrays()
    objective = np.flatnonzero(names == "problems.objective")
    is_obj = np.isin(spans["name"], objective)
    calls = np.bincount(spans["run"][is_obj & (spans["run"] >= 0)],
                        minlength=len(tracer.runs))
    for rid, (algo, problem, seed, budget) in enumerate(tracer.runs):
        charged = tracer.counts.get(("core.budget.consume.hit", rid), 0)
        if not calls[rid] == charged == budget:
            p.failed.setdefault(
                (problem, algo, seed - base_seed),
                f"{calls[rid]} objective calls, {charged} FE charged, budget {budget}")


def run_pass(famv, w: Workload, problems, seed: int, group: int, out: Path,
             traced: bool) -> Pass:
    base_seed = 1000 * seed + group * w.runs
    kind = grid_pass if w.problems else mixedcat_pass
    tracer = instrument(famv) if traced else None
    try:
        p, check = kind(famv, w, problems, base_seed, out)
    finally:
        if tracer is not None:
            tracer.restore()
    check()
    if tracer is not None:
        _check_counts(p, tracer, base_seed)
    p.tracer, p.group = tracer, group
    p.digest, p.bytes_written = _digest(out)
    shutil.rmtree(out)
    return p

# --- metrics ---------------------------------------------------------------


def quality(first_cycle: list[Pass]) -> dict:
    """log10 AE per algorithm over every run of the first cycle of groups."""
    aes: dict[str, dict[str, list[float]]] = {}
    for p in first_cycle:
        for problem, by_algo in p.aes.items():
            for algo, values in by_algo.items():
                aes.setdefault(problem, {}).setdefault(algo, []).extend(values)
    return _log10_ae(aes)


def end_to_end(w: Workload, passes: list[Pass], setup_s: float, log10_ae: dict,
               scaled: bool = True) -> dict[str, float]:
    """grid_s is the whole workload: ``groups`` passes at the median pass
    time.  With ``scaled``, every time is scaled to the reference speed."""
    blocks = [p.timer.scaled if scaled else p.timer.wall for p in passes]
    pass_s = statistics.median(sum(b.values()) for b in blocks)
    m = {"setup_s": setup_s, "grid_s": w.groups * pass_s,
         "fe_per_s": sum(passes[0].fe.values()) / pass_s}
    for algo in ALGORITHMS:
        m[f"us_per_fe.{algo}"] = statistics.median(
            1e6 * b[algo] / p.fe[algo] for p, b in zip(passes, blocks))
    for algo in ALGORITHMS:
        m[f"log10_ae.{algo}"] = log10_ae[algo]
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def layer_metrics(p: Pass, untraced_grid_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass, with the untraced pass that ran
    the same work just before it."""
    t = p.tracer
    lt = t.layer_times()
    name_ids = {name: i for i, name in enumerate(t.names)}
    algo_of_run = np.array([a for a, *_ in t.runs] + [""])   # run -1 -> ""
    span_algo = algo_of_run[lt["run"]]

    def total(name, key="dur", algo=None):
        mask = lt["name"] == name_ids.get(name, -1)
        if algo is not None:
            mask &= span_algo == algo
        return float(lt[key][mask].sum()), int(mask.sum())

    def attract_frac(algos):
        calls = t.counted("firefly.attractiveness", algos)
        return t.counted("firefly.attractiveness.hit", algos) / calls if calls else 0.0

    overhead = sum(p.timer.wall.values()) - untraced_grid_s
    m = {}
    for layer in LAYERS:
        s, calls = total(layer)
        m[f"{layer}.calls"] = calls
        m[f"{layer}.s"] = s
    for name in COUNTED:
        m[f"{name}.calls"] = t.counted(name)
    for engine in dict.fromkeys(ENGINE.values()):
        m[f"{engine}.self_s"] = total(engine, "self")[0]
    engine_s = sum(total(engine)[0] for engine in dict.fromkeys(ENGINE.values()))
    objective_s = m["problems.objective.s"]
    m["harness.self_s"] = sum(total(name, "self")[0] for name in HARNESS)
    m["harness.bytes_written"] = p.bytes_written
    m["firefly.attract_frac"] = attract_frac(("famv-h", "famv-g"))
    m["optimizer_overhead_ratio"] = ((engine_s - overhead - objective_s) / objective_s
                                     if objective_s > 0 else 0.0)
    m["tracing_overhead_s"] = overhead
    for algo, layers in SPLIT.items():
        for layer in layers:
            m[f"split.{algo}.{layer}.s"] = total(layer, algo=algo)[0]
        m[f"split.{algo}.{ENGINE[algo]}.self_s"] = total(ENGINE[algo], "self", algo)[0]
        if algo in ATTRACT:
            m[f"split.{algo}.firefly.attract_frac"] = attract_frac((algo,))
    return m


def per_layer(pairs: list[tuple[Pass, Pass]]) -> dict[str, float]:
    """Median over (untraced, traced) pass pairs of each per-layer metric."""
    each = [layer_metrics(traced, sum(plain.timer.wall.values())) for plain, traced in pairs]
    return {name: statistics.median_low(m[name] for m in each) for name in PER_LAYER}

# --- driver ------------------------------------------------------------------


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: list          # (pass index, run key, reason), one entry per failed run
    digest: str
    passes: int
    wall: dict = field(default_factory=dict)    # unscaled end-to-end times

    @property
    def correct(self) -> bool:
        return not self.failed


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            label: str = "bench") -> Result:
    """Set up, warm up, then run passes (untraced, or untraced/traced pairs)
    until ``seconds`` have gone by and every seed group has run."""
    timer = BlockTimer()
    for k in range(SETUP_REPEATS):
        with timer.block(f"setup{k}"):
            famv, problems = setup(w, seed)
    warm_up(famv, problems)
    run_dir = OUT / f"{label}-s{seed}-p{os.getpid()}"
    plain, traced = [], []
    start = time.perf_counter()
    try:
        while len(plain) < w.groups or time.perf_counter() - start < seconds:
            k, group = len(plain), len(plain) % w.groups
            plain.append(run_pass(famv, w, problems, seed, group,
                                  run_dir / f"pass{k:03d}", False))
            if trace:
                traced.append(run_pass(famv, w, problems, seed, group,
                                       run_dir / f"traced{k:03d}", True))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = []
    for i, p in enumerate(plain + traced):
        if p.digest != plain[p.group].digest:
            p.failed = dict.fromkeys(range(p.runs), "outputs differ from the group's first pass")
        failed += [(i, key, reason) for key, reason in p.failed.items()]
    log10_ae = quality(plain[:w.groups])
    digest = hashlib.sha256("".join(p.digest for p in plain[:w.groups]).encode()).hexdigest()
    if trace:
        metrics = per_layer(list(zip(plain, traced)))
        tables = {}
        for k, p in enumerate(traced):
            tables.update(p.tracer.tables(f"pass{k:03d}_"))
        OUT.mkdir(exist_ok=True)
        np.savez(OUT / f"spans-{label}-s{seed}.npz", **tables)
        wall = {}
    else:
        metrics = end_to_end(w, plain, statistics.median(timer.scaled.values()), log10_ae)
        wall = end_to_end(w, plain, statistics.median(timer.wall.values()), log10_ae,
                          scaled=False)
    return Result(metrics, sum(p.runs for p in plain + traced), failed, digest,
                  len(plain), wall)


def report(result: Result, trace: bool, out=sys.stdout) -> None:
    """Print each metric as ``name value unit``, the gate's verdict, and the
    JSON result as the last line."""
    units = PER_LAYER if trace else END_TO_END
    for name, unit in units.items():
        print(f"{name} {result.metrics[name]!r} {unit}", file=out)
    for name in ("setup_s", "grid_s", "fe_per_s", *(f"us_per_fe.{a}" for a in ALGORITHMS)):
        if name in result.wall:
            print(f"wall {name} {result.wall[name]!r} {END_TO_END[name]}", file=out)
    print(f"samples {result.passes} passes", file=out)
    print(f"runs_failed {len(result.failed)}/{result.attempted} runs", file=out)
    for i, key, reason in result.failed[:10]:
        print(f"failed in pass {i}: {key}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": len(result.failed),
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        load_famv()
    except (ImportError, FileNotFoundError) as exc:
        print(f"cannot load famv: {exc}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), label=args.workload)
    report(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
