"""In-memory span recorder that instruments famv from outside.

The tracer replaces module attributes that famv's own code looks up at call
time (for example ``famv.firefly.clamp``, which ``run_famv`` calls) with thin
wrappers, and puts the originals back on ``restore``.  Nothing under
``src/famv`` is edited.  A name that a later version of famv no longer has is
skipped, so its layer reads as zero calls instead of breaking the benchmark.

Each span is (name, start, end, parent span, run id), stored in typed arrays
and turned into per-layer totals and self times once the traced pass is over.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = -1
        self.runs: list[tuple[str, str, int, int]] = []  # (algorithm, problem, seed, budget)
        self.counts: dict[tuple[str, int], int] = {}     # (name, run id) -> calls
        self._patches: list[tuple[object, str, object, bool]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _patch(self, owner, attr: str, make):
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        own = attr in vars(owner)
        self._patches.append((owner, attr, fn, own))
        setattr(owner, attr, make(fn))

    def restore(self) -> None:
        for owner, attr, fn, own in reversed(self._patches):
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _spanned(self, fn, name: str):
        nid = self._name_id(name)
        name_of, parent, run = self.name_of, self.parent, self.run
        start, end, stack = self.start, self.end, self._stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf()
                stack.pop()
        return wrapper

    def span(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        self._patch(owner, attr, lambda fn: self._spanned(fn, name))

    def count(self, owner, attr: str, name: str, hit=None) -> None:
        """Count calls of ``owner.attr`` per run, without a span.  With
        ``hit``, also count results for which ``hit(result)`` is true, under
        ``name + ".hit"``."""
        counts = self.counts
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                key = (name, tracer.run_id)
                counts[key] = counts.get(key, 0) + 1
                if hit is not None and hit(result):
                    key = (name + ".hit", tracer.run_id)
                    counts[key] = counts.get(key, 0) + 1
                return result
            return wrapper
        self._patch(owner, attr, make)

    def counted(self, name: str, algorithms=None) -> int:
        """Calls counted under ``name`` in runs of the given algorithms (all
        calls, inside runs or not, when ``algorithms`` is None)."""
        return sum(n for (key, rid), n in self.counts.items() if key == name and (
            algorithms is None or (rid >= 0 and self.runs[rid][0] in algorithms)))

    def runs_of(self, owner, attr: str, name: str) -> None:
        """Span ``owner.attr`` (signature of ``famv.harness.run_algorithm``)
        and give each call its own run id."""
        def make(fn):
            inner = self._spanned(fn, name)

            def wrapper(algo, problem, max_fe, seed, overrides=None):
                self.run_id = len(self.runs)
                self.runs.append((algo, problem.name, int(seed), int(max_fe)))
                try:
                    return inner(algo, problem, max_fe, seed, overrides)
                finally:
                    self.run_id = -1
            return wrapper
        self._patch(owner, attr, make)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def tables(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Every span plus the name and run tables, keyed for ``np.savez``."""
        algo, problem, seed, budget = zip(*self.runs) if self.runs else ((),) * 4
        out = {"names": np.array(self.names), "run_algo": np.array(algo),
               "run_problem": np.array(problem),
               "run_seed": np.array(seed, dtype=np.int64),
               "run_budget": np.array(budget, dtype=np.int64), **self.arrays()}
        return {prefix + key: value for key, value in out.items()}

    def layer_times(self) -> dict[str, np.ndarray]:
        """Duration and self time of every span.  Self time is the duration
        minus the time its direct children cover; children of one span never
        overlap, because everything runs on one thread."""
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return {"name": spans["name"], "run": spans["run"], "dur": dur,
                "self": dur - child}
