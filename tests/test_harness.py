import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import famv
from famv import (ALGORITHMS, Categorical, Continuous, DistanceKind, ExperimentSpec,
                  GaConfig, IntegerRange, SearchSpace, compare, harness,
                  run_algorithm, run_experiment)
from famv.cli import main as cli_main
from famv.firefly import FireflyConfig, run_classical_fa, run_famv
from famv.harness import (DEFAULT_ENGINEERING_BUDGET, DEFAULT_SYNTHETIC_BUDGET,
                          ResultRow, compare_directory, emit_results_table,
                          emit_trace)
from famv.core import EvaluationBudget
from famv.problems import Problem, get_problem


def _read_csv(path):
    with Path(path).open(newline="") as fh:
        return list(csv.reader(fh))


class TestAlgorithmRegistry:
    def test_expected_names(self):
        assert set(ALGORITHMS) == {
            "fa", "famv-h", "famv-h-adaptive", "famv-h-alpha", "famv-h-gamma",
            "famv-g", "famv-g-adaptive", "famv-g-alpha", "famv-g-gamma", "ga",
        }

    def test_unknown_name(self, toy_problem):
        with pytest.raises(KeyError):
            run_algorithm("pso", toy_problem, 100, 0)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_variant_runs(self, name, toy_problem):
        trace = run_algorithm(name, toy_problem, 400, 0)
        assert trace.samples[-1][0] <= 400
        assert np.isfinite(trace.final.fitness)

    H, G = DistanceKind.MIXED_EH, DistanceKind.GOWER
    # name -> engine, and for a firefly engine the settings the run gets:
    # alpha, gamma, distance, adapt_alpha, adapt_gamma
    SETTINGS = {
        "fa": ("run_classical_fa", 1.5, 0.1, H, False, False),
        "famv-h": ("run_famv", 1.5, 0.1, H, False, False),
        "famv-h-adaptive": ("run_famv", 2.0, 0.05, H, True, True),
        "famv-h-alpha": ("run_famv", 2.0, 0.1, H, True, False),
        "famv-h-gamma": ("run_famv", 1.5, 0.05, H, False, True),
        "famv-g": ("run_famv", 1.5, 0.1, G, False, False),
        "famv-g-adaptive": ("run_famv", 2.0, 0.05, G, True, True),
        "famv-g-alpha": ("run_famv", 2.0, 0.1, G, True, False),
        "famv-g-gamma": ("run_famv", 1.5, 0.05, G, False, True),
        "ga": ("run_ga",),
    }

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_config_each_name_runs(self, name, toy_problem, monkeypatch):
        engine, *settings = self.SETTINGS[name]
        seen = []
        monkeypatch.setattr(harness, engine, lambda problem, config: seen.append(config))
        run_algorithm(name, toy_problem, 300, 7)
        if settings:
            alpha, gamma, distance, adapt_alpha, adapt_gamma = settings
            expected = FireflyConfig(max_fe=300, seed=7, pop_size=25, beta0=1.5, alpha=alpha,
                                     gamma=gamma, k=1.0, distance=distance,
                                     adapt_alpha=adapt_alpha, adapt_gamma=adapt_gamma)
        else:
            expected = GaConfig(max_fe=300, seed=7, pop_size=100, p_crossover=0.9,
                                p_mutation=0.01, tournament_size=3, elitism_count=1,
                                bits_per_continuous=16)
        assert seen == [expected]

    def test_overrides_win_over_the_name(self, toy_problem, monkeypatch):
        seen = []
        monkeypatch.setattr(harness, "run_famv", lambda problem, config: seen.append(config))
        run_algorithm("famv-g-alpha", toy_problem, 300, 7, {"alpha": 0.5, "k": 3.0})
        assert seen == [FireflyConfig(max_fe=300, seed=7, alpha=0.5, k=3.0,
                                      distance=DistanceKind.GOWER, adapt_alpha=True)]

    @pytest.mark.parametrize("setting, value", [
        ("adapt_alpha", True), ("adapt_gamma", True), ("k", 50.0),
        ("distance", DistanceKind.GOWER)])
    def test_fa_rejects_famv_only_settings(self, setting, value, toy_problem):
        with pytest.raises(ValueError, match=f"fa has no setting {setting}"):
            run_algorithm("fa", toy_problem, 500, 0, {setting: value})

    @pytest.mark.parametrize("name", ["fa", "famv-h", "ga"])
    def test_rejects_a_negative_seed_by_name(self, name):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            run_algorithm(name, get_problem("vessel"), 50, -1)

    # (algorithm or None for EvaluationBudget(max_fe), max_fe, seed, overrides,
    # the setting named); a bool is not an integer setting
    @pytest.mark.parametrize("name, max_fe, seed, overrides, setting", [
        ("famv-h", 1.5, 0, {}, "max_fe"), ("ga", 50.7, 0, {}, "max_fe"),
        ("fa", True, 0, {}, "max_fe"), (None, 50.7, 0, {}, "max_fe"),
        (None, True, 0, {}, "max_fe"), ("famv-h", 50, 1.5, {}, "seed"),
        ("ga", 50, "3", {}, "seed"), ("fa", 50, None, {}, "seed"),
        ("famv-g", 50, True, {}, "seed"), ("ga", 50, 0, {"pop_size": 25.0}, "pop_size"),
        ("famv-h", 50, 0, {"pop_size": 25.0}, "pop_size"),
        ("ga", 50, 0, {"tournament_size": 2.5}, "tournament_size"),
        ("ga", 50, 0, {"elitism_count": False}, "elitism_count"),
        ("ga", 50, 0, {"bits_per_continuous": 16.0}, "bits_per_continuous")])
    def test_rejects_a_non_integer_setting_by_name(self, name, max_fe, seed, overrides,
                                                   setting):
        with pytest.raises(TypeError, match=f"^{setting} must be an integer, got "):
            if name is None:
                EvaluationBudget(max_fe)
            else:
                run_algorithm(name, get_problem("vessel"), max_fe, seed, overrides)

    # a bool, a string, None or a complex number is not a float setting
    @pytest.mark.parametrize("name, overrides, setting", [
        ("famv-h", {"beta0": "x"}, "beta0"), ("famv-h", {"alpha": None}, "alpha"),
        ("famv-h", {"beta0": True}, "beta0"), ("fa", {"alpha": False}, "alpha"),
        ("famv-g", {"gamma": np.True_}, "gamma"), ("famv-h", {"k": "1.0"}, "k"),
        ("ga", {"p_crossover": "x"}, "p_crossover"), ("ga", {"p_mutation": None}, "p_mutation"),
        ("ga", {"p_mutation": True}, "p_mutation"), ("ga", {"p_crossover": 0.5j}, "p_crossover")])
    def test_rejects_a_non_real_setting_by_name(self, name, overrides, setting):
        with pytest.raises(TypeError, match=f"^{setting} must be a real number, got "):
            run_algorithm(name, get_problem("vessel"), 50, 0, overrides)

    @pytest.mark.parametrize("name, overrides", [
        ("famv-h", {"beta0": 1, "alpha": np.float64(0.5), "gamma": np.float32(0.25), "k": 2}),
        ("fa", {"beta0": np.int64(2), "alpha": np.float64(0.5)}),
        ("ga", {"p_crossover": 1, "p_mutation": np.float64(0.125)}),
        ("ga", {"p_crossover": np.float32(0.5), "p_mutation": 0})])
    def test_ints_and_numpy_floats_are_float_settings(self, name, overrides):
        problem = get_problem("vessel")
        floats = {key: float(value) for key, value in overrides.items()}
        assert run_algorithm(name, problem, 60, 3, overrides).samples == \
            run_algorithm(name, problem, 60, 3, floats).samples

    @pytest.mark.parametrize("name", ["fa", "famv-h", "ga"])
    def test_numpy_integers_are_integer_settings(self, name):
        problem = get_problem("vessel")
        numpy_run = run_algorithm(name, problem, np.int64(60), np.int64(3),
                                  {"pop_size": np.int32(10)})
        assert numpy_run.samples == run_algorithm(name, problem, 60, 3, {"pop_size": 10}).samples
        assert EvaluationBudget(np.int64(50)).max_fe == 50

    @pytest.mark.parametrize("name, overrides, setting", [
        ("famv-h", {"distance": "gower"}, "distance"), ("fa", {"distance": "gower"}, "distance"),
        ("famv-g", {"adapt_alpha": "no"}, "adapt_alpha"),
        ("famv-h-gamma", {"adapt_gamma": 0}, "adapt_gamma")])
    def test_rejects_a_non_numeric_override_of_the_wrong_type_by_name(self, name, overrides,
                                                                       setting):
        with pytest.raises(TypeError, match=f"^{setting} must be a"):
            run_algorithm(name, get_problem("vessel"), 50, 0, overrides)

    def test_numpy_bools_are_flag_overrides(self):
        problem = get_problem("vessel")
        numpy_run = run_algorithm("famv-h", problem, 60, 3, {"adapt_alpha": np.True_})
        assert numpy_run.samples == run_algorithm("famv-h", problem, 60, 3,
                                                  {"adapt_alpha": True}).samples

    def test_fa_takes_its_own_settings(self, toy_problem):
        overrides = {"pop_size": 10, "beta0": 1.0, "alpha": 0.5, "gamma": 0.2}
        trace = run_algorithm("fa", toy_problem, 300, 0, overrides)
        assert trace.samples != run_algorithm("fa", toy_problem, 300, 0).samples


class TestBudgets:
    def test_defaults_by_problem_class(self):
        spec = ExperimentSpec(["sphere"], ["famv-h"], out_dir="unused")
        assert spec.budget_for("sphere") == DEFAULT_SYNTHETIC_BUDGET
        assert spec.budget_for("vessel") == DEFAULT_ENGINEERING_BUDGET

    def test_explicit_budget_wins(self):
        spec = ExperimentSpec(["sphere"], ["famv-h"], out_dir="unused", budget=123)
        assert spec.budget_for("vessel") == 123

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            ExperimentSpec(["sphere"], ["famv-h"], out_dir="unused", runs=0)

    @pytest.mark.parametrize("setting, value", [
        ("problems", []), ("algorithms", []), ("out_dir", ""), ("runs", -1),
        ("budget", 0), ("stride", 0), ("base_seed", -1),
        ("problems", ["sphere", "vessel", "sphere"]),
        ("algorithms", ["famv-h", "famv-h"])])
    def test_rejects_bad_setting_by_name(self, setting, value):
        spec = dict(problems=["sphere"], algorithms=["famv-h"], out_dir="unused")
        spec[setting] = value
        with pytest.raises(ValueError, match=setting):
            ExperimentSpec(**spec)

    @pytest.mark.parametrize("setting, value", [
        ("runs", 2.5), ("budget", 50.7), ("stride", True), ("base_seed", 1.5),
        ("dim", 50.0)])
    def test_rejects_a_non_integer_setting_by_name(self, setting, value):
        spec = dict(problems=["sphere"], algorithms=["famv-h"], out_dir="unused")
        spec[setting] = value
        with pytest.raises(TypeError, match=f"^{setting} must be an integer, got "):
            ExperimentSpec(**spec)

    @pytest.mark.parametrize("setting, value, error", [
        ("problems", "sphere", TypeError), ("problems", "csd", TypeError),
        ("problems", ["sphere", 3], TypeError), ("algorithms", "fa", TypeError),
        ("algorithms", ("fa", None), TypeError), ("out_dir", 123, TypeError),
        ("out_dir", None, TypeError), ("dim", "abc", TypeError), ("dim", None, TypeError),
        ("dim", 1, ValueError)])
    def test_rejects_a_setting_of_the_wrong_type_by_name(self, setting, value, error):
        # only engineering problems are listed, so dim is read by no problem
        spec = dict(problems=["vessel", "csd"], algorithms=["fa"], out_dir="unused")
        spec[setting] = value
        with pytest.raises(error, match=f"^{setting} must be "):
            ExperimentSpec(**spec)

    def test_takes_tuples_and_a_path(self, tmp_path):
        spec = ExperimentSpec(("csd",), ("fa", "ga"), out_dir=tmp_path / "out", dim=3)
        assert spec.budget_for("csd") == DEFAULT_ENGINEERING_BUDGET


class TestEmitTrace:
    def _trace(self, toy_problem, max_fe=600, seed=0):
        return run_famv(toy_problem, FireflyConfig(max_fe=max_fe, seed=seed))

    def test_header_and_final_point(self, toy_problem, tmp_path):
        trace = self._trace(toy_problem)
        path = tmp_path / "trace.csv"
        emit_trace(trace, path, stride=1)
        rows = _read_csv(path)
        assert rows[0] == ["fe", "best"]
        assert len(rows) == len(trace.samples) + 1
        assert int(rows[-1][0]) == trace.samples[-1][0]

    def test_stride_bounds_row_count(self, toy_problem, tmp_path):
        trace = self._trace(toy_problem, max_fe=1000)
        path = tmp_path / "trace.csv"
        emit_trace(trace, path, stride=100)
        assert len(_read_csv(path)) <= 12  # header + <= 11 samples

    def test_monotone_best_column(self, toy_problem, tmp_path):
        trace = self._trace(toy_problem)
        path = tmp_path / "trace.csv"
        emit_trace(trace, path, stride=50)
        bests = [float(b) for _, b in _read_csv(path)[1:]]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        fes = [int(fe) for fe, _ in _read_csv(path)[1:]]
        assert fes == sorted(set(fes))

    def test_unwritable_path_names_target(self, toy_problem, tmp_path):
        trace = self._trace(toy_problem)
        bad = tmp_path / "missing-dir" / "trace.csv"
        with pytest.raises(OSError, match="missing-dir"):
            emit_trace(trace, bad, 1)

    def test_invalid_stride(self, toy_problem, tmp_path):
        with pytest.raises(ValueError):
            emit_trace(self._trace(toy_problem), tmp_path / "t.csv", stride=0)
        for stride in (2.5, True):
            with pytest.raises(TypeError, match="stride must be an integer"):
                emit_trace(self._trace(toy_problem), tmp_path / "t.csv", stride=stride)
        assert not (tmp_path / "t.csv").exists()


class TestEmitResultsTable:
    def test_single_cell_is_best(self, tmp_path):
        rows = [ResultRow("sphere", "famv-h", 1.0, 0.1, True, True)]
        emit_results_table(rows, tmp_path / "results.csv", tmp_path / "counts.csv")
        parsed = _read_csv(tmp_path / "results.csv")
        assert parsed[0] == ["problem", "algorithm", "mean_ae", "std_ae",
                             "is_best", "is_similar_to_best"]
        assert parsed[1][4] == "true"

    def test_counts_best_subset_of_similar(self, tmp_path):
        rows = [
            ResultRow("p1", "x", 1.0, 0.1, True, True),
            ResultRow("p2", "x", 2.0, 0.1, False, True),
            ResultRow("p1", "y", 3.0, 0.1, False, False),
            ResultRow("p2", "y", 1.5, 0.1, True, True),
        ]
        emit_results_table(rows, tmp_path / "results.csv", tmp_path / "counts.csv")
        counts = _read_csv(tmp_path / "counts.csv")[1:]
        for _, n_best, n_similar in counts:
            assert int(n_best) <= int(n_similar)

    def test_counts_are_exact_in_first_appearance_order(self, tmp_path):
        rows = [
            ResultRow("p1", "z", 1.0, 0.1, True, True),
            ResultRow("p1", "x", 2.0, 0.1, False, True),
            ResultRow("p1", "y", 3.0, 0.1, False, False),
            ResultRow("p2", "x", 1.5, 0.1, True, True),
            ResultRow("p2", "y", 2.5, 0.1, False, True),
            ResultRow("p2", "z", 3.5, 0.1, False, False),
            ResultRow("p3", "x", 0.5, 0.1, True, True),
            ResultRow("p3", "z", 0.7, 0.1, False, True),
            ResultRow("p3", "y", 0.9, 0.1, False, True),
        ]
        emit_results_table(rows, tmp_path / "results.csv", tmp_path / "counts.csv")
        assert _read_csv(tmp_path / "counts.csv") == [
            ["algorithm", "n_best", "n_similar_to_best"],
            ["z", "1", "2"], ["x", "2", "3"], ["y", "0", "2"]]


class TestRunExperiment:
    def _spec(self, tmp_path, **kw):
        defaults = dict(problems=["sphere"], algorithms=["famv-h", "fa"],
                        out_dir=str(tmp_path / "out"), runs=2, budget=400,
                        base_seed=0, stride=100, dim=4)
        defaults.update(kw)
        return ExperimentSpec(**defaults)

    def test_file_layout(self, tmp_path):
        spec = self._spec(tmp_path, algorithms=["famv-h"])
        run_experiment(spec)
        out = Path(spec.out_dir)
        assert sorted(p.name for p in (out / "traces").iterdir()) == [
            "sphere__famv-h__run000.csv", "sphere__famv-h__run001.csv"]
        assert (out / "summary.csv").exists()
        assert (out / "results.csv").exists()
        assert (out / "counts.csv").exists()

    def test_summary_columns_and_seeds(self, tmp_path):
        spec = self._spec(tmp_path, base_seed=100)
        run_experiment(spec)
        rows = _read_csv(Path(spec.out_dir) / "summary.csv")
        assert rows[0] == ["problem", "algorithm", "run", "seed", "final_fe",
                           "best", "ae"]
        seeds = [int(r[3]) for r in rows[1:] if r[1] == "famv-h"]
        assert seeds == [100, 101]

    def test_rerun_byte_identical(self, tmp_path):
        spec_a = self._spec(tmp_path, out_dir=str(tmp_path / "a"))
        spec_b = self._spec(tmp_path, out_dir=str(tmp_path / "b"))
        run_experiment(spec_a)
        run_experiment(spec_b)
        for name in ("summary.csv", "results.csv", "counts.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    # sha256 of every file of a 2 problems x 2 algorithms x 2 runs grid (path
    # and bytes, in path order), taken from the harness that opened each
    # table on its own and re-taken when each famv move came to read one row
    # of the stream; a change to any file's bytes or name shows here
    GRID_DIGEST = "f2c368b9ae852b5cfcc5c29ea184e8c0a114222e65e4046c51468275f118e319"

    def test_grid_files_digest(self, tmp_path):
        spec = self._spec(tmp_path, problems=["sphere", "vessel"],
                          algorithms=["famv-h", "ga"], budget=300, stride=50)
        run_experiment(spec)
        out = Path(spec.out_dir)
        digest = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.update(path.relative_to(out).as_posix().encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.GRID_DIGEST

    def test_classification_matches_stats_module(self, tmp_path):
        spec = self._spec(tmp_path, runs=5)
        rows = run_experiment(spec)
        summary = _read_csv(Path(spec.out_dir) / "summary.csv")[1:]
        groups = {}
        for record in summary:
            groups.setdefault(record[1], []).append(float(record[6]))
        report = compare(groups)
        for row in rows:
            assert row.is_best == (row.algorithm == report.best_group)
            assert row.is_similar_to_best == (row.algorithm in report.similar_to_best)

    def test_one_run_grid_has_one_best_per_problem(self, tmp_path):
        # too few runs for the omnibus test: the lowest mean is the one best
        spec = self._spec(tmp_path, problems=["sphere", "vessel"], runs=1, budget=300)
        run_experiment(spec)
        out = Path(spec.out_dir)
        results = _read_csv(out / "results.csv")[1:]
        for problem in spec.problems:
            cells = [r for r in results if r[0] == problem]
            best = [r[1] for r in cells if r[4] == "true"]
            assert best == [min(cells, key=lambda r: float(r[2]))[1]]
            assert all(r[5] == "true" for r in cells)
        assert sum(int(r[1]) for r in _read_csv(out / "counts.csv")[1:]) == 2

    def test_unknown_names_fail_fast(self, tmp_path):
        with pytest.raises(KeyError):
            run_experiment(self._spec(tmp_path, problems=["nope"]))
        with pytest.raises(KeyError):
            run_experiment(self._spec(tmp_path, algorithms=["nope"]))

    def test_compare_directory_round_trip(self, tmp_path):
        spec = self._spec(tmp_path, runs=3)
        direct = run_experiment(spec)
        out = Path(spec.out_dir)
        written = {name: (out / name).read_bytes() for name in ("results.csv", "counts.csv")}
        recomputed = compare_directory(spec.out_dir)
        assert direct == recomputed
        for name, data in written.items():
            assert (out / name).read_bytes() == data

    def test_compare_directory_missing_summary(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            compare_directory(tmp_path)

    def test_a_nan_ae_exits_2_and_inf_is_legal(self, tmp_path, capsys):
        # a NaN mean would let compare's min keep an arbitrary group best;
        # run_experiment writes a non-finite objective as inf, never NaN
        summary = tmp_path / "summary.csv"
        rows = "problem,algorithm,ae\nsphere,fa,1.0\nsphere,fa,{}\nsphere,ga,3.0\nsphere,ga,4.0\n"
        summary.write_text(rows.format("nan"))
        with pytest.raises(ValueError, match=r"line 3: ae 'nan' is not a number"):
            compare_directory(tmp_path)
        capsys.readouterr()
        assert cli_main(["compare", "--in", str(tmp_path)]) == 2
        assert f"{summary}, line 3" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()
        summary.write_text(rows.format("inf"))
        best = [(row.algorithm, row.is_best) for row in compare_directory(tmp_path)]
        assert best == [("fa", False), ("ga", True)]

    def test_both_infinities_in_a_group_exit_2(self, tmp_path, capsys):
        # a group's mean of +inf and -inf is NaN, and compare rejects it
        (tmp_path / "summary.csv").write_text(
            "problem,algorithm,ae\nsphere,fa,inf\nsphere,fa,-inf\nsphere,ga,3.0\n")
        assert cli_main(["compare", "--in", str(tmp_path)]) == 2
        assert "group 'fa' holds both +inf and -inf" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sphere" in out and "famv-h-adaptive" in out and "ga" in out

    def test_run_with_flags(self, tmp_path, capsys):
        code = cli_main(["run", "--problem", "sphere", "--algo", "famv-h",
                         "--runs", "2", "--budget", "300", "--seed", "1",
                         "--out", str(tmp_path / "out"), "--stride", "100",
                         "--dim", "4"])
        assert code == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[run]\n"
                       "problem = sphere\n"
                       "algo = famv-h, fa\n"
                       "runs = 5\n"
                       "budget = 300\n"
                       "dim = 4\n"
                       f"out = {tmp_path / 'out'}\n")
        code = cli_main(["run", "--config", str(cfg), "--runs", "1"])
        assert code == 0
        summary = _read_csv(tmp_path / "out" / "summary.csv")
        assert len(summary) == 3  # header + 2 algorithms x 1 run (flag wins)

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        code = cli_main(["run", "--problem", "nope", "--algo", "famv-h",
                         "--out", str(tmp_path / "out"), "--budget", "100"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_out_exits_2(self, capsys):
        code = cli_main(["run", "--problem", "sphere", "--algo", "famv-h"])
        assert code == 2

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = cli_main(["run", "--config", str(tmp_path / "nope.ini")])
        assert code == 2

    def test_compare_subcommand(self, tmp_path):
        assert cli_main(["run", "--problem", "sphere", "--algo", "famv-h",
                         "--algo", "fa", "--runs", "2", "--budget", "300",
                         "--out", str(tmp_path / "out"), "--dim", "4"]) == 0
        assert cli_main(["compare", "--in", str(tmp_path / "out")]) == 0

    def test_compare_missing_dir_exits_2(self, tmp_path, capsys):
        assert cli_main(["compare", "--in", str(tmp_path / "empty")]) == 2

    # each takes a real summary.csv (header and four rows) to a malformed one
    MALFORMED_SUMMARIES = {
        # the last row keeps its first 20 bytes, as a grid killed while
        # writing it leaves it
        "cut mid-row": lambda data: b"\n".join(data.split(b"\n")[:-2]
                                               + [data.split(b"\n")[-2][:20]]),
        # the last `ae` loses its final digit and the line terminator
        "cut inside the last field": lambda data: data.rstrip(b"\r\n")[:-1],
        "no ae column": lambda data: data.replace(b",ae\r\n", b",error\r\n", 1),
    }

    @pytest.mark.parametrize("case, where", [("cut mid-row", "line 5"),
                                             ("cut inside the last field", "line 5"),
                                             ("no ae column", "'ae'")])
    def test_malformed_summary_exits_2(self, tmp_path, capsys, case, where):
        out = tmp_path / "out"
        assert cli_main(["run", "--problem", "sphere", "--algo", "famv-h",
                         "--algo", "fa", "--runs", "2", "--budget", "300",
                         "--out", str(out), "--dim", "4"]) == 0
        summary = out / "summary.csv"
        summary.write_bytes(self.MALFORMED_SUMMARIES[case](summary.read_bytes()))
        results = (out / "results.csv").read_bytes()
        capsys.readouterr()
        assert cli_main(["compare", "--in", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(summary) in err and where in err
        assert (out / "results.csv").read_bytes() == results

    @pytest.mark.parametrize("flag, value, setting", [
        ("--stride", "0", "stride"), ("--seed", "-1", "seed"),
        ("--budget", "0", "budget"), ("--problem", "sphere", "problems repeats 'sphere'")])
    def test_bad_flag_exits_2_before_any_output(self, tmp_path, capsys,
                                                flag, value, setting):
        out = tmp_path / "out"
        code = cli_main(["run", "--problem", "sphere", "--algo", "famv-h",
                         "--runs", "1", "--budget", "50", "--dim", "4",
                         "--out", str(out), flag, value])
        assert code == 2
        assert setting in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entries, message", [
        ("problem =\nalgo = fa", "problem"),
        ("problem = sphere\nalgo = fa\nrun = 3", "unknown config keys: run"),
        ("problem = sphere\nalgo = fa\nruns = three", "runs"),
        # configparser's own errors name the file: a repeated key, and a lone
        # % that is raised only when the value is read
        ("problem = sphere\nalgo = fa\nalgo = ga", "exp.ini"),
        ("problem = sphere\nalgo = fa\nruns = 5%", "exp.ini")])
    def test_bad_config_exits_2_before_any_output(self, tmp_path, capsys,
                                                  entries, message):
        out = tmp_path / "out"
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[run]\n{entries}\nout = {out}\n")
        assert cli_main(["run", "--config", str(cfg), "--budget", "10"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_without_section_header_exits_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"problem = sphere\nalgo = fa\nout = {out}\n")
        assert cli_main(["run", "--config", str(cfg), "--budget", "10"]) == 2
        assert "exp.ini" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("algo", ["fa", "famv-h", "ga"])
def test_one_objective_call_and_one_charge_per_fe(algo, monkeypatch):
    """Per run, `Problem.__call__` runs once per FE and `EvaluationBudget.consume`
    charges once per FE, on the engineering designs and a synthetic problem:
    the counts that bench/run.py's traced gate checks against runs x budget."""
    counts = {"calls": 0, "charged": 0}
    call, consume = Problem.__call__, EvaluationBudget.consume

    def counted_call(self, sol):
        counts["calls"] += 1
        return call(self, sol)

    def counted_consume(self):
        charged = consume(self)
        counts["charged"] += charged
        return charged

    monkeypatch.setattr(Problem, "__call__", counted_call)
    monkeypatch.setattr(EvaluationBudget, "consume", counted_consume)
    for problem in [get_problem(name) for name in ("vessel", "beam", "csd")] + [
            get_problem("rastrigin", dim=10)]:
        for budget in (1, 73, 300):
            counts.update(calls=0, charged=0)
            run_algorithm(algo, problem, budget, 5)
            assert counts == {"calls": budget, "charged": budget}, (problem.name, budget)


GOLDEN_ALGORITHMS = ("fa", "famv-h", "famv-g", "famv-h-adaptive", "ga")
GOLDEN_PROBLEMS = ("vessel", "beam", "csd", "sphere")
# per algorithm, sha256 of every run's samples and final point; taken from
# famv 0.1.0's per-component engines, so a change to an algorithm's RNG stream
# or to the arithmetic of a move on these spaces (no categorical dimension)
# shows here, under that algorithm's name.  ga's digests were re-taken when
# its operators moved to one batch per generation, and famv's when its first
# population's codes came from the uniform stream, and again when each famv
# move came to read one row of the stream whatever the positions: deliberate
# stream changes.  Every entry was re-taken when sphere's shift left run seed
# 0's stream, and fa's and the mixed-EH entries when r became a left-to-right
# sum, the same double on every CPU (before, OpenBLAS's ddot picked its order)
GOLDEN_DIGEST = {
    "fa": "ec5faa242604bd8e56b156e337eaad185bcc66df303c7d6295d9171d2bce0861",
    "famv-h": "e094a313bdc0d85d73ffa2638997f3c34091d9d75af053bc78f08caf272dc315",
    "famv-g": "a26cc13acdb878cd249e7ffcf8b3a7dcb5a0715122c494d74ec22c881039bf23",
    "famv-h-adaptive": "ffc63ff0bdcc2d7781da58bd0a4b9946414998aa63191bb863317069cafada95",
    "ga": "f0c5d72f078298f4f66bef21a868269b66c2fe1d2fd7f5ed75484ab1ea9dfa45",
}


def _stream_digests(problems) -> dict[str, str]:
    """One digest per algorithm, so a stream change names its algorithm."""
    digests = {}
    for algo in GOLDEN_ALGORITHMS:
        digest = hashlib.sha256()
        for problem in problems:
            for seed in (0, 1):
                trace = run_algorithm(algo, problem, 1000, seed)
                sol = trace.final.solution
                record = ([(fe, float(best)) for fe, best in trace.samples],
                          float(trace.final.fitness), sol.cont.tolist(), sol.disc)
                digest.update(repr(record).encode())
        digests[algo] = digest.hexdigest()
    return digests


def test_golden_stream():
    problems = [get_problem(name, dim=10) for name in GOLDEN_PROBLEMS]
    assert _stream_digests(problems) == GOLDEN_DIGEST


class MixedCategorical:
    """Continuous, integer and categorical dimensions, optimum 0 at
    (0.5, 3, "c")."""

    name = "mixed-categorical"
    reference_optimum = 0.0
    space = SearchSpace([Continuous(-2.0, 2.0), IntegerRange(0, 6),
                         Categorical(("a", "b", "c", "d"))])

    def __call__(self, sol):
        return (float((sol.cont[0] - 0.5) ** 2) + (sol.disc[0] - 3) ** 2
                + (sol.disc[1] != "c"))


# the same digests on MixedCategorical; taken from the engines before the
# firefly schedule moved into `firefly._sweep`, and famv's re-taken when the
# categorical redraw, then the first population, came from the uniform stream,
# and when each move came to read one row of it whatever the positions; fa's
# re-taken when r became a left-to-right sum (famv's r here is one |d|)
CATEGORICAL_DIGEST = {
    "fa": "c1a20f673e18db7f840ee80b675953b75cdb0e3ddb573f0e7c57b631958e7c95",
    "famv-h": "304561bcdc66bfc7d63ef0afc3f5eff5c2b7e4f0242cbe0f0f7d16c1662b57c9",
    "famv-g": "56d45ac80ed14e544b759964ca7b6e2599cef71c683ed0f6efe53d897d2dc235",
    "famv-h-adaptive": "52a3ebbeab77330880f29e635bf9b0136be39ef48f42f76bc3f0ab5be52d18bb",
    "ga": "9755a3ee944a081aa7305279a96f726b0b8b2887e6c53402c397e34a93b871e2",
}


def test_golden_stream_categorical():
    assert _stream_digests([MixedCategorical()]) == CATEGORICAL_DIGEST


# each variable makes one process behave as on another CPU: another OpenBLAS
# kernel, or numpy's kernels for a CPU without AVX-512
CPU_VARIABLES = [("OPENBLAS_CORETYPE", "Haswell"), ("OPENBLAS_CORETYPE", "Prescott"),
                 ("NPY_DISABLE_CPU_FEATURES", "X86_V4")]
_CHILD = """
import json, test_harness as t
from famv import get_problem
print(json.dumps([t._stream_digests([get_problem(n, dim=10) for n in t.GOLDEN_PROBLEMS]),
                  t._stream_digests([t.MixedCategorical()])]))
"""


def test_golden_streams_do_not_depend_on_the_cpu():
    # the golden streams, each run in a child of this interpreter (not a
    # launcher script) with one variable set for that child only, equal the
    # streams of this process.  A variable that has no effect here (no
    # OpenBLAS, no AVX-512) leaves the child as this process
    path = os.pathsep.join([str(Path(famv.__file__).parents[1]), str(Path(__file__).parent)])
    children = [(f"{name}={value}", subprocess.Popen(
        [sys.executable, "-c", _CHILD], stdout=subprocess.PIPE, text=True,
        env={**os.environ, name: value, "PYTHONPATH": path}))
        for name, value in CPU_VARIABLES]
    here = [_stream_digests([get_problem(n, dim=10) for n in GOLDEN_PROBLEMS]),
            _stream_digests([MixedCategorical()])]
    results = [(setting, child.communicate(timeout=120)[0], child.returncode)
               for setting, child in children]
    for setting, out, returncode in results:
        assert returncode == 0, setting
        assert json.loads(out) == here, setting


@pytest.mark.parametrize("algo", ["famv-h", "famv-g"])
def test_categorical_runs_deterministic_and_conforming(algo):
    problem = MixedCategorical()
    first = run_algorithm(algo, problem, 800, 4)
    again = run_algorithm(algo, problem, 800, 4)
    assert first.samples == again.samples
    assert first.final.solution == again.final.solution
    assert first.final.solution.conforms(problem.space)
    assert problem(first.final.solution) == first.final.fitness


class _DoublesOnly:
    """A generator stand-in that has ``random`` and nothing else."""

    _default_rng = np.random.default_rng

    def __init__(self, seed):
        self.random = _DoublesOnly._default_rng(seed).random


class _OnMixedSpace:
    name = "on-mixed-space"
    reference_optimum = 0.0

    def __init__(self, space):
        self.space = space

    def __call__(self, sol):
        return float(sol.cont.sum()) + sol.disc[0] + (sol.disc[1] != "b")


@pytest.mark.parametrize("engine", [run_famv, run_classical_fa])
def test_firefly_runs_draw_only_doubles(monkeypatch, mixed_space, engine):
    problems = [_OnMixedSpace(mixed_space), MixedCategorical()]
    monkeypatch.setattr(np.random, "default_rng", _DoublesOnly)
    for problem in problems:
        trace = engine(problem, FireflyConfig(max_fe=300, seed=3))
        assert trace.final.solution.conforms(problem.space)


class WidestIntegerRange:
    name = "widest-integer-range"
    reference_optimum = 0.0
    space = SearchSpace([Continuous(0.0, 1.0), IntegerRange(-2 ** 52, 2 ** 52 - 1)])

    def __call__(self, sol):
        return float(sol.cont[0]) + abs(sol.disc[0]) / 2.0 ** 52


@pytest.mark.parametrize("algo", ["fa", "famv-h", "ga"])
def test_widest_integer_range_gives_a_conforming_solution(algo):
    trace = run_algorithm(algo, WidestIntegerRange(), 300, 0)
    assert trace.final.solution.conforms(WidestIntegerRange.space)


class FirstEvaluationNaN:
    """Returns NaN on its first call, a finite value afterwards; with
    ``always``, NaN on every call."""

    name = "first-nan"
    reference_optimum = 0.0
    space = SearchSpace([Continuous(-1.0, 1.0), IntegerRange(0, 5),
                         Categorical(("a", "b"))])

    def __init__(self, always: bool = False):
        self.always = always
        self.calls = 0

    def __call__(self, sol):
        self.calls += 1
        if self.always or self.calls == 1:
            return math.nan
        return float(sol.cont[0] ** 2) + sol.disc[0] + (sol.disc[1] == "b")


@pytest.mark.parametrize("algo", ["fa", "famv-h", "famv-g", "ga"])
def test_nan_first_evaluation_still_yields_finite_best(algo):
    trace = run_algorithm(algo, FirstEvaluationNaN(), 300, 0)
    assert trace.samples[0] == (1, math.inf)
    assert all(math.isfinite(best) for _, best in trace.samples[1:])
    assert math.isfinite(trace.final.fitness)


@pytest.mark.parametrize("algo", ["fa", "famv-h", "famv-g", "ga"])
def test_all_nan_objective_spends_budget_with_inf_best(algo):
    problem = FirstEvaluationNaN(always=True)
    trace = run_algorithm(algo, problem, 300, 0)
    assert problem.calls == 300
    assert trace.samples == [(1, math.inf)]
    assert trace.final.fitness == math.inf
