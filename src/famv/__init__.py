"""Mixed-variable firefly optimization library with baselines, benchmark
problems, and a statistical evaluation harness."""

from .core import (Categorical, Continuous, EvaluationBudget, Firefly,
                   IntegerRange, MixedSolution, RunTrace, SearchSpace, clamp,
                   random_solution)
from .distances import DistanceKind, euclidean, gower, hamming, mixed_eh
from .firefly import FireflyConfig, run_classical_fa, run_famv
from .ga import GaConfig, run_ga
from .harness import ALGORITHMS, ExperimentSpec, run_algorithm, run_experiment
from .problems import absolute_error, available_problems, get_problem
from .stats import compare, dunn_pairwise, holm_adjust, kruskal_wallis

__all__ = [
    "ALGORITHMS", "Categorical", "Continuous", "DistanceKind",
    "EvaluationBudget", "ExperimentSpec", "Firefly", "FireflyConfig",
    "GaConfig", "IntegerRange", "MixedSolution", "RunTrace", "SearchSpace",
    "absolute_error", "available_problems", "clamp", "compare",
    "dunn_pairwise", "euclidean", "get_problem", "gower", "hamming",
    "holm_adjust", "kruskal_wallis", "mixed_eh", "random_solution",
    "run_algorithm", "run_classical_fa", "run_experiment", "run_famv",
    "run_ga",
]

__version__ = "0.1.0"
