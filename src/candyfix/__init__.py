"""candyfix: the match-three recoloring automaton, simulated and certified.

Three layers:

* :mod:`candyfix.lattice`     - configurations, chain stability, one update step.
* :mod:`candyfix.engine`      - exact k-step probability tables and the
  expected-instability contraction certificate of the theorem model (1-D,
  kappa=3, two colors, uniform recoloring; dyadic arithmetic throughout).
* :mod:`candyfix.montecarlo`  - trajectory experiments, fixation statistics
  and empirical cross-validation of the exact engine.

The command-line front end lives in :mod:`candyfix.cli`.
"""

__version__ = "0.1.0"

from .dyadic import Dyadic
from .engine import (
    Certificate,
    ProbTables,
    certify,
    compute_tables,
    gap_sum,
    kstep_prob,
    kstep_vector,
    max_gap_sum,
    one_step_oracle,
    unbounded_sum,
    window_sufficiency_check,
    worst_case,
)
from .lattice import (
    Boundary,
    Configuration,
    ModelParams,
    RngStream,
    classify_stability,
    is_stable,
    step,
)
from .montecarlo import (
    ExperimentSpec,
    ExplicitWord,
    RandomUnstableBlock,
    TrajectoryStats,
    UniformRandomBox,
    estimate_kstep_prob,
    run_experiment,
    run_trajectory,
    survival_curve,
)
from .windows import (
    StableGap,
    TripleUnstable,
    UnstableAtOrigin,
    WindowClass,
    enumerate_windows,
    reduced_classes,
)

__all__ = [
    "Boundary",
    "Certificate",
    "Configuration",
    "Dyadic",
    "ExperimentSpec",
    "ExplicitWord",
    "ModelParams",
    "ProbTables",
    "RandomUnstableBlock",
    "RngStream",
    "StableGap",
    "TrajectoryStats",
    "TripleUnstable",
    "UniformRandomBox",
    "UnstableAtOrigin",
    "WindowClass",
    "certify",
    "classify_stability",
    "compute_tables",
    "enumerate_windows",
    "estimate_kstep_prob",
    "gap_sum",
    "is_stable",
    "kstep_prob",
    "kstep_vector",
    "max_gap_sum",
    "one_step_oracle",
    "reduced_classes",
    "run_experiment",
    "run_trajectory",
    "step",
    "survival_curve",
    "unbounded_sum",
    "window_sufficiency_check",
    "worst_case",
    "__version__",
]
