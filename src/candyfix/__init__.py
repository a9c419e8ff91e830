"""candyfix: the match-three recoloring automaton, simulated and certified.

* :mod:`candyfix.lattice`    - color arrays: chain stability, recoloring draws.
* :mod:`candyfix.montecarlo` - the trajectory loop, fixation statistics and
  Monte Carlo estimates checked against the exact engine.
* :mod:`candyfix.windows`    - origin windows as bit-packed words, their classes.
* :mod:`candyfix.engine`     - exact k-step tables and the contraction
  certificate of the theorem model (1-D, kappa=3, two colors, uniform).
* :mod:`candyfix.dyadic`     - Fractions with a power-of-two denominator.
* :mod:`candyfix.render`     - JSON and text forms of tables and certificates.
* :mod:`candyfix.cli`        - the command-line front end.
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
from .lattice import Boundary, ModelParams, RngStream
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
    "compute_tables",
    "enumerate_windows",
    "estimate_kstep_prob",
    "gap_sum",
    "kstep_prob",
    "kstep_vector",
    "max_gap_sum",
    "one_step_oracle",
    "reduced_classes",
    "run_experiment",
    "run_trajectory",
    "survival_curve",
    "unbounded_sum",
    "window_sufficiency_check",
    "worst_case",
    "__version__",
]
