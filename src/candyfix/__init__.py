"""candyfix: the match-three recoloring automaton, simulated and certified.

* :mod:`candyfix.lattice`    - color arrays: chain stability, recoloring draws.
* :mod:`candyfix.montecarlo` - the trajectory loop, fixation statistics and
  Monte Carlo window estimates; of the exact half it takes only the window type.
* :mod:`candyfix.windows`    - windows as bit-packed words, their stability
  flags and the conditionings that select them.
* :mod:`candyfix.engine`     - exact k-step tables and the contraction
  certificate of the theorem model (1-D, kappa=3, two colors, uniform).
* :mod:`candyfix.dyadic`     - Fractions with a power-of-two denominator.
* :mod:`candyfix.render`     - JSON and text forms of tables and certificates.
* :mod:`candyfix.cli`        - the command-line front end, the one module where
  the Monte Carlo estimates meet the exact values of the sweep (``crosscheck``).

Import names from these submodules; the package itself holds only
``__version__``.
"""

__version__ = "0.1.0"
