"""What the benchmark under perfbench/ takes from the program.

The benchmark wraps program functions by name (``spans.TARGETS``) and checks
each run's output against the engine's own results (``checks``); its own
tests run every workload and sit outside this suite, so these cheap guards
keep the contract in it.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

from candyfix.engine import kstep_prob
from candyfix.render import certificate_to_json
from candyfix.windows import WindowClass

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import spans  # noqa: E402


def test_every_span_target_resolves():
    for module_name, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"candyfix.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, path)


def test_forward_bound_check_reads_fractions(certificate_k4):
    value = kstep_prob(WindowClass.from_word(0b111000111, 4), 1).as_fraction()
    assert type(value) is Fraction
    cert = certificate_to_json(certificate_k4)
    assert checks.certify_forward_bound(cert, seed=0) == []


def test_trace_and_checks_read_windows():
    # the estimator span sizes its work off the window, and the checks build
    # windows from 0/1 text
    window = WindowClass.from_word(0b110001011, 4)
    assert spans._estimate_sites((window, 4, 10), {}) == 10 * 9 * 4
    assert checks.window_of("110001011") == WindowClass.parse("110001011") \
        == WindowClass.from_word(0b110100011, 4)
