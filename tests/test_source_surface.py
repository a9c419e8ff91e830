"""The package ships only what runs: no unused import, no public name nobody calls.

A top-level public function or class of ``src/candyfix``, and a private
(underscored) function, class or module constant, must be referenced from
outside its own definition by some module of ``src/candyfix`` or of
``perfbench/`` (the benchmark names its targets as strings, so a dotted name
in a string constant counts).  What only tests call belongs in the tests.
The Monte Carlo half takes nothing from the exact half but the window type,
so the CLI is the one place where the two meet.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "candyfix"

# Reference implementations that tests compare the engine against; they are
# kept beside the code they check so both read the same window types.
TEST_ORACLES = {
    ("engine", "one_step_oracle"):
        "exhausts one step's recolorings; the independent check of kstep_prob at k=1",
    ("engine", "window_sufficiency_check"):
        "extends windows by one site; the check that radius 2k+2 determines k steps",
    ("engine", "worst_case"):
        "maximizes one conditioning over every word; the independent check of the "
        "sweep's tables",
    ("windows", "conditioning_mask"):
        "selects a conditioning's words by their flags; what worst_case maximizes over",
    ("windows", "default_radius"):
        "the smallest radius a conditioning's flags need; the radius worst_case uses",
}

# The Monte Carlo half checks the exact half, so it may take from it only the
# window value type, never its arithmetic, classifier or output forms.
MONTE_CARLO_HALF = ("montecarlo", "lattice")
EXACT_HALF = {"engine", "render", "dyadic"}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _parsed(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _references(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and _DOTTED.fullmatch(sub.value):
            names.update(sub.value.split("."))
    return names


def _defined(node) -> list[str]:
    """The names a top-level statement defines that must have a user: a
    function or class, public or private, and a private module constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)
                and t.id.startswith("_") and not t.id.startswith("__")]
    return []


def test_every_import_and_public_name_is_used():
    package = _parsed(sorted(PACKAGE.glob("*.py")))
    bench = _parsed(sorted((ROOT / "perfbench").glob("*.py")))
    problems = []

    for path, tree in package.items():
        read = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and sub.module == "__future__":
                continue
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        problems.append(f"{path.name}:{sub.lineno} imports {bound} unused")

    # each top-level statement's references, so a definition's own body is
    # not counted as a use of it
    referenced = [(node, _references(node))
                  for tree in [*package.values(), *bench.values()] for node in tree.body]
    oracles = set()
    for path, tree in package.items():
        for node in tree.body:
            for name in _defined(node):
                if (path.stem, name) in TEST_ORACLES:
                    oracles.add((path.stem, name))
                elif not any(name in names for other, names in referenced if other is not node):
                    problems.append(f"{path.name}:{node.lineno} {name} has no caller "
                                    "in src/candyfix or perfbench")
    assert problems == []
    assert oracles == set(TEST_ORACLES)  # every named exception still exists


def _imports(tree):
    """Line, module (its last dotted part) and names, or None, of each import."""
    for sub in ast.walk(tree):
        if isinstance(sub, ast.ImportFrom) and sub.module:
            yield sub.lineno, sub.module.split(".")[-1], [alias.name for alias in sub.names]
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):  # import m, from . import m
            for alias in sub.names:
                yield sub.lineno, alias.name.split(".")[-1], None


def test_monte_carlo_half_imports_only_the_window_type():
    problems = []
    for path, tree in _parsed(PACKAGE / f"{stem}.py" for stem in MONTE_CARLO_HALF).items():
        for line, module, names in _imports(tree):
            if module in EXACT_HALF or (module == "windows" and names != ["WindowClass"]):
                problems.append(f"{path.name}:{line} imports {names or module}")
    assert problems == []
