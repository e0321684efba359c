"""The fuzzing harness loads only where it runs, and nothing loads dataclasses.

`import softgamma` and every CLI command but theorem and suite leave
softgamma.harness unloaded; the package still serves the harness names on
first use, and no module imports the harness at module level.  No command,
theorem and suite included, loads dataclasses, inspect or typing, and no
module imports dataclasses or typing anywhere, function bodies included.
The harness itself makes no stdlib bounded draw: it draws bounded integers
through harness._below, so its draw order rests on getrandbits alone.  And
it makes and reads a random.Random only in the word memo's helpers, so every
draw reads the words of harness._stream.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import softgamma

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SOURCES = sorted((SRC / "softgamma").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"

HARNESS_NAMES = {
    "ACCEPTANCE_THEOREMS",
    "ALL_THEOREMS",
    "Instance",
    "NECESSITY_TEMPLATES",
    "InstanceSpec",
    "check_theorem",
    "check_trivial_whole_theorem",
    "fuzz_theorem",
    "generate_instance",
}

# the package's public names when it still imported the harness eagerly
PUBLIC_NAMES = HARNESS_NAMES | {
    "AxiomReport", "ConstraintError", "DomainError", "FiniteCommutativeSemigroup", "GammaHom",
    "GammaSemiring", "GenerationError", "InputError", "ParseError", "SizeLimitError", "SoftFunction",
    "SoftGammaError", "SoftGammaSemiring", "SoftSet", "TernaryRelation", "TheoremVerdict", "Violation",
    "Witness", "algebra", "and_intersect", "and_intersect_family", "cartesian_product",
    "check_commutative_semigroup", "check_gamma_semiring", "compose_soft_functions",
    "enumerate_sub_gamma_semirings", "errors", "extended_intersect", "extended_union", "files",
    "gamma_hom", "generators", "harness", "identity_hom", "is_gamma_homomorphism",
    "is_soft_gamma_homomorphism", "is_soft_gamma_semiring", "is_soft_sub_gamma_semiring",
    "is_soft_subset", "is_sub_gamma_semiring", "is_trivial_soft", "is_whole_soft", "kernel",
    "make_matrix_gamma", "make_minmax_gamma", "make_soft_function", "make_zn_gamma", "or_union",
    "or_union_family", "product_gamma", "relative_null", "relative_whole", "reports",
    "restricted_intersect", "restricted_union", "soft_equal", "soft_gamma", "soft_image",
    "soft_image_under_hom", "soft_preimage", "soft_preimage_under_hom", "soft_set_from_relation",
    "soft_sets", "sub_gamma_witness", "support", "ternary_product",
}

# the modules a dataclass pulls in at start-up, which no command loads
START_UP_MODULES = ("dataclasses", "inspect", "typing")

# runs in a fresh interpreter without site, whose preloads could hide a
# regression: argv None only imports the package, else cli.main(argv) runs
# with its stdout discarded
PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is None:
    import softgamma
else:
    from softgamma.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
loaded = [name for name in json.loads(sys.argv[2]) if name in sys.modules]
print(json.dumps({"code": code, "harness": "softgamma.harness" in sys.modules, "loaded": loaded}))
"""


def _probe(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, json.dumps(argv), json.dumps(START_UP_MODULES)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportGraph:
    def test_importing_the_package_leaves_the_harness_unloaded(self):
        assert _probe(None) == {"code": None, "harness": False, "loaded": []}

    def test_validate_leaves_the_harness_unloaded(self):
        argv = ["validate", str(GOLDEN / "z8.structure.json")]
        assert _probe(argv) == {"code": 0, "harness": False, "loaded": []}

    @pytest.mark.parametrize(
        "argv",
        [
            ["subsemirings", str(GOLDEN / "z8.structure.json")],
            ["soft-check", str(GOLDEN / "z8.structure.json"), str(GOLDEN / "z8.soft.json")],
            ["op", "rint", str(GOLDEN / "z8.soft.json"), str(GOLDEN / "z8.soft.json")],
            ["example", "z8"],
        ],
        ids=["subsemirings", "soft-check", "op rint", "example z8"],
    )
    def test_other_commands_leave_the_harness_and_dataclasses_unloaded(self, argv):
        assert _probe(argv) == {"code": 0, "harness": False, "loaded": []}

    @pytest.mark.parametrize(
        "argv", [["theorem", "T3.8", "--trials", "3"], ["suite", "--trials", "2"]], ids=["theorem", "suite"]
    )
    def test_the_fuzz_commands_load_the_harness_but_not_dataclasses(self, argv):
        assert _probe(argv) == {"code": 0, "harness": True, "loaded": []}


class TestPublicNames:
    def test_all_keeps_the_public_names(self):
        assert len(softgamma.__all__) == len(PUBLIC_NAMES)
        assert set(softgamma.__all__) == PUBLIC_NAMES

    def test_every_public_name_resolves(self):
        for name in softgamma.__all__:
            getattr(softgamma, name)

    def test_harness_names_are_the_harness_objects(self):
        from softgamma import harness

        assert softgamma.harness is harness
        for name in HARNESS_NAMES:
            assert getattr(softgamma, name) is getattr(harness, name), name

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from softgamma import *", namespace)
        assert PUBLIC_NAMES <= namespace.keys()

    def test_dir_lists_every_public_name(self):
        assert PUBLIC_NAMES <= set(dir(softgamma))

    @pytest.mark.parametrize("name", ["no_such_name", "import_module", "importlib"])
    def test_an_unknown_attribute_is_an_attribute_error(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(softgamma, name)


def _module_level_imports(tree, wanted):
    """Line numbers of the imports that run when the module loads, outside
    any function body (class bodies run at load), and for which
    wanted(module, names) holds: "from m import a, b" asks it of m and
    {a, b}, "import m" of m and no names."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.ImportFrom):
                # the package is flat, so a relative import is from softgamma
                module = (("softgamma." if child.level else "") + (child.module or "")).rstrip(".")
                if wanted(module, {alias.name for alias in child.names}):
                    found.append(child.lineno)
            elif isinstance(child, ast.Import):
                if any(wanted(alias.name, set()) for alias in child.names):
                    found.append(child.lineno)
            visit(child)

    visit(tree)
    return found


def _module_level_harness_imports(tree):
    return _module_level_imports(
        tree, lambda module, names: module == "softgamma.harness" or module == "softgamma" and "harness" in names
    )


# the stdlib modules no softgamma module imports, at any level
BANNED_MODULES = {"dataclasses", "typing"}


def _banned_imports(tree):
    """Line numbers of the imports of a BANNED_MODULES module (or of one of
    its submodules) anywhere in tree, function bodies included."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] in BANNED_MODULES for alias in node.names)
        or isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] in BANNED_MODULES
    ]


def test_sources_are_found():
    assert any(path.name == "cli.py" for path in SOURCES)


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("from .harness import fuzz_theorem", [1]),
        ("from . import files, harness", [1]),
        ("import softgamma.harness", [1]),
        ("from softgamma import harness", [1]),
        ("if True:\n    from .harness import InstanceSpec", [2]),
        ("class C:\n    from .harness import Instance", [2]),
        ("def f():\n    from .harness import fuzz_theorem", []),
        ("from . import files", []),
        ("from .harnesses import x", []),
    ],
)
def test_the_guard_tells_module_level_imports_from_function_ones(source, flagged):
    assert _module_level_harness_imports(ast.parse(source)) == flagged


def test_no_module_imports_the_harness_at_module_level():
    found = [
        f"{path.name}:{lineno}"
        for path in SOURCES
        for lineno in _module_level_harness_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == [], "module-level harness imports in softgamma: " + ", ".join(found)


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("from dataclasses import dataclass", [1]),
        ("import dataclasses", [1]),
        ("import os, dataclasses", [1]),
        ("from typing import Callable", [1]),
        ("import typing as t", [1]),
        ("class C:\n    from dataclasses import replace", [2]),
        ("def f():\n    from dataclasses import replace", [2]),
        ("def f():\n    def g():\n        import typing", [3]),
        ("from .dataclasses import x", []),
        ("from . import typing", []),
        ("from collections.abc import Callable", []),
        ("from functools import cached_property", []),
    ],
)
def test_the_guard_finds_dataclasses_and_typing_imports_at_any_level(source, flagged):
    assert _banned_imports(ast.parse(source)) == flagged


def test_no_module_imports_dataclasses_or_typing():
    found = [
        f"{path.name}:{lineno}"
        for path in SOURCES
        for lineno in _banned_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == [], "dataclasses or typing imports in softgamma: " + ", ".join(found)


# random.Random methods whose draws rest on stdlib algorithms, not on getrandbits alone
STDLIB_BOUNDED_DRAWS = {"sample", "choice", "choices", "randint", "randrange", "shuffle", "uniform"}


def _stdlib_bounded_draws(tree):
    """Line numbers of the uses of a method named in STDLIB_BOUNDED_DRAWS:
    every attribute of that name, so a call through an alias counts too."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in STDLIB_BOUNDED_DRAWS
    ]


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("rng.choice(seq)", [1]),
        ("x = 1\nrandom.Random(0).shuffle(order)", [2]),
        ("def f(rng):\n    return [rng.randint(1, 3)]", [2]),
        ("rng.sample(pool, 2); rng.uniform(0, 1)", [1, 1]),
        ("r.randrange(n)\nr.choices(seq, k=2)", [1, 2]),
        ("rng.getrandbits(4); rng.random(); rng.seed(0)", []),
        ("_below(rng.getrandbits, 3)", []),
        ("pick = rng.choice\npick(seq)", [1]),
        ("choice(seq); sample = 2", []),
    ],
)
def test_the_guard_finds_stdlib_bounded_draw_calls(source, flagged):
    assert sorted(_stdlib_bounded_draws(ast.parse(source))) == flagged


def test_the_harness_makes_no_stdlib_bounded_draw():
    path = SRC / "softgamma" / "harness.py"
    found = _stdlib_bounded_draws(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert found == [], f"stdlib bounded draws in harness.py (draw through _below): lines {found}"


# the module-level functions of harness.py that hold the word memo: the only
# code there that makes a random.Random or reads its words
STREAM_HELPERS = {"_head", "_tail"}


def _rng_uses(tree):
    """Sorted line numbers, outside the module-level functions named in
    STREAM_HELPERS, of a use of the random module or of a generator's words:
    the name random, an attribute Random, getrandbits or random, a call of an
    attribute seed (a spec's seed is read, never called), or an import from
    random."""
    lines = set()
    for statement in tree.body:
        if isinstance(statement, ast.FunctionDef) and statement.name in STREAM_HELPERS:
            continue
        for node in ast.walk(statement):
            if (
                isinstance(node, ast.Name) and node.id == "random"
                or isinstance(node, ast.Attribute) and node.attr in ("Random", "getrandbits", "random")
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "seed"
                or isinstance(node, ast.ImportFrom) and node.module == "random"
            ):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("rng = random.Random(0)", [1]),
        ("x = 1\nrng.getrandbits(4)", [2]),
        ("empty = rng.random() < 0.2", [1]),
        ("rng.seed(3)", [1]),
        ("reseed = rng.seed\nreseed(3)", []),
        ("from random import Random", [1]),
        ("import random", []),
        ("def f(seed):\n    return random.Random(seed)", [2]),
        ("@lru_cache(maxsize=8)\ndef _head(seed):\n    return random.Random(seed).getrandbits(64)", []),
        ("def _tail(seed):\n    rng = random.Random(seed)\n    while True:\n        yield rng.getrandbits(32)", []),
        ("def f():\n    def _head(seed):\n        return random.Random(seed)", [3]),
        ("class C:\n    def _tail(self):\n        return self.rng.random()", [3]),
        ("seed = spec.seed + 1; spec.replace(seed=seed)", []),
        ("empty = (word() >> 5 << 26) + (word() >> 6) < bound", []),
    ],
)
def test_the_guard_finds_random_uses_outside_the_stream_helpers(source, flagged):
    assert _rng_uses(ast.parse(source)) == flagged


def test_the_harness_reads_random_only_through_the_stream():
    path = SRC / "softgamma" / "harness.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    helpers = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)} & STREAM_HELPERS
    assert helpers == STREAM_HELPERS
    found = _rng_uses(tree)
    assert found == [], f"random uses outside {sorted(STREAM_HELPERS)} in harness.py (draw from _stream): lines {found}"
