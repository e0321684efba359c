"""The fuzzing harness loads only where it runs.

`import softgamma` and every CLI command but theorem and suite leave
softgamma.harness unloaded; the package still serves the harness names on
first use, and no module imports the harness at module level.
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

# runs in a fresh interpreter: argv None only imports the package, else
# cli.main(argv) runs with its stdout discarded
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
print(json.dumps({"code": code, "harness": "softgamma.harness" in sys.modules}))
"""


def _probe(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportGraph:
    def test_importing_the_package_leaves_the_harness_unloaded(self):
        assert _probe(None) == {"code": None, "harness": False}

    def test_validate_leaves_the_harness_unloaded(self):
        argv = ["validate", str(ROOT / "tests" / "golden" / "z8.structure.json")]
        assert _probe(argv) == {"code": 0, "harness": False}

    def test_theorem_loads_the_harness(self):
        assert _probe(["theorem", "T3.8", "--trials", "3"]) == {"code": 0, "harness": True}


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


def _module_level_harness_imports(tree):
    """Line numbers of the imports of the harness that run when the module
    loads: outside any function body (class bodies run at load)."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.ImportFrom):
                # the package is flat, so a relative import is from softgamma
                module = (("softgamma." if child.level else "") + (child.module or "")).rstrip(".")
                names = {alias.name for alias in child.names}
                if module == "softgamma.harness" or module == "softgamma" and "harness" in names:
                    found.append(child.lineno)
            elif isinstance(child, ast.Import):
                if any(alias.name == "softgamma.harness" for alias in child.names):
                    found.append(child.lineno)
            visit(child)

    visit(tree)
    return found


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
