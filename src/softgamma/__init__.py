"""Finite soft gamma-semirings: structures, soft-set algebra, law fuzzing."""

from . import files
from .algebra import (
    FiniteCommutativeSemigroup,
    GammaHom,
    GammaSemiring,
    check_commutative_semigroup,
    check_gamma_semiring,
    enumerate_sub_gamma_semirings,
    gamma_hom,
    identity_hom,
    is_gamma_homomorphism,
    is_sub_gamma_semiring,
    kernel,
    sub_gamma_witness,
    ternary_product,
)
from .errors import (
    ConstraintError,
    DomainError,
    GenerationError,
    InputError,
    ParseError,
    SizeLimitError,
    SoftGammaError,
)
from .generators import make_matrix_gamma, make_minmax_gamma, make_zn_gamma, product_gamma
from .reports import AxiomReport, TheoremVerdict, Violation, Witness
from .soft_gamma import (
    SoftGammaSemiring,
    is_soft_gamma_homomorphism,
    is_soft_gamma_semiring,
    is_soft_sub_gamma_semiring,
    is_trivial_soft,
    is_whole_soft,
    soft_image_under_hom,
    soft_preimage_under_hom,
)
from .soft_sets import (
    SoftFunction,
    SoftSet,
    TernaryRelation,
    and_intersect,
    and_intersect_family,
    cartesian_product,
    compose_soft_functions,
    extended_intersect,
    extended_union,
    is_soft_subset,
    make_soft_function,
    or_union,
    or_union_family,
    relative_null,
    relative_whole,
    restricted_intersect,
    restricted_union,
    soft_equal,
    soft_image,
    soft_preimage,
    soft_set_from_relation,
    support,
)

# the fuzzing harness is the largest module, and of the CLI commands only
# theorem and suite run it, so its names load on first use (PEP 562)
_HARNESS_NAMES = frozenset(
    {
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
)


def __getattr__(name):
    if name == "harness" or name in _HARNESS_NAMES:
        import importlib

        # not "from . import harness", which asks this hook for "harness" again
        harness = importlib.import_module(".harness", __name__)
        return harness if name == "harness" else getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = sorted({name for name in dir() if not name.startswith("_")} | _HARNESS_NAMES | {"harness"})
