"""Exception taxonomy separating malformed input from violated preconditions.

The CLI maps these onto exit codes: anything rooted at InputError is exit 2
(the caller handed us garbage), anything rooted at DomainError is exit 1
(well-formed input, but the mathematics said no).
"""


class SoftGammaError(Exception):
    """Base class for all library errors."""


class InputError(SoftGammaError, ValueError):
    """Malformed or ill-typed input: bad table shapes, unknown labels,
    mismatched carriers, unknown identifiers."""


class ParseError(InputError):
    """A document does not conform to one of the JSON file formats."""


class SizeLimitError(InputError):
    """Input above one of the fixed scope bounds: a structure with more than
    MAX_SUBALGEBRAS subalgebras to list (or a carrier above an explicit
    max_carrier), a carrier above MAX_SCAN_CARRIER for the axiom scans (or
    a strict check's gamma addition table with more labels, in and outside
    the gamma set), a product above MAX_PRODUCT_SIZE, a matrix carrier above
    MAX_MATRIX_CARRIER."""


class DomainError(SoftGammaError, ValueError):
    """Structurally valid input violating a mathematical precondition,
    e.g. a restricted operation over disjoint parameter sets."""


class ConstraintError(DomainError):
    """A construction-time compatibility condition failed.

    Carries the first witness of the failure when one exists.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GenerationError(SoftGammaError):
    """An instance-generation policy is unsatisfiable as configured."""


def _require_type(value, kind: type, name: str) -> None:
    """InputError naming name, kind and value's type unless value is a kind."""
    if not isinstance(value, kind):
        raise InputError(f"{name} must be of type {kind.__name__}, got {type(value).__name__}")
