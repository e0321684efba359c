"""Desk-scale structure families: modular, min/max, and matrix carriers."""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct

from .algebra import (
    FiniteCommutativeSemigroup,
    GammaSemiring,
    _collection,
    _count,
    _entries,
    _product_labels,
    _require_structure,
)
from .errors import ConstraintError, InputError, SizeLimitError


def _int_subset(values, n: int, what: str) -> tuple[int, ...]:
    out = tuple(sorted(set(_entries(_collection(values, what), frozenset(range(n)), what))))
    if not out:
        raise InputError(f"{what} must be nonempty")
    return out


def _integer_ops(kind: str, n: int) -> tuple:
    """The + and the multiplication of family "zn" (mod n) or "minmax" (max and min)."""
    if kind == "zn":
        return (lambda a, b: (a + b) % n), (lambda a, b: a * b % n)
    return max, min


@lru_cache(maxsize=64)
def _integer_carrier(kind: str, n: int) -> tuple[FiniteCommutativeSemigroup, tuple[tuple[int, ...], ...]]:
    """The checked carrier 0..n-1 of a family and its multiplication table,
    shared by every gamma set over (kind, n); the 64 latest pairs are kept."""
    add, mul = _integer_ops(kind, n)
    add_table = tuple(tuple(add(i, j) for j in range(n)) for i in range(n))
    rows = tuple(tuple(mul(k, j) for j in range(n)) for k in range(n))
    return FiniteCommutativeSemigroup(tuple(str(i) for i in range(n)), add_table), rows


def _integer_gamma(kind: str, n: int, gamma: tuple[int, ...], with_gamma_add: bool) -> GammaSemiring:
    """Carrier 0..n-1 of family "zn" (+ and a*alpha*b mod n) or "minmax" (max
    and min(a, alpha, b)), zero 0.  Gamma labels are taken as given and may
    exceed n - 1; with_gamma_add attaches their sums as a label table."""
    s, rows = _integer_carrier(kind, n)
    add, mul = _integer_ops(kind, n)
    # a·alpha·b is mul(mul(a, alpha), b), so the row b -> a·alpha·b is the
    # row of mul(a, alpha) < n in mul's table, one tuple shared by every
    # (a, alpha) with that value
    product = tuple(tuple(rows[mul(i, g)] for g in gamma) for i in range(n))
    gamma_add = tuple(tuple(str(add(g, h)) for h in gamma) for g in gamma) if with_gamma_add else None
    return GammaSemiring(s, tuple(str(g) for g in gamma), gamma_add, product, zero="0")


def make_zn_gamma(n: int, gamma_subset, strict: bool = False) -> GammaSemiring:
    """Integers mod n under + with product a*alpha*b mod n and zero 0.

    strict attaches gamma addition mod n as a label table; for gamma subsets
    not closed under + mod n this deliberately fails strict validation with a
    gamma-closure witness.
    """
    return _integer_gamma("zn", _count(n, "n"), _int_subset(gamma_subset, n, "gamma subset"), strict)


def make_minmax_gamma(n: int, gamma_subset) -> GammaSemiring:
    """Carrier 0..n-1 under max, with product min(a, alpha, b) and zero 0.

    Any gamma subset is closed under max, so the result always passes the
    strict check.
    """
    return _integer_gamma("minmax", _count(n, "n"), _int_subset(gamma_subset, n, "gamma subset"), True)


def _matmul(a, a_shape, b, b_shape, p):
    ra, ca = a_shape
    rb, cb = b_shape
    if ca != rb:
        raise ConstraintError(f"cannot multiply a {ra}x{ca} matrix by a {rb}x{cb} matrix")
    out = []
    for i in range(ra):
        for j in range(cb):
            acc = 0
            for k in range(ca):
                acc += a[i * ca + k] * b[k * cb + j]
            out.append(acc % p)
    return tuple(out)


# validating a matrix carrier takes about 0.04 s at 27 elements and 5-6 s at 81, weak or strict
MAX_MATRIX_CARRIER = 27


def make_matrix_gamma(p: int, rows: int, cols: int) -> GammaSemiring:
    """All rows x cols matrices over the field of p elements, entrywise +.

    The gamma set is all cols x rows matrices and the product is the matrix
    product W·alpha·Y mod p.  Labels are row-major digit strings.  Bounded to
    p <= 3 and p**(rows*cols) <= MAX_MATRIX_CARRIER elements, which are
    built in under 0.01 s and validated by check_gamma_semiring in about
    0.05 s or less, weak or strict.
    """
    if _count(p, "p", 2) > 3:
        raise InputError(f"p must be a prime at most 3, got {p!r}")
    k = _count(rows, "rows") * _count(cols, "cols")
    # p >= 2, so p**k exceeds the bound exactly when p**min(k, bound) does
    if p ** min(k, MAX_MATRIX_CARRIER) > MAX_MATRIX_CARRIER:
        raise SizeLimitError(f"matrix carrier refused: {p}**{k} elements exceed {MAX_MATRIX_CARRIER}")

    # a cols x rows gamma matrix has as many entries as a rows x cols carrier
    # matrix, so one list of flat p-ary tuples serves both
    entries = list(iproduct(range(p), repeat=k))
    labels = tuple("".join(str(d) for d in flat) for flat in entries)
    index = {m: i for i, m in enumerate(entries)}

    add = tuple(
        tuple(index[tuple((x + y) % p for x, y in zip(a, b))] for b in entries)
        for a in entries
    )
    # the row b -> a·alpha·b depends on the rows x rows matrix a·alpha only,
    # so each is built once per distinct a·alpha
    product_rows = {}
    product = []
    for a in entries:
        layer = []
        for g in entries:
            ag = _matmul(a, (rows, cols), g, (cols, rows), p)
            row = product_rows.get(ag)
            if row is None:
                row = product_rows[ag] = tuple(
                    index[_matmul(ag, (rows, rows), b, (rows, cols), p)] for b in entries
                )
            layer.append(row)
        product.append(tuple(layer))

    gamma_add = tuple(tuple(labels[i] for i in row) for row in add)
    return GammaSemiring(
        FiniteCommutativeSemigroup(labels, add),
        labels,
        gamma_add,
        tuple(product),
        zero="0" * k,
    )


def product_gamma(gs: GammaSemiring, k: int) -> GammaSemiring:
    """k-fold product carrier with coordinatewise + and product, shared gamma.

    Elements are k-tuples of the base labels in row-major order, matching the
    universe produced by the soft-set cartesian product.  SizeLimitError when
    the carrier would exceed MAX_PRODUCT_SIZE elements.
    """
    _require_structure(gs)
    elements = _product_labels(gs, k)
    n = gs.size
    # position i*n + x of the (j+1)-fold carrier pairs position i of the
    # j-fold carrier with base position x, so in each operation its row
    # pairs row i with base row x: column j*n + y holds T[i][j]*n + base[x][y]
    base = gs._ops
    ops = base
    for _ in range(k - 1):
        ops = tuple(
            tuple(tuple(t * n + b for t in row for b in base_row) for row in op for base_row in base_op)
            for op, base_op in zip(ops, base)
        )
    add, *layers = ops
    product = tuple(zip(*layers))
    zero = None
    if gs.zero is not None:
        zero = tuple(gs.zero for _ in range(k))
    return GammaSemiring(
        FiniteCommutativeSemigroup(elements, add),
        gs.gamma_elements,
        gs.gamma_add,
        product,
        zero=zero,
    )
