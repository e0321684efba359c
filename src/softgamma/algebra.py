"""Finite commutative semigroups, gamma-semirings, homomorphisms, subalgebras.

Structures are immutable tables over opaque element labels; all semantics
live in the tables.  Addition and ternary-product tables store element
positions.  The optional gamma addition table stores *labels* instead, so a
gamma set that fails to be additively closed is still representable and is
rejected by validation with a closure witness rather than being
unconstructible.
"""

from __future__ import annotations

import os
from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

from .errors import ConstraintError, InputError, SizeLimitError
from .reports import PASSED, AxiomReport, Violation, Witness

Label = Hashable

DEFAULT_MAX_CARRIER = 12
MAX_CARRIER_ENV = "SOFTGAMMA_MAX_CARRIER"


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _entries(row, valid: frozenset | None, what: str) -> tuple:
    """row as a tuple once every entry is an exact-int position in valid or,
    when valid is None, an exact-str label.  The row is checked whole at C
    level; only a failing row is scanned for its first bad entry."""
    kind = str if valid is None else int
    if set(map(type, row)) <= {kind} and (valid is None or valid.issuperset(row)):
        return tuple(row)
    bad = next(e for e in row if type(e) is not kind or valid is not None and e not in valid)
    rule = "a label string" if valid is None else f"a position in 0..{len(valid) - 1}"
    raise InputError(f"{what} entry {bad!r} is not {rule}")


def _collection(value, what: str) -> tuple:
    """value as a tuple once it is an iterable that is neither a str nor a mapping."""
    # a tuple or list is one, so only other types pay for the ABC checks
    if type(value) in (tuple, list) or isinstance(value, Iterable) and not isinstance(value, (str, Mapping)):
        return tuple(value)
    raise InputError(f"{what} must be a collection, got {type(value).__name__}")


def _labels(labels, what: str) -> tuple:
    """labels as a tuple once it is a collection of distinct hashable labels."""
    out = labels if type(labels) is tuple else _collection(labels, f"{what} labels")
    try:
        distinct = len(set(out)) == len(out)
    except TypeError:
        raise InputError(f"{what} labels must be hashable, got {labels!r}") from None
    if not distinct:
        raise InputError(f"{what} labels must be unique")
    return out


def _label_mask(index: dict, labels, what: str) -> int:
    """The bitmask of a collection of labels, index mapping each label to its bit."""
    mask = 0
    for label in _collection(labels, f"{what} label set"):
        try:
            mask |= 1 << index[label]
        except (KeyError, TypeError):
            raise InputError(f"unknown {what} label {label!r}") from None
    return mask


def _count(value, what: str, minimum: int = 1) -> int:
    """value once it is an exact int (bool refused) of at least minimum."""
    if type(value) is not int or value < minimum:
        raise InputError(f"{what} must be an integer of at least {minimum}, got {value!r}")
    return value


def _table(table, rows: int, cols: int, what: str, labels: bool = False) -> tuple[tuple, ...]:
    """table as a tuple of row tuples, after one check of its shape and entries.

    A table is a list or tuple of `rows` list-or-tuple rows of length `cols`,
    whose entries are positions in 0..cols-1 or, with labels, label strings.
    Faults are raised row by row, shape before entries.
    """
    if not isinstance(table, (list, tuple)):
        raise InputError(f"{what} must be a table, got {type(table).__name__}")
    if len(table) != rows:
        raise InputError(f"{what} must have {rows} rows, got {len(table)}")
    valid = None if labels else frozenset(range(cols))
    checked = []
    for row in table:
        if not isinstance(row, (list, tuple)):
            raise InputError(f"{what} row {row!r} must be a list")
        if len(row) != cols:
            raise InputError(f"{what} is ragged: row of length {len(row)}, expected {cols}")
        checked.append(_entries(row, valid, what))
    return tuple(checked)


@dataclass(frozen=True)
class FiniteCommutativeSemigroup:
    """Ordered carrier plus a square addition table of element positions.

    Construction validates shape and entry range only; the semigroup axioms
    are checked by check_commutative_semigroup so that broken tables remain
    representable for diagnosis.
    """

    elements: tuple[Label, ...]
    add_table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        elements = _labels(self.elements, "element")
        if not elements:
            raise InputError("carrier must be nonempty")
        n = len(elements)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "add_table", _table(self.add_table, n, n, "addition table"))

    @cached_property
    def _pos(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    def pos(self, label: Label) -> int:
        try:
            return self._pos[label]
        except (KeyError, TypeError):
            raise InputError(f"unknown element label {label!r}") from None

    def add(self, a: Label, b: Label) -> Label:
        return self.elements[self.add_table[self.pos(a)][self.pos(b)]]

    def __len__(self) -> int:
        return len(self.elements)


def _commutativity_witness(table) -> tuple[int, int] | None:
    n = len(table)
    for i in range(n):
        for j in range(n):
            if table[i][j] != table[j][i]:
                return (i, j)
    return None


# a position is one byte of the blocks that the axiom scans compare
MAX_SCAN_CARRIER = 256


def _translation(row) -> bytes:
    """The bytes.translate table sending each position p to row[p]."""
    return bytes(row).ljust(256, b"\0")


def _first_difference(x: bytes, y: bytes, keep: int = -1) -> int | None:
    """The first index at which x and y differ, of those whose byte in keep
    (read big-endian, like x and y) is 0xff; None when they agree there."""
    diff = (int.from_bytes(x, "big") ^ int.from_bytes(y, "big")) & keep
    return len(x) - 1 - (diff.bit_length() - 1) // 8 if diff else None


def _associativity_start(table, rows: dict) -> int:
    """The row from which _associativity_witness scans entry by entry: the
    first row i holding some (i+j)+k != i+(j+k), each row compared as one
    block of bytes, or len(table) when there is none; 0, ruling out no row,
    when the codes do not fit in a byte or a sum falls outside rows."""
    n = len(table)
    if n > MAX_SCAN_CARRIER:
        return 0
    try:
        coded = [bytes(map(rows.__getitem__, row)) for row in table]
    except KeyError:
        return 0
    flat = b"".join(coded)
    for i, row in enumerate(coded):
        # byte j * n + k: (i+j)+k on the left, i+(j+k) on the right
        if b"".join([coded[x] for x in row]) != flat.translate(_translation(row)):
            return i
    return n


def _associativity_witness(table, rows: dict) -> tuple[int, int, int] | None:
    """The first (i, j, k) with (i+j)+k != i+(j+k), each inner sum read as a
    row through rows; triples with an inner sum outside rows are skipped."""
    get = rows.get
    n = len(table)
    for i in range(_associativity_start(table, rows), n):
        row_i = table[i]
        for j in range(n):
            ij = get(row_i[j])
            if ij is None:
                continue
            row_ij, row_j = table[ij], table[j]
            for k in range(n):
                jk = get(row_j[k])
                if jk is not None and row_ij[k] != row_i[jk]:
                    return (i, j, k)
    return None


def _labelled(labels, witness) -> tuple | None:
    return None if witness is None else tuple(labels[i] for i in witness)


def _semigroup_scans(prefix: str, table, labels, rows: dict) -> tuple:
    """The commutativity and associativity (axiom, scan) pairs of a square
    table over labels, its entries read as rows through rows."""
    return (
        (prefix + "commutativity", lambda: _labelled(labels, _commutativity_witness(table))),
        (prefix + "associativity", lambda: _labelled(labels, _associativity_witness(table, rows))),
    )


def _report(mode: str, scans) -> AxiomReport:
    """Run the ordered (axiom, scan) pairs; a scan returns its first witness or None."""
    violations = tuple(Violation(axiom, w) for axiom, scan in scans if (w := scan()) is not None)
    return AxiomReport(mode=mode, passed=not violations, violations=violations)


def check_commutative_semigroup(elements, add_table) -> AxiomReport:
    """Scan a raw carrier/table pair for the commutative-semigroup axioms.

    Malformed tables (wrong dimensions, out-of-range entries) raise
    InputError; axiom failures are reported, one lexicographically-first
    witness per axiom.
    """
    sg = FiniteCommutativeSemigroup(tuple(elements), add_table)
    rows = {i: i for i in range(len(sg))}
    return _report("semigroup", _semigroup_scans("", sg.add_table, sg.elements, rows))


@dataclass(frozen=True)
class GammaSemiring:
    """Additive carrier, gamma set, and a ternary product table [s][gamma][s].

    gamma_add is optional: absent means the gamma set carries no addition of
    its own (weak mode).  zero, when present, is validated as an additive
    identity by check_gamma_semiring.
    """

    s: FiniteCommutativeSemigroup
    gamma_elements: tuple[str, ...]
    gamma_add: tuple[tuple[str, ...], ...] | None
    product: tuple[tuple[tuple[int, ...], ...], ...]
    zero: Label | None = None

    def __post_init__(self):
        gamma = _entries(_labels(self.gamma_elements, "gamma"), None, "gamma set")
        if not gamma:
            raise InputError("gamma set must be nonempty")
        object.__setattr__(self, "gamma_elements", gamma)

        n = len(self.s.elements)
        ng = len(gamma)
        if not isinstance(self.product, (list, tuple)):
            raise InputError(f"product table must be a table, got {type(self.product).__name__}")
        prod = self.product
        if len(prod) != n:
            raise InputError(f"product table must have {n} outer rows, got {len(prod)}")
        layers = tuple(_table(layer, ng, n, "product table layer") for layer in prod)
        object.__setattr__(self, "product", layers)

        if self.gamma_add is not None:
            gamma_add = _table(self.gamma_add, ng, ng, "gamma addition table", labels=True)
            object.__setattr__(self, "gamma_add", gamma_add)

        if self.zero is not None:
            self.s.pos(self.zero)

    @property
    def elements(self) -> tuple[Label, ...]:
        return self.s.elements

    @property
    def size(self) -> int:
        return len(self.s.elements)

    @cached_property
    def _gpos(self) -> dict:
        return {g: i for i, g in enumerate(self.gamma_elements)}

    def gamma_pos(self, label: str) -> int:
        try:
            return self._gpos[label]
        except (KeyError, TypeError):
            raise InputError(f"unknown gamma label {label!r}") from None

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def subset_mask(self, labels: Iterable[Label]) -> int:
        return _label_mask(self.s._pos, labels, "element")

    def labels_of_mask(self, mask: int) -> tuple[Label, ...]:
        return tuple(self.s.elements[i] for i in iter_bits(mask))

    @cached_property
    def _ops(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        # the square position tables of the operations a subalgebra is closed
        # under and a homomorphism preserves: +, then (a, b) -> a·alpha·b per alpha
        return (self.s.add_table, *zip(*self.product))

    @cached_property
    def _closure_need(self) -> tuple[tuple[int, ...], ...]:
        # need[i][j] = bits forced into any subset containing i and j
        n = self.size
        need = []
        for i in range(n):
            rows = [op[i] for op in self._ops]
            row = []
            for j in range(n):
                m = 0
                for r in rows:
                    m |= 1 << r[j]
                row.append(m)
            need.append(tuple(row))
        return tuple(need)

    @cached_property
    def _closed_memo(self) -> dict[int | tuple[int, int], Witness]:
        # a mask of this carrier, or (k, mask) for the k-fold product's carrier
        return {}

    @cached_property
    def sub_masks(self) -> tuple[int, ...]:
        """All nonempty closed subsets as ascending bitmasks.

        The closure conditions are Horn clauses (i, j in X implies i + j and
        every i·alpha·j in X), so the closed subsets are the closed sets of a
        closure operator.  A depth-first walk decides the positions from the
        highest down, each either left out or taken in, the left-out branch
        first, so the sets come out in ascending bitmask order.  A node holds
        a closed set and the positions left out so far.  Taking i in closes
        the set plus i, pairing only the members each round adds with every
        member, and the branch is cut once the closure meets a left-out
        position; a position the closure already holds is taken in without a
        branch.  Every node that stands has a leaf (its set, with every
        position still open left out), so the walk visits at most n nodes per
        closed set, and every leaf is a distinct closed set.  The empty set
        is the first leaf and is not listed.
        """
        need = self._closure_need
        n = self.size
        # pair[i][j]: the bits forced by i and j together, in either order
        pair = [tuple(need[i][j] | need[j][i] for j in range(n)) for i in range(n)]
        found = []
        stack = [(n - 1, 0, 0, ())]  # next position, closed set, left out, its members
        while stack:
            i, closed, out, members = stack.pop()
            while i >= 0 and closed >> i & 1:
                i -= 1
            if i < 0:
                found.append(closed)
                continue
            bit = 1 << i
            mask = seen = closed | bit
            grown = (*members, i)
            fresh = (i,)
            while True:
                for k in fresh:
                    row = pair[k]
                    for j in grown:
                        mask |= row[j]
                added = mask & ~seen
                if not added or mask & out:
                    break
                seen = mask
                fresh = tuple(iter_bits(added))
                grown += fresh
            if not mask & out:
                stack.append((i - 1, mask, out, grown))
            stack.append((i - 1, closed, out | bit, members))
        return tuple(found[1:])


def ternary_product(gs: GammaSemiring, a: Label, alpha: str, b: Label) -> Label:
    """Table lookup a·alpha·b; total on valid labels, InputError otherwise."""
    return gs.elements[gs.product[gs.s.pos(a)][gs.gamma_pos(alpha)][gs.s.pos(b)]]


def sub_gamma_witness_mask(gs: GammaSemiring, mask: int, arity: int | None = None) -> Witness:
    """Closure verdict for a subset given as a bitmask, with a witness on failure.

    Scan order: additive pairs first, then product triples (i, alpha, j), both
    lexicographic by position, so witnesses are deterministic.  With arity k
    the subset is one of the k-fold product of gs, in the positions and labels
    of product_gamma(gs, k), and is judged from the base tables without
    building that product.  The verdict is memoized on gs per mask, or per
    (k, mask) for a product.
    """
    full = gs.full_mask if arity is None else (1 << _product_size(gs, arity)) - 1
    if mask & ~full:
        raise InputError(f"mask {mask!r} is not a subset of the {full.bit_length()}-element carrier")
    key = mask if arity is None else (arity, mask)
    memo = gs._closed_memo
    w = memo.get(key)
    if w is None:
        w = memo[key] = _closure_witness(gs, mask) if arity is None else _product_closure_witness(gs, arity, mask)
    return w


def _first_escaping_row(need, members: list[int], inv: int) -> int | None:
    """Index into members of the first i with some need[i][j] outside the mask."""
    for start, i in enumerate(members):
        need_i = need[i]
        for j in members:
            if need_i[j] & inv:
                return start
    return None


def _closure_witness(gs: GammaSemiring, mask: int) -> Witness:
    if mask == 0:
        return Witness(False, kind="empty-subset")
    inv = ~mask
    members = list(iter_bits(mask))
    start = _first_escaping_row(gs._closure_need, members, inv)
    if start is None:
        return PASSED
    # rows before start hold no witness of either kind
    rows = members[start:]
    elems = gs.elements
    for i in rows:
        row = gs.s.add_table[i]
        for j in members:
            k = row[j]
            if inv >> k & 1:
                return Witness(False, kind="add-closure", elements=(elems[i], elems[j], elems[k]))
    # with + closed, the first escaping row escapes through a product
    i = rows[0]
    for g, glabel in enumerate(gs.gamma_elements):
        row = gs.product[i][g]
        for j in members:
            k = row[j]
            if inv >> k & 1:
                return Witness(False, kind="product-closure", elements=(elems[i], glabel, elems[j], elems[k]))


# the largest k-fold product carrier that is built (product_gamma) or judged
MAX_PRODUCT_SIZE = 4096


def _product_size(gs: GammaSemiring, k: int) -> int:
    """The size n**k of the k-fold product of gs; SizeLimitError above MAX_PRODUCT_SIZE."""
    _count(k, "product arity")
    size = gs.size**k
    if size > MAX_PRODUCT_SIZE:
        raise SizeLimitError(f"product carrier would have {size} elements, above {MAX_PRODUCT_SIZE}")
    return size


def _product_labels(gs: GammaSemiring, k: int) -> tuple:
    """The k-fold product's carrier: k-tuples of base labels in row-major order."""
    _product_size(gs, k)
    labels = [()]
    for _ in range(k):
        labels = [t + (e,) for t in labels for e in gs.elements]
    return tuple(labels)


def _fold_image(table, n: int, j: int, a: int, b: int, memo: dict) -> int:
    """The set {x o y : x in a, y in b} over the j-fold product of an
    n-element carrier, o applied coordinatewise from the square table.

    Position x * n**(j-1) + r pairs base position x with tail position r, so
    a mask splits into the fibres {r : (x, r) in a}, and the image is, over x
    in a's projection and y in b's, the image of their fibres placed at
    table[x][y].  memo holds the image of each fibre pair already met.
    """
    if j == 1:
        out = 0
        ys = list(iter_bits(b))
        for x in iter_bits(a):
            row = table[x]
            for y in ys:
                out |= 1 << row[y]
        return out
    m = n ** (j - 1)
    low = (1 << m) - 1
    fa = [(x, f) for x in range(n) if (f := a >> x * m & low)]
    fb = fa if b == a else [(y, f) for y in range(n) if (f := b >> y * m & low)]
    out = 0
    for x, fx in fa:
        row = table[x]
        for y, fy in fb:
            key = (j, fx, fy)
            image = memo.get(key)
            if image is None:
                image = memo[key] = _fold_image(table, n, j - 1, fx, fy, memo)
            out |= image << row[y] * m
    return out


def _product_closure_witness(gs: GammaSemiring, k: int, mask: int) -> Witness:
    """_closure_witness(product_gamma(gs, k), mask), read off the base tables,
    for a mask of the product's carrier.

    A mask is closed under a coordinatewise operation exactly when its image
    under it stays inside, which _fold_image decides from the fibres.  Only
    an unclosed mask is scanned row by row, each row's image being that of
    the row's one bit, in _closure_witness's order.
    """
    if mask == 0:
        return Witness(False, kind="empty-subset")
    n = gs.size
    tables = gs._ops
    memos = [{} for _ in tables]
    inv = ~mask
    if not any(_fold_image(t, n, k, mask, mask, memo) & inv for t, memo in zip(tables, memos)):
        return PASSED
    members = list(iter_bits(mask))

    def row_escapes(op: int, p: int) -> bool:
        return bool(_fold_image(tables[op], n, k, 1 << p, mask, memos[op]) & inv)

    def label(p: int) -> tuple:
        return tuple(gs.elements[p // n**c % n] for c in reversed(range(k)))

    def first_escape(op: int, p: int) -> tuple:
        # the labels of the first member q with p o q outside the mask, and of p o q
        for q in members:
            r = _fold_image(tables[op], n, k, 1 << p, 1 << q, memos[op]).bit_length() - 1
            if inv >> r & 1:
                return label(q), label(r)

    start = next(s for s, p in enumerate(members) if any(row_escapes(op, p) for op in range(len(tables))))
    # rows before start hold no witness of either kind
    for p in members[start:]:
        if row_escapes(0, p):
            return Witness(False, kind="add-closure", elements=(label(p), *first_escape(0, p)))
    # with + closed, the first escaping row escapes through a product
    p = members[start]
    for g, glabel in enumerate(gs.gamma_elements):
        if row_escapes(g + 1, p):
            q, r = first_escape(g + 1, p)
            return Witness(False, kind="product-closure", elements=(label(p), glabel, q, r))


def sub_gamma_witness(gs: GammaSemiring, subset: Iterable[Label]) -> Witness:
    return sub_gamma_witness_mask(gs, gs.subset_mask(subset))


def is_sub_gamma_semiring(gs: GammaSemiring, subset: Iterable[Label]) -> bool:
    """True iff subset is nonempty and closed under + and a·alpha·b.

    The empty subset returns False rather than raising, keeping the predicate
    total.
    """
    return bool(sub_gamma_witness(gs, subset))


def carrier_bound(max_carrier: int | None = None) -> int:
    """Enumeration bound: explicit argument, else the environment override, else 12."""
    if max_carrier is not None:
        return _count(max_carrier, "max_carrier")
    raw = os.environ.get(MAX_CARRIER_ENV)
    if raw is None:
        return DEFAULT_MAX_CARRIER
    try:
        bound = int(raw)
    except ValueError:
        raise InputError(f"{MAX_CARRIER_ENV} must be an integer, got {raw!r}") from None
    return _count(bound, MAX_CARRIER_ENV)


def enumerate_sub_gamma_semirings(
    gs: GammaSemiring, max_carrier: int | None = None
) -> list[tuple[Label, ...]]:
    """All nonempty closed subsets, canonically ordered by ascending bitmask.

    Refuses carriers above the bound (argument, SOFTGAMMA_MAX_CARRIER, or 12).
    The enumeration itself needs no such bound, but the number of subalgebras
    can still grow exponentially with the carrier (2046 on the 20-element
    min/max carrier with the even gamma labels), so a larger carrier is an
    explicit choice.
    """
    bound = carrier_bound(max_carrier)
    if gs.size > bound:
        raise SizeLimitError(f"carrier has {gs.size} elements, above the enumeration bound {bound}")
    return [gs.labels_of_mask(m) for m in gs.sub_masks]


def _additivity_failure(f: bytes, sums: bytes, add_maps: list, keep: int = -1) -> int | None:
    """The first flat index x * m + y with f(x + y) != f(x) + f(y), for a map
    f of an m-element domain into the carrier; None when f is additive.

    sums is the domain's addition table row by row and add_maps[z] the
    translation of the carrier's row z, so f(x) + f(y) over y is f translated
    by add_maps[f(x)].  Only the flat indices that keep marks are judged (see
    _first_difference), so a sum outside the domain may sit in sums as any
    position.
    """
    lhs = sums.translate(_translation(f))
    rhs = b"".join([f.translate(add_maps[y]) for y in f])
    return None if lhs == rhs else _first_difference(lhs, rhs, keep)


def check_gamma_semiring(gs: GammaSemiring, mode: str = "weak") -> AxiomReport:
    """Scan the gamma-semiring axioms, recording the first witness per axiom.

    Weak mode treats the gamma set as bare labels: the carrier must be a
    commutative semigroup and the product must satisfy both sum
    distributivity laws and product associativity.  Strict mode additionally
    requires a gamma addition table that is closed inside the gamma set and
    forms a commutative semigroup, plus distributivity of the product over
    gamma addition.  The mode is always explicit, never inferred.

    The associativity and distributivity scans hold positions in bytes and
    compose maps with bytes.translate, a block of rows at a time, so a
    carrier above MAX_SCAN_CARRIER elements, and in strict mode a gamma set
    above MAX_SCAN_CARRIER labels, is refused with SizeLimitError before any
    scan runs.
    """
    if mode not in ("weak", "strict"):
        raise InputError(f"mode must be 'weak' or 'strict', got {mode!r}")
    strict = mode == "strict"
    if strict and gs.gamma_add is None:
        raise InputError("strict mode requires a gamma addition table")
    if gs.size > MAX_SCAN_CARRIER:
        raise SizeLimitError(f"carrier has {gs.size} elements, above the scan bound {MAX_SCAN_CARRIER}")
    if strict and len(gs.gamma_elements) > MAX_SCAN_CARRIER:
        raise SizeLimitError(
            f"gamma set has {len(gs.gamma_elements)} labels, above the scan bound {MAX_SCAN_CARRIER}"
        )

    elems = gs.elements
    add = gs.s.add_table
    prod = gs.product
    gamma = gs.gamma_elements
    gadd = gs.gamma_add
    gpos = gs._gpos
    n = len(elems)
    ng = len(gamma)
    add_flat = b"".join(map(bytes, add))
    add_maps = [_translation(row) for row in add]
    # rows[a][g] is the map b -> a g b
    rows = [[bytes(row) for row in layer] for layer in prod]

    def zero_identity():
        row = add[gs.s.pos(gs.zero)]
        return next(((elems[i],) for i in range(n) if row[i] != i), None)

    def gamma_closure():
        return next(((gamma[i], gamma[j], gadd[i][j]) for i in range(ng) for j in range(ng)
                     if gadd[i][j] not in gpos), None)

    def sum_left():
        # (a+b) alpha c == a alpha c + b alpha c: every column map x -> x alpha c
        # is additive; the witness is the least over every failing column
        found = []
        for g in range(ng):
            for c, column in enumerate(zip(*(layer[g] for layer in rows))):
                i = _additivity_failure(bytes(column), add_flat, add_maps)
                if i is not None:
                    found.append((*divmod(i, n), g, c))
        if not found:
            return None
        a, b, g, c = min(found)
        return (elems[a], elems[b], gamma[g], elems[c])

    def sum_right():
        # a alpha (b+c) == a alpha b + a alpha c: every row map is additive
        for a in range(n):
            for g in range(ng):
                i = _additivity_failure(rows[a][g], add_flat, add_maps)
                if i is not None:
                    b, c = divmod(i, n)
                    return (elems[a], gamma[g], elems[b], elems[c])
        return None

    def gamma_distributivity():
        # a (alpha+beta) b == a alpha b + a beta b, on pairs whose sum stays in
        # gamma: every map gamma -> a gamma b is additive on those pairs; for
        # each a the witness is the least over every failing b
        sums = bytes(gpos.get(x, 0) for row in gadd for x in row)
        keep = int.from_bytes(bytes(255 if x in gpos else 0 for row in gadd for x in row), "big")
        for a in range(n):
            found = []
            for b, f in enumerate(zip(*rows[a])):
                i = _additivity_failure(bytes(f), sums, add_maps, keep)
                if i is not None:
                    found.append((*divmod(i, ng), b))
            if found:
                i, j, b = min(found)
                return (elems[a], gamma[i], gamma[j], elems[b])
        return None

    def product_associativity():
        # a alpha (b beta c) == (a alpha b) beta c.  blocks[x] holds x's rows
        # in turn, so byte b * ng * n + beta * n + c of the (a, alpha) block is
        # the left side in whole translated by the row of (a, alpha), and the
        # right side in the blocks of every a alpha b joined
        blocks = [b"".join(layer) for layer in rows]
        whole = b"".join(blocks)
        for a in range(n):
            for g in range(ng):
                row = rows[a][g]
                lhs = whole.translate(_translation(row))
                rhs = b"".join([blocks[x] for x in row])
                if lhs != rhs:
                    i = _first_difference(lhs, rhs)
                    return (elems[a], gamma[g], elems[i // (ng * n)], gamma[i // n % ng], elems[i % n])
        return None

    scans = list(_semigroup_scans("s-", add, elems, {i: i for i in range(n)}))
    if gs.zero is not None:
        scans.append(("zero-identity", zero_identity))
    if strict:
        scans += [("gamma-closure", gamma_closure), *_semigroup_scans("gamma-", gadd, gamma, gpos)]
    scans += [("distributive-sum-left", sum_left), ("distributive-sum-right", sum_right)]
    if strict:
        scans.append(("distributive-gamma", gamma_distributivity))
    scans.append(("product-associativity", product_associativity))
    return _report(mode, scans)


@dataclass(frozen=True)
class GammaHom:
    """A carrier map between gamma-semirings sharing an identically ordered gamma set.

    Build through gamma_hom, which verifies preservation of + and the ternary
    product; the dataclass itself only checks shape.
    """

    source: GammaSemiring
    target: GammaSemiring
    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = self.mapping
        if not isinstance(mapping, (list, tuple)):
            raise InputError(f"homomorphism mapping must be a list, got {type(mapping).__name__}")
        if len(mapping) != self.source.size:
            raise InputError("homomorphism mapping must cover the whole source carrier")
        targets = frozenset(range(self.target.size))
        object.__setattr__(self, "mapping", _entries(mapping, targets, "homomorphism mapping"))

    def apply(self, label: Label) -> Label:
        return self.target.elements[self.mapping[self.source.s.pos(label)]]

    def image_mask(self, mask: int) -> int:
        return _image_mask(self.mapping, mask)

    def preimage_mask(self, target_mask: int) -> int:
        return _preimage_mask(self.mapping, target_mask)

    @cached_property
    def surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.size

    @cached_property
    def injective(self) -> bool:
        return len(set(self.mapping)) == self.source.size

    def as_label_map(self) -> dict:
        return {e: self.target.elements[t] for e, t in zip(self.source.elements, self.mapping)}


def _require_mapping(mapping, what: str) -> None:
    if not isinstance(mapping, Mapping):
        raise InputError(f"{what} must be a mapping, got {type(mapping).__name__}")


def _map_positions(mapping, domain, index: dict, what: str, outside: str) -> tuple[int, ...]:
    """The target position of mapping at each label of domain, in order.

    index maps target labels to positions.  InputError for a non-mapping, at
    the first label where mapping is undefined, and at the first value that
    index does not hold (an unhashable value included).
    """
    _require_mapping(mapping, what)
    positions = []
    for label in domain:
        try:
            image = mapping[label]
        except KeyError:
            raise InputError(f"{what} is undefined at {label!r}") from None
        try:
            positions.append(index[image])
        except (KeyError, TypeError):
            raise InputError(f"{what} sends {label!r} outside {outside}") from None
    return tuple(positions)


def _image_mask(positions, mask: int) -> int:
    out = 0
    for i in iter_bits(mask):
        out |= 1 << positions[i]
    return out


def _preimage_mask(positions, target_mask: int) -> int:
    out = 0
    for i, t in enumerate(positions):
        if target_mask >> t & 1:
            out |= 1 << i
    return out


def _hom_positions(mapping, source: GammaSemiring, target: GammaSemiring) -> tuple[int, ...] | None:
    """The positions of mapping when it preserves + and the product, else None."""
    if source.gamma_elements != target.gamma_elements:
        raise InputError("source and target must share an identically ordered gamma set")
    positions = _map_positions(mapping, source.elements, target.s._pos, "mapping", "the target carrier")

    for s_op, t_op in zip(source._ops, target._ops):
        for row, fi in zip(s_op, positions):
            t_row = t_op[fi]
            for k, fj in zip(row, positions):
                if positions[k] != t_row[fj]:
                    return None
    return positions


def is_gamma_homomorphism(mapping: Mapping, source: GammaSemiring, target: GammaSemiring) -> bool:
    """Exhaustively check additive and ternary-product preservation.

    The two structures must share an identically ordered gamma set (InputError
    otherwise); the mapping must be total on the source carrier with values in
    the target carrier.
    """
    return _hom_positions(mapping, source, target) is not None


def gamma_hom(source: GammaSemiring, target: GammaSemiring, mapping: Mapping) -> GammaHom:
    """Validated constructor; ConstraintError when preservation fails."""
    positions = _hom_positions(mapping, source, target)
    if positions is None:
        raise ConstraintError("mapping does not preserve addition and the ternary product")
    return GammaHom(source, target, positions)


def identity_hom(gs: GammaSemiring) -> GammaHom:
    return GammaHom(gs, gs, tuple(range(gs.size)))


def kernel(hom: GammaHom) -> tuple[Label, ...]:
    """Source elements mapping to the target zero; may be empty.

    InputError when the target has no designated zero.
    """
    if hom.target.zero is None:
        raise InputError("kernel requires a designated zero in the target")
    zp = hom.target.s.pos(hom.target.zero)
    return tuple(e for e, t in zip(hom.source.elements, hom.mapping) if t == zp)
