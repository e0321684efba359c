"""Finite commutative semigroups, gamma-semirings, homomorphisms, subalgebras.

Structures are immutable tables over opaque element labels; all semantics
live in the tables.  Addition and ternary-product tables store element
positions.  The optional gamma addition table stores *labels* instead, so a
gamma set that fails to be additively closed is still representable and is
rejected by validation with a closure witness rather than being
unconstructible.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Iterator, Mapping
from functools import cache, cached_property

from .errors import ConstraintError, InputError, SizeLimitError, _require_type
from .reports import PASSED, AxiomReport, Record, Violation, Witness

Label = Hashable


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


def _table(table, rows: int, cols: int, what: str, labels: bool = False, seen: dict | None = None) -> tuple[tuple, ...]:
    """table as a tuple of row tuples, after one check of its shape and entries.

    A table is a list or tuple of `rows` list-or-tuple rows of length `cols`,
    whose entries are positions in 0..cols-1 or, with labels, label strings.
    Faults are raised row by row, shape before entries.  Each distinct row
    object is checked once: seen maps its id to the row and its checked
    tuple, for this table or, when the caller passes one dict, for several
    tables of one shape; holding the row keeps its id from being reused.
    """
    if not isinstance(table, (list, tuple)):
        raise InputError(f"{what} must be a table, got {type(table).__name__}")
    if len(table) != rows:
        raise InputError(f"{what} must have {rows} rows, got {len(table)}")
    valid = None if labels else frozenset(range(cols))
    if seen is None:
        seen = {}
    checked = []
    for row in table:
        hit = seen.get(id(row))
        if hit is None:
            if not isinstance(row, (list, tuple)):
                raise InputError(f"{what} row {row!r} must be a list")
            if len(row) != cols:
                raise InputError(f"{what} is ragged: row of length {len(row)}, expected {cols}")
            hit = seen[id(row)] = (row, _entries(row, valid, what))
        checked.append(hit[1])
    return tuple(checked)


class FiniteCommutativeSemigroup(Record):
    """Ordered carrier plus a square addition table of element positions.

    Construction validates shape and entry range only; the semigroup axioms
    are checked by check_commutative_semigroup so that broken tables remain
    representable for diagnosis.
    """

    elements: tuple[Label, ...]
    add_table: tuple[tuple[int, ...], ...]

    def __init__(self, elements, add_table):
        elements = _labels(elements, "element")
        if not elements:
            raise InputError("carrier must be nonempty")
        n = len(elements)
        self.__dict__.update(elements=elements, add_table=_table(add_table, n, n, "addition table"))

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


# a position is one byte of the blocks that the axiom scans compare
MAX_SCAN_CARRIER = 256

# the most nonempty closed subsets that sub_masks lists
MAX_SUBALGEBRAS = 4096


def _translation(row) -> bytes:
    """The bytes.translate table sending each position p to row[p]."""
    return bytes(row).ljust(256, b"\0")


def _first_difference(x: bytes, y: bytes, keep: int = -1) -> int | None:
    """The first index at which x and y differ, of those whose byte in keep
    (read big-endian, like x and y) is 0xff; None when they agree there."""
    diff = (int.from_bytes(x, "big") ^ int.from_bytes(y, "big")) & keep
    return len(x) - 1 - (diff.bit_length() - 1) // 8 if diff else None


def _inside(flat: bytes, n: int) -> int:
    """The keep mask (see _first_difference) of the bytes of flat below n;
    -1, keeping every byte, when all of them are."""
    if max(flat) < n:
        return -1
    return int.from_bytes(flat.translate(bytes(255 if c < n else 0 for c in range(256))), "big")


def _commutativity_failure(flat: bytes, n: int) -> int | None:
    """The first flat index i * n + j with x(i, j) != x(j, i), for a square
    table x of n rows held in flat row by row; None when x is commutative."""
    return _first_difference(flat, b"".join([flat[j::n] for j in range(n)]))


def _associativity_failure(f: bytes, flat: bytes, blocks: list, keep: int = -1) -> int | None:
    """The first flat index x * m + y with f(x o y) != f(x) o y, for a map f
    of the positions x into the codes of blocks; None when there is none.

    flat holds x o y row by row, over every x and m right operands y, and
    blocks[z] the row z o y over y, so f(x o y) over x, y is flat translated
    by f and f(x) o y over y is blocks[f(x)].  Only the flat indices that
    keep marks are judged (see _first_difference).
    """
    lhs = flat.translate(_translation(f))
    rhs = b"".join([blocks[z] for z in f])
    return None if lhs == rhs else _first_difference(lhs, rhs, keep)


def _semigroup_scans(prefix: str, flat: bytes, labels) -> tuple:
    """The commutativity and associativity (axiom, scan) pairs of a square
    table over labels, held in flat one byte per entry, row by row: the
    position of a label, or a code at or above len(labels) for a sum outside
    the labels.  Associativity skips every (i, j, k) with i + j or j + k
    outside."""
    n = len(labels)

    def commutativity():
        i = _commutativity_failure(flat, n)
        return None if i is None else (labels[i // n], labels[i % n])

    def associativity():
        # (i + j) + k == i + (j + k): the row of i commutes with +
        rows = [flat[i:i + n] for i in range(0, n * n, n)]
        inner = _inside(flat, n)
        # the block of a code outside is never judged: keep drops its row
        blocks = rows + [bytes(n)] * (max(flat) + 1 - n)
        for i, row in enumerate(rows):
            keep = inner if inner == -1 else inner & _inside(bytes(z for z in row for _ in range(n)), n)
            x = _associativity_failure(row, flat, blocks, keep)
            if x is not None:
                return (labels[i], labels[x // n], labels[x % n])
        return None

    return ((prefix + "commutativity", commutativity), (prefix + "associativity", associativity))


def _report(mode: str, scans, record: dict) -> AxiomReport:
    """Report the ordered (axiom, scan) pairs; a scan returns its first
    witness or None, which record keeps under the axiom, so a scan runs only
    when record does not yet hold its axiom."""
    for axiom, scan in scans:
        if axiom not in record:
            record[axiom] = scan()
    violations = tuple(Violation(axiom, w) for axiom, _ in scans if (w := record[axiom]) is not None)
    return AxiomReport(mode=mode, passed=not violations, violations=violations)


def check_commutative_semigroup(elements, add_table) -> AxiomReport:
    """Scan a raw carrier/table pair for the commutative-semigroup axioms.

    Malformed tables (wrong dimensions, out-of-range entries) raise
    InputError; axiom failures are reported, one lexicographically-first
    witness per axiom.  The scans hold positions in bytes, so a carrier
    above MAX_SCAN_CARRIER elements is refused with SizeLimitError before
    any scan runs.
    """
    sg = FiniteCommutativeSemigroup(elements, add_table)
    if len(sg) > MAX_SCAN_CARRIER:
        raise SizeLimitError(f"carrier has {len(sg)} elements, above the scan bound {MAX_SCAN_CARRIER}")
    return _report("semigroup", _semigroup_scans("", b"".join(map(bytes, sg.add_table)), sg.elements), {})


class GammaSemiring(Record):
    """Additive carrier, gamma set, and a ternary product table [s][gamma][s].

    gamma_add is optional: absent means the gamma set carries no addition of
    its own (weak mode).  zero, when present, is validated as an additive
    identity by check_gamma_semiring.
    """

    s: FiniteCommutativeSemigroup
    gamma_elements: tuple[str, ...]
    gamma_add: tuple[tuple[str, ...], ...] | None
    product: tuple[tuple[tuple[int, ...], ...], ...]
    zero: Label | None

    def __init__(self, s, gamma_elements, gamma_add, product, zero=None):
        _require_type(s, FiniteCommutativeSemigroup, "a carrier")
        gamma = _entries(_labels(gamma_elements, "gamma"), None, "gamma set")
        if not gamma:
            raise InputError("gamma set must be nonempty")

        n = len(s.elements)
        ng = len(gamma)
        if not isinstance(product, (list, tuple)):
            raise InputError(f"product table must be a table, got {type(product).__name__}")
        if len(product) != n:
            raise InputError(f"product table must have {n} outer rows, got {len(product)}")
        # one dict for every layer: the generators share one row object among
        # all (a, alpha) with equal rows, across layers
        seen = {}
        layers = tuple(_table(layer, ng, n, "product table layer", seen=seen) for layer in product)

        if gamma_add is not None:
            gamma_add = _table(gamma_add, ng, ng, "gamma addition table", labels=True)

        if zero is not None:
            s.pos(zero)
        self.__dict__.update(s=s, gamma_elements=gamma, gamma_add=gamma_add, product=layers, zero=zero)

    @cached_property
    def elements(self) -> tuple[Label, ...]:
        return self.s.elements

    @cached_property
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
        # exactly int, as SoftSet's masks are: a bool is no mask
        if type(mask) is not int or mask & ~self.full_mask:
            raise InputError(f"mask {mask!r} is not a subset of the {self.size}-element carrier")
        return tuple(self.s.elements[i] for i in iter_bits(mask))

    @cached_property
    def _ops(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        # the square position tables of the operations a subalgebra is closed
        # under and a homomorphism preserves: +, then (a, b) -> a·alpha·b per alpha
        return (self.s.add_table, *zip(*self.product))

    @cached_property
    def _pair(self) -> tuple[tuple[int, ...], ...]:
        # pair[i][j] = bits forced into any subset holding i and j: every
        # operation's value at (i, j) and at (j, i)
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
            need.append(row)
        return tuple(tuple(map(int.__or__, row, col)) for row, col in zip(need, zip(*need)))

    @cached_property
    def _closed_memo(self) -> dict[int | tuple[int, int], Witness]:
        # a mask of this carrier, or (k, mask) for the k-fold product's carrier
        return {}

    @cached_property
    def _axiom_witnesses(self) -> dict[str, tuple | None]:
        # axiom name -> its first witness, or None when it holds, filled by
        # check_gamma_semiring; a scan reads only the tables and the zero
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
        is the first leaf and is not listed.  The walk is bounded by its
        output, not by the carrier: it stops with SizeLimitError at the
        closed set after the first MAX_SUBALGEBRAS nonempty ones.
        """
        pair = self._pair
        n = self.size
        found = []
        stack = [(n - 1, 0, 0, ())]  # next position, closed set, left out, its members
        while stack:
            i, closed, out, members = stack.pop()
            while i >= 0 and closed >> i & 1:
                i -= 1
            if i < 0:
                if len(found) > MAX_SUBALGEBRAS:  # the empty set and MAX_SUBALGEBRAS more
                    raise SizeLimitError(f"more than {MAX_SUBALGEBRAS} sub gamma-semirings, the enumeration bound")
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


def _require_structure(gs) -> None:
    _require_type(gs, GammaSemiring, "a structure")


def _require_hom(hom) -> None:
    _require_type(hom, GammaHom, "a homomorphism")


def ternary_product(gs: GammaSemiring, a: Label, alpha: str, b: Label) -> Label:
    """Table lookup a·alpha·b; total on valid labels, InputError otherwise."""
    _require_structure(gs)
    return gs.elements[gs.product[gs.s.pos(a)][gs.gamma_pos(alpha)][gs.s.pos(b)]]


def sub_gamma_witness_mask(gs: GammaSemiring, mask: int, arity: int | None = None) -> Witness:
    """Closure verdict for a subset given as a bitmask, with a witness on failure.

    With arity k the subset is one of the k-fold product of gs, in the
    positions and labels of product_gamma(gs, k), and is judged from the base
    tables without building that product.  Plain and product masks go through
    one judge (_closure_witness): the verdict first, then, for an unclosed
    mask only, one witness scan in the report order, additive pairs first,
    then product triples (i, alpha, j), both lexicographic by position, so
    witnesses are deterministic.  The verdict is memoized on gs per mask, or
    per (k, mask) for a product.  A structure that is not a GammaSemiring,
    and a mask that is not an exact int (a bool included) or not a subset of
    the carrier, are InputErrors.
    """
    _require_structure(gs)
    full = gs.full_mask if arity is None else (1 << _product_size(gs, arity)) - 1
    if type(mask) is not int or mask & ~full:
        raise InputError(f"mask {mask!r} is not a subset of the {full.bit_length()}-element carrier")
    return _closure_verdict(gs, mask, arity)


def _closure_verdict(gs: GammaSemiring, mask: int, arity: int | None = None) -> Witness:
    """_closure_witness of mask, an exact int inside the carrier of gs (or,
    with arity k, of its k-fold product), read from and kept in the memo."""
    key = mask if arity is None else (arity, mask)
    memo = gs._closed_memo
    w = memo.get(key)
    if w is None:
        w = memo[key] = _closure_witness(gs, mask, arity)
    return w


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
    return tuple(itertools.product(gs.elements, repeat=k))


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


def _closure_witness(gs: GammaSemiring, mask: int, arity: int | None = None) -> Witness:
    """The closure verdict of mask, a subset of gs or, with arity k, of the
    k-fold product of gs in the positions and labels of product_gamma(gs, k),
    judged from the base tables.

    The verdict comes first: on one coordinate from the pair table, for
    k >= 2 from the mask's fibre classes (_product_closed), imaged afresh;
    _closure_verdict memoizes the result.  Only an
    unclosed mask lists its members and is scanned for its witness, additive
    pairs (p, q) first, then product triples (p, alpha, q), both
    lexicographic by position; for k >= 2 each p o q is built digit by digit.
    """
    if mask == 0:
        return Witness(False, kind="empty-subset")
    n = gs.size
    k = arity or 1
    ops = gs._ops
    inv = ~mask
    if k == 1:
        members = list(iter_bits(mask))
        if not _meets(gs._pair, members, inv):
            return PASSED
    elif _product_closed(gs, mask, k):
        return PASSED
    else:
        members = list(iter_bits(mask))

    def digits(p: int) -> tuple:
        return tuple(p // n**c % n for c in reversed(range(k)))

    elems = gs.elements
    label = elems.__getitem__ if arity is None else lambda p: tuple(elems[d] for d in digits(p))
    member_digits = [digits(q) for q in members] if k > 1 else None
    for kind, span in (("add-closure", range(1)), ("product-closure", range(1, len(ops)))):
        for s, p in enumerate(members):
            for o in span:
                if k == 1:
                    row = ops[o][p]
                else:
                    rows = [ops[o][x] for x in member_digits[s]]
                    row = {q: _compose(rows, n, dq) for q, dq in zip(members, member_digits)}
                for q in members:
                    r = row[q]
                    if inv >> r & 1:
                        tag = (gs.gamma_elements[o - 1],) if o else ()
                        return Witness(False, kind=kind, elements=(label(p), *tag, label(q), label(r)))


def _product_closed(gs: GammaSemiring, mask: int, k: int) -> bool:
    """Whether mask, a nonempty subset of the k-fold product of gs (k >= 2),
    is closed under every operation of gs applied coordinatewise.

    Position x * m + r, m = n**(k-1), pairs base position x with tail
    position r, so the mask is its fibres f_x = {r : (x, r) in mask}, and it
    is closed under an operation o exactly when, for all x and y with
    nonempty fibres, the tail image f_x o f_y lies in the fibre f_(x o y).
    The first coordinates are grouped into classes of equal fibre, and each
    ordered pair of classes (F, X), (G, Y) is checked once: F o G, imaged
    from the base table at each scan, must lie in the fibre at every
    position of X o Y.  No image outlives the call: the verdict is memoized
    once per (k, mask), in gs._closed_memo (see _closure_verdict).
    """
    n = gs.size
    j = k - 1
    m = n**j
    low = (1 << m) - 1
    fibres = [mask >> x * m & low for x in range(n)]
    outside = [~f for f in fibres]
    grouped: dict[int, list[int]] = {}
    for x, f in enumerate(fibres):
        if f:
            grouped.setdefault(f, []).append(x)
    classes = list(grouped.items())
    for table in gs._ops:
        for f, xs in classes:
            for g, ys in classes:
                image = _fold_image(table, n, j, f, g, {})
                for x in xs:
                    row = table[x]
                    for y in ys:
                        if image & outside[row[y]]:
                            return False
    return True


def _meets(pair, members: list[int], inv: int) -> bool:
    """Whether some pair[p][q], p and q in members, has a bit in inv."""
    for p in members:
        row = pair[p]
        for q in members:
            if row[q] & inv:
                return True
    return False


def _compose(rows, n: int, ys) -> int:
    """The product position whose digit c is rows[c][ys[c]]."""
    r = 0
    for row, y in zip(rows, ys):
        r = r * n + row[y]
    return r


def sub_gamma_witness(gs: GammaSemiring, subset: Iterable[Label]) -> Witness:
    _require_structure(gs)
    return sub_gamma_witness_mask(gs, gs.subset_mask(subset))


def is_sub_gamma_semiring(gs: GammaSemiring, subset: Iterable[Label]) -> bool:
    """True iff subset is nonempty and closed under + and a·alpha·b.

    The empty subset returns False rather than raising, keeping the predicate
    total.
    """
    return bool(sub_gamma_witness(gs, subset))


def enumerate_sub_gamma_semirings(
    gs: GammaSemiring, max_carrier: int | None = None
) -> list[tuple[Label, ...]]:
    """All nonempty closed subsets, canonically ordered by ascending bitmask.

    Refuses, with SizeLimitError, a structure with more than MAX_SUBALGEBRAS
    (4096) of them (see GammaSemiring.sub_masks), and a carrier above
    max_carrier elements when that optional cap is given; InputError when
    gs is not a GammaSemiring.
    """
    _require_structure(gs)
    if max_carrier is not None and gs.size > _count(max_carrier, "max_carrier"):
        raise SizeLimitError(f"carrier has {gs.size} elements, above the enumeration bound {max_carrier}")
    # every mask of sub_masks lies on the carrier, so none pays labels_of_mask's
    # check; a mask is read byte by byte, and the labels of each (offset, byte)
    # are listed once per call
    elems = gs.elements
    parts = [(k, [None] * 256) for k in range(0, gs.size, 8)]
    out = []
    for m in gs.sub_masks:
        labels = ()
        for k, memo in parts:
            byte = m >> k & 255
            part = memo[byte]
            if part is None:
                part = memo[byte] = tuple(elems[k + i] for i in iter_bits(byte))
            labels += part
        out.append(labels)
    return out


def _additivity_failure(f: bytes, sums: bytes, add_maps: list, keep: int = -1) -> int | None:
    """The first flat index x * m + y with f(x + y) != f(x) + f(y), for a map
    f of an m-element domain into the carrier; None when f is additive.

    sums is the domain's addition table row by row and add_maps[z] the
    translation of the carrier's row z, so f(x) + f(y) over y is f translated
    by add_maps[f(x)].  Only the flat indices that keep marks are judged (see
    _first_difference), so a sum outside the domain may sit in sums as any
    code.
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

    Every scan compares whole blocks of rows, one byte per entry, and
    composes maps with bytes.translate.  The gamma addition table is coded
    by gamma position, then a fresh code for each label outside the gamma
    set in first-seen order, and the gamma scans skip every term whose
    inner sum has such a code.  So a carrier above MAX_SCAN_CARRIER
    elements, and in strict mode a gamma addition table with more than
    MAX_SCAN_CARRIER labels in and outside the gamma set, is refused with
    SizeLimitError before any scan runs, and a gs that is not a
    GammaSemiring with InputError.

    The distributivity and product-associativity scans judge each distinct
    map once per call: a map met again, at a later (a, alpha) or column,
    reuses the first failure found for it, so every witness is the one a
    scan of every map finds.  Each axiom is scanned at most once per
    structure: a scan reads only the tables and the zero, never the mode,
    so gs keeps every witness it has found (or None) and a later call, in
    either mode, runs only the scans its axioms still lack.  The mode and
    bound checks run on every call.
    """
    _require_structure(gs)
    if mode not in ("weak", "strict"):
        raise InputError(f"mode must be 'weak' or 'strict', got {mode!r}")
    strict = mode == "strict"
    if strict and gs.gamma_add is None:
        raise InputError("strict mode requires a gamma addition table")
    if gs.size > MAX_SCAN_CARRIER:
        raise SizeLimitError(f"carrier has {gs.size} elements, above the scan bound {MAX_SCAN_CARRIER}")
    gamma = gs.gamma_elements
    gadd = gs.gamma_add
    ng = len(gamma)
    if strict:
        codes = dict(gs._gpos)
        coded = [codes.setdefault(x, len(codes)) for row in gadd for x in row]
        if len(codes) > MAX_SCAN_CARRIER:
            outside = f" and its sums {len(codes) - ng} labels outside it" if len(codes) > ng else ""
            raise SizeLimitError(f"gamma set has {ng} labels{outside}, above the scan bound {MAX_SCAN_CARRIER}")
        gflat = bytes(coded)

    elems = gs.elements
    add = gs.s.add_table
    prod = gs.product
    n = len(elems)
    add_flat = b"".join(map(bytes, add))
    add_maps = [_translation(row) for row in add]
    # rows[a][g] is the map b -> a g b; blocks[a] holds the rows of a in
    # turn, and whole every block
    rows = [[bytes(row) for row in layer] for layer in prod]
    blocks = [b"".join(layer) for layer in rows]
    whole = b"".join(blocks)
    # each scan judges a distinct map once per call; both sum scans judge
    # additivity over the carrier's +, so they share one cache
    additive = cache(lambda f: _additivity_failure(f, add_flat, add_maps))

    def zero_identity():
        row = add[gs.s.pos(gs.zero)]
        return next(((elems[i],) for i in range(n) if row[i] != i), None)

    def gamma_closure():
        x = next((x for x, code in enumerate(gflat) if code >= ng), None)
        return None if x is None else (gamma[x // ng], gamma[x % ng], gadd[x // ng][x % ng])

    def sum_left():
        # (a+b) alpha c == a alpha c + b alpha c: every column map x -> x alpha c
        # is additive; the witness is the least over every failing column
        found = []
        for g in range(ng):
            for c in range(n):
                # the map a -> a alpha c is every (ng * n)-th byte of whole
                i = additive(whole[g * n + c :: ng * n])
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
                i = additive(rows[a][g])
                if i is not None:
                    b, c = divmod(i, n)
                    return (elems[a], gamma[g], elems[b], elems[c])
        return None

    def gamma_distributivity():
        # a (alpha+beta) b == a alpha b + a beta b, on pairs whose sum stays in
        # gamma: every map gamma -> a gamma b is additive on those pairs; for
        # each a the witness is the least over every failing b
        keep = _inside(gflat, ng)
        additive_on_gamma = cache(lambda f: _additivity_failure(f, gflat, add_maps, keep))
        for a in range(n):
            found = []
            for b in range(n):
                # the map alpha -> a alpha b is every n-th byte of blocks[a]
                i = additive_on_gamma(blocks[a][b::n])
                if i is not None:
                    found.append((*divmod(i, ng), b))
            if found:
                i, j, b = min(found)
                return (elems[a], gamma[i], gamma[j], elems[b])
        return None

    def product_associativity():
        # a alpha (b beta c) == (a alpha b) beta c: the row of (a, alpha)
        # commutes with (b, (beta, c)) -> b beta c, whose blocks[b] holds the
        # rows of b in turn
        associative = cache(lambda f: _associativity_failure(f, whole, blocks))
        for a in range(n):
            for g in range(ng):
                i = associative(rows[a][g])
                if i is not None:
                    return (elems[a], gamma[g], elems[i // (ng * n)], gamma[i // n % ng], elems[i % n])
        return None

    scans = list(_semigroup_scans("s-", add_flat, elems))
    if gs.zero is not None:
        scans.append(("zero-identity", zero_identity))
    if strict:
        scans += [("gamma-closure", gamma_closure), *_semigroup_scans("gamma-", gflat, gamma)]
    scans += [("distributive-sum-left", sum_left), ("distributive-sum-right", sum_right)]
    if strict:
        scans.append(("distributive-gamma", gamma_distributivity))
    scans.append(("product-associativity", product_associativity))
    return _report(mode, scans, gs._axiom_witnesses)


class GammaHom(Record):
    """A carrier map between gamma-semirings sharing an identically ordered gamma set.

    Build through gamma_hom, which verifies preservation of + and the ternary
    product; the constructor itself only checks the mapping's shape.
    """

    source: GammaSemiring
    target: GammaSemiring
    mapping: tuple[int, ...]

    def __init__(self, source, target, mapping):
        _require_structure(source)
        _require_structure(target)
        mapping = _position_map(mapping, source.size, target.size, "homomorphism mapping", "source carrier")
        self.__dict__.update(source=source, target=target, mapping=mapping)

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


def _position_map(positions, size: int, bound: int, what: str, domain: str) -> tuple[int, ...]:
    """positions as a tuple once it is a list or tuple of size positions in
    0..bound-1, one per label of the domain it maps."""
    if not isinstance(positions, (list, tuple)):
        raise InputError(f"{what} must be a list, got {type(positions).__name__}")
    if len(positions) != size:
        raise InputError(f"{what} must cover the whole {domain}")
    return _entries(positions, frozenset(range(bound)), what)


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
    _require_structure(source)
    _require_structure(target)
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
    _require_structure(gs)
    return GammaHom(gs, gs, tuple(range(gs.size)))


def kernel(hom: GammaHom) -> tuple[Label, ...]:
    """Source elements mapping to the target zero; may be empty.

    InputError when the target has no designated zero.
    """
    _require_hom(hom)
    if hom.target.zero is None:
        raise InputError("kernel requires a designated zero in the target")
    zp = hom.target.s.pos(hom.target.zero)
    return tuple(e for e, t in zip(hom.source.elements, hom.mapping) if t == zp)
