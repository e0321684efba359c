"""Spans recorded from outside the program, around calls into each layer.

The tracer replaces a layer's public functions with wrappers wherever the
program holds a reference to them: module attributes, closure cells and
default arguments of softgamma functions, and attribute dicts of softgamma
objects.  That matters because the harness builds some checks through
factories that capture soft-set operations at import time; patching only the
module attribute would miss those calls.

A call made while the innermost open span has the same name is not a new
span (an operation calling another operation of its own layer is one call
into the layer).  Spans stay in memory and are written out by the caller.
"""

from __future__ import annotations

import contextlib
import gc
import json
import sys
import time
import types
from collections import Counter, defaultdict
from functools import cached_property

# layer span name -> (module, function names); names missing in a later
# version of the program are skipped, so the metric reads 0 instead of failing
LAYER_FUNCTIONS = {
    "generators.build": ("softgamma.generators", ("make_zn_gamma", "make_minmax_gamma", "make_matrix_gamma")),
    "generators.product_gamma": ("softgamma.generators", ("product_gamma",)),
    "algebra.check_gamma_semiring": ("softgamma.algebra", ("check_gamma_semiring",)),
    "algebra.gamma_hom": ("softgamma.algebra", ("gamma_hom",)),
    "soft_sets.op": (
        "softgamma.soft_sets",
        (
            "restricted_intersect",
            "extended_intersect",
            "restricted_union",
            "extended_union",
            "and_intersect_family",
            "or_union_family",
            "and_intersect",
            "or_union",
            "cartesian_product",
            "soft_image",
            "soft_preimage",
            "soft_set_from_relation",
        ),
    ),
    "soft_gamma.predicate": ("softgamma.soft_gamma", ("is_soft_gamma_semiring", "is_soft_sub_gamma_semiring")),
    "harness.generate": ("softgamma.harness", ("generate_instance",)),
    "harness.dump": ("softgamma.harness", ("_dump",)),
    "files.serialize": (
        "softgamma.files",
        (
            "dumps",
            "structure_to_doc",
            "soft_set_to_doc",
            "relation_to_doc",
            "hom_to_doc",
            "axiom_report_to_doc",
            "witness_to_doc",
            "verdict_to_doc",
        ),
    ),
    "files.parse": (
        "softgamma.files",
        ("load", "loads", "structure_from_doc", "soft_set_from_doc", "relation_from_doc", "hom_from_doc"),
    ),
    "cli.main": ("softgamma.cli", ("main",)),
}


OVERHEAD = "trace.overhead"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.request: str | None = None
        self.enabled = True
        self.serialized_bytes = 0
        self.unpatched = 0

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    @contextlib.contextmanager
    def request_span(self, request_id: str):
        """The root span of one user-visible request."""
        self.request = request_id
        index = self.begin("request")
        try:
            yield
        finally:
            self.end(index)
            self.request = None

    def wrap(self, name: str, fn, after=None):
        tracer = self

        def finish(index, result, exc):
            tracer.end(index)
            if after is not None:
                # the hook's own time is a child span, so no layer is charged for it
                parent = tracer.innermost()
                overhead = tracer.begin(OVERHEAD)
                after(tracer, result, exc, parent)
                tracer.end(overhead)

        def traced(*args, **kwargs):
            if not tracer.enabled or tracer.innermost() == name:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                finish(index, None, exc)
                raise
            finish(index, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function the program has loaded."""
        import softgamma  # noqa: F401  (loads every layer module)

        replacements = {}
        for name, (module_name, functions) in LAYER_FUNCTIONS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for fname in functions:
                fn = getattr(module, fname, None)
                if isinstance(fn, types.FunctionType):
                    replacements[fn] = self.wrap(name, fn, _AFTER.get(name))
        self._patch_references(replacements)
        self._patch_gamma_semiring()

    def _patch_references(self, replacements: dict) -> None:
        def swap(value):
            return replacements.get(value, value) if isinstance(value, types.FunctionType) else value

        for module_name, module in list(sys.modules.items()):
            if module_name == "softgamma" or module_name.startswith("softgamma."):
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    namespace[key] = swap(value)
                    if isinstance(value, (dict, list)):
                        _swap_in_container(value, swap)
        for obj in gc.get_objects():
            if isinstance(obj, types.FunctionType):
                if not (obj.__module__ or "").startswith("softgamma"):
                    continue
                for cell in obj.__closure__ or ():
                    try:
                        cell.cell_contents = swap(cell.cell_contents)
                    except ValueError:  # empty cell
                        pass
                if obj.__defaults__:
                    obj.__defaults__ = tuple(swap(v) for v in obj.__defaults__)
                if obj.__kwdefaults__:
                    obj.__kwdefaults__ = {k: swap(v) for k, v in obj.__kwdefaults__.items()}
            elif type(obj).__module__.startswith("softgamma") and isinstance(getattr(obj, "__dict__", None), dict):
                _swap_in_container(obj.__dict__, swap)
        # anything the program still reaches unwrapped would undercount a layer
        own_cells = {id(c) for w in replacements.values() for c in w.__closure__ or ()}
        for fn in replacements:
            for ref in gc.get_referrers(fn):
                if isinstance(ref, types.CellType) and id(ref) not in own_cells:
                    self.unpatched += 1
                elif isinstance(ref, dict) and str(ref.get("__name__", "")).startswith("softgamma"):
                    self.unpatched += 1

    def _patch_gamma_semiring(self) -> None:
        from softgamma import algebra

        cls = algebra.GammaSemiring
        sub = cls.__dict__.get("sub_masks")
        if isinstance(sub, cached_property):
            prop = cached_property(self.wrap("algebra.sub_masks", sub.func, _after_sub_masks))
            prop.__set_name__(cls, "sub_masks")
            setattr(cls, "sub_masks", prop)
        closed = cls.__dict__.get("closed_mask")
        if isinstance(closed, types.FunctionType):
            tracer = self

            def counted(gs, mask):
                if tracer.enabled and tracer.stack and tracer.spans[tracer.stack[-1]][0] == "algebra.sub_masks":
                    tracer.counters["algebra.sub_masks.masks_scanned"] += 1
                return closed(gs, mask)

            setattr(cls, "closed_mask", counted)

    # -- summary -------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per span name: calls, self seconds (duration minus child-span
        coverage) and inclusive seconds less the tracer's own hook time."""
        child_time = defaultdict(float)
        overhead_within = defaultdict(float)
        # children are appended after their parents, so one reverse sweep
        # sees every child before its parent
        for index in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[index]
            if parent < 0 or end is None:
                continue
            child_time[parent] += end - start
            overhead_within[parent] += end - start if name == OVERHEAD else overhead_within[index]
        calls = Counter()
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if end is None or name == OVERHEAD:
                continue
            calls[name] += 1
            total_s[name] += end - start - overhead_within[index]
            self_s[name] += end - start - child_time[index]
        return {"calls": dict(calls), "self_s": dict(self_s), "total_s": dict(total_s)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"], "spans": self.spans}, fh)


def _swap_in_container(container, swap) -> None:
    if isinstance(container, dict):
        for key, value in list(container.items()):
            new = swap(value)
            if new is not value:
                container[key] = new
    else:
        for i, value in enumerate(container):
            new = swap(value)
            if new is not value:
                container[i] = new


def _after_product(tracer, result, exc, parent):
    if result is not None:
        tracer.counters["generators.product_gamma.cells"] += result.size**2 * (len(result.gamma_elements) + 1)


def _after_op(tracer, result, exc, parent):
    from softgamma.errors import DomainError

    if isinstance(exc, DomainError):
        tracer.counters["soft_sets.op.domain_errors"] += 1


def _after_predicate(tracer, result, exc, parent):
    from softgamma.errors import DomainError

    if isinstance(exc, DomainError) or (exc is None and not result):
        tracer.counters["soft_gamma.predicate.false"] += 1


def _after_serialize(tracer, result, exc, parent):
    # bytes of the outermost serialize call: the text itself for dumps, the
    # compact sorted-key JSON for a document
    if exc is None and parent != "files.serialize":
        text = result if isinstance(result, str) else json.dumps(result, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        tracer.serialized_bytes += len(text.encode("utf-8"))


def _after_sub_masks(tracer, result, exc, parent):
    if result is not None:
        tracer.counters["algebra.sub_masks.closed_found"] += len(result)


_AFTER = {
    "generators.product_gamma": _after_product,
    "soft_sets.op": _after_op,
    "soft_gamma.predicate": _after_predicate,
    "files.serialize": _after_serialize,
}
