"""Command-line interface.

Subcommands: validate, op, soft-check, subsemirings, theorem, suite, example.
theorem fuzzes one closure law; suite fuzzes every law in table order or,
with --drop-hypothesis, every law of the necessity column on its pinned
family.  Exit codes: 0 success, 1 axiom/domain failure (or, with
--drop-hypothesis, a law with no counterexample found), 2 parse/input
error.  stdout carries only machine-readable JSON; diagnostics go to stderr.
theorem and suite import the harness when they run, so the other commands
start without it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import files
from .algebra import check_gamma_semiring, enumerate_sub_gamma_semirings
from .errors import DomainError, GenerationError, InputError
from .generators import make_matrix_gamma, make_minmax_gamma, make_zn_gamma
from .soft_gamma import is_soft_gamma_semiring
from .soft_sets import (
    TernaryRelation,
    and_intersect_family,
    cartesian_product,
    extended_intersect,
    extended_union,
    make_soft_function,
    or_union_family,
    restricted_intersect,
    restricted_union,
    soft_image,
    soft_preimage,
    soft_set_from_relation,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# the operations on a family of soft sets; "and" and "or" take exactly two
_FAMILY_OPS = {
    "rint": restricted_intersect,
    "eint": extended_intersect,
    "runion": restricted_union,
    "eunion": extended_union,
    "prod": cartesian_product,
    "and": and_intersect_family,
    "or": or_union_family,
}
_OP_KINDS = (*_FAMILY_OPS, "image", "preimage")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _soft_sets(paths) -> list:
    return [files.soft_set_from_doc(files.load(p)) for p in paths]


def _map_file(path) -> tuple[dict, dict]:
    """The carrier map f and parameter map g of a soft-function map file."""
    maps = files.load(path)
    files.require_fields(maps, {"f", "g"}, "soft-function map document")
    return (
        files.label_map_from_jsonable(maps["f"], "carrier map"),
        files.label_map_from_jsonable(maps["g"], "parameter map"),
    )


def cmd_validate(args) -> int:
    gs = files.structure_from_doc(files.load(args.file))
    report = check_gamma_semiring(gs, mode=args.mode)
    sys.stdout.write(files.dumps(files.axiom_report_to_doc(report)))
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_op(args) -> int:
    kind = args.kind
    if kind in _FAMILY_OPS:
        if kind in ("and", "or") and len(args.files) != 2:
            raise InputError(f"op {kind} takes exactly two soft-set files")
        result = _FAMILY_OPS[kind](_soft_sets(args.files))
    elif kind == "image":
        if len(args.files) != 3:
            raise InputError("op image takes a map file, a source file, and a target file")
        f, g = _map_file(args.files[0])
        source, target = _soft_sets(args.files[1:])
        result = soft_image(make_soft_function(f, g, source, target))
    else:  # preimage, the last of _OP_KINDS, which the parser enforces
        if len(args.files) != 2:
            raise InputError("op preimage takes a map file and a target file")
        f, g = _map_file(args.files[0])
        target = _soft_sets(args.files[1:])[0]
        result = soft_preimage(f, g, target, tuple(g.keys()))
    _emit(files.dumps(files.soft_set_to_doc(result)), args.output)
    return EXIT_OK


def cmd_soft_check(args) -> int:
    gs = files.structure_from_doc(files.load(args.structure))
    ss = files.soft_set_from_doc(files.load(args.soft_set))
    witness = is_soft_gamma_semiring(gs, ss)
    sys.stdout.write(files.dumps(files.witness_to_doc(witness)))
    return EXIT_OK if witness else EXIT_FAIL


def cmd_subsemirings(args) -> int:
    gs = files.structure_from_doc(files.load(args.file))
    subs = enumerate_sub_gamma_semirings(gs)
    doc = {
        "carrier_size": gs.size,
        "count": len(subs),
        "subsemirings": [[files.label_to_jsonable(e) for e in sub] for sub in subs],
    }
    _emit(files.dumps(doc), args.output)
    return EXIT_OK


def _fuzz_exit(verdicts, drop_hypothesis: bool) -> int:
    """EXIT_OK when no enforced law failed or, with the hypothesis dropped,
    when every law found a counterexample."""
    if drop_hypothesis:
        ok = all(v.counterexample is not None for v in verdicts)
    else:
        ok = all(v.failures == 0 for v in verdicts)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_theorem(args) -> int:
    from .harness import InstanceSpec, fuzz_theorem

    verdict = fuzz_theorem(
        args.id,
        args.trials,
        InstanceSpec(seed=args.seed),
        drop_hypothesis=args.drop_hypothesis,
    )
    _emit(files.dumps(files.verdict_to_doc(verdict)), args.output)
    return _fuzz_exit([verdict], args.drop_hypothesis)


def cmd_suite(args) -> int:
    from .harness import ALL_THEOREMS, NECESSITY_TEMPLATES, InstanceSpec, fuzz_theorem

    if args.drop_hypothesis:
        runs = [(tid, template.replace(seed=args.seed)) for tid, template in NECESSITY_TEMPLATES.items()]
    else:
        runs = [(tid, InstanceSpec(seed=args.seed)) for tid in ALL_THEOREMS]
    verdicts = [
        fuzz_theorem(tid, args.trials, template, drop_hypothesis=args.drop_hypothesis)
        for tid, template in runs
    ]
    _emit(files.dumps([files.verdict_to_doc(v) for v in verdicts]), args.output)
    return _fuzz_exit(verdicts, args.drop_hypothesis)


def z8_example():
    """The mod-8 structure with gamma {2,4,6} and its relation-derived soft set."""
    gs = make_zn_gamma(8, (2, 4, 6), strict=True)
    params = tuple(str(i) for i in range(8))
    gamma = ("2", "4", "6")
    triples = frozenset(
        (str(y), str(g), str(s))
        for y in range(8)
        for g in (2, 4, 6)
        for s in range(8)
        if (y * g * s) % 8 in (0, 4, 6)
    )
    relation = TernaryRelation(params, gamma, triples)
    return gs, soft_set_from_relation(relation, gs)


_EXAMPLES = ("z8", "minmax5", "matrix2x1x2")


def cmd_example(args) -> int:
    name = args.name
    if name == "z8":
        gs, ss = z8_example()
        doc = {"structure": files.structure_to_doc(gs, name="z8"), "soft_set": files.soft_set_to_doc(ss)}
    elif name == "minmax5":
        gs = make_minmax_gamma(5, (1, 2, 3))
        doc = {"structure": files.structure_to_doc(gs, name="minmax5")}
    else:  # matrix2x1x2, the last of _EXAMPLES, which the parser enforces
        gs = make_matrix_gamma(2, 1, 2)
        doc = {"structure": files.structure_to_doc(gs, name="matrix2x1x2")}
    if args.output:
        outdir = Path(args.output)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / f"{name}.structure.json").write_text(
                files.dumps(doc["structure"]), encoding="utf-8"
            )
            if name == "z8":
                (outdir / f"{name}.soft.json").write_text(
                    files.dumps(doc["soft_set"]), encoding="utf-8"
                )
        except OSError as exc:
            raise InputError(f"cannot write {outdir}: {exc}") from None
    else:
        sys.stdout.write(files.dumps(doc))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="softgamma")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the gamma-semiring axioms of a structure file")
    p.add_argument("file")
    p.add_argument("--mode", choices=("weak", "strict"), default="weak")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("op", help="apply a soft-set operation to soft-set files")
    p.add_argument("kind", choices=_OP_KINDS)
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_op)

    p = sub.add_parser("soft-check", help="test whether a soft set is a soft gamma-semiring")
    p.add_argument("structure")
    p.add_argument("soft_set")
    p.set_defaults(func=cmd_soft_check)

    p = sub.add_parser("subsemirings", help="enumerate the subalgebras of a structure file")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_subsemirings)

    # the options theorem and suite share
    fuzz = argparse.ArgumentParser(add_help=False)
    fuzz.add_argument("--trials", type=int, default=500)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--drop-hypothesis", action="store_true")
    fuzz.add_argument("-o", "--output", default=None)

    p = sub.add_parser("theorem", parents=[fuzz], help="fuzz one closure law")
    p.add_argument("id")
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser(
        "suite", parents=[fuzz], help="fuzz every closure law, or every pinned law with --drop-hypothesis"
    )
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("example", help="emit a bundled example structure")
    p.add_argument("name", choices=_EXAMPLES)
    p.add_argument("-o", "--output", default=None, help="directory to write files into")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DomainError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
