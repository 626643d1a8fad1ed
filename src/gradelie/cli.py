"""Command-line interface.

Exit codes: 0 when every requested check passes, 1 when a violation,
counterexample, or failed certificate is found, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .documents import (
    AlgebraDocument,
    DocumentError,
    _matrix_to_json,
    dumps_document,
    instance_digest,
    loads_document,
    materialize,
)
from .examples import EXAMPLE_NAMES, build_example
from .lie import (
    LieAlgebra,
    NotClosedError,
    cartan_test,
    derived_series,
    is_nil_subspace,
    is_solvable,
    lie_closure,
    lower_central_series,
)
from .grading import GradingError, SubgradedAlgebra
from .structures import (
    MatSubspace,
    is_jordan_algebra,
    is_lie_n_product_system,
    is_lie_triple_system,
)
from .spectral import (
    TriangularizationError,
    WitnessSearchError,
    assoc_closure_dim,
    decide_irreducible,
    triangularize_solvable,
    verify_flag,
)
from .scalars import format_scalar
from .campaigns import run_campaign
from .checks import subspace_engel_in

__all__ = ["main"]


def _emit(report: dict, mode: str) -> None:
    if mode == "json":
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        elif isinstance(value, list):
            print(f"{key}:")
            for v in value:
                print(f"  - {v}")
        else:
            print(f"{key}: {value}")


def _load(path: str) -> AlgebraDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(path, str(exc))
    return loads_document(text)


def _analyze_lie(algebra: LieAlgebra) -> tuple[dict, int]:
    ds = derived_series(algebra)
    lc = lower_central_series(algebra)
    report = {
        "structure": "lie",
        "ambient_dim": algebra.ambient_dim,
        "dim": algebra.dim,
        "solvable": ds.terminal_dim == 0,
        "nilpotent": lc.terminal_dim == 0,
        "trace_form_test": cartan_test(algebra),
        "derived_series_dims": [t.dim for t in ds.terms],
        "lower_central_dims": [t.dim for t in lc.terms],
    }
    verdict = decide_irreducible(list(algebra.basis_mats)) if algebra.dim else None
    if verdict is not None:
        report["irreducible"] = verdict.irreducible
        report["assoc_closure_dim"] = verdict.assoc_dim
        if verdict.witness is not None:
            report["invariant_subspace_dim"] = verdict.witness.dim
    return report, 0


def _analyze_subgraded(s: SubgradedAlgebra) -> tuple[dict, int]:
    report = {
        "structure": "subgraded",
        "ambient_dim": s.algebra.ambient_dim,
        "dim": s.algebra.dim,
        "group_moduli": list(s.group.moduli),
        "grading_valid": True,
        "direct": s.is_direct,
        "component_dims": {
            ",".join(map(str, g)): s.component(g).dim for g in s.support
        },
        "component_engel": {
            ",".join(map(str, g)): subspace_engel_in(s.algebra, s.component(g))
            for g in s.support
        },
        "solvable": is_solvable(s.algebra),
    }
    if s.algebra.dim:
        report.update(_burnside_verdict(list(s.algebra.basis_mats)))
    return report, 0


def _analyze_subspace(m: MatSubspace, tag: str) -> tuple[dict, int]:
    report = {
        "structure": tag,
        "ambient_dim": m.ambient_dim,
        "dim": m.dim,
        "all_nilpotent": is_nil_subspace(m.span, m.ambient_dim),
        "triple_system": is_lie_triple_system(m),
    }
    if tag == "jordan":
        report["jordan_algebra"] = is_jordan_algebra(m)
    report["bracket_power_containment"] = {
        str(k): is_lie_n_product_system(m, k) for k in range(2, 6)
    }
    envelope = lie_closure(list(m.basis_mats), ambient_dim=m.ambient_dim)
    report["envelope_dim"] = envelope.dim
    report["envelope_solvable"] = is_solvable(envelope)
    if envelope.dim:
        report.update(_burnside_verdict(list(envelope.basis_mats)))
    return report, 0


def _burnside_verdict(mats: list) -> dict:
    """Burnside: the set is irreducible iff its associative closure is all of gl(n).

    For reports that print no invariant subspace, so no witness is searched for.
    """
    dim = assoc_closure_dim(mats)
    return {"irreducible": dim == mats[0].n_rows ** 2, "assoc_closure_dim": dim}


def _witness_search_failed(exc: WitnessSearchError, args) -> int:
    _emit(
        {
            "error": f"witness search exhausted: {exc}",
            "irreducible": False,
            "assoc_closure_dim": exc.assoc_dim,
        },
        args.report,
    )
    return 1


def _materialize(doc: AlgebraDocument, args):
    """The document's object, or None once an invalid grading or a set that
    is not bracket-closed has been reported (exit 1)."""
    try:
        return materialize(doc)
    except (GradingError, NotClosedError) as exc:
        report = {"grading_valid": False, "violation": str(exc)}
        if getattr(exc, "witness", None) is not None:
            report["witness_bracket"] = _matrix_to_json(exc.witness)
        _emit(report, args.report)
        return None


def _cmd_analyze(doc: AlgebraDocument, args) -> int:
    obj = _materialize(doc, args)
    if obj is None:
        return 1
    try:
        if doc.structure == "lie":
            report, code = _analyze_lie(obj)
        elif doc.structure == "subgraded":
            report, code = _analyze_subgraded(obj)
        else:
            report, code = _analyze_subspace(obj, doc.structure)
    except WitnessSearchError as exc:
        return _witness_search_failed(exc, args)
    report["instance"] = instance_digest(doc)
    _emit(report, args.report)
    return code


def _cmd_grade_check(doc: AlgebraDocument, args) -> int:
    if doc.structure != "subgraded":
        raise DocumentError("$.structure", "grade-check requires structure=subgraded")
    s = _materialize(doc, args)
    if s is None:
        return 1
    _emit(
        {
            "grading_valid": True,
            "direct": s.is_direct,
            "component_dims": {
                ",".join(map(str, g)): s.component(g).dim for g in s.support
            },
        },
        args.report,
    )
    return 0


def _cmd_triangularize(doc: AlgebraDocument, args) -> int:
    obj = _materialize(doc, args)
    if obj is None:
        return 1
    if doc.structure == "subgraded":
        algebra = obj.algebra
    elif doc.structure == "lie":
        algebra = obj
    else:
        algebra = lie_closure(list(obj.basis_mats), ambient_dim=obj.ambient_dim)
    if not is_solvable(algebra):
        _emit({"triangularizable": False, "solvable": False}, args.report)
        return 1
    try:
        flag = triangularize_solvable(algebra)
    except TriangularizationError as exc:
        _emit({"triangularizable": True, "certificate": None, "error": str(exc)}, args.report)
        return 1
    check = verify_flag(list(algebra.basis_mats), flag, args.tol)
    report = {
        "triangularizable": True,
        "chain_dims": [s.dim for s in flag.chain],
        "basis_change": _matrix_to_json(flag.basis_change),
        "chain": [
            [_vector_json(v) for v in sub.basis_vectors()] for sub in flag.chain
        ],
        "verified": check.all_ok,
        "max_residual": check.max_residual,
    }
    _emit(report, args.report)
    return 0 if check.all_ok else 1


def _vector_json(vec) -> list:
    return [format_scalar(x) for x in vec]


def _cmd_irreducible(doc: AlgebraDocument, args) -> int:
    obj = _materialize(doc, args)
    if obj is None:
        return 1
    mats = list((obj.algebra if doc.structure == "subgraded" else obj).basis_mats)
    if not mats:
        raise DocumentError("$", "irreducibility of the zero set is not defined")
    try:
        verdict = decide_irreducible(mats)
    except WitnessSearchError as exc:
        return _witness_search_failed(exc, args)
    report = {
        "irreducible": verdict.irreducible,
        "assoc_closure_dim": verdict.assoc_dim,
        "full_matrix_algebra_dim": mats[0].n_rows ** 2,
    }
    if verdict.witness is not None:
        report["invariant_subspace_dim"] = verdict.witness.dim
        report["invariant_subspace_basis"] = [
            _vector_json(v) for v in verdict.witness.basis_vectors()
        ]
    _emit(report, args.report)
    return 0


def _cmd_fuzz(args) -> int:
    result = run_campaign(args.lemma, trials=args.trials, seed=args.seed, dim_max=args.dim_max)
    if args.report == "json":
        payload = {
            "campaign": result.name,
            "trials": result.trials,
            "hypothesis_met": result.hypothesis_met,
            "notes": result.notes,
            "failures": [
                {
                    "check": f.check,
                    "instance": f.digest,
                    "hypothesis": f.hypothesis,
                    "conclusions": f.conclusions,
                    "counterexample": f.counterexample,
                }
                for f in result.failures
            ],
            "ok": result.ok,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(result.summary())
        for f in result.failures:
            print(f.line())
            if f.counterexample:
                print(json.dumps(f.counterexample, indent=2))
    return 0 if result.ok else 1


def _cmd_example(args) -> int:
    try:
        doc = build_example(args.name)
    except KeyError as exc:
        raise DocumentError("example", str(exc))
    if args.emit:
        sys.stdout.write(dumps_document(doc))
        return 0
    return _cmd_analyze(doc, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradelie",
        description=(
            "Exact structure theory for graded matrix Lie algebras: grading "
            "verification, solvability and triangularization certificates, "
            "irreducibility decisions, and seeded fuzz campaigns."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("--input", required=True, help="instance document (JSON)")
        p.add_argument("--report", choices=("json", "text"), default="text")

    with_input(sub.add_parser("analyze", help="full structural report for a document"))
    with_input(sub.add_parser("grade-check", help="verify grading data"))
    p_tri = sub.add_parser("triangularize", help="flag certificate for a solvable instance")
    with_input(p_tri)
    p_tri.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance")
    with_input(sub.add_parser("irreducible", help="irreducibility verdict with witness"))
    p_fuzz = sub.add_parser("fuzz", help="run a seeded campaign")
    p_fuzz.add_argument("--lemma", required=True, help="campaign name or alias")
    p_fuzz.add_argument("--trials", type=int, default=200)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--dim-max", type=int, default=4)
    p_fuzz.add_argument("--report", choices=("json", "text"), default="text")
    p_ex = sub.add_parser("example", help="built-in worked examples")
    p_ex.add_argument("name", choices=EXAMPLE_NAMES)
    p_ex.add_argument("--emit", action="store_true", help="write the document JSON")
    p_ex.add_argument("--report", choices=("json", "text"), default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fuzz":
            try:
                return _cmd_fuzz(args)
            except KeyError as exc:
                raise DocumentError("--lemma", str(exc))
        if args.command == "example":
            return _cmd_example(args)
        doc = _load(args.input)
        if args.command == "analyze":
            return _cmd_analyze(doc, args)
        if args.command == "grade-check":
            return _cmd_grade_check(doc, args)
        if args.command == "triangularize":
            return _cmd_triangularize(doc, args)
        if args.command == "irreducible":
            return _cmd_irreducible(doc, args)
        parser.error(f"unhandled command {args.command}")
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
