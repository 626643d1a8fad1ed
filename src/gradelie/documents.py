"""Exact JSON documents describing algebra instances.

Top level: ``ambient_dim`` (int), ``structure`` ("lie" | "subgraded" |
"triple" | "jordan"), optional ``group: {"moduli": [...]}``, and either
``generators`` or ``components`` (mapping comma-joined residues to arrays of
matrices).  A matrix is an array of rows; an entry is an exact literal such
as ``"-3"``, ``"1/2"``, ``"2i"`` or ``"1-2/3i"``.  Parsing never rounds; in
exact mode a floating literal is a positional error.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import GaussianRational, ScalarParseError, format_scalar, parse_scalar
from .matrices import Mat
from .groups import FinAbGroup
from .subspaces import LieAlgebra, MatSubspace, span_basis_mats
from .lie import lie_closure, require_closed
from .grading import SubgradedAlgebra, verify_subgrading

__all__ = [
    "AlgebraDocument",
    "DocumentError",
    "parse_document",
    "loads_document",
    "document_to_dict",
    "dumps_document",
    "materialize",
    "document_from",
    "instance_digest",
]

_STRUCTURES = ("lie", "subgraded", "triple", "jordan")
_MODES = ("exact", "float")


class DocumentError(ValueError):
    """Input document rejected; carries a JSON-path-style position."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


@dataclass(frozen=True)
class AlgebraDocument:
    ambient_dim: int
    structure: str
    group: FinAbGroup | None = None
    generators: tuple[Mat, ...] | None = None
    components: dict | None = None  # GroupElem -> tuple[Mat, ...]
    mode: str = "exact"


def _parse_int(digits: str):
    # beyond the interpreter's digit limit a bare integer stays a literal, so
    # reading it where a number belongs fails with a positional error
    try:
        return int(digits)
    except ValueError:
        return digits


def _path_to(value, target, path: str = "$"):
    """The JSON path of the object ``target`` inside ``value``, or None."""
    if value is target:
        return path
    if isinstance(value, dict):
        children = ((f"{path}.{k}", v) for k, v in value.items())
    elif isinstance(value, list):
        children = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for child_path, child in children:
        found = _path_to(child, target, child_path)
        if found is not None:
            return found
    return None


def _parse_entry(value, path: str, mode: str) -> GaussianRational:
    if isinstance(value, bool):
        raise DocumentError(path, "boolean is not a matrix entry")
    if isinstance(value, int):
        return GaussianRational(value)
    if isinstance(value, float):
        if mode == "exact":
            raise DocumentError(path, f"floating literal {value!r} rejected in exact mode")
        if not math.isfinite(value):
            raise DocumentError(path, f"non-finite literal {value!r}")
        return GaussianRational(Fraction(value))
    if isinstance(value, str):
        try:
            return parse_scalar(value)
        except ScalarParseError as exc:
            raise DocumentError(path, str(exc)) from exc
    raise DocumentError(path, f"cannot read {type(value).__name__} as a matrix entry")


def _parse_matrix(value, path: str, n: int, mode: str) -> Mat:
    if not isinstance(value, list) or not value:
        raise DocumentError(path, "matrix must be a non-empty array of rows")
    if len(value) != n:
        raise DocumentError(path, f"expected {n} rows, got {len(value)}")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"{path}[{i}]", f"expected a row of {n} entries")
        rows.append(
            [_parse_entry(e, f"{path}[{i}][{j}]", mode) for j, e in enumerate(row)]
        )
    return Mat.from_rows(rows)


def _parse_matrix_list(value, path: str, n: int, mode: str) -> tuple[Mat, ...]:
    if not isinstance(value, list):
        raise DocumentError(path, "expected an array of matrices")
    return tuple(
        _parse_matrix(m, f"{path}[{k}]", n, mode) for k, m in enumerate(value)
    )


def parse_document(data: dict) -> AlgebraDocument:
    if not isinstance(data, dict):
        raise DocumentError("$", "top level must be an object")
    if "ambient_dim" not in data:
        raise DocumentError("$.ambient_dim", "missing")
    n = data["ambient_dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DocumentError("$.ambient_dim", "must be a positive integer")
    structure = data.get("structure")
    if structure not in _STRUCTURES:
        raise DocumentError(
            "$.structure", f"must be one of {', '.join(_STRUCTURES)}; got {structure!r}"
        )
    mode = data.get("mode", "exact")
    if mode not in _MODES:
        raise DocumentError("$.mode", f"must be one of {', '.join(_MODES)}")
    group = None
    if "group" in data and data["group"] is not None:
        gobj = data["group"]
        if not isinstance(gobj, dict) or "moduli" not in gobj:
            raise DocumentError("$.group", 'expected {"moduli": [...]}')
        moduli = gobj["moduli"]
        if not isinstance(moduli, list) or not all(
            isinstance(m, int) and not isinstance(m, bool) and m >= 1 for m in moduli
        ):
            raise DocumentError("$.group.moduli", "moduli must be integers >= 1")
        group = FinAbGroup(moduli)
    has_gens = "generators" in data and data["generators"] is not None
    has_comps = "components" in data and data["components"] is not None
    if has_gens == has_comps:
        raise DocumentError("$", "exactly one of generators or components is required")
    generators = None
    components = None
    if has_gens:
        generators = _parse_matrix_list(data["generators"], "$.generators", n, mode)
    else:
        if structure != "subgraded":
            raise DocumentError("$.components", "components require structure=subgraded")
        if group is None:
            raise DocumentError("$.group", "components require a group")
        cobj = data["components"]
        if not isinstance(cobj, dict):
            raise DocumentError("$.components", "expected an object")
        components = {}
        for key, value in cobj.items():
            path = f"$.components[{key!r}]"
            try:
                residues = tuple(int(tok.strip()) for tok in key.split(",")) if key else ()
            except ValueError:
                raise DocumentError(path, "key must be comma-joined integers")
            if len(residues) != group.rank:
                raise DocumentError(
                    path, f"degree of length {len(residues)} in a rank-{group.rank} group"
                )
            elem = group.element(residues)
            mats = _parse_matrix_list(value, path, n, mode)
            if elem in components:
                components[elem] = components[elem] + mats
            else:
                components[elem] = mats
    if structure == "subgraded" and group is None:
        raise DocumentError("$.group", "subgraded structure requires a group")
    return AlgebraDocument(n, structure, group, generators, components, mode)


def loads_document(text: str) -> AlgebraDocument:
    repeated = []  # (object, its first repeated key), innermost first

    def pairs_hook(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            repeated.append((obj, next(k for i, k in enumerate(keys) if k in keys[:i])))
        return obj

    try:
        data = json.loads(text, object_pairs_hook=pairs_hook, parse_int=_parse_int)
        for obj, key in repeated:
            # an object under a key that was itself repeated may be gone
            path = _path_to(data, obj)
            if path is not None:
                raise DocumentError(path, f"duplicate key {key!r}")
    except json.JSONDecodeError as exc:
        raise DocumentError(f"$ (line {exc.lineno}, column {exc.colno})", exc.msg)
    except RecursionError:
        raise DocumentError("$", "arrays and objects are nested too deeply") from None
    return parse_document(data)


def _matrix_to_json(m: Mat) -> list[list[str]]:
    return [
        [format_scalar(m.entry(i, j)) for j in range(m.n_cols)]
        for i in range(m.n_rows)
    ]


def document_to_dict(doc: AlgebraDocument) -> dict:
    out: dict = {
        "ambient_dim": doc.ambient_dim,
        "structure": doc.structure,
        "mode": doc.mode,
    }
    if doc.group is not None:
        out["group"] = {"moduli": list(doc.group.moduli)}
    if doc.generators is not None:
        out["generators"] = [_matrix_to_json(m) for m in doc.generators]
    if doc.components is not None:
        out["components"] = {
            ",".join(str(r) for r in key): [_matrix_to_json(m) for m in mats]
            for key, mats in sorted(doc.components.items())
        }
    return out


def dumps_document(doc: AlgebraDocument) -> str:
    return json.dumps(document_to_dict(doc), indent=2) + "\n"


def instance_digest(doc: AlgebraDocument) -> str:
    return hashlib.sha256(dumps_document(doc).encode()).hexdigest()[:16]


def materialize(doc: AlgebraDocument):
    """Build the object a document describes.

    lie -> LieAlgebra (closure of the generators); subgraded ->
    SubgradedAlgebra (closure and grading law verified); triple / jordan ->
    MatSubspace (closure laws are decided by analysis, not parsing).
    """
    if doc.structure == "lie":
        return lie_closure(list(doc.generators), ambient_dim=doc.ambient_dim)
    if doc.structure == "subgraded":
        if doc.components is not None:
            all_mats = [m for mats in doc.components.values() for m in mats]
            algebra = require_closed(LieAlgebra.from_matrices(all_mats, doc.ambient_dim))
            return verify_subgrading(algebra, doc.group, doc.components)
        algebra = lie_closure(list(doc.generators), ambient_dim=doc.ambient_dim)
        return verify_subgrading(
            algebra, doc.group, {doc.group.zero(): algebra.span}
        )
    return MatSubspace.from_matrices(list(doc.generators), doc.ambient_dim)


def document_from(obj, structure: str | None = None) -> AlgebraDocument:
    """Serialize a core object back into a replayable document.

    The structure tag defaults to "subgraded" for a SubgradedAlgebra and to
    "lie" otherwise; pass "triple" or "jordan" for a plain MatSubspace.
    """
    if structure is None:
        structure = "subgraded" if isinstance(obj, SubgradedAlgebra) else "lie"
    if structure == "subgraded":
        comps = {
            g: tuple(span_basis_mats(s, obj.algebra.ambient_dim))
            for g, s in obj.components.items()
            if s.dim > 0
        }
        return AlgebraDocument(
            obj.algebra.ambient_dim, "subgraded", obj.group, None, comps
        )
    if structure not in _STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    return AlgebraDocument(obj.ambient_dim, structure, None, tuple(obj.basis_mats), None)
