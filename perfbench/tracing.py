"""Per-layer spans recorded from outside gradelie, by wrapping its public functions.

Each wrapped call records a span (name, start, end, parent span, op id).  Self
time is a span's duration minus the time its child spans cover.  Totals are
kept for every call; full span records are kept for one pass only, in compact
arrays, and written out when the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (metric name, module, attribute); a dotted attribute is a method on a class
TARGETS = (
    ("matrices.matmul", "gradelie.matrices", "Mat.__matmul__"),
    ("matrices.bracket", "gradelie.matrices", "bracket"),
    ("matrices.kron", "gradelie.matrices", "Mat.kron"),
    ("groups.regular_rep", "gradelie.groups", "regular_rep"),
    ("subspaces.echelon_insert", "gradelie.subspaces", "_Echelon.insert"),
    ("subspaces.mat_span", "gradelie.subspaces", "mat_span"),
    ("subspaces.subspace_intersect", "gradelie.subspaces", "subspace_intersect"),
    ("lie.lie_closure", "gradelie.lie", "lie_closure"),
    ("lie.series", "gradelie.lie", "_series"),
    ("lie.cartan_test", "gradelie.lie", "cartan_test"),
    ("lie.ad_matrix", "gradelie.lie", "ad_matrix"),
    ("lie.is_nil_subspace", "gradelie.lie", "is_nil_subspace"),
    ("grading.verify_subgrading", "gradelie.grading", "verify_subgrading"),
    ("grading.ampliate", "gradelie.grading", "ampliate"),
    ("grading.f_pi", "gradelie.grading", "AmpliationResult.f_pi"),
    ("grading.check_maptri", "gradelie.grading", "check_maptri"),
    ("spectral.decide_irreducible", "gradelie.spectral", "decide_irreducible"),
    ("spectral.triangularize_solvable", "gradelie.spectral", "triangularize_solvable"),
    ("spectral.verify_flag", "gradelie.spectral", "verify_flag"),
    ("documents.loads_document", "gradelie.documents", "loads_document"),
    ("documents.materialize", "gradelie.documents", "materialize"),
    ("documents.instance_digest", "gradelie.documents", "instance_digest"),
    ("cli.main", "gradelie.cli", "main"),
)

# the per-layer metrics reported, as (layer, field)
REPORTED = (
    ("matrices.matmul", "calls"), ("matrices.matmul", "bigint_calls"),
    ("matrices.matmul", "self_ms"),
    ("matrices.bracket", "calls"), ("matrices.bracket", "self_ms"),
    ("matrices.kron", "calls"), ("matrices.kron", "self_ms"),
    ("groups.regular_rep", "calls"), ("groups.regular_rep", "self_ms"),
    ("subspaces.echelon_insert", "calls"), ("subspaces.echelon_insert", "accepted"),
    ("subspaces.echelon_insert", "self_ms"),
    ("subspaces.mat_span", "calls"), ("subspaces.mat_span", "self_ms"),
    ("subspaces.subspace_intersect", "self_ms"),
    ("lie.lie_closure", "calls"), ("lie.lie_closure", "self_ms"),
    ("lie.series", "self_ms"),
    ("lie.cartan_test", "self_ms"),
    ("lie.ad_matrix", "calls"), ("lie.ad_matrix", "self_ms"),
    ("lie.is_nil_subspace", "calls"), ("lie.is_nil_subspace", "self_ms"),
    ("grading.verify_subgrading", "self_ms"),
    ("grading.ampliate", "calls"), ("grading.ampliate", "self_ms"),
    ("grading.f_pi", "calls"), ("grading.f_pi", "self_ms"),
    ("grading.check_maptri", "self_ms"),
    ("spectral.decide_irreducible", "calls"), ("spectral.decide_irreducible", "self_ms"),
    ("spectral.triangularize_solvable", "self_ms"),
    ("spectral.verify_flag", "self_ms"),
    ("documents.loads_document", "self_ms"),
    ("documents.materialize", "self_ms"),
    ("documents.instance_digest", "calls"), ("documents.instance_digest", "self_ms"),
    ("cli.main", "self_ms"),
)

_INT64_SAFE = 2**62


def _is_bigint_matmul(a, b) -> bool:
    # the matmul path gradelie takes, decided from the operands alone; asked
    # after the call, when gradelie has cached both maxima, so it costs no scan
    return 2 * a.n_cols * a.max_abs_num() * b.max_abs_num() >= _INT64_SAFE


class Tracer:
    """Wraps every target in every gradelie module that binds it."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.op = -1
        self.recording = False
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.reset_totals()
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_op = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def reset_totals(self) -> None:
        self.totals = {
            name: {"calls": 0, "self_s": 0.0, "accepted": 0, "bigint_calls": 0}
            for name in self.names
        }

    def _wrap(self, idx: int, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        is_insert = name == "subspaces.echelon_insert"
        is_matmul = name == "matrices.matmul"

        def wrapper(*args, **kwargs):
            agg = self.totals[name]
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                agg["calls"] += 1
                agg["self_s"] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if self.recording:
                    self.span_id.append(span_id)
                    self.span_name.append(idx)
                    self.span_op.append(self.op)
                    self.span_parent.append(parent)
                    self.span_start.append(frame[1])
                    self.span_end.append(end)
            if is_insert and result:
                agg["accepted"] += 1
            if is_matmul and _is_bigint_matmul(args[0], args[1]):
                agg["bigint_calls"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for idx, (name, modname, attr) in enumerate(TARGETS):
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(idx, name, original))
                self._patches.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(idx, name, original)
            for modname2, mod in list(sys.modules.items()):
                if modname2.split(".")[0] != "gradelie" or mod is None:
                    continue
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {name: dict(v) for name, v in self.totals.items()}

    def write_spans(self, path) -> int:
        """Write the recorded spans as gzip'd tab-separated lines; returns the count."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            t0 = min(self.span_start, default=0.0)
            for k in range(len(self.span_name)):
                fh.write(
                    f"{self.span_id[k]}\t{self.span_parent[k]}\t{self.span_op[k]}\t"
                    f"{self.names[self.span_name[k]]}\t"
                    f"{self.span_start[k] - t0:.9f}\t{self.span_end[k] - t0:.9f}\n"
                )
        return len(self.span_name)
