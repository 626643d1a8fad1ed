"""The four seeded workloads: inputs, the ops that call gradelie, and their checkers.

Each ``build_*`` returns a ``Workload``: a fixed list of ops (the same list, in
the same order, in every pass) and a checker.  An op calls gradelie's public
functions through their modules, so a traced run sees every call.  Its raw
result is turned into plain data (ints, bools, strings and tuples) by the op's
``record`` function outside the timed region, and the checker verifies those
records with ``exact`` only, never with gradelie.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import exact as ex
from gradelie import cli, documents, examples, generators, grading, lie, matrices, subspaces


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    record: Callable[[object], object]
    # exception class name a named fault raises today, or None
    known_fault: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    check: Callable[[list], list[str]]
    notes: dict = field(default_factory=dict)


# -- plain data from gradelie values ----------------------------------------------


def mat_plain(m) -> tuple:
    return (m.n_rows, m.n_cols, m.re, m.im, m.den)


def span_plain(s) -> tuple:
    """A Subspace as (rows re, rows im, den)."""
    b = s.basis_rows
    k = b.n_cols
    return (
        tuple(b.re[i * k : (i + 1) * k] for i in range(b.n_rows)),
        tuple(b.im[i * k : (i + 1) * k] for i in range(b.n_rows)),
        b.den,
    )


def plain_to_gi(p):
    """Numerators of a plain matrix as a Gaussian-integer matrix, and its denominator."""
    n_rows, n_cols, re_t, im_t, den = p
    rows_re = [re_t[i * n_cols : (i + 1) * n_cols] for i in range(n_rows)]
    rows_im = [im_t[i * n_cols : (i + 1) * n_cols] for i in range(n_rows)]
    return ex.gi(rows_re, rows_im), den


def span_mats(sp, n: int):
    """Rows of a plain span as Gaussian-integer n x n matrices (numerators)."""
    rows_re, rows_im, _ = sp
    return [
        ex.gi([r[i * n : (i + 1) * n] for i in range(n)], [q[i * n : (i + 1) * n] for i in range(n)])
        for r, q in zip(rows_re, rows_im)
    ]


# -- shared input helpers -----------------------------------------------------------


def unimodular(n: int, rng: random.Random, dense: bool = False):
    """A dense integer conjugator g = D L U of determinant +-1, and its integer inverse.

    L and U are unit lower and upper triangular and D is a seeded diagonal sign
    matrix.  By default L and U are the all-ones matrices: every conjugate then
    has the same density, so an op's cost depends on the conjugated matrices,
    not on the conjugator.  With ``dense`` their entries off the diagonal are
    seeded +-1, which gives larger entries and costs that vary more.
    """
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    up = [[1 if j == i else (rng.choice((-1, 1)) if dense else 1) * (j > i) for j in range(n)] for i in range(n)]
    low_t = [[1 if j == i else (rng.choice((-1, 1)) if dense else 1) * (j > i) for j in range(n)] for i in range(n)]
    g = [[s * v for v in row] for s, row in zip(signs, int_matmul(transpose(low_t), up))]
    inv = int_matmul(unit_upper_inverse(up), transpose(unit_upper_inverse(low_t)))
    return g, [[v * s for v, s in zip(row, signs)] for row in inv]


def unit_upper_inverse(u: list[list[int]]) -> list[list[int]]:
    """The integer inverse of a unit upper triangular matrix, by back substitution."""
    n = len(u)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(u[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    return inv


def transpose(m):
    return [list(col) for col in zip(*m)]


def int_matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def conjugate(g, gi, m):
    return int_matmul(int_matmul(g, m), gi)


def random_upper(n: int, rng: random.Random, strict: bool) -> list[list[int]]:
    lo = 1 if strict else 0
    return [[rng.randint(-2, 2) if j - i >= lo else 0 for j in range(n)] for i in range(n)]


def check_derived_series(terms, n: int, label: str) -> list[str]:
    """Each derived-series term T_{k+1} equals [T_k, T_k], exactly."""
    for k in range(len(terms) - 1):
        cur, nxt = terms[k], terms[k + 1]
        if not cur[0]:
            if nxt[0]:
                return [f"{label}: derived series term after 0 is nonzero"]
            continue
        nxt_span = ex.RrefSpan(*nxt)
        if not nxt_span.valid:
            return [f"{label}: derived series term {k + 1} is not a reduced basis"]
        mats = span_mats(cur, n)
        brackets = [ex.gi_vec(ex.gi_bracket(a, b)) for i, a in enumerate(mats) for b in mats[i + 1 :]]
        if not all(nxt_span.contains(w) for w in brackets):
            return [f"{label}: derived series term {k + 1} misses a bracket"]
        if nxt_span.dim != ex.rank(brackets):
            return [f"{label}: derived series term {k + 1} is larger than [T, T]"]
    return []


# -- lie-closure ----------------------------------------------------------------------

# (kind, n) -> ops per pass, generator counts alternating 2, 3.  Half the ops
# are random, half triangular.  The cheap cells (n = 2, triangular n = 3) hold
# fewer than half the ops, so the median op lies inside the middle cluster
# (random n = 3, triangular n = 4), and the tail op inside random n = 4.
LIE_CELLS = {
    ("triangular", 2): 8, ("triangular", 3): 15, ("triangular", 4): 34,
    ("random", 2): 8, ("random", 3): 34, ("random", 4): 15,
}


def build_lie_closure(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(f"lie-closure/{seed}")
    cases = []
    for (kind, n), reps in LIE_CELLS.items():
        for rep in range(reps):
            k = 2 + rep % 2
            if kind == "random":
                grids = [[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for _ in range(k)]
            else:
                g, gi = unimodular(n, rng)
                grids = [conjugate(g, gi, random_upper(n, rng, False)) for _ in range(k)]
            cases.append((kind, n, grids))
    # independent reference: the exact closure dimension
    refs = [len(ex.lie_closure([ex.gi(gr) for gr in grids])) for _, _, grids in cases]
    ops = []
    for idx, (kind, n, grids) in enumerate(cases):
        gens = [matrices.Mat.from_int_rows(gr) for gr in grids]

        def run(gens=gens):
            algebra = lie.lie_closure(gens)
            return (
                algebra,
                lie.derived_series(algebra),
                lie.lower_central_series(algebra),
                lie.cartan_test(algebra),
            )

        ops.append(Op(f"{idx}:{kind}:n{n}:k{len(grids)}", run, _record_lie))

    def check(records) -> list[str]:
        errors: list[str] = []
        for (kind, n, grids), ref, rec, op in zip(cases, refs, records, ops):
            if rec is None:  # the op raised; the runner reports it
                continue
            dim, basis, ds_terms, lc_dims, cartan = rec
            gens = [ex.gi(gr) for gr in grids]
            if dim != ref:
                errors.append(f"{op.label}: closure dim {dim}, reference {ref}")
                continue
            span = ex.RrefSpan(*basis)
            if not span.valid or span.dim != dim:
                errors.append(f"{op.label}: closure basis is not reduced")
                continue
            mats = span_mats(basis, n)
            vecs = [ex.gi_vec(g) for g in gens]
            vecs += [ex.gi_vec(ex.gi_bracket(a, b)) for i, a in enumerate(mats) for b in mats[i + 1 :]]
            if not all(span.contains(v) for v in vecs):
                errors.append(f"{op.label}: closure is not bracket-closed or misses a generator")
                continue
            if ds_terms[0] != basis:
                errors.append(f"{op.label}: derived series does not start at the algebra")
            errors.extend(check_derived_series(ds_terms, n, op.label))
            solvable = not ds_terms[-1][0]
            if cartan != solvable:
                errors.append(f"{op.label}: cartan_test {cartan} but solvable {solvable}")
            if kind == "triangular" and not solvable:
                errors.append(f"{op.label}: conjugated triangular input reported non-solvable")
            if lc_dims[0] != dim or any(a < b for a, b in zip(lc_dims, lc_dims[1:])):
                errors.append(f"{op.label}: lower central dims {lc_dims} not non-increasing from {dim}")
            if lc_dims[-1] == 0 and not solvable:
                errors.append(f"{op.label}: nilpotent but not solvable")
        return errors

    return Workload("lie-closure", ops, check)


def _record_lie(out):
    algebra, ds, lc, cartan = out
    return (
        algebra.dim,
        span_plain(algebra.span),
        tuple(span_plain(t) for t in ds.terms),
        tuple(t.dim for t in lc.terms),
        bool(cartan),
    )


# -- graded-ampliation --------------------------------------------------------------

GRADED_GROUPS = ((2,), (3,), (4,), (5,), (2, 2), (2, 4), (3, 3))
GRADED_REPS = 3
GRADED_TRIES = 100
FPI_PAIRS = 6


def graded_targets(n: int, order: int) -> tuple[int, int]:
    """Algebra dimensions drawn for (n, |G|): common ones, lower for the largest ampliations."""
    if n == 4 and order < 8:
        return (3, 5)
    return (2, 3)


def _pick_graded(n: int, moduli, target: int, rng: random.Random):
    base = rng.randrange(10**9)
    best = None
    for t in range(GRADED_TRIES):
        inst = generators.gen_weight_graded(n, list(moduli), base + t)
        if inst.algebra.dim == target:
            return inst
        if best is None or abs(inst.algebra.dim - target) < abs(best.algebra.dim - target):
            best = inst
    return best


def regular_perm(moduli, g) -> list[list[int]]:
    """pi(g): e_h -> e_{g+h}, elements in lexicographic order."""
    elems = [()]
    for m in moduli:
        elems = [e + (r,) for e in elems for r in range(m)]
    index = {e: i for i, e in enumerate(elems)}
    size = len(elems)
    grid = [[0] * size for _ in range(size)]
    for h in elems:
        gh = tuple((a + b) % m for a, b, m in zip(g, h, moduli))
        grid[index[gh]][index[h]] = 1
    return grid


def build_graded_ampliation(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(f"graded-ampliation/{seed}")
    cases = []
    for n in (2, 3, 4):
        for moduli in GRADED_GROUPS:
            for target in graded_targets(n, math.prod(moduli)):
                for _ in range(GRADED_REPS):
                    cases.append((n, moduli, _pick_graded(n, moduli, target, rng)))
    refs = []
    for n, moduli, inst in cases:
        comp_mats = {
            g: [plain_to_gi(mat_plain(m))[0] for m in inst.component_mats(g)] for g in inst.support
        }
        spanning = [m for ms in comp_mats.values() for m in ms]
        refs.append(
            {
                "dims": {g: ex.rank(ex.gi_vec(m) for m in ms) for g, ms in comp_mats.items()},
                "solvable": ex.is_solvable_cartan(spanning),
            }
        )
    ops = []
    for idx, (n, moduli, inst) in enumerate(cases):
        comps = {g: inst.component(g) for g in inst.support}

        def run(inst=inst, comps=comps):
            s = grading.verify_subgrading(inst.algebra, inst.group, comps)
            amp = grading.ampliate(s)
            pairs = [
                (deg, big, orig)
                for deg in sorted(amp.back_map_table)
                for big, orig in amp.back_map_table[deg]
            ]
            head = pairs[:FPI_PAIRS]
            images = [
                (i, j, amp.f_pi(matrices.bracket(a[1], b[1])))
                for i, a in enumerate(head)
                for j, b in enumerate(head)
            ]
            return s, amp, pairs, images, grading.check_maptri(s)

        ops.append(Op(f"{idx}:n{n}:Z{'x'.join(map(str, moduli))}:d{inst.algebra.dim}", run, _record_graded))

    def check(records) -> list[str]:
        errors: list[str] = []
        for (n, moduli, inst), ref, rec, op in zip(cases, refs, records, ops):
            if rec is None:  # the op raised; the runner reports it
                continue
            direct, comp_dims, amp_direct, amp_dim, pairs, images, maptri = rec
            total = sum(ref["dims"].values())
            if comp_dims != {g: d for g, d in ref["dims"].items() if d}:
                errors.append(f"{op.label}: component dims {comp_dims}, reference {ref['dims']}")
            if not amp_direct or amp_dim != total or len(pairs) != total:
                errors.append(f"{op.label}: ampliation direct={amp_direct} dim {amp_dim}, expected {total}")
            for deg, big, orig in pairs:
                pi = np.array(regular_perm(moduli, deg), dtype=object)
                (br, bi), bden = plain_to_gi(big)
                (orr, ori), oden = plain_to_gi(orig)
                if not ex.gi_equal((br * oden, bi * oden), (np.kron(orr, pi) * bden, np.kron(ori, pi) * bden)):
                    errors.append(f"{op.label}: ampliated element of degree {deg} is not a (x) pi(g)")
                    break
            for i, j, image in images:
                (ar, ai), aden = plain_to_gi(pairs[i][2])
                (br, bi), bden = plain_to_gi(pairs[j][2])
                want = ex.gi_bracket((ar, ai), (br, bi))
                (ir, ii), iden = plain_to_gi(image)
                if not ex.gi_equal((ir * aden * bden, ii * aden * bden), (want[0] * iden, want[1] * iden)):
                    errors.append(f"{op.label}: f_pi does not preserve the bracket of pair {i},{j}")
                    break
            amp_engel, orig_engel, amp_solv, orig_solv = maptri
            if amp_solv != orig_solv or amp_engel != orig_engel:
                errors.append(f"{op.label}: ampliation and original disagree: {maptri}")
            if orig_solv != ref["solvable"]:
                errors.append(f"{op.label}: solvable {orig_solv}, Cartan's criterion {ref['solvable']}")
            if orig_engel and not orig_solv:
                errors.append(f"{op.label}: nilpotent but not solvable")
            if not direct:
                errors.append(f"{op.label}: weight grading reported non-direct")
        return errors

    return Workload("graded-ampliation", ops, check)


def _record_graded(out):
    s, amp, pairs, images, rep = out
    return (
        s.is_direct,
        {g: s.component(g).dim for g in s.support},
        amp.ampliated.is_direct,
        amp.ampliated.algebra.dim,
        tuple((deg, mat_plain(big), mat_plain(orig)) for deg, big, orig in pairs),
        tuple((i, j, mat_plain(m)) for i, j, m in images),
        (rep.ampliated_engel, rep.original_engel, rep.ampliated_solvable, rep.original_solvable),
    )


# -- nil-decide --------------------------------------------------------------------

# proofs: (n, d) -> ops per pass, conjugated by the fixed-shape D L U; dense
# proofs: the same, conjugated by seeded dense L and U; refutations: (n, cycle
# length, extra units) -> ops.  Sorted by cost, 101 ops (the refutations and
# the (4, 6) and (4, 3) proofs) lie below the 16 proofs at (4, 4) and 100
# above them, so the median op is the middle of that cluster; the tail op lies
# inside (5, 7), as the 6 dense proofs are fewer than 10.
NIL_PROOFS = {
    (4, 3): 12, (4, 4): 16, (4, 5): 12, (4, 6): 12,
    (5, 3): 12, (5, 4): 12, (5, 5): 12, (5, 6): 10,
    (5, 7): 12, (5, 8): 8, (5, 9): 8, (5, 10): 8,
}
NIL_DENSE_PROOFS = {(5, 5): 6}
NIL_REFUTATIONS = {
    (4, 2, 2): 11, (4, 3, 2): 11, (4, 4, 2): 11,
    (5, 2, 4): 11, (5, 3, 4): 11, (5, 4, 4): 11, (5, 5, 4): 11,
}


def build_nil_decide(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(f"nil-decide/{seed}")
    cases = []  # (kind, n, grids, (g, g^-1) or a non-nilpotent element of the span)
    for cells, dense in ((NIL_PROOFS, False), (NIL_DENSE_PROOFS, True)):
        for (n, d), reps in cells.items():
            for _ in range(reps):
                g, gi = unimodular(n, rng, dense)
                ups = []
                while len(ups) < d:
                    u = random_upper(n, rng, True)
                    if any(any(r) for r in u):
                        ups.append(u)
                kind = "dense-proof" if dense else "proof"
                cases.append((kind, n, [conjugate(g, gi, u) for u in ups], (g, gi)))
    for (n, c, extra), reps in NIL_REFUTATIONS.items():
        for _ in range(reps):
            g, gi = unimodular(n, rng)
            cycle = rng.sample(range(n), c)
            edges = [(cycle[k], cycle[(k + 1) % c]) for k in range(c)]
            pool = [(i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in edges]
            units = edges + rng.sample(pool, extra)
            grids = []
            for i, j in units:
                grid = [[0] * n for _ in range(n)]
                grid[i][j] = rng.choice((-3, -2, -1, 1, 2, 3))
                grids.append(conjugate(g, gi, grid))
            # the conjugated cycle permutation: a combination of the spanning matrices, not nilpotent
            witness = conjugate(g, gi, [[int((i, j) in edges) for j in range(n)] for i in range(n)])
            cases.append(("refutation", n, grids, witness))
    ops = []
    for idx, (kind, n, grids, _) in enumerate(cases):
        span = subspaces.mat_span([matrices.Mat.from_int_rows(gr) for gr in grids], n)
        ops.append(
            Op(
                f"{idx}:{kind}:n{n}:d{span.dim}",
                lambda span=span, n=n: lie.is_nil_subspace(span, n),
                bool,
            )
        )

    def check(records) -> list[str]:
        errors: list[str] = []
        for (kind, n, grids, extra), verdict, op in zip(cases, records, ops):
            if verdict is None:  # the op raised; the runner reports it
                continue
            if kind != "refutation":
                g, gi = extra
                # g^-1 M g strictly upper for each spanning M: every element is nilpotent
                for gr in grids:
                    t = conjugate(gi, g, gr)
                    if any(t[i][j] for i in range(n) for j in range(i + 1)):
                        errors.append(f"{op.label}: input is not conjugated strictly upper")
                if verdict is not True:
                    errors.append(f"{op.label}: nil subspace reported {verdict}")
            else:
                witness = ex.gi(extra)
                spanning = [ex.gi_vec(ex.gi(gr)) for gr in grids]
                if ex.rank(spanning + [ex.gi_vec(witness)]) != ex.rank(spanning):
                    errors.append(f"{op.label}: refutation witness is not in the span")
                if ex.gi_is_nilpotent(witness):
                    errors.append(f"{op.label}: refutation witness is nilpotent")
                if verdict is not False:
                    errors.append(f"{op.label}: span holding a non-nilpotent element reported {verdict}")
        return errors

    return Workload("nil-decide", ops, check)


# -- cli-documents -------------------------------------------------------------------

# generated documents per kind
CLI_KINDS = {"subgraded": 12, "solvable-lie": 18, "nil-triple": 9, "nil-jordan": 9}
COMMANDS = ("analyze", "triangularize", "irreducible")

FAULT_DOCS = {
    # not bracket-closed: [E12, E21] = diag(1, -1) lies in no component
    "fault-not-closed": {
        "ambient_dim": 2, "structure": "subgraded", "group": {"moduli": [3]},
        "components": {"1": [[["0", "1"], ["0", "0"]]], "2": [[["0", "0"], ["1", "0"]]]},
    },
    # [h, e] = 2e has degree 1 + 1 = 2 but lies in component 1
    "fault-grading": {
        "ambient_dim": 2, "structure": "subgraded", "group": {"moduli": [3]},
        "components": {"1": [[["1", "0"], ["0", "-1"]], [["0", "1"], ["0", "0"]]]},
    },
}
FAULT_ERRORS = {
    ("fault-not-closed", "analyze"): "NotClosedError",
    ("fault-not-closed", "grade-check"): "NotClosedError",
    ("fault-not-closed", "triangularize"): "NotClosedError",
    ("fault-not-closed", "irreducible"): "NotClosedError",
    ("fault-grading", "triangularize"): "GradingError",
    ("fault-grading", "irreducible"): "GradingError",
}


def call_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _doc_matrices(doc: dict):
    """The document's matrices as Gaussian-integer matrices (each scaled)."""
    mats = doc.get("generators") or [m for ms in doc["components"].values() for m in ms]
    return [ex.gi_from_fractions([[ex.parse_literal(x) for x in row] for row in m]) for m in mats]


def _gen_doc(kind: str, slot: int, rng: random.Random) -> dict:
    """Document number ``slot`` of a kind; sizes cycle through a fixed plan."""
    if kind == "subgraded":
        n = (2, 3, 4)[slot % 3]
        moduli = GRADED_GROUPS[slot % len(GRADED_GROUPS)]
        inst = _pick_graded(n, moduli, (2, 3)[slot % 2], rng)
        return json.loads(documents.dumps_document(documents.document_from(inst)))
    if kind == "solvable-lie":
        n = (3, 3, 4)[slot % 3]
        # n - 1 generators, drawn until the closure is the whole conjugated
        # upper-triangular algebra, so documents of one size cost alike
        best, best_dim = None, -1
        for _ in range(50):
            g, gi = unimodular(n, rng)
            gens = [conjugate(g, gi, random_upper(n, rng, False)) for _ in range(n - 1)]
            dim = len(ex.lie_closure([ex.gi(m) for m in gens]))
            if dim > best_dim:
                best, best_dim = gens, dim
            if dim == n * (n + 1) // 2:
                break
        gens = best
        return {
            "ambient_dim": n, "structure": "lie",
            "generators": [[[str(v) for v in row] for row in m] for m in gens],
        }
    n = (3, 4)[slot % 2]
    make = generators.gen_nilpotent_triple if kind == "nil-triple" else generators.gen_nilpotent_jordan
    obj = make(n, rng.randrange(10**9))
    tag = "triple" if kind == "nil-triple" else "jordan"
    return json.loads(documents.dumps_document(documents.document_from(obj, tag)))


def _outside_qi(doc: dict) -> bool:
    """Whether a matrix of the document, or their sum, has an eigenvalue outside Q(i)."""
    mats = _doc_matrices(doc)
    total = mats[0]
    for m in mats[1:]:
        total = (total[0] + m[0], total[1] + m[1])
    return not ex.splits_over_qi(mats + [total])


def build_cli_documents(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(f"cli-documents/{seed}")
    corpus = out_dir / f"corpus-{seed}"
    corpus.mkdir(parents=True, exist_ok=True)
    docs = []  # (name, kind, document)
    for name in examples.EXAMPLE_NAMES:
        doc = json.loads(documents.dumps_document(examples.build_example(name)))
        docs.append((name, "example", doc))
    for name, doc in FAULT_DOCS.items():
        docs.append((name, "fault", doc))
    # gradelie refuses data outside Q(i) by design; such subgraded candidates are
    # dropped, decided here without gradelie.  The other kinds have integer
    # eigenvalues by construction and are never dropped.
    screened = 0
    for kind, count in CLI_KINDS.items():
        for slot in range(count):
            doc = _gen_doc(kind, slot, rng)
            while kind == "subgraded" and _outside_qi(doc):
                screened += 1
                doc = _gen_doc(kind, slot, rng)
            docs.append((f"{kind}-{slot}", kind, doc))
    entries = []
    for name, kind, doc in docs:
        path = corpus / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        mats = _doc_matrices(doc)
        n = doc["ambient_dim"]
        if kind in ("solvable-lie", "nil-triple", "nil-jordan"):
            solvable = True  # by construction: conjugated (strictly) upper triangular
        elif kind == "fault":
            solvable = None
        else:
            spanning = mats if doc["structure"] == "subgraded" else ex.lie_closure(mats)
            solvable = ex.is_solvable_cartan(spanning)
        entries.append({"name": name, "kind": kind, "doc": doc, "path": path, "mats": mats, "n": n,
                        "solvable": solvable})
    ops, op_entries = [], []
    for e in entries:
        cmds = list(COMMANDS)
        if e["doc"]["structure"] == "subgraded":
            cmds.insert(1, "grade-check")
        for cmd in cmds:
            argv = [cmd, "--input", str(e["path"]), "--report", "json"]
            ops.append(Op(f"{e['name']}:{cmd}", lambda argv=argv: call_cli(argv), tuple,
                          FAULT_ERRORS.get((e["name"], cmd))))
            op_entries.append(e)

    def check(records) -> list[str]:
        errors: list[str] = []
        for e, op, rec in zip(op_entries, ops, records):
            if rec is None:  # the op raised; the runner reports it
                continue
            cmd = op.label.rsplit(":", 1)[1]
            errors.extend(f"{op.label}: {msg}" for msg in _check_cli(e, cmd, *rec))
        return errors

    return Workload("cli-documents", ops, check, {"screened_out": screened, "documents": len(entries)})


def _check_cli(e, cmd: str, code: int, out: str, err: str) -> list[str]:
    if code == 2 or err:
        return [f"exit {code}, stderr {err.strip()!r}"]
    report = json.loads(out)
    n = e["n"]
    if "error" in report:
        return [f"no certificate: {report['error']}"]
    if e["kind"] == "fault":
        # a grading violation must be reported, with exit 1
        return [] if code == 1 and report.get("grading_valid") is False else [f"fault document gave exit {code}"]
    errors = []
    if cmd == "grade-check":
        if code != 0 or report.get("grading_valid") is not True:
            errors.append(f"grade-check exit {code}")
        return errors
    if cmd == "triangularize":
        want = 0 if e["solvable"] else 1
        if code != want:
            return [f"triangularize exit {code}, expected {want}"]
        if code == 0:
            errors.extend(_check_flag(e["mats"], report, n))
        return errors
    if code != 0:
        return [f"{cmd} exit {code}"]
    if "assoc_closure_dim" in report:
        claimed = report["assoc_closure_dim"]
        if report["irreducible"] != (claimed == n * n):
            errors.append(f"irreducible={report['irreducible']} with closure dim {claimed}")
        mats = e["mats"]
        if claimed != ex.assoc_closure_dim(mats):
            errors.append(f"associative closure dim {claimed} is wrong")
    if cmd == "irreducible" and not report["irreducible"]:
        errors.extend(_check_witness(e["mats"], report, n))
    if cmd == "analyze":
        if e["kind"] == "solvable-lie" and report.get("solvable") is not True:
            errors.append("solvable-by-construction document not reported solvable")
        if e["kind"] in ("nil-triple", "nil-jordan") and report.get("all_nilpotent") is not True:
            errors.append("nilpotent-by-construction document not reported all_nilpotent")
        key = "envelope_solvable" if "envelope_solvable" in report else "solvable"
        if e["solvable"] is not None and report.get(key) != e["solvable"]:
            errors.append(f"{key}={report.get(key)}, Cartan's criterion says {e['solvable']}")
    return errors


def _check_flag(mats, report, n: int) -> list[str]:
    if report.get("verified") is not True or report.get("chain_dims") != list(range(1, n)):
        return ["flag not verified or chain dims wrong"]
    p = ex.gi_from_fractions([[ex.parse_literal(x) for x in row] for row in report["basis_change"]])
    if not ex.is_flag(mats, p):
        return ["basis change is singular or P^-1 A P is not upper triangular"]
    return []


def _check_witness(mats, report, n: int) -> list[str]:
    basis = [
        ex.gi_from_fractions([[ex.parse_literal(x)] for x in vec]) for vec in report.get("invariant_subspace_basis", [])
    ]
    dim = len(basis)
    vecs = [ex.gi_vec(v) for v in basis]
    if not 0 < dim < n or ex.rank(vecs) != dim:
        return [f"witness of dimension {dim} is not a proper subspace"]
    for m in mats:
        for v in basis:
            if ex.rank(vecs + [ex.gi_vec(ex.gi_mul(m, v))]) != dim:
                return ["witness is not invariant"]
    return []


WORKLOADS = {
    "lie-closure": build_lie_closure,
    "graded-ampliation": build_graded_ampliation,
    "nil-decide": build_nil_decide,
    "cli-documents": build_cli_documents,
}
