"""Self-test of the benchmark's output checkers.

Builds every workload at one seed, runs its ops once, and asserts that the
checker accepts the true outputs and rejects each deliberately corrupted one.
Run from the repository root:

    python3 perfbench/check_selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import PassRunner  # noqa: E402

SEED = 5


def outputs(workload) -> list:
    runner = PassRunner(workload)
    _, records = runner.run_pass()
    if runner.errors:
        raise RuntimeError(f"{workload.name}: {runner.errors[:3]}")
    return records


def replace(tup, idx, value):
    return tup[:idx] + (value,) + tup[idx + 1 :]


def bump_plain(m):
    """A plain matrix (rows, cols, re, im, den) with its first numerator changed."""
    return replace(m, 2, (m[2][0] + 1,) + m[2][1:])


def first(records, labels, pred):
    for k, (rec, label) in enumerate(zip(records, labels)):
        if rec is not None and pred(label, rec):
            return k
    raise LookupError("no record matches")


def lie_cases(records, labels):
    k = first(records, labels, lambda lab, r: r[0] > 2)
    dim, basis, ds, lc, cartan = records[k]
    re_rows = basis[0]
    bad_basis = (((re_rows[0][0] + 1,) + re_rows[0][1:],) + re_rows[1:], basis[1], basis[2])
    t = first(records, labels, lambda lab, r: "triangular" in lab and len(r[2]) > 2 and r[2][1][0])
    tds = records[t][2]
    short = (tds[1][0][1:], tds[1][1][1:], tds[1][2])
    return {
        "closure dimension": (k, replace(records[k], 0, dim + 1)),
        "closure basis": (k, replace(records[k], 1, bad_basis)),
        "cartan verdict": (k, replace(records[k], 4, not cartan)),
        "derived series term": (t, replace(records[t], 2, (tds[0], short) + tds[2:])),
    }


def graded_cases(records, labels):
    k = first(records, labels, lambda lab, r: len(r[4]) > 1 and r[5])
    rec = records[k]
    pairs, images = rec[4], rec[5]
    bad_pair = (pairs[0][0], bump_plain(pairs[0][1]), pairs[0][2])
    bad_image = images[-1][:2] + (bump_plain(images[-1][2]),)
    maptri = rec[6]
    return {
        "ampliated dimension": (k, replace(rec, 3, rec[3] + 1)),
        "kronecker element": (k, replace(rec, 4, (bad_pair,) + pairs[1:])),
        "f_pi bracket": (k, replace(rec, 5, images[:-1] + (bad_image,))),
        "transfer report": (k, replace(rec, 6, replace(maptri, 2, not maptri[2]))),
    }


def nil_cases(records, labels):
    p = first(records, labels, lambda lab, r: "proof" in lab)
    q = first(records, labels, lambda lab, r: "refutation" in lab)
    return {"proof verdict": (p, False), "refutation verdict": (q, True)}


def cli_cases(records, labels):
    def edit(k, fn):
        code, out, err = records[k]
        report = json.loads(out)
        fn(report)
        return k, (code, json.dumps(report), err)

    tri = first(records, labels, lambda lab, r: lab.endswith("triangularize") and r[0] == 0
                and len(json.loads(r[1])["basis_change"]) > 2)
    irr = first(records, labels, lambda lab, r: lab.endswith("irreducible") and not json.loads(r[1])["irreducible"])
    ana = first(records, labels, lambda lab, r: lab.startswith("solvable-lie") and lab.endswith("analyze"))

    def bad_flag(rep):
        rep["basis_change"][1], rep["basis_change"][2] = rep["basis_change"][2], rep["basis_change"][1]

    def bad_witness(rep):
        vec = rep["invariant_subspace_basis"][0]
        vec[-1] = "7" if vec[-1] != "7" else "5"

    refusal = {"triangularizable": True, "certificate": None, "error": "no common eigenvector"}
    return {
        "exit code": (tri, (1,) + records[tri][1:]),
        "refused certificate": (tri, (1, json.dumps(refusal), "")),
        "flag certificate": edit(tri, bad_flag),
        "irreducible verdict": edit(irr, lambda rep: rep.update(irreducible=True)),
        "associative closure dimension": edit(irr, lambda rep: rep.update(assoc_closure_dim=rep["assoc_closure_dim"] - 1)),
        "invariant witness": edit(irr, bad_witness),
        "solvable report": edit(ana, lambda rep: rep.update(solvable=False)),
    }


CASES = {
    "lie-closure": lie_cases,
    "graded-ampliation": graded_cases,
    "nil-decide": nil_cases,
    "cli-documents": cli_cases,
}


def main() -> int:
    out_dir = HERE / "out"
    failures = 0
    for name, build in workloads.WORKLOADS.items():
        workload = build(SEED, out_dir)
        records = outputs(workload)
        labels = [op.label for op in workload.ops]
        clean = workload.check(records)
        if clean:
            print(f"FAIL {name}: true outputs rejected: {clean[:3]}")
            failures += 1
        for what, (k, corrupted) in CASES[name](records, labels).items():
            bad = list(records)
            bad[k] = corrupted
            errors = workload.check(bad)
            status = "ok  " if errors else "FAIL"
            failures += not errors
            print(f"{status} {name}: corrupted {what} ({labels[k]}) -> {errors[0] if errors else 'accepted'}")
    print("checker self-test", "passed" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
