"""Alternated before/after runs of perfbench, written to one BENCH_*.json record.

Each of ten pairs runs ``perfbench/run.py`` once on a base revision and once
on the working tree, for every named workload; the side that goes first
alternates from pair to pair, so a drift in machine load falls on both sides
alike.  Every run lasts the ``run_seconds`` that ``BENCHMARK.json`` fixes.
The base revision is exported with ``git archive`` into a temporary
directory, so the repository itself is left untouched.  The record names both
revisions (the change side as ``HEAD`` plus whether the working tree had
uncommitted edits) and holds the seed, the run length, the pair count, the
last JSON line of every run, the line count of ``src/gradelie/*.py`` on each
side, and per side and metric the median and quartiles, plus how many pairs
the change won.  Each metric also gets the base's spread, the signed median
change and a verdict against its ``BENCHMARK.json`` bound (see ``summarize``).
After the timed pairs, one ``--trace 1`` run per side and workload gives the
per-layer counts; the record keeps each side's ``count``-unit metrics and
the names whose values differ (see ``compare_counts``).  Last, a subprocess
per side that writes its corpus to a temporary directory runs
``RECORD_PASSES`` passes of each workload's ops.  It gives the sha256 of the
first pass's op records, whether the two sides' records are identical, and
the sum over ops of each op's minimum time across the passes (see
``op_records``): unlike a median over a timed run, that sum moves little with
the load of a shared machine.

    python3 tools/bench_pairs.py --base HEAD~1 --workload lie-closure \\
        --seed 4242 --out BENCH_lie_series.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
# traced counts are per pass, so a short traced run gives the same counts
TRACE_SECONDS = 1
# passes of the ops in the op-record subprocess; the first one's records are hashed
RECORD_PASSES = 5
# run in a checkout: RECORD_PASSES passes of a workload's ops; print the
# sha256 of the repr of the first pass's records, an op that raises recorded
# by its exception's class name, and the sum over ops of each op's least
# run time in milliseconds
RECORDS_SCRIPT = """
import gc, hashlib, sys, time
from pathlib import Path
sys.path[:0] = [str(Path("src").resolve()), str(Path("perfbench").resolve())]
import workloads
workload, seed, out_dir, passes = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4])
ops = workloads.WORKLOADS[workload](seed, out_dir).ops
records, least = [], [float("inf")] * len(ops)
for p in range(passes):
    gc.collect()
    for k, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out, fault = op.run(), None
        except Exception as exc:
            fault = type(exc).__name__
        least[k] = min(least[k], time.perf_counter() - t0)
        if p == 0:
            records.append(fault or op.record(out))
print(hashlib.sha256(repr(records).encode()).hexdigest(), 1000 * sum(least))
"""


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The last JSON line of one perfbench run in the given checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_records(checkout: Path, workload: str, seed: int) -> tuple[str, float]:
    """The sha256 of the first pass's op records of a workload in the given
    checkout, and the sum over its ops of each op's least time in ms across
    ``RECORD_PASSES`` passes; the workload is built from the checkout's
    ``perfbench/workloads.py`` with a temporary out dir."""
    with tempfile.TemporaryDirectory() as out_dir:
        proc = subprocess.run(
            [sys.executable, "-c", RECORDS_SCRIPT, workload, str(seed), out_dir, str(RECORD_PASSES)],
            cwd=checkout, capture_output=True, text=True, check=True,
        )
    digest, least_ms = proc.stdout.strip().splitlines()[-1].split()
    return digest, float(least_ms)


def compare_records(base: tuple[str, float], change: tuple[str, float]) -> dict:
    """Each side's op-record digest, whether the two are identical, and each
    side's sum of per-op least times (``op_records``)."""
    return {
        "base": base[0], "change": change[0], "records_identical": base[0] == change[0],
        "least_op_ms_sum": {"base": base[1], "change": change[1]},
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def export(rev: str, into: Path) -> str:
    """Write the files of ``rev`` into a directory; return its full hash."""
    sha = git("rev-parse", rev)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return sha


def src_lines(checkout: Path) -> int:
    """The number of lines in ``src/gradelie/*.py`` of a checkout, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "gradelie").glob("*.py"))


def compare_counts(base: dict, change: dict) -> dict:
    """Each side's ``count``-unit metrics from the last JSON line of a traced
    run, and ``count_differences``: the names whose values differ, a name
    that one side lacks included."""
    counts = {
        side: {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}
        for side, result in (("base", base), ("change", change))
    }
    names = counts["base"].keys() | counts["change"].keys()
    counts["count_differences"] = sorted(
        name for name in names if counts["base"].get(name) != counts["change"].get(name)
    )
    return counts


def summarize(runs: list[dict], metrics: dict) -> dict:
    """Per side and metric the median and quartiles, the pairs the change
    won, and per metric a verdict against the ``BENCHMARK.json`` bound.

    ``metrics`` maps each end-to-end metric to its ``better`` direction and
    ``bound``.  The verdict is the first that holds of: ``worse``, the
    change's median is worse than the base's by more than the bound;
    ``better``, the change wins nine tenths of the pairs and the medians
    differ by more than the base's interquartile range; ``unresolved``, the
    base's spread (q3 - q1) / median exceeds the bound and not every change
    run beats every base run; ``no worse``.
    """
    out = {}
    for side in ("base", "change"):
        results = [r["result"] for r in runs if r["side"] == side]
        out[side] = {"failed": sum(r["failed"] for r in results),
                     "correct": all(r["correct"] for r in results)}
        for name in metrics:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            out[side][name] = {"median": median, "q1": q1, "q3": q3}
    wins = {}
    verdicts = {}
    pairs = sorted({r["pair"] for r in runs})
    for name, spec in metrics.items():
        sign = 1 if spec["better"] == "higher" else -1
        # goodness: larger is better on either side
        good = {(r["pair"], r["side"]): sign * r["result"]["metrics"][name]["value"] for r in runs}
        wins[name] = sum(good[p, "change"] > good[p, "base"] for p in pairs)
        base, change = out["base"][name], out["change"][name]
        iqr = base["q3"] - base["q1"]
        spread = iqr / base["median"]
        median_change = (change["median"] - base["median"]) / base["median"]
        if -sign * median_change > spec["bound"]:
            verdict = "worse"
        elif 10 * wins[name] >= 9 * len(pairs) and sign * (change["median"] - base["median"]) > iqr:
            verdict = "better"
        elif spread > spec["bound"] and min(good[p, "change"] for p in pairs) <= max(good[p, "base"] for p in pairs):
            verdict = "unresolved"
        else:
            verdict = "no worse"
        verdicts[name] = {"base_spread": spread, "median_change": median_change, "verdict": verdict}
    out["change_wins_pairs"] = wins
    out["verdicts"] = verdicts
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"seed": args.seed, "seconds": seconds, "pairs": PAIRS, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp)
        record["base"] = export(args.base, base_dir)
        record["change"] = git("rev-parse", "HEAD")
        record["change_uncommitted_edits"] = bool(git("status", "--porcelain", "--untracked-files=no"))
        record["src_lines"] = {"base": src_lines(base_dir), "change": src_lines(ROOT)}
        sides = [("base", base_dir), ("change", ROOT)]
        for workload in args.workload:
            runs = []
            for pair in range(PAIRS):
                for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                    result = run_once(checkout, workload, args.seed, seconds)
                    runs.append({"pair": pair, "side": side, "result": result})
                    print(workload, pair, side, result["metrics"]["ops_per_s"]["value"], file=sys.stderr)
            traced = {side: run_once(checkout, workload, args.seed, TRACE_SECONDS, trace=1)
                      for side, checkout in sides}
            record["workloads"][workload] = {
                "runs": runs,
                "summary": summarize(runs, metrics),
                "traced_counts": compare_counts(traced["base"], traced["change"]),
                "op_records": compare_records(*(op_records(checkout, workload, args.seed)
                                                for _, checkout in sides)),
            }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
