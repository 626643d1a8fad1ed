"""Benchmark for gradelie: seeded workloads, per-op medians over passes, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload lie-closure --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload nil-decide --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --workload cli-documents --seed 1 --seconds 12 --spread 5

One process, one thread.  A workload is a fixed list of ops built from the seed.
Set-up (input generation, corpus writing, the independent reference
computations) runs several times and the median counts; a warm-up pass follows,
whose outputs are checked by ``workloads``/``exact`` without gradelie.  Timed
passes then repeat the same op list, in the same order, until ``--seconds`` have
passed (at least three passes), each output compared with the checked one.  An
op's time is the median of its times over the timed passes.

The last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  ``--spread N`` runs the command N times with seeds
seed..seed+N-1 and prints each metric's median and quartiles.
"""

import os

# one thread everywhere, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("lie-closure", "graded-ampliation", "nil-decide", "cli-documents")


class SetupError(Exception):
    """The checkout has no gradelie sources to measure."""


def import_workloads():
    """Import gradelie from this checkout's src/ (never an installed copy)."""
    if not (SRC / "gradelie" / "__init__.py").is_file():
        raise SetupError(f"no gradelie sources at {SRC / 'gradelie'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import gradelie

    if Path(gradelie.__file__).resolve().parent != (SRC / "gradelie").resolve():
        raise SetupError(f"gradelie was imported from {gradelie.__file__}, not {SRC}")
    import workloads

    return workloads


class PassRunner:
    """Runs whole passes of a workload's op list and keeps per-op times."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None  # records of the checked warm-up pass
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None) -> tuple[list[float], list]:
        gc.collect()
        clock = time.perf_counter
        times, records = [], []
        for idx, op in enumerate(self.workload.ops):
            if tracer is not None:
                tracer.op = idx
            fault = None
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is counted as failed
                fault = type(exc).__name__
            elapsed = clock() - t0
            if fault is None:
                times.append(elapsed)
                records.append(op.record(out))
                continue
            times.append(None)
            records.append(None)
            if fault != op.known_fault:
                self.errors.append(f"{op.label}: unexpected {fault}")
        return times, records

    def timed_pass(self, tracer=None) -> list[float]:
        times, records = self.run_pass(tracer)
        self.attempted += len(times)
        self.failed += sum(t is None for t in times)
        for op, rec, ref in zip(self.workload.ops, records, self.reference):
            if rec != ref:
                self.errors.append(f"{op.label}: output differs from the checked pass")
        return times


def op_medians(passes: list[list[float]]) -> list[float]:
    """Per-op median over passes, for the ops that did not fail."""
    return [statistics.median(col) for col in zip(*passes) if None not in col]


def summarize(medians: list[float]) -> dict:
    ordered = sorted(medians)
    n_ops = len(ordered)
    if not n_ops:  # every op failed; the run is reported as incorrect
        return {"ops": 0, "ops_per_s": 0.0, "op_p50_ms": 0.0, "op_tail_ms": 0.0, "tail_pct": 0.0}
    tail_idx = max(0, n_ops - TAIL_BEYOND - 1)
    return {
        "ops": n_ops,
        "ops_per_s": n_ops / sum(ordered),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": ordered[tail_idx] * 1e3,
        "tail_pct": 100.0 * (tail_idx + 1) / n_ops,
    }


def run_until(runner: PassRunner, deadline: float, min_passes: int):
    passes = []
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(runner.timed_pass())
    return passes


def measure(args) -> dict:
    workloads = import_workloads()
    import_s = time.perf_counter() - _T_START
    build = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)

    setup_times, labels = [], None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        workload = build(args.seed, OUT)
        setup_times.append(time.perf_counter() - t0)
        got = [op.label for op in workload.ops]
        if labels is not None and got != labels:
            raise RuntimeError("set-up is not deterministic for this seed")
        labels = got

    runner = PassRunner(workload)
    t0 = time.perf_counter()
    _, runner.reference = runner.run_pass()
    warm_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(setup_times) + warm_s
    t0 = time.perf_counter()
    runner.errors.extend(workload.check(runner.reference))
    check_s = time.perf_counter() - t0

    start = time.perf_counter()
    if not args.trace:
        passes = run_until(runner, start + args.seconds, MIN_PASSES)
        stats = summarize(op_medians(passes))
        metrics = {
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "op_p50_ms": (stats["op_p50_ms"], "ms"),
            "op_tail_ms": (stats["op_tail_ms"], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        pass_s = " ".join(f"{sum(t for t in p if t is not None):.3f}" for p in passes)
        info = {"passes": len(passes), **stats, "pass_s": pass_s, "import_s": import_s,
                "warmup_s": warm_s, "check_s": check_s, **workload.notes}
    else:
        metrics, info = traced(args, runner, start)
    return {"runner": runner, "metrics": metrics, "info": info}


def traced(args, runner: PassRunner, start: float):
    """Untraced and traced passes in alternation, so machine drift hits both alike.

    Spans are recorded in the first traced pass; totals in every traced pass.
    """
    from tracing import REPORTED, Tracer

    tracer = Tracer()
    tracer.recording = True
    plain, traced_passes, per_pass = [], [], []
    while len(traced_passes) < MIN_TRACE_PASSES or time.perf_counter() < start + args.seconds:
        plain.append(runner.timed_pass())
        tracer.install()
        try:
            traced_passes.append(runner.timed_pass(tracer))
        finally:
            tracer.uninstall()
        per_pass.append(tracer.snapshot())
        tracer.reset_totals()
        tracer.recording = False
    counts = [{k: (v["calls"], v["accepted"], v["bigint_calls"]) for k, v in p.items()} for p in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        runner.errors.append("per-layer counts differ between traced passes")
    traced_rate = summarize(op_medians(traced_passes))["ops_per_s"]
    slowdown = summarize(op_medians(plain))["ops_per_s"] / traced_rate if traced_rate else 0.0
    metrics = {}
    for layer, field in REPORTED:
        first = per_pass[0][layer]
        if field == "self_ms":
            value = statistics.median(p[layer]["self_s"] for p in per_pass) * 1e3
            metrics[f"{layer}.{field}"] = (value, "ms")
        else:
            metrics[f"{layer}.{field}"] = (first[field], "count")
    metrics["trace.slowdown"] = (slowdown, "ratio")
    tag = f"{args.workload}-{args.seed}"
    n_spans = tracer.write_spans(OUT / f"spans-{tag}.tsv.gz")
    with open(OUT / f"layers-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"per_pass": per_pass, "slowdown": slowdown}, fh, indent=1)
    info = {"untraced_passes": len(plain), "traced_passes": len(traced_passes), "spans_written": n_spans}
    return metrics, info


def spread(args) -> int:
    """Run the command N times on consecutive seeds; print medians and quartiles."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = set()
    for k in range(args.spread):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed + k), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"], result["correct"]))
        line = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
        print(f"seed {args.seed + k}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {line}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        iqr = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": iqr, "unit": units[name]}
        print(f"{name:40s} median {med:12.4f} {units[name]:6s} q1 {q1:12.4f} q3 {q3:12.4f} "
              f"iqr/median {iqr:.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.spread, "outcomes": sorted(shares),
                      "spread": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, help="run N seeds and print quartiles")
    args = parser.parse_args(argv)
    if args.spread:
        return spread(args)
    try:
        result = measure(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    runner = result["runner"]
    for msg in runner.errors[:20]:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: " + ", ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in result["info"].items()
        if not isinstance(v, list)))
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
