import hashlib
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {
    "ops_per_s": {"better": "higher", "bound": 0.25},
    "op_p50_ms": {"better": "lower", "bound": 0.25},
    "op_tail_ms": {"better": "lower", "bound": 0.25},
    "setup_s": {"better": "lower", "bound": 0.25},
    "peak_rss_mb": {"better": "lower", "bound": 0.1},
}

# per metric, the ten base runs and the ten change runs, pair by pair
VALUES = {
    # tight base, every pair won by far more than the base's IQR
    "ops_per_s": ([100 + p for p in range(10)], [130 + p for p in range(10)]),
    # the change's median is 40% above the base's, past the 25% bound
    "op_p50_ms": ([10.0] * 10, [14.0] * 10),
    # the base spreads wider than its bound, and every change run beats every
    # base run, but by less than the base's IQR
    "op_tail_ms": ([10.0, 20.0] * 5, [9.5] * 10),
    # the base spreads wider than its bound, and the sides overlap
    "setup_s": ([1.0, 2.0] * 5, [2.0, 1.0] * 5),
    # 1.25% worse, inside the 10% bound, on a base with no spread
    "peak_rss_mb": ([40.0] * 10, [40.5] * 10),
}


def record():
    runs = []
    for side, k in (("base", 0), ("change", 1)):
        for pair in range(10):
            metrics = {name: {"value": VALUES[name][k][pair]} for name in METRICS}
            runs.append({"pair": pair, "side": side, "result": {"failed": 0, "correct": True, "metrics": metrics}})
    return runs


def test_verdicts_on_a_hand_made_record():
    summary = bench_pairs.summarize(record(), METRICS)
    verdicts = summary["verdicts"]
    assert {name: v["verdict"] for name, v in verdicts.items()} == {
        "ops_per_s": "better",
        "op_p50_ms": "worse",
        "op_tail_ms": "no worse",
        "setup_s": "unresolved",
        "peak_rss_mb": "no worse",
    }
    assert summary["change_wins_pairs"] == {
        "ops_per_s": 10, "op_p50_ms": 0, "op_tail_ms": 10, "setup_s": 5, "peak_rss_mb": 0,
    }
    assert verdicts["op_p50_ms"]["median_change"] == 0.4
    assert verdicts["peak_rss_mb"]["median_change"] == 0.0125
    assert verdicts["op_tail_ms"]["base_spread"] == 10 / 15
    assert verdicts["op_p50_ms"]["base_spread"] == 0.0


def test_src_lines_counts_the_package_modules(tmp_path):
    package = tmp_path / "src" / "gradelie"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "c.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 4


def _traced(counts):
    """The last JSON line of a traced run with these counts, plus one timing and one ratio."""
    metrics = {name: {"value": value, "unit": "count"} for name, value in counts.items()}
    metrics["matrices.matmul.self_ms"] = {"value": 1.5, "unit": "ms"}
    metrics["trace.slowdown"] = {"value": 1.2, "unit": "ratio"}
    return {"correct": True, "failed": 0, "metrics": metrics}


def test_compare_counts_keeps_counts_and_names_each_difference():
    same = {"subspaces.echelon_insert.calls": 11022, "subspaces.echelon_insert.accepted": 1088}
    base = {"matrices.matmul.calls": 13319, "matrices.kron.calls": 4, **same}
    change = {"matrices.matmul.calls": 2297, "grading.ampliate.calls": 2, **same}
    counts = bench_pairs.compare_counts(_traced(base), _traced(change))
    assert counts["base"] == base
    assert counts["change"] == change
    assert counts["count_differences"] == [
        "grading.ampliate.calls", "matrices.kron.calls", "matrices.matmul.calls",
    ]
    assert bench_pairs.compare_counts(_traced(base), _traced(base))["count_differences"] == []


TOY_WORKLOADS = '''
from types import SimpleNamespace

def build(seed, out_dir):
    (out_dir / "corpus").write_text(str(seed))

    def fault():
        raise KeyError("fault")

    ops = [SimpleNamespace(run=lambda: seed, record=lambda out: (out, RECORD)),
           SimpleNamespace(run=fault, record=None)]
    return SimpleNamespace(ops=ops)

WORKLOADS = {"toy": build}
'''


def _toy_checkout(root, record):
    """A checkout whose one workload records (seed, record) and then raises."""
    (root / "src").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(f"RECORD = {record!r}\n" + TOY_WORKLOADS)
    return root


def test_op_record_digests_compare_one_pass_of_each_side(tmp_path):
    base = _toy_checkout(tmp_path / "base", "a")
    same = _toy_checkout(tmp_path / "same", "a")
    other = _toy_checkout(tmp_path / "other", "b")
    digest = bench_pairs.op_records(base, "toy", 7)
    want = hashlib.sha256(repr([(7, "a"), "KeyError"]).encode()).hexdigest()
    assert digest[0] == want
    # the corpus goes to a temporary directory, not into the checkout
    assert not any(p.name == "corpus" for p in base.rglob("*"))
    identical = bench_pairs.compare_records(digest, bench_pairs.op_records(same, "toy", 7))
    assert {k: identical[k] for k in ("base", "change", "records_identical")} == {
        "base": want, "change": want, "records_identical": True,
    }
    moved = bench_pairs.compare_records(digest, bench_pairs.op_records(other, "toy", 7))
    assert moved["records_identical"] is False and moved["change"] != want
    assert bench_pairs.op_records(base, "toy", 8)[0] != want


TIMED_WORKLOADS = '''
import time
from types import SimpleNamespace

def build(seed, out_dir):
    def op(first_s, then_s):
        calls = []

        def run():
            calls.append(1)
            time.sleep(first_s if len(calls) == 1 else then_s)
            return len(calls)

        return SimpleNamespace(run=run, record=lambda out: out)

    # each op is slow on its first pass only
    return SimpleNamespace(ops=[op(0.4, 0.01), op(0.4, 0.02)])

WORKLOADS = {"timed": build}
'''


def test_op_records_sum_each_ops_least_time_over_the_passes(tmp_path):
    root = tmp_path / "timed"
    (root / "src").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(TIMED_WORKLOADS)
    digest, least_ms = bench_pairs.op_records(root, "timed", 1)
    # the records are the first pass's: each op's first call
    assert digest == hashlib.sha256(repr([1, 1]).encode()).hexdigest()
    assert bench_pairs.RECORD_PASSES >= 2
    # 10 ms + 20 ms at least, and far below a first pass that counted
    assert 30 <= least_ms < 400
    record = bench_pairs.compare_records((digest, least_ms), (digest, 12.5))
    assert record["least_op_ms_sum"] == {"base": least_ms, "change": 12.5}
