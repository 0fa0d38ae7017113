"""LES³ benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload local-mixed --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload is generated from ``--seed``;
every op is checked against a brute-force oracle. Human-readable lines
(environment, every metric by name and unit, the first mismatch of each
engine/measure/op) come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` wraps each layer's public functions, reports the per-layer
metrics and writes the spans to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("local-mixed", "spark-batch")

# Reported on every workload; the gated set in BENCHMARK.json. Query
# speed is gated as a ratio to the benchmark's brute-force oracle timed on
# the same queries in the same moment: on a shared host absolute times
# drift by a quarter or more between runs of the same code, the ratios do
# not. The absolute times are printed beside them.
END_TO_END = {
    "setup_s": "s",
    "knn_p50_vs_brute": "ratio",
    "range_p50_vs_brute": "ratio",
    "throughput_vs_brute": "ratio",
    "peak_rss_mb": "MB",
    "index_mb": "MB",
}

PER_LAYER = {
    "ptr.busy_s": "s",
    "l2p.busy_s": "s",
    "l2p.self_s": "s",
    "similarity.pair_calls": "count",
    "similarity.pair_busy_s": "s",
    "siamese.train_busy_s": "s",
    "siamese.models": "count",
    "tgm.build_busy_s": "s",
    "packed.verify_busy_s": "s",
    "packed.verify_calls": "count",
    "packed.verify_sets": "count",
    "search.knn_self_s": "s",
    "search.range_self_s": "s",
    "tgm.ub_busy_s": "s",
    "tgm.ub_calls": "count",
    "tgm.index_elems_per_query": "count",
    **{
        f"search.{name}.{op}": unit
        for op in ("knn", "range")
        for name, unit in (
            ("candidates_per_query", "count"),
            ("groups_per_query", "count"),
            ("results_per_query", "count"),
            ("useful_ratio", "ratio"),
            ("pe_mean", "ratio"),
        )
    },
    "packed.build_busy_s": "s",
    "packed.build_calls": "count",
    "packed.build_sets": "count",
    "tgm.insert_busy_s": "s",
    "tgm.insert_calls": "count",
    "spark.plan_busy_s": "s",
    "spark.collect_busy_s": "s",
    "spark.createdf_busy_s": "s",
    "spark.jobs_per_batch": "count",
    "spark.stages_per_batch": "count",
    "spark.tasks_per_batch": "count",
    "spark.rows_returned_per_batch": "count",
    "spark.candidates_predicted_per_query": "count",
    "trace.overhead_pct": "%",
}


def _prepare_env() -> None:
    """Keep every file the run writes inside the checkout, and make the
    program importable from source."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    for p in (ROOT / "jobs", ROOT / "src", ROOT):
        sys.path.insert(0, str(p))


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _start_spark():
    from _common import get_spark  # the session factory of the jobs/ entry points

    return get_spark()


def _stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def _trace_build_layers(tr) -> None:
    from repro.core import l2p as l2p_mod
    from repro.core import ptr as ptr_mod
    from repro.core.packed import PackedSets
    from repro.core.siamese import SiameseMLP
    from repro.core.tgm import TGM

    tr.wrap(ptr_mod, "represent", "ptr")
    tr.wrap(l2p_mod, "l2p_partition", "l2p")
    sim_fn = l2p_mod.sim_fn  # L2P's pair-distance function comes from here
    tr.patch(l2p_mod, "sim_fn", lambda m: tr.spanned(sim_fn(m), "similarity.pair"))
    tr.wrap(SiameseMLP, "train", "siamese.train")
    tr.wrap(TGM, "from_partition", "tgm.build")
    tr.wrap(PackedSets, "__init__", "packed.build",
            lambda c, a, kw, r: c.update({"packed.build_sets": len(a[1])}))


def _trace_local_query_layers(tr) -> None:
    from repro.core.packed import PackedSets
    from repro.core.search import LocalLES3
    from repro.core.tgm import TGM

    tr.wrap(LocalLES3, "knn", "search.knn")
    tr.wrap(LocalLES3, "range", "search.range")
    tr.wrap(TGM, "upper_bounds", "tgm.ub")
    tr.wrap(TGM, "insert", "tgm.insert")
    tr.wrap(PackedSets, "sims_subset", "packed.verify",
            lambda c, a, kw, r: c.update({"packed.verify_sets": len(a[2])}))


def _trace_spark_query_layers(tr, spark, data) -> None:
    from repro.core.search import SparkLES3
    from repro.core.tgm import TGM

    tr.wrap(SparkLES3, "range_batch", "spark.range_batch")
    tr.wrap(SparkLES3, "knn_batch", "spark.knn_batch")
    tr.wrap(TGM, "upper_bounds", "tgm.ub")
    tr.wrap(type(data), "toPandas", "spark.collect",
            lambda c, a, kw, r: c.update({"spark.collect.rows": len(r)}))
    tr.wrap(type(spark), "createDataFrame", "spark.createdf")


def _span_cost_s(n: int = 20000) -> float:
    """Extra seconds one wrapped call costs over a plain call."""
    from perfbench.spans import Tracer

    def f():
        return None

    g = Tracer().spanned(f, "calibrate")
    t = time.perf_counter()
    for _ in range(n):
        f()
    plain = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(n):
        g()
    return max(0.0, (time.perf_counter() - t - plain) / n)


def end_to_end(res) -> dict:
    from perfbench.spans import percentile

    return {
        "setup_s": statistics.median(res.setup_s),
        # per query: engine latency / oracle latency for that query; on
        # Spark a batch's wall time over the oracle's time for its queries
        "knn_p50_vs_brute": percentile(res.rel["knn"], 50),
        "range_p50_vs_brute": percentile(res.rel["range"], 50),
        # the oracle's time for the run's queries / the engine's time for
        # them and the inserts
        "throughput_vs_brute": res.brute_s / res.busy_s,
        # the Python process only; on Spark the JVM is not counted
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "index_mb": res.index_bytes / 2**20,
    }


def extra_metrics(res) -> list:
    """Workload-specific metrics printed beside the gated ones:
    (name, value, unit, samples)."""
    from perfbench.spans import percentile

    out = [("build_s", statistics.median(res.build_s), "s", len(res.build_s))]
    for op in ("knn", "range", "insert"):
        xs = res.lat.get(op, [])
        if xs:
            # on Spark a query's answer arrives with its batch
            out.append((f"{op}_p50_ms", 1e3 * percentile(xs, 50), "ms", len(xs)))
        # the highest percentile with at least ten samples beyond it
        for p in (99, 95, 90):
            if len(xs) * (100 - p) >= 1000:
                out.append((f"{op}_p{p}_ms", 1e3 * percentile(xs, p), "ms", len(xs)))
                break
    if res.env.get("master"):
        for op in ("range", "knn"):
            xs = res.lat[op]
            out.append((f"spark_{op}_batch_s", statistics.median(xs), "s", len(xs)))
    out.append(("qps", res.n_queries / res.busy_s, "1/s", res.n_queries))
    out.append(("brute_s", res.brute_s, "s", res.n_queries))
    out.append(("failed_frac", res.failed / res.attempted, "ratio", res.attempted))
    return out


def layer_metrics(tr, res, wall_s: float) -> dict:
    c, rc = tr.counts, res.counts
    m = {
        "ptr.busy_s": tr.busy("ptr"),
        "l2p.busy_s": tr.busy("l2p"),
        "l2p.self_s": tr.self_time("l2p"),
        "similarity.pair_calls": c["similarity.pair.calls"],
        "similarity.pair_busy_s": tr.busy("similarity.pair"),
        "siamese.train_busy_s": tr.busy("siamese.train"),
        "siamese.models": c["siamese.train.calls"],
        "tgm.build_busy_s": tr.busy("tgm.build"),
        "packed.verify_busy_s": tr.busy("packed.verify"),
        "packed.verify_calls": c["packed.verify.calls"],
        "packed.verify_sets": c["packed.verify_sets"],
        "search.knn_self_s": tr.self_time("search.knn"),
        "search.range_self_s": tr.self_time("search.range"),
        "tgm.ub_busy_s": tr.busy("tgm.ub"),
        "tgm.ub_calls": c["tgm.ub.calls"],
        "packed.build_busy_s": tr.busy("packed.build"),
        "packed.build_calls": c["packed.build.calls"],
        "packed.build_sets": c["packed.build_sets"],
        "tgm.insert_busy_s": tr.busy("tgm.insert"),
        "tgm.insert_calls": c["tgm.insert.calls"],
    }
    all_stats = [row for rows in res.stats.values() for row in rows]
    m["tgm.index_elems_per_query"] = (
        sum(st.index_elems for st, _, _ in all_stats) / len(all_stats) if all_stats else 0
    )
    for op in ("knn", "range"):
        rows = res.stats.get(op, [])
        n = max(1, len(rows))
        cand = sum(st.n_candidates for st, _, _ in rows)
        found = sum(st.n_results for st, _, _ in rows)
        m[f"search.candidates_per_query.{op}"] = cand / n
        m[f"search.groups_per_query.{op}"] = sum(st.n_groups_verified for st, _, _ in rows) / n
        m[f"search.results_per_query.{op}"] = found / n
        m[f"search.useful_ratio.{op}"] = found / cand if cand else 0.0
        m[f"search.pe_mean.{op}"] = (
            sum(st.pruning_efficiency(n_db, r) for st, n_db, r in rows) / n
        )
    batches = max(1, rc["spark.batches"])
    batch_s = tr.busy("spark.range_batch") + tr.busy("spark.knn_batch")
    m.update({
        "spark.plan_busy_s": batch_s - tr.busy("spark.collect"),
        "spark.collect_busy_s": tr.busy("spark.collect"),
        "spark.createdf_busy_s": tr.busy("spark.createdf"),
        "spark.jobs_per_batch": rc["spark.jobs"] / batches,
        "spark.stages_per_batch": rc["spark.stages"] / batches,
        "spark.tasks_per_batch": rc["spark.tasks"] / batches,
        "spark.rows_returned_per_batch": c["spark.collect.rows"] / batches,
        "spark.candidates_predicted_per_query": (
            rc["spark.candidates_predicted"] / max(1, rc["spark.predicted_queries"])
        ),
        "trace.overhead_pct": 100.0 * _span_cost_s() * len(tr.spans) / wall_s,
    })
    return m


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import workloads
    from perfbench.spans import Tracer

    tr = Tracer() if trace else None
    spark = None
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)}"
          f" commit={_commit()} nproc={os.cpu_count()}")
    try:
        if workload == "spark-batch":
            t = time.perf_counter()
            spark = _start_spark()
            print(f"# spark_start_s={time.perf_counter() - t:.3f}")
        t0 = time.perf_counter()
        if tr:
            _trace_build_layers(tr)
        if spark is None:
            res = workloads.run_local(
                seed, seconds, tr, lambda: _trace_local_query_layers(tr))
        else:
            res = workloads.run_spark(
                spark, seed, seconds, tr,
                lambda data: _trace_spark_query_layers(tr, spark, data))
        wall = time.perf_counter() - t0
    finally:
        if tr:
            tr.restore()
        if spark is not None:
            _stop_spark(spark)
    if res.env:
        print("# " + " ".join(f"{k}={v}" for k, v in res.env.items()))
    for (engine, measure, op), why in sorted(res.mismatches.items()):
        print(f"# MISMATCH engine={engine} measure={measure} op={op}: {why}")
    if tr:
        values, units = layer_metrics(tr, res, wall), PER_LAYER
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"spans": tr.as_records(), "counts": tr.counts}))
        print(f"# spans: {len(tr.spans)} written to {path.relative_to(ROOT)}")
    else:
        values, units = end_to_end(res), END_TO_END
        for name, v, unit, n in extra_metrics(res):
            print(f"{name} = {v:.6g} {unit} (n={n})")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": float(values[n]), "unit": u} for n, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _prepare_env()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
