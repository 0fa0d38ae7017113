"""The benchmark's workloads, driven through the system's public functions.

One closed-loop client in one process sends each op after the previous
one returns. Every op is timed alone (the oracle check runs outside the
timed region) and checked against :class:`perfbench.oracle.BruteOracle`.
Right after each op (on Spark: before and after each batch) the oracle
answers the same queries again, timed. The engine's time over that
brute-force time is measured on the machine as it is at that moment, so
it holds still when a shared host slows or speeds up between runs, which
the absolute times do not.

- ``local-mixed``: a kosarak-shaped database on the driver-resident
  engine. Each round inserts one set (alternating the closed- and
  open-universe rules of §6) and runs four kNN queries over the grown
  database, then its share of static kNN (k=10) and range (delta=0.7)
  queries over the built index, rotating Jaccard, Dice and Cosine.
- ``spark-batch``: kosarak-lite on ``SparkLES3`` over a cached,
  group-partitioned DataFrame, answering 30-query range and kNN batches.
"""
from __future__ import annotations

import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import l2p as l2p_mod
from repro.core import ptr as ptr_mod
from repro.core.search import LocalLES3, SearchStats, SparkLES3, attach_groups
from repro.core.similarity import MEASURES
from repro.core.tgm import TGM
from repro.experiments import exp_updates
from repro.synth_data import SetDB, dataset, sample_queries, sets_df

from .oracle import BruteOracle, check_knn, check_range
from .spans import Tracer

K = 10
DELTA = 0.7
SETUP_REPS = 3  # set-ups per run; setup_s is their median
SCALE = 0.005  # kosarak-lite: 4,950 sets over 10,317 tokens
N_GROUPS = 32
N_QUERIES = 500  # static queries: each runs once as kNN, once as range
N_ROUNDS = 100  # inserts: enough for a p90 with 10 beyond it
KNN_PER_ROUND = 4
SPARK_BATCH = 30
SPARK_MEASURE = "jaccard"
SPARK_BRUTE_PASSES = 15  # per side of a batch; one pass takes 10-20 ms
# The database and the index are fixed, as a dataset and its build
# configuration would be (these are the defaults of ``dataset`` and
# ``build_les3``); ``--seed`` draws the queries and the inserted sets.
DB_SEED = 7
BUILD_SEED = 0

clock = time.perf_counter


@dataclass
class Index:
    groups: np.ndarray
    tgm: TGM
    engines: Dict[str, LocalLES3]


def build_index(db: SetDB, *, local: bool) -> Index:
    """PTR -> L2P -> TGM (-> one LocalLES3 per measure, sharing the TGM),
    with the parameters ``experiments.common.build_les3`` uses."""
    reps = ptr_mod.represent(db.sets, db.n_tokens, "ptr")
    part = l2p_mod.l2p_partition(
        reps, db.sets, n_groups=N_GROUPS, use_init=False, min_group=10,
        n_pairs=2000, measure="jaccard", seed=BUILD_SEED,
    )
    tgm = TGM.from_partition(db.sets, part.groups, db.n_tokens)
    engines = {m: LocalLES3(db.sets, tgm, m) for m in MEASURES} if local else {}
    return Index(part.groups, tgm, engines)


@dataclass
class Result:
    """What one run measured: latency samples, op outcomes and counters."""

    setup_s: List[float] = field(default_factory=list)
    build_s: List[float] = field(default_factory=list)
    lat: Dict[str, List[float]] = field(default_factory=dict)  # op -> seconds
    rel: Dict[str, List[float]] = field(default_factory=dict)  # op -> engine / brute
    attempted: int = 0
    failed: int = 0
    mismatches: Dict[Tuple[str, str, str], str] = field(default_factory=dict)
    stats: Dict[str, List[Tuple[SearchStats, int, int]]] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    n_queries: int = 0
    busy_s: float = 0.0  # timed ops of the closed loop (queries + inserts)
    brute_s: float = 0.0  # the oracle's time for the same queries
    index_bytes: int = 0
    env: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    def timed(self, fn: Callable, *args):
        """(result or None, seconds, error or None) of one op; a traced
        run tags the op's spans with its id."""
        if self.tracer:
            self.tracer.op = self.attempted
        t = clock()
        try:
            out = fn(*args)
        except Exception as e:  # a raising op is a failed op, not a crashed run
            return None, clock() - t, f"raised {type(e).__name__}: {e}"
        return out, clock() - t, None

    def record(self, engine: str, measure: str, op: str, seconds: float,
               error: Optional[str], brute_s: Optional[float] = None) -> None:
        """One op's outcome; ``brute_s`` is the oracle's time for a query."""
        self.lat.setdefault(op, []).append(seconds)
        self.attempted += 1
        self.busy_s += seconds
        if brute_s is not None:
            self.rel.setdefault(op, []).append(seconds / brute_s)
            self.brute_s += brute_s
        if error is not None:
            self.failed += 1
            self.mismatches.setdefault((engine, measure, op), error)

    def reset_timing(self) -> None:
        """Forget the warm-up's timings; its outcome stays counted."""
        self.lat.clear()
        self.rel.clear()
        self.stats.clear()
        self.busy_s = 0.0
        self.brute_s = 0.0
        self.n_queries = 0


# ---------------------------------------------------------------------------
# local-mixed
# ---------------------------------------------------------------------------
def _brute_s(oracle: BruteOracle, op: str, queries: List[np.ndarray], arg,
             measure: str, passes: int = 1) -> float:
    """Seconds the oracle takes to answer ``queries``: the median of
    ``passes`` timed passes."""
    answer = oracle.knn_sims if op == "knn" else oracle.range
    times = []
    for _ in range(passes):
        t = clock()
        for q in queries:
            answer(q, arg, measure)
        times.append(clock() - t)
    return statistics.median(times)


def _local_query(res: Result, eng: LocalLES3, oracle: BruteOracle, op: str,
                 q: np.ndarray) -> None:
    fn, arg, check = (
        (eng.knn, K, check_knn) if op == "knn" else (eng.range, DELTA, check_range)
    )
    out, dt, err = res.timed(fn, q, arg)
    if err is None:
        answer, st = out
        err = check(oracle, q, arg, eng.measure, answer)
        k_or_res = K if op == "knn" else len(answer)
        res.stats.setdefault(op, []).append((st, len(oracle), k_or_res))
    res.record("local", eng.measure, op, dt, err,
               _brute_s(oracle, op, [q], arg, eng.measure))
    res.n_queries += 1


def run_local(seed: int, seconds: float, tracer: Optional[Tracer],
              on_query_layers: Callable[[], None]) -> Result:
    """``on_query_layers()`` runs once set-up is done, so the traced run
    can wrap the query-time layers without counting set-up."""
    res = Result(tracer=tracer)
    for _ in range(1 if tracer else SETUP_REPS):
        t0 = clock()
        db = dataset("kosarak", scale=SCALE, seed=DB_SEED)
        t1 = clock()
        idx = build_index(db, local=True)
        t2 = clock()
        res.setup_s.append(t2 - t0)
        res.build_s.append(t2 - t1)
    res.index_bytes = idx.tgm.index_bytes() + sum(
        p.concat.nbytes + p.offsets.nbytes + p.lens.nbytes
        for p in (e.packed for e in idx.engines.values())
    )
    queries = sample_queries(db, n=N_QUERIES, seed=seed)
    static = [
        ("knn" if i % 2 == 0 else "range", MEASURES[(i // 2) % 3], queries[i // 2])
        for i in range(2 * N_QUERIES)
    ]
    params = exp_updates._base_params(SCALE)
    closed = exp_updates._new_sets(params, N_ROUNDS, open_universe=False, seed=seed)
    opened = exp_updates._new_sets(params, N_ROUNDS, open_universe=True, seed=seed)
    inserts = [closed[i] if i % 2 == 0 else opened[i] for i in range(N_ROUNDS)]
    oracle = BruteOracle(db.sets)

    # untimed warm-up: one query per engine
    for m in MEASURES:
        _local_query(res, idx.engines[m], oracle, "knn", queries[0])
    res.reset_timing()
    if tracer:
        on_query_layers()

    # Each round inserts a set, makes it searchable, runs kNN over the
    # grown database and then its share of the static queries, so every
    # stretch of the run has the same mix of ops. Rounds go on until
    # `seconds` pass (a traced run does one pass of N_ROUNDS); every pass
    # starts again from the built database.
    per_round = -(-len(static) // N_ROUNDS)
    t_end = clock() + seconds
    r = 0
    while r < N_ROUNDS or (not tracer and clock() < t_end):
        r, i = r + 1, r % N_ROUNDS
        if i == 0:
            # Static queries search the built index; inserts go into a copy
            # of its TGM, as exp_updates does: a LocalLES3 cannot search
            # sets inserted into its TGM after it was built.
            grown = BruteOracle(db.sets)
            tgm = TGM.from_partition(db.sets, idx.groups, db.n_tokens)
            sets = list(db.sets)
        s, m, sid = inserts[i], MEASURES[i % 3], len(sets)

        def insert(s=s, sid=sid, m=m):
            sets.append(s)
            tgm.insert(s, sid, m)
            return LocalLES3(sets, tgm, m)

        eng, dt, err = res.timed(insert)
        res.record("local", m, "insert", dt, err)
        grown.add(s)
        if err is None:
            for j in range(KNN_PER_ROUND):
                q = s if j == 0 else queries[(KNN_PER_ROUND * i + j) % N_QUERIES]
                _local_query(res, eng, grown, "knn", q)
        for op, m, q in static[i * per_round:(i + 1) * per_round]:
            _local_query(res, idx.engines[m], oracle, op, q)
    return res


# ---------------------------------------------------------------------------
# spark-batch
# ---------------------------------------------------------------------------
def _spark_rows(pdf, n_queries: int) -> List[List[Tuple[int, float]]]:
    rows: List[List[Tuple[int, float]]] = [[] for _ in range(n_queries)]
    for qid, sid, sim in zip(pdf["qid"], pdf["sid"], pdf["sim"]):
        rows[int(qid)].append((int(sid), float(sim)))
    return rows


def _spark_batch(res: Result, eng: SparkLES3, oracle: BruteOracle, op: str,
                 queries: List[np.ndarray]) -> None:
    fn, arg, check = (
        (eng.knn_batch, K, check_knn) if op == "knn"
        else (eng.range_batch, DELTA, check_range)
    )
    # The oracle's time is taken around the batch: a batch runs for
    # seconds, the oracle's pass over its queries for milliseconds.
    before = _brute_s(oracle, op, queries, arg, eng.measure, SPARK_BRUTE_PASSES)
    out, dt, err = res.timed(fn, queries, arg)
    after = _brute_s(oracle, op, queries, arg, eng.measure, SPARK_BRUTE_PASSES)
    if err is None:
        pdf, bstats = out
        for qid, answer in enumerate(_spark_rows(pdf, len(queries))):
            e = check(oracle, queries[qid], arg, eng.measure, answer)
            if e is not None:
                err = err or f"query {qid}: {e}"
        for st in bstats.per_query:
            res.counts["spark.candidates_predicted"] += st.n_candidates
        res.counts["spark.predicted_queries"] += len(bstats.per_query)
    res.record("spark", eng.measure, op, dt, err, (before + after) / 2)
    res.n_queries += len(queries)


def _job_counts(sc, group: str) -> Tuple[int, int, int]:
    """(jobs, stages, tasks) Spark ran under job group ``group``."""
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = set()
    for j in jobs:
        info = tracker.getJobInfo(j)
        if info is not None:
            stages.update(info.stageIds)
    tasks = 0
    for s in stages:
        info = tracker.getStageInfo(s)
        if info is not None:
            tasks += info.numTasks
    return len(jobs), len(stages), tasks


def run_spark(spark, seed: int, seconds: float, tracer: Optional[Tracer],
              on_query_layers: Callable[[object], None]) -> Result:
    """Like :func:`run_local`; ``on_query_layers(data)`` gets the cached
    DataFrame, whose class the traced run wraps."""
    sc = spark.sparkContext
    res = Result(tracer=tracer)
    res.env.update(
        master=sc.master,
        default_parallelism=sc.defaultParallelism,
        shuffle_partitions=spark.conf.get("spark.sql.shuffle.partitions"),
    )
    data = None
    try:
        # The index build is the local workload's, which repeats it; here
        # only the Spark layout is repeated. setup_s = build + median layout.
        t0 = clock()
        db = dataset("kosarak", scale=SCALE, seed=DB_SEED)
        t1 = clock()
        idx = build_index(db, local=False)
        t2 = clock()
        layout_s = []
        for _ in range(1 if tracer else SETUP_REPS):
            t3 = clock()
            if data is not None:
                data.unpersist(blocking=True)
            data = attach_groups(spark, sets_df(spark, db), idx.groups).cache()
            data.count()
            eng = SparkLES3(spark, data, idx.tgm, SPARK_MEASURE)
            layout_s.append(clock() - t3)
        res.build_s.append(t2 - t1 + statistics.median(layout_s))
        res.setup_s.append(t2 - t0 + statistics.median(layout_s))
        res.index_bytes = idx.tgm.index_bytes()
        oracle = BruteOracle(db.sets)
        queries = sample_queries(db, n=SPARK_BATCH, seed=seed)

        # No warm-up batch: one costs as much as a measured batch, which
        # the run budget cannot hold, and cheaper Spark jobs leave the
        # first batch as slow. The first (kNN) batch carries that cost.
        if tracer:
            on_query_layers(data)
        t_end = clock() + seconds
        n_batch = 0
        while True:
            for op in ("knn", "range"):
                group = f"perfbench-{op}-{n_batch}"
                sc.setJobGroup(group, group)
                _spark_batch(res, eng, oracle, op, queries)
                n_batch += 1
                if tracer:
                    jobs, stages, tasks = _job_counts(sc, group)
                    res.counts["spark.jobs"] += jobs
                    res.counts["spark.stages"] += stages
                    res.counts["spark.tasks"] += tasks
            if tracer or clock() >= t_end:
                break
        res.counts["spark.batches"] = n_batch
    finally:
        if data is not None:
            data.unpersist(blocking=True)
    return res

