"""SparkLES3: the distributed broadcast-join search engine must agree
exactly with the local engine and the DuckDB oracle."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.core.search import LocalLES3, SparkLES3, attach_groups
from repro.core.similarity import jaccard, sim_fn
from repro.core.tgm import TGM
from repro.core.l2p import l2p_partition
from repro.core.ptr import ptr


@pytest.fixture(scope="module")
def small_db():
    db = sd.gen_sets(n_sets=600, n_tokens=400, avg_size=8, seed=3)
    reps = ptr(db.sets, db.n_tokens)
    part = l2p_partition(reps, db.sets, n_groups=16, n_init=4, min_group=10, n_pairs=800)
    tgm = TGM.from_partition(db.sets, part.groups)
    return db, part.groups, tgm


@pytest.fixture(scope="module")
def spark_engine(spark, small_db):
    db, groups, tgm = small_db
    data = attach_groups(spark, sd.sets_df(spark, db), groups)
    data = data.cache()
    data.count()
    return SparkLES3(spark, data, tgm)


def _brute_range(db, q, delta):
    return sorted(
        i for i, s in enumerate(db.sets) if jaccard(q, s) >= delta
    )


@pytest.mark.parametrize("delta", [0.9, 0.7, 0.5])
def test_range_batch_matches_brute_force(spark_engine, small_db, delta):
    db, _, _ = small_db
    queries = sd.sample_queries(db, n=8, seed=21)
    out, stats = spark_engine.range_batch(queries, delta)
    for qid, q in enumerate(queries):
        got = sorted(out.loc[out["qid"] == qid, "sid"].tolist())
        assert got == _brute_range(db, q, delta)
    assert len(stats.per_query) == len(queries)


@pytest.mark.parametrize("k", [1, 5, 20])
def test_knn_batch_matches_local_engine(spark_engine, small_db, k):
    db, _, tgm = small_db
    local = LocalLES3(db.sets, tgm)
    queries = sd.sample_queries(db, n=6, seed=22)
    out, stats = spark_engine.knn_batch(queries, k)
    for qid, q in enumerate(queries):
        got = out.loc[out["qid"] == qid].sort_values(
            ["sim", "sid"], ascending=[False, True]
        )
        exp, _ = local.knn(q, k)
        assert len(got) == min(k, len(db.sets))
        # similarity multiset must match exactly (ties may permute sids)
        np.testing.assert_allclose(
            np.sort(got["sim"].to_numpy()), np.sort([v for _, v in exp]), atol=1e-12
        )


def test_range_batch_against_duckdb_oracle(spark, spark_engine, small_db):
    """Ground truth via relational SQL over the exploded token table."""
    from repro.oracle import assert_equivalent

    db, _, _ = small_db
    queries = sd.sample_queries(db, n=4, seed=23)
    delta = 0.6
    out, _ = spark_engine.range_batch(queries, delta)
    got_df = spark.createDataFrame(
        out[["qid", "sid"]] if len(out) else pd.DataFrame({"qid": [], "sid": []}),
        schema="qid bigint, sid bigint",
    )
    d_tokens = pd.DataFrame(
        [(i, int(t)) for i, s in enumerate(db.sets) for t in s],
        columns=["sid", "token"],
    )
    q_tokens = pd.DataFrame(
        [(qid, int(t)) for qid, q in enumerate(queries) for t in np.unique(q)],
        columns=["qid", "token"],
    )
    sql = f"""
        WITH ds AS (SELECT sid, COUNT(*) sz FROM d_tokens GROUP BY sid),
             qs AS (SELECT qid, COUNT(*) sz FROM q_tokens GROUP BY qid),
             inter AS (
               SELECT q.qid, d.sid, COUNT(*) c
               FROM d_tokens d JOIN q_tokens q USING (token)
               GROUP BY q.qid, d.sid)
        SELECT i.qid AS qid, i.sid AS sid
        FROM inter i JOIN ds ON ds.sid = i.sid JOIN qs ON qs.qid = i.qid
        WHERE CAST(i.c AS DOUBLE) / (ds.sz + qs.sz - i.c) >= {delta}
    """
    assert_equivalent(got_df, sql, d_tokens=d_tokens, q_tokens=q_tokens)


@pytest.mark.parametrize("measure", ["dice", "cosine"])
def test_other_measures_match_brute_force(spark_engine, small_db, measure):
    """Verification scores candidates under the engine's measure."""
    db, _, tgm = small_db
    eng = SparkLES3(spark_engine.spark, spark_engine.data, tgm, measure)
    f = sim_fn(measure)
    queries = sd.sample_queries(db, n=6, seed=24)
    brute = [np.array([f(q, s) for s in db.sets]) for q in queries]
    out, _ = eng.range_batch(queries, 0.5)
    for qid, sims in enumerate(brute):
        got = sorted(out.loc[out["qid"] == qid, "sid"].tolist())
        assert got == np.flatnonzero(sims >= 0.5).tolist()
    out, _ = eng.knn_batch(queries, 5)
    for qid, sims in enumerate(brute):
        got = np.sort(out.loc[out["qid"] == qid, "sim"].to_numpy())
        np.testing.assert_allclose(got, np.sort(sims)[-5:], atol=1e-12)


def test_knn_stats_are_counted(spark_engine, small_db, monkeypatch):
    """``n_candidates`` counts the rows the two passes scored; here it must
    equal the group-size total of the groups the passes were planned on."""
    db, _, tgm = small_db
    planned = []
    plan = spark_engine._query_df

    def spy(queries, cand):
        planned.append(cand)
        return plan(queries, cand)

    monkeypatch.setattr(spark_engine, "_query_df", spy)
    queries = sd.sample_queries(db, n=6, seed=25)
    out, stats = spark_engine.knn_batch(queries, 5)
    for qid, st in enumerate(stats.per_query):
        groups = np.concatenate([p[qid] for p in planned]).astype(np.int64)
        assert st.n_candidates == int(tgm.group_sizes[groups].sum()) > 0
        assert st.n_groups_verified == len(groups)
        assert st.n_results == int((out["qid"] == qid).sum()) == 5


def test_bad_arguments_raise_before_any_job(spark_engine, small_db):
    db, _, tgm = small_db
    with pytest.raises(ValueError, match="k must be"):
        spark_engine.knn_batch(db.sets[:2], 0)
    with pytest.raises(ValueError, match="unknown measure"):
        SparkLES3(spark_engine.spark, spark_engine.data, tgm, "overlap")


def test_verify_kernel_unpickles_without_the_package(tmp_path):
    """The jobs/ entry points put ``src`` on the driver's path only, so the
    Python workers that run the verify UDF cannot import ``repro``; the
    kernel must travel inside the UDF's pickle."""
    from pyspark import cloudpickle

    import repro.core.search  # noqa: F401  (registers the kernel by value)
    from repro.core.packed import pair_sims

    (tmp_path / "k.pkl").write_bytes(cloudpickle.dumps(pair_sims))
    src = Path(repro.core.search.__file__).parents[2].resolve()
    path = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
            if p and Path(p).resolve() != src]
    code = ("import pickle, numpy as np; f = pickle.load(open('k.pkl', 'rb')); "
            "print(f([np.array([1, 2])], [np.array([2, 3])], 'dice')[0])")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) == 0.5
