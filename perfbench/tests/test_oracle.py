"""The benchmark's oracle against DuckDB, and its checks against wrong
answers."""
import numpy as np
import pandas as pd
import pytest

from perfbench.oracle import BruteOracle, check_knn, check_range
from repro.oracle import assert_equivalent
from repro.synth_data import gen_sets, sample_queries

MEASURE_SQL = {
    "jaccard": "c / (qn + sn - c)",
    "dice": "2 * c / (qn + sn)",
    "cosine": "c / sqrt(qn * sn)",
}

SIMS_SQL = """
with qs as (select qid, count(*)::double as qn from q group by qid),
     ss as (select sid, count(*)::double as sn from s group by sid),
     inter as (
        select q.qid, s.sid, count(*)::double as c
        from q join s on q.tok = s.tok group by q.qid, s.sid),
     pairs as (
        select qs.qid, ss.sid, qs.qn, ss.sn, coalesce(inter.c, 0) as c
        from qs cross join ss
        left join inter on inter.qid = qs.qid and inter.sid = ss.sid)
select qid, sid, {expr} as sim from pairs
"""


@pytest.fixture(scope="module")
def small():
    db = gen_sets(n_sets=120, n_tokens=60, avg_size=6, cluster_frac=0.5, seed=5)
    queries = sample_queries(db, n=6, seed=2) + [np.array([0, 1, 59], dtype=np.int64)]
    s = pd.DataFrame(
        [(i, int(t)) for i, st in enumerate(db.sets) for t in st], columns=["sid", "tok"]
    )
    q = pd.DataFrame(
        [(i, int(t)) for i, qt in enumerate(queries) for t in np.unique(qt)],
        columns=["qid", "tok"],
    )
    return db, queries, s, q


@pytest.mark.parametrize("measure", sorted(MEASURE_SQL))
def test_range_agrees_with_duckdb(spark, small, measure):
    db, queries, s, q = small
    oracle = BruteOracle(db.sets)
    rows = [
        (qid, sid, sim)
        for qid, qt in enumerate(queries)
        for sid, sim in oracle.range(qt, 0.4, measure).items()
    ]
    got = spark.createDataFrame(
        pd.DataFrame(rows, columns=["qid", "sid", "sim"]),
        schema="qid bigint, sid bigint, sim double",
    )
    sql = (
        "select * from (" + SIMS_SQL.format(expr=MEASURE_SQL[measure]) + ") "
        "where sim >= 0.4"
    )
    assert_equivalent(got, sql, s=s, q=q)


@pytest.mark.parametrize("measure", sorted(MEASURE_SQL))
def test_knn_sims_agree_with_duckdb(spark, small, measure):
    db, queries, s, q = small
    oracle = BruteOracle(db.sets)
    k = 5
    rows = [
        (qid, rank, float(sim))
        for qid, qt in enumerate(queries)
        for rank, sim in enumerate(oracle.knn_sims(qt, k, measure)[0])
    ]
    got = spark.createDataFrame(
        pd.DataFrame(rows, columns=["qid", "rank", "sim"]),
        schema="qid bigint, rank bigint, sim double",
    )
    sql = (
        "select qid, rank - 1 as rank, sim from ("
        "select qid, sim, row_number() over (partition by qid order by sim desc) as rank"
        " from (" + SIMS_SQL.format(expr=MEASURE_SQL[measure]) + ")) "
        f"where rank <= {k}"
    )
    assert_equivalent(got, sql, s=s, q=q)


def test_add_grows_the_database():
    oracle = BruteOracle([np.array([1, 2, 3]), np.array([4])])
    sid = oracle.add(np.array([1, 2, 3, 9]))
    assert sid == 2 and len(oracle) == 3
    sims = oracle.sims(np.array([1, 2, 3, 9]), "jaccard")
    assert sims.tolist() == [0.75, 0.0, 1.0]
    assert oracle.range(np.array([9]), 0.1, "dice") == {2: pytest.approx(0.4)}


def test_checks_accept_right_answers_and_name_wrong_ones():
    sets = [np.array([1, 2]), np.array([1, 2]), np.array([1, 3]), np.array([7])]
    oracle = BruteOracle(sets)
    q = np.array([1, 2])
    right = sorted(oracle.range(q, 0.3, "jaccard").items())
    assert check_range(oracle, q, 0.3, "jaccard", right) is None
    assert "sids differ" in check_range(oracle, q, 0.3, "jaccard", right[:-1])
    off = [(s, v + 1e-6) for s, v in right]
    assert "sim" in check_range(oracle, q, 0.3, "jaccard", off)

    # sets 0 and 1 tie at 1.0: either may be the 1-NN
    assert check_knn(oracle, q, 1, "jaccard", [(0, 1.0)]) is None
    assert check_knn(oracle, q, 1, "jaccard", [(1, 1.0)]) is None
    assert check_knn(oracle, q, 1, "jaccard", [(2, 1.0)]) is not None  # wrong sim
    assert check_knn(oracle, q, 2, "jaccard", [(0, 1.0)]) is not None  # too few
    assert "rank" in check_knn(oracle, q, 2, "jaccard", [(0, 1.0), (2, 1 / 3)])
