"""The spark-batch workload's check on a small database.

Jaccard answers are right. Dice and Cosine answers are wrong because
``SparkLES3`` verifies candidates with Jaccard whatever its measure; the
oracle must catch that, so those cases are strict expected failures
until the engine is fixed.
"""
import pytest

from perfbench import workloads
from perfbench.oracle import BruteOracle
from repro.core.l2p import l2p_partition
from repro.core.ptr import ptr
from repro.core.search import SparkLES3, attach_groups
from repro.core.tgm import TGM
from repro.synth_data import gen_sets, sample_queries, sets_df

DEFECT = pytest.mark.xfail(
    strict=True, reason="SparkLES3 verifies with Jaccard whatever the measure"
)


@pytest.fixture(scope="module")
def layout(spark):
    db = gen_sets(n_sets=300, n_tokens=200, avg_size=8, cluster_frac=0.5, seed=4)
    part = l2p_partition(ptr(db.sets, db.n_tokens), db.sets, n_groups=8,
                         min_group=10, n_pairs=500)
    tgm = TGM.from_partition(db.sets, part.groups, db.n_tokens)
    data = attach_groups(spark, sets_df(spark, db), part.groups).cache()
    data.count()
    yield db, tgm, data
    data.unpersist()


@pytest.mark.parametrize(
    "measure", ["jaccard", pytest.param("dice", marks=DEFECT),
                pytest.param("cosine", marks=DEFECT)]
)
def test_spark_range_batch_matches_the_oracle(spark, layout, measure):
    db, tgm, data = layout
    res = workloads.Result()
    eng = SparkLES3(spark, data, tgm, measure)
    queries = sample_queries(db, n=10, seed=1)
    workloads._spark_batch(res, eng, BruteOracle(db.sets), "range", queries)
    assert res.attempted == 1
    assert res.mismatches == {}
