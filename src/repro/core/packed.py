"""The one verification kernel: intersection counts → similarities.

Every engine, local and Spark, and every analysis that scores pairs (GPO,
PAR-G's graphs, MDS) turns ``|A∩B|``, ``|A|`` and ``|B|`` into Jaccard /
Dice / Cosine through :func:`_finish`, so their per-candidate costs are
comparable (the paper's engines are all C++; a per-candidate Python loop
would penalize whichever engine verifies at group granularity).

- :class:`PackedSets` scores one query against many stored sets: the sets
  are one concatenated token array plus offsets, and intersection sizes
  come from one ``searchsorted`` over the concatenation and a segmented
  sum.
- :func:`pair_sims` scores many independent pairs ``(a_i, b_i)`` at once
  (the Spark verify UDF's rows, GPO's sampled pairs).
"""
from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


class PackedSets:
    """Column-packed storage of deduplicated token sets."""

    def __init__(self, sets: Sequence[np.ndarray]):
        uniq = [np.unique(s) for s in sets]
        self.lens = np.array([len(s) for s in uniq], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.lens)])
        self.concat = (
            np.concatenate(uniq) if uniq else np.empty(0, dtype=np.int64)
        )

    def __len__(self) -> int:
        return len(self.lens)

    # -- kernels -----------------------------------------------------------
    def _inter_counts(self, q: np.ndarray, concat: np.ndarray, starts: np.ndarray) -> np.ndarray:
        if len(q) == 0 or len(concat) == 0:
            return np.zeros(max(len(starts) - 1, 0), dtype=np.int64)
        idx = np.searchsorted(q, concat)
        idx_c = np.minimum(idx, len(q) - 1)
        mask = (q[idx_c] == concat).astype(np.int64)
        # clip segment starts into range (trailing empty sets would point
        # one past the end) and zero out genuinely empty segments after
        starts_c = np.minimum(starts[:-1], len(mask) - 1)
        return np.add.reduceat(mask, starts_c) * (np.diff(starts) > 0)

    def sims(self, query: np.ndarray, measure: str = "jaccard") -> np.ndarray:
        """Similarity of ``query`` to every stored set."""
        q = np.unique(query)
        c = self._inter_counts(q, self.concat, self.offsets)
        return _finish(c, len(q), self.lens, measure)

    def sims_subset(
        self, query: np.ndarray, ids: np.ndarray, measure: str = "jaccard"
    ) -> np.ndarray:
        """Similarity of ``query`` to the sets in ``ids`` only, without a
        Python loop: a vectorized multi-segment gather."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return np.empty(0, dtype=np.float64)
        q = np.unique(query)
        l = self.lens[ids]
        cum = np.cumsum(l)
        total = int(cum[-1])
        starts_out = np.concatenate([[0], cum])
        if total == 0:
            return np.zeros(len(ids), dtype=np.float64)
        first = np.repeat(self.offsets[ids] - starts_out[:-1], l)
        concat = self.concat[first + np.arange(total)]
        c = self._inter_counts(q, concat, starts_out)
        return _finish(c, len(q), l, measure)


def _flat(sets: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """(pair id of every token, every token) over ``sets`` in order."""
    lens = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    toks = np.concatenate([np.empty(0, dtype=np.int64), *sets]).astype(np.int64)
    return np.repeat(np.arange(len(sets), dtype=np.int64), lens), toks


def pair_sims(
    a_sets: Sequence[np.ndarray], b_sets: Sequence[np.ndarray], measure: str = "jaccard"
) -> np.ndarray:
    """``Sim(a_sets[i], b_sets[i])`` for every ``i``, without a per-pair loop.

    Tagging each token with its pair id (``pair * span + token``) lets one
    ``np.unique`` per side dedup all its sets and one ``searchsorted`` find
    every intersection; ``bincount`` over the pair ids gives the counts.
    """
    n = len(a_sets)
    (pa, ta), (pb, tb) = _flat(a_sets), _flat(b_sets)
    span = 1 + int(max(ta.max(initial=0), tb.max(initial=0)))
    a, b = np.unique(pa * span + ta), np.unique(pb * span + tb)
    hit = a[b[np.minimum(np.searchsorted(b, a), len(b) - 1)] == a] if len(b) else b
    la, lb = np.bincount(a // span, minlength=n), np.bincount(b // span, minlength=n)
    return _finish(np.bincount(hit // span, minlength=n), la, lb, measure)


def _finish(
    c: np.ndarray, q_len: int | np.ndarray, lens: np.ndarray, measure: str
) -> np.ndarray:
    """Similarities from ``|Q∩S|``, ``|Q|`` (scalar or per pair) and ``|S|``."""
    c = c.astype(np.float64)
    if measure == "jaccard":
        denom = q_len + lens - c
        return np.divide(c, denom, out=np.zeros_like(c), where=denom > 0)
    if measure == "dice":
        denom = q_len + lens.astype(np.float64)
        return np.divide(2 * c, denom, out=np.zeros_like(c), where=denom > 0)
    if measure == "cosine":
        denom = np.sqrt(q_len * lens.astype(np.float64))
        return np.divide(c, denom, out=np.zeros_like(c), where=denom > 0)
    raise ValueError(f"unknown measure {measure!r}")
