"""Brute-force answers that every benchmarked op is checked against.

The oracle deliberately shares no code with the engines under test: it
never calls ``PackedSets`` or ``LocalBrute``, so a defect in the shared
verification kernel cannot pass its own check. Intersection sizes come
from an inverted index (token -> sorted sids) and one ``bincount`` over
the query's posting lists, which is a different algorithm from the
engines' segmented ``searchsorted``.

The similarity formulas are written with the same float64 operations as
the measures' definitions (Jaccard ``c / (|Q| + |S| - c)``, Dice
``2c / (|Q| + |S|)``, Cosine ``c / sqrt(|Q| |S|)``), so a set whose
similarity equals the range threshold exactly is classified the same way
by the oracle and by a correct engine.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

SIM_TOL = 1e-9  # sims must agree within this


class BruteOracle:
    """Exact range and kNN answers over a growable set database."""

    def __init__(self, sets: Sequence[np.ndarray]):
        self._sizes: List[int] = []
        self._post: Dict[int, List[int]] = {}
        self._arrays: Dict[int, np.ndarray] = {}
        for s in sets:
            self.add(s)

    def __len__(self) -> int:
        return len(self._sizes)

    def add(self, tokens: np.ndarray) -> int:
        """Append a set; returns its sid (the next free position)."""
        sid = len(self._sizes)
        toks = {int(t) for t in tokens}
        self._sizes.append(len(toks))
        for t in toks:
            self._post.setdefault(t, []).append(sid)
            self._arrays.pop(t, None)
        return sid

    def _posting(self, t: int) -> np.ndarray:
        arr = self._arrays.get(t)
        if arr is None:
            arr = np.asarray(self._post[t], dtype=np.int64)
            self._arrays[t] = arr
        return arr

    def sims(self, query: np.ndarray, measure: str) -> np.ndarray:
        """Similarity of ``query`` to every stored set."""
        q = {int(t) for t in query}
        n = len(self._sizes)
        lists = [self._posting(t) for t in q if t in self._post]
        if lists:
            c = np.bincount(np.concatenate(lists), minlength=n).astype(np.float64)
        else:
            c = np.zeros(n, dtype=np.float64)
        qn = len(q)
        sizes = np.asarray(self._sizes, dtype=np.float64)
        out = np.zeros(n, dtype=np.float64)
        if measure == "jaccard":
            denom = qn + sizes - c
            np.divide(c, denom, out=out, where=denom > 0)
        elif measure == "dice":
            denom = qn + sizes
            np.divide(2 * c, denom, out=out, where=denom > 0)
        elif measure == "cosine":
            denom = np.sqrt(qn * sizes)
            np.divide(c, denom, out=out, where=denom > 0)
        else:
            raise ValueError(f"unknown measure {measure!r}")
        return out

    def range(self, query: np.ndarray, delta: float, measure: str) -> Dict[int, float]:
        """``{sid: sim}`` for every set with ``sim >= delta``."""
        sims = self.sims(query, measure)
        hit = np.flatnonzero(sims >= delta)
        return {int(s): float(sims[s]) for s in hit}

    def knn_sims(self, query: np.ndarray, k: int, measure: str) -> Tuple[np.ndarray, np.ndarray]:
        """(top-k sims sorted descending, all sims)."""
        sims = self.sims(query, measure)
        k = min(k, len(sims))
        top = np.sort(sims)[::-1][:k]
        return top, sims


def check_range(
    oracle: BruteOracle,
    query: np.ndarray,
    delta: float,
    measure: str,
    got: Sequence[Tuple[int, float]],
) -> Optional[str]:
    """None when ``got`` is exactly the oracle's answer, else why not."""
    want = oracle.range(query, delta, measure)
    got_d = {int(s): float(v) for s, v in got}
    if len(got_d) != len(got):
        return f"duplicate sids in {len(got)} results"
    if got_d.keys() != want.keys():
        extra = sorted(got_d.keys() - want.keys())[:5]
        missing = sorted(want.keys() - got_d.keys())[:5]
        return f"sids differ: {len(got_d)} vs {len(want)}; extra {extra} missing {missing}"
    for s, v in got_d.items():
        if abs(v - want[s]) > SIM_TOL:
            return f"sid {s}: sim {v!r} vs {want[s]!r}"
    return None


def check_knn(
    oracle: BruteOracle,
    query: np.ndarray,
    k: int,
    measure: str,
    got: Sequence[Tuple[int, float]],
) -> Optional[str]:
    """None when ``got`` is a correct top-k (ties broken either way)."""
    top, sims = oracle.knn_sims(query, k, measure)
    if len(got) != len(top):
        return f"{len(got)} results, want {len(top)}"
    sids = [int(s) for s, _ in got]
    if len(set(sids)) != len(sids):
        return "duplicate sids"
    for s, v in got:
        if not 0 <= int(s) < len(sims):
            return f"unknown sid {s}"
        if abs(float(v) - sims[int(s)]) > SIM_TOL:
            return f"sid {s}: sim {float(v)!r} vs {sims[int(s)]!r}"
    got_sorted = np.sort(np.array([float(v) for _, v in got]))[::-1]
    bad = np.flatnonzero(np.abs(got_sorted - top) > SIM_TOL)
    if len(bad):
        i = int(bad[0])
        return f"rank {i}: sim {got_sorted[i]!r} vs {top[i]!r}"
    return None
