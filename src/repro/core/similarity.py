"""Set similarity measures and TGM group upper bounds (paper §2, §3.2).

A set is represented as a sorted ``np.ndarray`` of int64 token ids.
Multisets keep duplicate entries; plain sets are deduplicated. All
measures here satisfy the TGM Applicability Property (Theorem 3.1):

  1. ``Sim(Q, Q∩S) >= Sim(Q, S)``
  2. ``R' ⊂ R ⊆ Q  =>  Sim(Q, R) >= Sim(Q, R')``

so ``Sim(Q, Q ∩ GS_g)`` upper-bounds the similarity between ``Q`` and
every member of group ``g`` (Equation 2 generalized beyond Jaccard).
"""
from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

MEASURES = ("jaccard", "dice", "cosine")


def tokens(xs: Iterable[int], *, multiset: bool = False) -> np.ndarray:
    """Normalize an iterable of token ids into the canonical array form."""
    a = np.asarray(sorted(xs), dtype=np.int64)
    if not multiset:
        a = np.unique(a)
    return a


def intersection_size(a: np.ndarray, b: np.ndarray) -> int:
    """|a ∩ b| for sorted token arrays (multiset-aware via min counts)."""
    return len(np.intersect1d(a, b, assume_unique=False))


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """|a∩b| / |a∪b|; 0 for two empty sets by convention."""
    if len(a) == 0 and len(b) == 0:
        return 0.0
    c = intersection_size(a, b)
    u = len(np.union1d(a, b))
    return c / u if u else 0.0


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """2|a∩b| / (|a| + |b|)."""
    if len(a) == 0 and len(b) == 0:
        return 0.0
    denom = len(np.unique(a)) + len(np.unique(b))
    return 2.0 * intersection_size(a, b) / denom if denom else 0.0


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """|a∩b| / sqrt(|a| * |b|) (set cosine similarity)."""
    na, nb = len(np.unique(a)), len(np.unique(b))
    if na == 0 or nb == 0:
        return 0.0
    return intersection_size(a, b) / np.sqrt(na * nb)


def check_measure(measure: str) -> str:
    """``measure`` itself if it names one of :data:`MEASURES`; else ``ValueError``."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; choose from {MEASURES}")
    return measure


def sim_fn(measure: str) -> Callable[[np.ndarray, np.ndarray], float]:
    """Look up a pairwise similarity function by name."""
    return {"jaccard": jaccard, "dice": dice, "cosine": cosine}[check_measure(measure)]


def group_upper_bound(c: float, q_size: int, measure: str = "jaccard") -> float:
    """``Sim(Q, R)`` where ``R = Q ∩ GS_g`` with ``|R| = c``, ``|Q| = q_size``.

    This is Equation (2) for Jaccard and its analogue for the other
    measures: since ``R ⊆ Q``, the union is ``Q`` itself, giving closed
    forms Jaccard ``c/|Q|``, Dice ``2c/(|Q|+c)``, Cosine ``sqrt(c/|Q|)``.
    """
    if q_size == 0:
        return 0.0
    if measure == "jaccard":
        return c / q_size
    if measure == "dice":
        return 2.0 * c / (q_size + c)
    if measure == "cosine":
        return float(np.sqrt(c / q_size))
    raise ValueError(f"unknown measure {measure!r}; choose from {MEASURES}")


def group_upper_bounds(
    counts: np.ndarray, q_size: int, measure: str = "jaccard"
) -> np.ndarray:
    """Vectorized :func:`group_upper_bound` over per-group match counts."""
    counts = np.asarray(counts, dtype=np.float64)
    if q_size == 0:
        return np.zeros_like(counts)
    if measure == "jaccard":
        return counts / q_size
    if measure == "dice":
        return 2.0 * counts / (q_size + counts)
    if measure == "cosine":
        return np.sqrt(counts / q_size)
    raise ValueError(f"unknown measure {measure!r}; choose from {MEASURES}")
