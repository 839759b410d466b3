"""Context-size and embedding-geometry metrics.

Token counting uses whitespace chunks: a deterministic, model-free
proxy, so absolute counts are not comparable with model tokenizers but
ratios and orderings are. The geometry metrics all use cosine distance
(1 - cosine similarity) over unit-normalized inputs:

  silhouette        mean (b - a) / max(a, b); singleton clusters score 0
  spread            mean cosine distance to the normalized centroid
  radius95          nearest-rank 95th percentile of those distances
  separation ratio  mean pairwise centroid distance divided by the mean
                    distance of points to their own centroid

Each comes from the unit rows and per-label sums, never from pairwise
distances: cost O(n·d·labels) and no n×n array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInput


def count_tokens(text: str) -> int:
    """Number of whitespace-delimited chunks."""
    return len(text.split())


def nearest_rank(sorted_values, pct: float) -> float:
    """The nearest-rank `pct` percentile of ascending values."""
    return sorted_values[max(1, math.ceil(pct * len(sorted_values))) - 1]


def _as_matrix(points) -> np.ndarray:
    m = np.asarray(points, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected 2-D point array, got shape {m.shape}")
    return m


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero vector in point set")
    return m / norms[:, None]


def _indicator(labels, n: int, what: str) -> np.ndarray:
    """n×labels 0/1 matrix: row i marks point i's label, the labels in
    `str` order."""
    labels = list(labels)
    if len(labels) != n:
        raise ValueError("points and labels length mismatch")
    unique = sorted(set(labels), key=str)
    if len(unique) < 2:
        raise DegenerateInput(f"{what} needs at least 2 labels")
    code = {label: k for k, label in enumerate(unique)}
    codes = np.fromiter((code[label] for label in labels), dtype=np.int64, count=n)
    return (codes[:, None] == np.arange(len(unique))).astype(np.float64)


def silhouette(points, labels) -> float:
    """Mean silhouette with cosine distance.

    For unit row u_i and a cluster C with row sum S_C, the mean distance
    from u_i to C is 1 - u_i·S_C/|C|, and to the rest of its own cluster
    ((|C|-1) - u_i·(S_C - u_i))/(|C|-1).
    """
    m = _as_matrix(points)
    member = _indicator(labels, len(m), "silhouette")
    unit = _unit_rows(m)
    sizes = member.sum(axis=0)
    dots = unit @ (member.T @ unit).T            # u_i·S_C
    rest_dots = (dots * member).sum(axis=1) - np.einsum("ij,ij->i", unit, unit)
    own = member @ sizes
    rest = np.maximum(own - 1, 1)                # a singleton's a is unused
    a = (rest - rest_dots) / rest
    b = np.where(member == 1, np.inf, 1.0 - dots / sizes).min(axis=1)
    denom = np.maximum(a, b)
    scores = np.divide(b - a, denom, out=np.zeros(len(m)), where=(own > 1) & (denom != 0))
    return float(np.mean(scores))


def _directions(centroids: np.ndarray) -> np.ndarray:
    """Normalized centroids (the last axis). One that cancels, norm below
    1e-12, has no direction: it becomes zero, at distance 1 from all."""
    norms = np.linalg.norm(centroids, axis=-1, keepdims=True)
    return np.divide(centroids, norms, out=np.zeros_like(centroids), where=norms >= 1e-12)


def _centroid_distances(m: np.ndarray) -> np.ndarray:
    """Cosine distance of each point to the normalized centroid."""
    return 1.0 - _unit_rows(m) @ _directions(m.mean(axis=0))


def spread_metrics(points) -> tuple[float, float]:
    """(spread, radius95) of a point set; single point gives (0, 0)."""
    m = _as_matrix(points)
    if len(m) == 0:
        raise ValueError("spread_metrics needs at least one point")
    distances = np.sort(_centroid_distances(m))
    return float(distances.mean()), float(nearest_rank(distances, 0.95))


def separation_ratio(points, labels) -> float:
    """Inter-centroid distance over intra-cluster dispersion.

    Duplicating every cluster's points leaves the value unchanged.
    Returns 0 when centroids coincide, inf when clusters are perfectly
    tight but apart. A centroid that cancels to no direction (norm below
    1e-12) is at distance 1 from everything.
    """
    m = _as_matrix(points)
    member = _indicator(labels, len(m), "separation ratio")
    unit = _unit_rows(m)
    directions = _directions((member.T @ m) / member.sum(axis=0)[:, None])
    intra = 1.0 - ((unit @ directions.T) * member).sum(axis=1)
    inter = 1.0 - (directions @ directions.T)[np.triu_indices(len(directions), 1)]
    numerator = float(np.mean(inter))
    denominator = float(np.mean(intra))
    if denominator == 0.0:
        return math.inf if numerator > 0 else 0.0
    return numerator / denominator
