from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from timem.errors import DegenerateInput
from timem.metrics import count_tokens, separation_ratio, silhouette, spread_metrics


# --- token counting -----------------------------------------------------------

def test_count_tokens_examples():
    assert count_tokens("") == 0
    assert count_tokens("a b  c") == 3


@given(st.text(alphabet=st.characters(blacklist_categories=("Z", "C")), min_size=1),
       st.text(alphabet=st.characters(blacklist_categories=("Z", "C")), min_size=1))
def test_count_tokens_additive(a, b):
    assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)


# --- independent oracles ----------------------------------------------------------

def cos_dist(u, v) -> float:
    return 1.0 - float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def silhouette_oracle(points, labels) -> float:
    """Naive double-loop silhouette with cosine distance."""
    scores = []
    for i, (p, lab) in enumerate(zip(points, labels)):
        own = [q for j, (q, l) in enumerate(zip(points, labels)) if l == lab and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = sum(cos_dist(p, q) for q in own) / len(own)
        b = math.inf
        for other in set(labels) - {lab}:
            members = [q for q, l in zip(points, labels) if l == other]
            b = min(b, sum(cos_dist(p, q) for q in members) / len(members))
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return sum(scores) / len(scores)


def separation_oracle(points, labels) -> float:
    """Per-label loops: mean pairwise centroid distance over the mean
    distance of points to their own cluster's centroid; a centroid that
    cancels (norm below 1e-12) is at distance 1."""
    clusters: dict = {}
    for p, lab in zip(points, labels):
        clusters.setdefault(lab, []).append(np.asarray(p, dtype=np.float64))
    centroids = {lab: sum(members) / len(members) for lab, members in clusters.items()}

    def dist(u, v) -> float:
        if np.linalg.norm(u) < 1e-12 or np.linalg.norm(v) < 1e-12:
            return 1.0
        return cos_dist(u, v)

    names = list(clusters)
    inter = [dist(centroids[names[i]], centroids[names[j]])
             for i in range(len(names)) for j in range(i + 1, len(names))]
    intra = [dist(p, centroids[lab]) for lab, members in clusters.items() for p in members]
    numerator, denominator = sum(inter) / len(inter), sum(intra) / len(intra)
    if denominator == 0.0:
        return math.inf if numerator > 0 else 0.0
    return numerator / denominator


def silhouette_reference(points: np.ndarray, labels: list[str]) -> float:
    """Silhouette from the full n×n cosine-distance matrix, vectorised."""
    unit = points / np.linalg.norm(points, axis=1)[:, None]
    dist = 1.0 - unit @ unit.T
    np.fill_diagonal(dist, 0.0)
    names = np.asarray(labels)
    own = np.stack([names == name for name in sorted(set(labels))], axis=1)  # n×labels
    sizes = own.sum(axis=0)
    sums = np.stack([dist[:, column].sum(axis=1) for column in own.T], axis=1)
    own_size = own @ sizes
    a = sums[own] / np.maximum(own_size - 1, 1)
    b = np.where(own, np.inf, sums / sizes).min(axis=1)
    return float(np.mean(np.where(own_size > 1, (b - a) / np.maximum(a, b), 0.0)))


def spread_oracle(points):
    centroid = np.mean(points, axis=0)
    centroid = centroid / np.linalg.norm(centroid)
    dists = sorted(cos_dist(p, centroid) for p in points)
    spread = sum(dists) / len(dists)
    radius95 = dists[max(1, math.ceil(0.95 * len(dists))) - 1]
    return spread, radius95


def unit_cloud(rng: random.Random, n: int, dim: int = 6, around: int = 0,
               sigma: float = 0.15):
    points = []
    for _ in range(n):
        v = np.array([rng.gauss(0, sigma) for _ in range(dim)])
        v[around % dim] += 1.0
        points.append(v / np.linalg.norm(v))
    return points


# --- silhouette ----------------------------------------------------------------------

def test_silhouette_two_tight_clusters():
    rng = random.Random(5)
    points = unit_cloud(rng, 3, around=0, sigma=0.03) + unit_cloud(rng, 3, around=3, sigma=0.03)
    labels = ["a"] * 3 + ["b"] * 3
    value = silhouette(points, labels)
    assert value > 0.9
    assert value == pytest.approx(silhouette_oracle(points, labels), abs=1e-9)


def test_silhouette_identical_points_zero():
    p = np.array([1.0, 0.0, 0.0])
    points = [p, p, p, p]
    assert silhouette(points, ["a", "a", "b", "b"]) == 0.0


def test_silhouette_single_label_degenerate():
    with pytest.raises(DegenerateInput):
        silhouette([np.array([1.0, 0.0]), np.array([0.0, 1.0])], ["a", "a"])


def test_silhouette_singletons_contribute_zero():
    points = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert silhouette(points, ["a", "b"]) == 0.0


def test_silhouette_matches_oracle_randomized():
    rng = random.Random(12)
    # the last input puts a singleton cluster beside large ones
    for n_clusters, sizes in ((2, None), (3, None), (4, None), (3, (1, 40, 33))):
        points, labels = [], []
        for c in range(n_clusters):
            size = sizes[c] if sizes else rng.randint(2, 17)
            points.extend(unit_cloud(rng, size, around=c))
            labels.extend([f"c{c}"] * size)
        assert silhouette(points, labels) == pytest.approx(
            silhouette_oracle(points, labels), abs=1e-9)


def test_silhouette_at_scale_needs_no_distance_matrix():
    n, dim = 3000, 16
    rng = np.random.default_rng(8)
    points = rng.normal(0.0, 0.5, (n, dim))
    points[np.arange(n), np.arange(n) % 3] += 1.0
    labels = [f"u{i % 3}" for i in range(n)]
    tracemalloc.start()
    try:
        value = silhouette(points, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 10  # an n×n float64 matrix takes 72 MB
    assert value == pytest.approx(silhouette_reference(points, labels), abs=1e-9)


def test_silhouette_in_range_property():
    rng = random.Random(21)
    points = unit_cloud(rng, 20, around=0) + unit_cloud(rng, 20, around=1)
    labels = ["a"] * 20 + ["b"] * 20
    assert -1.0 <= silhouette(points, labels) <= 1.0


# --- spread / radius95 --------------------------------------------------------------------

def test_spread_single_point_and_identical_points():
    p = np.array([0.0, 1.0, 0.0])
    assert spread_metrics([p]) == (0.0, 0.0)
    spread, r95 = spread_metrics([p, p, p])
    assert spread == pytest.approx(0.0, abs=1e-12)
    assert r95 == pytest.approx(0.0, abs=1e-12)


def test_spread_matches_oracle_20_points():
    rng = random.Random(33)
    points = unit_cloud(rng, 20, around=2)
    spread, r95 = spread_metrics(points)
    want_spread, want_r95 = spread_oracle(points)
    assert spread == pytest.approx(want_spread, abs=1e-9)
    assert r95 == pytest.approx(want_r95, abs=1e-9)


def test_spread_matches_oracle_sizes_6_to_50():
    rng = random.Random(37)
    for n in (6, 13, 50):
        points = unit_cloud(rng, n, around=1)
        got = spread_metrics(points)
        want = spread_oracle(points)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)


def test_radius95_upper_bounds_most_points():
    rng = random.Random(41)
    points = unit_cloud(rng, 40, around=0)
    _, r95 = spread_metrics(points)
    centroid = np.mean(points, axis=0)
    centroid /= np.linalg.norm(centroid)
    within = sum(1 for p in points if cos_dist(p, centroid) <= r95 + 1e-12)
    assert within >= math.ceil(0.95 * len(points))


# --- separation ratio -----------------------------------------------------------------------

def test_separation_ratio_duplication_invariant():
    rng = random.Random(55)
    points = unit_cloud(rng, 8, around=0) + unit_cloud(rng, 8, around=4)
    labels = ["a"] * 8 + ["b"] * 8
    base = separation_ratio(points, labels)
    doubled = separation_ratio(points + points, labels + labels)
    assert doubled == pytest.approx(base, abs=1e-9)


def test_separation_ratio_tight_far_clusters_large():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert separation_ratio([a, a, b, b], ["a", "a", "b", "b"]) == math.inf
    rng = random.Random(60)
    loose = unit_cloud(rng, 10, around=0) + unit_cloud(rng, 10, around=3)
    labels = ["a"] * 10 + ["b"] * 10
    assert separation_ratio(loose, labels) > 1.0


def test_separation_ratio_matches_oracle_randomized():
    rng = random.Random(19)
    v = np.array([0.6, 0.0, 0.8, 0.0, 0.0, 0.0])
    w = np.array([0.0, 0.6, 0.0, 0.8, 0.0, 0.0])
    for _ in range(6):
        # centroids that cancel: exactly, and to a norm below 1e-12
        points = [v, -v, w, -(1 + 1e-13) * w]
        labels = ["cancel", "cancel", "near", "near"]
        points.append(unit_cloud(rng, 1, around=5)[0])
        labels.append("single")
        for c in range(rng.randint(1, 4)):
            size = rng.randint(1, 20)
            points.extend(unit_cloud(rng, size, around=c))
            labels.extend([f"c{c}"] * size)
        assert separation_ratio(points, labels) == pytest.approx(
            separation_oracle(points, labels), rel=1e-9)


def test_separation_ratio_single_label_degenerate():
    with pytest.raises(DegenerateInput):
        separation_ratio([np.array([1.0, 0.0])], ["a"])
