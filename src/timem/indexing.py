"""Dual-channel scoring over base segments.

Semantic channel: cosine similarity of embeddings, mapped to [0, 1].
Lexical channel: Okapi BM25, computed over the query's keyword terms
only (no corpus-wide index), min-max normalized per query across the
leaf pool. The two are fused with a configurable weight and the top-k
leaves are activated.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, ZeroVector
from .tree import MemoryNode

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0 <= self.b <= 1:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


def bm25_scores(corpus: list[list[str]], terms: list[str],
                params: Bm25Params | None = None) -> list[float]:
    """Okapi BM25 of every document, summed over the query terms in order,
    once per occurrence; no other term of the corpus is counted."""
    params = params or Bm25Params()
    k1, b = params.k1, params.b
    n = len(corpus)
    scores = [0.0] * n
    for term in terms:
        freqs = [doc.count(term) for doc in corpus]
        containing = n - freqs.count(0)
        if not containing:
            continue
        avgdl = sum(len(doc) for doc in corpus) / n
        # idf = ln((N - n_t + 0.5) / (n_t + 0.5) + 1)
        idf = math.log((n - containing + 0.5) / (containing + 0.5) + 1.0)
        for i, (doc, f) in enumerate(zip(corpus, freqs)):
            if f:
                scores[i] += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(doc) / avgdl))
    return scores


def bm25_score(
    corpus: list[list[str]],
    doc_index: int,
    keywords: list[str],
    params: Bm25Params | None = None,
) -> float:
    """BM25 of one document of the corpus for the keyword tokens."""
    if not 0 <= doc_index < len(corpus):
        raise IndexOutOfRange(f"doc index {doc_index} outside corpus of {len(corpus)}")
    return bm25_scores(corpus, keywords, params)[doc_index]


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch(f"shapes {u.shape} and {v.shape} differ")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine similarity undefined for zero vectors")
    return float(np.dot(u, v) / (nu * nv))


@dataclass(frozen=True)
class ScoredLeaf:
    node_id: int
    s_sem: float
    s_lex: float
    fused: float


def _keyword_terms(keywords: list[str]) -> list[str]:
    """Flatten keywords to tokens (a multiword keyword scores per token)."""
    terms: list[str] = []
    for kw in keywords:
        terms.extend(tokenize(kw))
    return terms


def fused_top_k(
    query_embedding: np.ndarray,
    keywords: list[str],
    leaves: list[MemoryNode],
    fusion_weight: float = 0.9,
    k: int = 20,
    params: Bm25Params | None = None,
) -> list[ScoredLeaf]:
    """Score every leaf on both channels and return the top-k fused.

    s_sem = (1 + cosine) / 2; s_lex = min-max normalized BM25 over the
    whole leaf pool (all scores equal -> 0 for all). Ties break toward
    the more recent interval end, then the smaller id.
    """
    if not 0 <= fusion_weight <= 1:
        raise ValueError(f"fusion weight must be in [0, 1], got {fusion_weight}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not leaves:
        return []

    terms = _keyword_terms(keywords)
    corpus = [tokenize(leaf.text) for leaf in leaves]
    raw_lex = bm25_scores(corpus, terms, params)
    lo, hi = min(raw_lex), max(raw_lex)
    if hi > lo:
        s_lex = [(x - lo) / (hi - lo) for x in raw_lex]
    else:
        s_lex = [0.0] * len(leaves)  # no discriminative lexical signal

    scored = []
    for i, leaf in enumerate(leaves):
        if leaf.embedding is None:
            raise ValueError(f"leaf {leaf.id} has no embedding")
        sem = (1.0 + cosine_similarity(query_embedding, leaf.embedding)) / 2.0
        fused = fusion_weight * sem + (1.0 - fusion_weight) * s_lex[i]
        scored.append((fused, leaf.interval.end, leaf.id, ScoredLeaf(leaf.id, sem, s_lex[i], fused)))

    # fused descending, then recency descending, then id ascending
    scored.sort(key=lambda item: (-item[0], -item[1].timestamp(), item[2]))
    return [item[3] for item in scored[:k]]
