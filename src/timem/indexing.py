"""Dual-channel scoring over base segments.

Semantic channel: cosine similarity of embeddings, mapped to [0, 1].
Lexical channel: Okapi BM25 of the query's keyword terms, min-max
normalized per query across the leaf pool. The two are fused with a
configurable weight and the top-k leaves are activated.

Leaves are scored from a `LeafIndex`, the columns of a leaf pool that
scoring reads: float32 embedding rows in fixed-size blocks, float64
norms, end times and ids, plus BM25's `Postings`: for each term the
ascending rows that hold it with its count in each, and a running sum
of token lengths. The tree keeps one index per user, in (end, id)
order, so a recall scores the prefix ending by t_q in one vectorised
pass, and BM25 touches only the leaves that hold a keyword.
"""

from __future__ import annotations

import copy
import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, ZeroVector

if TYPE_CHECKING:
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


class Postings:
    """BM25's inputs for a list of documents that only grows: for each
    term, the ascending rows that hold it and its count in each, and the
    running sum of token lengths, `length_sums[n]` over the first n.

    `scores` reads any prefix of the rows, so an index can score the
    leaves ending by t_q while it keeps growing.
    """

    __slots__ = ("terms", "length_sums")

    def __init__(self):
        self.terms: dict[str, tuple[list[int], list[int]]] = {}
        self.length_sums = [0]

    @classmethod
    def of(cls, corpus: list[list[str]]) -> Postings:
        postings = cls()
        for doc in corpus:
            postings.add(doc)
        return postings

    def add(self, tokens: list[str]) -> None:
        """Post the next row's tokens."""
        row = len(self.length_sums) - 1
        for term, count in Counter(tokens).items():
            posting = self.terms.get(term)
            if posting is None:
                posting = self.terms[term] = ([], [])
            posting[0].append(row)
            posting[1].append(count)
        self.length_sums.append(self.length_sums[-1] + len(tokens))

    def scores(self, terms: list[str], n: int, params: Bm25Params | None = None) -> np.ndarray:
        """Okapi BM25 of each of the first `n` rows, summed over the query
        terms in order, once per occurrence.

        Only the rows that hold a term are visited. Each contribution is
        the expression a per-document loop computes, in Python floats
        from the same int counts and lengths, and is added to its row in
        the same order, so every score is the same float.
        """
        params = params or Bm25Params()
        k1, b = params.k1, params.b
        scores = np.zeros(n)
        sums = self.length_sums
        for term in terms:
            rows, counts = self.terms.get(term, ((), ()))
            containing = bisect_left(rows, n)
            if not containing:
                continue
            rows, counts = rows[:containing], counts[:containing]
            avgdl = sums[n] / n
            # idf = ln((N - n_t + 0.5) / (n_t + 0.5) + 1)
            idf = math.log((n - containing + 0.5) / (containing + 0.5) + 1.0)
            contributions = []
            for row, f in zip(rows, counts):
                dl = sums[row + 1] - sums[row]
                contributions.append(idf * f * (k1 + 1) / (f + k1 * (1 - b + b * dl / avgdl)))
            scores[rows] += contributions
        return scores


def bm25_scores(corpus: list[list[str]], terms: list[str],
                params: Bm25Params | None = None) -> list[float]:
    """Okapi BM25 of every document, summed over the query terms in order,
    once per occurrence; no other term of the corpus is counted."""
    return Postings.of(corpus).scores(terms, len(corpus), params).tolist()


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


# The embedding bytes of one LeafIndex block. It stays under the 128 KiB
# from which glibc's malloc maps fresh pages for an allocation, so blocks
# reuse the heap memory that the replaced per-node embeddings and freed
# trees leave behind. With 512 KiB blocks, each mapped afresh, peak RSS of
# the deep_durable benchmark (a replayed 1000-leaf tree) rose by 5%.
BLOCK_BYTES = 124 * 1024


def block_rows(dimension: int) -> int:
    """Rows of a LeafIndex block for float32 embeddings of `dimension`."""
    return max(1, BLOCK_BYTES // (4 * dimension))


class _Block:
    """The columns of `block_rows` leaves; rows past the index's end are unset."""

    __slots__ = ("rows", "norms", "stamps", "ids")

    def __init__(self, size: int, dimension: int):
        self.rows = np.empty((size, dimension), dtype=np.float32)
        self.norms = np.empty(size)                 # float64 norm of each row
        self.stamps = np.empty(size)                # interval end, POSIX seconds
        self.ids = np.empty(size, dtype=np.int64)


class LeafIndex:
    """The columns of a leaf pool that scoring reads, in the order added.

    Embeddings are float32 rows of fixed-size blocks: adding a leaf never
    moves the rows already held, so a tree can rebind each leaf's
    `node.embedding` to a view of its row instead of keeping a second
    copy. Beside each row: its float64 norm, the leaf's id and its
    interval end (a datetime for `upto`, a timestamp for the recency
    tie-break). The leaf's tokens are posted once, when it is added, to
    `postings`: per term the rows that hold it and its count in each,
    and the running sum of token lengths. So no recall tokenizes a leaf
    again, and BM25 over a prefix reads only the rows of its terms.

    Rows are only ever appended, so a view from `upto` stays valid while
    the index it came from grows.
    """

    def __init__(self):
        self.blocks: list[_Block] = []
        self.dimension = 0   # set by the first leaf, as is block_rows
        self.block_rows = 0
        self._size = 0
        self.ends: list[datetime] = []
        self.postings = Postings()

    @classmethod
    def of(cls, leaves: list[MemoryNode]) -> LeafIndex:
        index = cls()
        for leaf in leaves:
            index.add(leaf)
        return index

    def __len__(self) -> int:
        return self._size

    def add(self, leaf: MemoryNode) -> np.ndarray:
        """Append a leaf's columns; returns its embedding row."""
        if leaf.embedding is None:
            raise ValueError(f"leaf {leaf.id} has no embedding")
        vector = np.asarray(leaf.embedding)
        if not self.blocks:
            self.dimension = vector.shape[0]
            self.block_rows = block_rows(self.dimension)
        elif vector.shape != (self.dimension,):
            raise DimensionMismatch(
                f"leaf {leaf.id} has embedding shape {vector.shape}, the pool ({self.dimension},)")
        number, i = divmod(self._size, self.block_rows)
        if number == len(self.blocks):
            self.blocks.append(_Block(self.block_rows, self.dimension))
        block = self.blocks[number]
        block.rows[i] = vector
        row = block.rows[i]
        block.norms[i] = np.linalg.norm(row.astype(np.float64))
        block.stamps[i] = leaf.interval.end.timestamp()
        block.ids[i] = leaf.id
        self.ends.append(leaf.interval.end)
        self.postings.add(tokenize(leaf.text))
        self._size += 1
        return row

    def upto(self, t_q: datetime | None) -> LeafIndex:
        """A view of the leaves ending at or before `t_q` (every leaf for
        None); the leaves must have been added in (end, id) order."""
        view = copy.copy(self)
        if t_q is not None:
            view._size = bisect_right(self.ends, t_q, 0, self._size)
        return view

    def columns(self, query: np.ndarray) -> list[np.ndarray]:
        """Each leaf's dot product with a float64 `query`, its norm, end
        timestamp and id.

        The dot products come from `einsum` per block, not from the gemv
        of `rows @ query`: OpenBLAS gemv can give two equal rows results
        that differ in the last bits depending on where they sit, which
        would break the recency and id tie rule; `einsum` computes every
        row the same way, and for the mock embeddings bit for bit as the
        per-leaf `np.dot` of `cosine_similarity`.
        """
        if query.shape != (self.dimension,):
            raise DimensionMismatch(f"shapes {query.shape} and {(self.dimension,)} differ")
        parts = []
        for start, block in zip(range(0, self._size, self.block_rows), self.blocks):
            m = min(self.block_rows, self._size - start)
            parts.append((np.einsum("ij,j->i", block.rows[:m], query),
                          block.norms[:m], block.stamps[:m], block.ids[:m]))
        return [np.concatenate(column) for column in zip(*parts)]


def _keyword_terms(keywords: list[str]) -> list[str]:
    """Flatten keywords to tokens (a multiword keyword scores per token)."""
    terms: list[str] = []
    for kw in keywords:
        terms.extend(tokenize(kw))
    return terms


def fused_top_k(
    query_embedding: np.ndarray,
    keywords: list[str],
    leaves: list[MemoryNode] | LeafIndex,
    fusion_weight: float = 0.9,
    k: int = 20,
    params: Bm25Params | None = None,
) -> list[ScoredLeaf]:
    """Score every leaf on both channels and return the top-k fused.

    s_sem = (1 + cosine) / 2; s_lex = min-max normalized BM25 over the
    whole leaf pool (all scores equal -> 0 for all). Ties break toward
    the more recent interval end, then the smaller id. `leaves` is a
    list of nodes or a `LeafIndex`; a list is scored through a LeafIndex
    built for the call, with the same arithmetic.
    """
    if not 0 <= fusion_weight <= 1:
        raise ValueError(f"fusion weight must be in [0, 1], got {fusion_weight}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not len(leaves):
        return []
    index = leaves if isinstance(leaves, LeafIndex) else LeafIndex.of(leaves)

    query = np.asarray(query_embedding, dtype=np.float64)
    dots, norms, stamps, ids = index.columns(query)
    query_norm = float(np.linalg.norm(query))
    if query_norm == 0.0 or not norms.all():
        raise ZeroVector("cosine similarity undefined for zero vectors")
    s_sem = (1.0 + dots / (query_norm * norms)) / 2.0

    raw_lex = index.postings.scores(_keyword_terms(keywords), len(index), params)
    lo, hi = raw_lex.min(), raw_lex.max()
    if hi > lo:
        s_lex = (raw_lex - lo) / (hi - lo)
    else:
        s_lex = np.zeros(len(index))  # no discriminative lexical signal

    fused = fusion_weight * s_sem + (1.0 - fusion_weight) * s_lex
    # fused descending, then recency descending, then id ascending
    top = np.lexsort((ids, -stamps, -fused))[:k]
    return [ScoredLeaf(int(ids[i]), float(s_sem[i]), float(s_lex[i]), float(fused[i]))
            for i in top]
