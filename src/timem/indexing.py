"""Dual-channel scoring over base segments.

Semantic channel: cosine similarity of embeddings, mapped to [0, 1].
Lexical channel: Okapi BM25 of the query's keyword terms, min-max
normalized per query across the leaf pool. The two are fused with a
configurable weight and the top-k leaves are activated.

Leaves are scored from a `LeafIndex`, the columns of a leaf pool that
scoring reads: float32 embedding rows in fixed-size blocks, flat arrays
of float64 norms, end times and ids, plus BM25's `Postings`: for each
term the ascending rows that hold it with its count in each, and a
running sum of token lengths. The tree keeps one index per user, in
(end, id) order, so a recall scores the prefix ending by t_q in one
vectorised pass, and BM25 touches only the leaves that hold a keyword.

The semantic channel is scored in two passes. A float32 screen takes
every row's dot product with the unit query, one gemv per block, and
forms a rough fused score. Its error has a proven bound, delta, so only
the leaves whose rough score is within 2 * delta of the k-th largest
can be in the top k (see `_screen`). The exact pass runs the float64
`einsum` on those leaves alone and orders them with the same
expressions as a pass over every leaf, so the result is the same, bit
for bit.
"""

from __future__ import annotations

import copy
import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, ZeroVector

if TYPE_CHECKING:
    from .tree import MemoryNode

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


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


class LeafIndex:
    """The columns of a leaf pool that scoring reads, in the order added.

    Embeddings are float32 rows of fixed-size blocks: adding a leaf never
    moves the rows already held, so a tree can rebind each leaf's
    `node.embedding` to a view of its row instead of keeping a second
    copy. Beside the rows, flat arrays grown by doubling hold each
    leaf's float64 norm, its interval end as a timestamp (the recency
    tie-break, and the key `upto` searches) and its id, so scoring
    slices them and joins nothing. The leaf's tokens are posted once,
    when it is added, to `postings`: per term the rows that hold it and
    its count in each, and the running sum of token lengths. So no
    recall tokenizes a leaf again, and BM25 over a prefix reads only the
    rows of its terms.

    Rows are only ever appended, so a view from `upto` stays valid while
    the index it came from grows: a grown column is a new array, and the
    view keeps the old one.
    """

    def __init__(self):
        self.blocks: list[np.ndarray] = []  # rows past the end are unset
        self.dimension = 0   # set by the first leaf, as is block_rows
        self.block_rows = 0
        self._size = 0
        self.norms = np.empty(0)                 # float64 norm of each row
        self.stamps = np.empty(0)                # interval end, POSIX seconds
        self.ids = np.empty(0, dtype=np.int64)
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
        size = self._size
        number, i = divmod(size, self.block_rows)
        if number == len(self.blocks):
            self.blocks.append(np.empty((self.block_rows, self.dimension), dtype=np.float32))
        if size == len(self.ids):  # entries past the index's end are unset
            capacity = max(2 * size, self.block_rows)
            self.norms, self.stamps, self.ids = (
                np.resize(column, capacity) for column in (self.norms, self.stamps, self.ids))
        row = self.blocks[number][i]
        row[:] = vector
        self.norms[size] = np.linalg.norm(row.astype(np.float64))
        self.stamps[size] = leaf.interval.end.timestamp()
        self.ids[size] = leaf.id
        self.postings.add(tokenize(leaf.text))
        self._size += 1
        return row

    def upto(self, t_q: datetime | None) -> LeafIndex:
        """A view of the leaves ending at or before an aware `t_q` (every
        leaf for None); the leaves must have been added in (end, id) order.
        `t_q`'s stamp is the float of `t_q.timestamp()`, and distinct
        microseconds stay distinct floats until the year 2242."""
        view = copy.copy(self)
        if t_q is not None:
            stamp = (t_q - _EPOCH).total_seconds()  # a naive t_q raises TypeError
            view._size = int(np.searchsorted(self.stamps[:self._size], stamp, side="right"))
        return view

    def rough_dots(self, unit_query: np.ndarray) -> np.ndarray:
        """Each leaf's float32 dot product with a float32 `unit_query`,
        one matrix-vector product per block."""
        approx = np.empty(self._size, dtype=np.float32)
        for start, block in zip(range(0, self._size, self.block_rows), self.blocks):
            m = min(self.block_rows, self._size - start)
            np.dot(block[:m], unit_query, out=approx[start:start + m])
        return approx

    def dots(self, query: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The float64 dot products with `query` of the given ascending
        rows.

        They come from `einsum`, not from the gemv of `rows @ query`:
        OpenBLAS gemv can give two equal rows results that differ in the
        last bits depending on where they sit. `einsum` computes every
        row the same way, whichever rows it is given with, and for the
        mock embeddings bit for bit as the per-leaf `np.dot` of
        `cosine_similarity`. A block whose every row is given is
        multiplied in place; the other rows are gathered, a block's worth
        (under the 128 KiB of `BLOCK_BYTES`) at a time.
        """
        size, count = self.block_rows, -(-self._size // self.block_rows)
        starts = np.arange(count + 1) * size
        bounds = np.searchsorted(rows, starts)  # rows[bounds[b]:bounds[b + 1]] lie in block b
        held = np.minimum(starts[1:], self._size) - starts[:-1]
        products, done = [], 0
        for number in np.flatnonzero(np.diff(bounds) == held).tolist():
            if done < bounds[number]:
                products += self._gathered_dots(query, rows[done:bounds[number]])
            products.append(np.einsum("ij,j->i", self.blocks[number][:held[number]], query))
            done = bounds[number + 1]
        products += self._gathered_dots(query, rows[done:])
        return np.concatenate(products)

    def _gathered_dots(self, query: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
        size = self.block_rows
        rows = rows.tolist()
        return [np.einsum("ij,j->i", np.array([self.blocks[row // size][row % size]
                                               for row in rows[start:start + size]]), query)
                for start in range(0, len(rows), size)]


# Unit roundoff of float32, and the norm below which a row's screened
# score is not trusted: float32 underflow, or a flush to zero, errs by an
# absolute amount (at most d * 2**-126), not one relative to the norm.
_U32 = 2.0 ** -24
_TINY_NORM = 2.0 ** -60


def _screen(index: LeafIndex, query: np.ndarray, query_norm: float, s_lex: np.ndarray,
            fusion_weight: float, k: int) -> np.ndarray:
    """The rows that can be among the top k fused leaves, ascending.

    A rough fused score comes from float32 dot products with the unit
    query. For d < 2**24 dimensions, with g = d*u/(1 - d*u) and u = 2**-24,
    any float32 summation order (FMA and blocking included) puts a rough
    cosine within g*(1 + u) + u of the exact one, so a rough fused score
    is within delta = w/2 * (g*(1 + u) + u), plus a slack for the float64
    arithmetic, of the fused score the exact pass computes. The k leaves
    whose rough score is at least the k-th largest, theta, have fused
    scores of at least theta - delta, and a leaf whose rough score is
    below theta - 2*delta has a fused score below that: it cannot be in
    the top k under any tie rule. Leaves whose rough score or norm is not
    finite, or whose norm is tiny, are always kept, and every leaf is kept
    for a query whose norm is not finite.
    """
    n = len(index)
    if n <= k or not math.isfinite(query_norm):
        return np.arange(n)
    norms = index.norms[:n]
    trusted = np.isfinite(norms) & (norms >= _TINY_NORM)
    d = index.dimension
    gamma = d * _U32 / (1.0 - d * _U32)
    # the float64 slack bounds einsum's own error, the norms' and a few
    # roundings of the fusion expression, each at most d * 2**-53
    delta = fusion_weight / 2.0 * (gamma * (1.0 + _U32) + _U32) + d * 2.0 ** -50 + 1e-12
    approx = index.rough_dots((query / query_norm).astype(np.float32))
    rough = fusion_weight * ((1.0 + approx / norms) / 2.0) + (1.0 - fusion_weight) * s_lex
    trusted &= np.isfinite(rough)
    candidates = rough[trusted]
    if len(candidates) <= k:
        return np.arange(n)
    theta = np.partition(candidates, len(candidates) - k)[len(candidates) - k]
    return np.flatnonzero(~trusted | (rough >= theta - 2.0 * delta))


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
    built for the call, with the same arithmetic. Only the leaves that
    the float32 screen cannot rule out (`_screen`) get the exact float64
    dot product, the fusion and the order.
    """
    if not 0 <= fusion_weight <= 1:
        raise ValueError(f"fusion weight must be in [0, 1], got {fusion_weight}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not len(leaves):
        return []
    index = leaves if isinstance(leaves, LeafIndex) else LeafIndex.of(leaves)

    query = np.asarray(query_embedding, dtype=np.float64)
    if query.shape != (index.dimension,):
        raise DimensionMismatch(f"shapes {query.shape} and {(index.dimension,)} differ")
    n = len(index)
    norms = index.norms[:n]
    query_norm = float(np.linalg.norm(query))
    if query_norm == 0.0 or not norms.all():
        raise ZeroVector("cosine similarity undefined for zero vectors")

    raw_lex = index.postings.scores(_keyword_terms(keywords), n, params)
    lo, hi = raw_lex.min(), raw_lex.max()
    if hi > lo:
        s_lex = (raw_lex - lo) / (hi - lo)
    else:
        s_lex = np.zeros(n)  # no discriminative lexical signal

    kept = _screen(index, query, query_norm, s_lex, fusion_weight, k)
    ids, stamps, s_lex = index.ids[kept], index.stamps[kept], s_lex[kept]
    s_sem = (1.0 + index.dots(query, kept) / (query_norm * norms[kept])) / 2.0
    fused = fusion_weight * s_sem + (1.0 - fusion_weight) * s_lex
    # fused descending, then recency descending, then id ascending
    top = np.lexsort((ids, -stamps, -fused))[:k]
    return [ScoredLeaf(int(ids[i]), float(s_sem[i]), float(s_lex[i]), float(fused[i]))
            for i in top]
