"""Dual-channel scoring over base segments.

Semantic channel: cosine similarity of embeddings, mapped to [0, 1].
Lexical channel: Okapi BM25 of the query's keyword terms, min-max
normalized per query across the leaf pool. The two are fused with a
configurable weight and the top-k leaves are activated.

`tokenize` makes the terms of the lexical channel, and the mock
providers share it. A token is a maximal run of ASCII letters and
digits in the lowered text; every other character separates tokens.
The lowered text's UTF-8 bytes go through one byte translate and one
`split`.

Leaves are scored from a `LeafIndex`, the columns of a leaf pool that
scoring reads: float32 embedding rows in blocks that never move, flat
arrays of float64 norms, end times and ids, plus BM25's `Postings`: for
each term the ascending rows that hold it with its count in each, and a
running sum of token lengths. The tree keeps one index per user, in
(end, id) order, so a recall scores the prefix ending by t_q in one
vectorised pass, and BM25 touches only the leaves that hold a keyword.
BM25 is array arithmetic too: the postings are int64 `array`s that
grow by appends, and per query term one evaluation of the Okapi
expression over copies of the term's rows and counts, and of the
lengths, gives each leaf the float a per-document loop gives.

The semantic channel is scored in two passes. A float32 screen takes
every row's dot product with the unit query, one gemv per slice of at
most 1 MiB of a block (of the query's nonzero columns alone, for a
sparse query), and forms a rough fused score. Its error has a
proven bound, delta, so only the leaves whose rough score is within
2 * delta of the k-th largest can be in the top k (see `_screen`). The
exact pass runs the float64 `einsum` on those leaves alone and orders
them with the same expressions as a pass over every leaf, so the result
is the same, bit for bit.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, ZeroVector

if TYPE_CHECKING:
    from .tree import MemoryNode

# Every byte but a-z and 0-9 becomes a space, so that splitting the
# translated text on whitespace yields exactly the maximal [a-z0-9] runs.
# Each UTF-8 byte of a non-ASCII code point is >= 0x80, so it becomes a
# space too.
_NON_TOKEN_TO_SPACE = bytes(c if 97 <= c <= 122 or 48 <= c <= 57 else 32 for c in range(256))
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def tokenize(text: str) -> list[str]:
    """Lowercase, then return the maximal runs of ASCII letters and digits.

    Only `a-z` and `0-9` are token characters: any other character,
    accented letters and non-ASCII digits included, separates tokens, so
    `tokenize("café")` is `["caf"]`, the list `re.findall(r"[a-z0-9]+",
    text.lower())` gives. The lowered text's UTF-8 bytes go through a
    byte table and one `split`; `surrogatepass` encodes a lone surrogate
    as bytes >= 0x80 like any other non-ASCII character.
    """
    return (text.lower().encode("utf-8", "surrogatepass").translate(_NON_TOKEN_TO_SPACE)
            .decode("ascii").split())


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
    running sum of token lengths, `length_sums[n]` over the first n, all
    int64 `array`s that `add` appends to.

    `scores` reads any prefix of the rows, so an index can score the
    leaves ending by t_q while it keeps growing. It reads a copy of the
    prefix, never a view of an `array`: an `array` with a live view
    refuses to grow, and a view held by a stored traceback would stop
    the next `add`.
    """

    __slots__ = ("terms", "length_sums")

    def __init__(self):
        self.terms: dict[str, tuple[array, array]] = {}  # term -> rows, counts
        self.length_sums = array("q", [0])

    @classmethod
    def of(cls, corpus: list[list[str]]) -> Postings:
        postings = cls()
        for doc in corpus:
            postings.add(doc)
        return postings

    def add(self, tokens: list[str]) -> None:
        """Post the next row's tokens."""
        row = len(self.length_sums) - 1
        counts: dict[str, int] = {}  # a plain dict costs less than a Counter of a few tokens
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, count in counts.items():
            posting = self.terms.get(term)
            if posting is None:
                posting = self.terms[term] = (array("q"), array("q"))
            posting[0].append(row)
            posting[1].append(count)
        self.length_sums.append(self.length_sums[-1] + len(tokens))

    def scores(self, terms: list[str], n: int, params: Bm25Params | None = None) -> np.ndarray:
        """Okapi BM25 of each of the first `n` rows, summed over the query
        terms in order, once per occurrence.

        Only the rows that hold a term are read. Each term's contributions
        are the expression a per-document loop computes, evaluated once
        over the arrays of its rows' counts and lengths in the same
        operation order: IEEE doubles give each element the float the
        loop's Python floats give. They are added to their rows term by
        term in query order, so every score is the same float.
        """
        params = params or Bm25Params()
        k1, b = params.k1, params.b
        scores = np.zeros(n)
        sums = np.frombuffer(self.length_sums[:n + 1], dtype=np.int64)
        for term in terms:
            rows, f = self.terms.get(term, ((), ()))
            containing = bisect_left(rows, n)
            if not containing:
                continue
            rows = np.frombuffer(rows[:containing], dtype=np.int64)
            f = np.frombuffer(f[:containing], dtype=np.int64)
            dl = sums[rows + 1] - sums[rows]
            avgdl = self.length_sums[n] / n
            # idf = ln((N - n_t + 0.5) / (n_t + 0.5) + 1)
            idf = math.log((n - containing + 0.5) / (containing + 0.5) + 1.0)
            scores[rows] += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * dl / avgdl))
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


class ScoredLeaf(NamedTuple):
    """A leaf's two channel scores and their fusion. A named tuple is
    immutable at about a third of the construction cost of a frozen
    dataclass, whose `__init__` sets each field by `object.__setattr__`;
    `fused_top_k` builds one per leaf it returns."""

    node_id: int
    s_sem: float
    s_lex: float
    fused: float


# The floats of one gemv of the screen, 1 MiB. OpenBLAS (0.3.31) splits a
# gemv of 460,800 floats or more (450 rows at d = 1024) across threads,
# and a process can fall into a regime where each split gemv waits about
# 8 ms for the second CPU. Slices below that size are never split, and
# at 1k rows their gemvs cost what one single-threaded gemv does. A slice
# holds SCREEN_FLOATS // width rows: width is d for a dense query, and
# the support size for a sparse one, whose slices gather only the
# query's nonzero columns.
SCREEN_FLOATS = 1 << 18
# A query with at most d / _SPARSE_RATIO nonzero columns (12 of 1024) is
# sparse. Gathering its columns reads a few cache lines of each row where
# the gemv streams all of it, but costs more per float read once the rows
# leave the cache. With 12 columns or fewer the gather beat the gemv at
# 250, 1k, 4k and 16k rows; with 24 it lost at 250 and barely won at 16k.
_SPARSE_RATIO = 80
# The floats of a leaf index's first block at least, 64 KiB: a small
# pool has few blocks, so the screen and the exact pass make few calls.
FIRST_BLOCK_FLOATS = SCREEN_FLOATS // 16


class LeafIndex:
    """The columns of a leaf pool that scoring reads, in the order added.

    Embeddings are float32 rows in `blocks`, which only `reserve` adds
    to and which never move, so a view of a row stays that row. The
    rows are written by the index's owner, a tree that writes each
    segment into its `row` and makes that row the segment's
    `embedding`, or `of` for a list of leaves. `add` then fills the
    other columns of a written row: flat arrays of the same capacity
    hold each leaf's float64 norm, its interval end as a timestamp (the
    recency tie-break, and the key `upto` searches) and its id, so
    scoring slices them and joins nothing. The leaf's tokens are posted
    once, when it is added, to `postings`: per term the rows that hold
    it and its count in each, and the running sum of token lengths. So
    no recall tokenizes a leaf again, and BM25 over a prefix reads only
    the rows of its terms.

    Rows are only ever appended, so a view from `upto` stays valid while
    the index it came from grows: a grown column is a new array, and the
    view keeps the old one.
    """

    def __init__(self):
        self.blocks: list[np.ndarray] = []  # rows past the end: unset, or written
        self.starts: list[int] = []         # the position of each block's first row
        self._size = 0
        self.norms = np.empty(0)                 # float64 norm of each row
        self.stamps = np.empty(0)                # interval end, POSIX seconds
        self.ids = np.empty(0, dtype=np.int64)
        self.postings = Postings()

    @classmethod
    def of(cls, leaves: list[MemoryNode]) -> LeafIndex:
        """An index of copies of the leaves' embeddings."""
        index = cls()
        if leaves:
            index.reserve(len(leaves), np.size(leaves[0].embedding))
        for position, leaf in enumerate(leaves):
            row = index.row(position)
            if np.shape(leaf.embedding) != row.shape:
                raise DimensionMismatch(
                    f"leaf {leaf.id} has embedding shape {np.shape(leaf.embedding)}, "
                    f"the pool {row.shape}")
            row[:] = leaf.embedding
            index.add(leaf)
        return index

    def __len__(self) -> int:
        return self._size

    @property
    def dimension(self) -> int:
        """The float count of a row, 0 until the first block."""
        return self.blocks[0].shape[1] if self.blocks else 0

    @property
    def capacity(self) -> int:
        """The rows the blocks hold, written or not."""
        return self.starts[-1] + len(self.blocks[-1]) if self.blocks else 0

    def row(self, position: int) -> np.ndarray:
        """The row at `position`, a view of its block."""
        block = bisect_right(self.starts, position) - 1
        return self.blocks[block][position - self.starts[block]]

    def reserve(self, count: int, dimension: int) -> None:
        """Make room for `count` rows of `dimension` floats: a first block
        of `count` rows and `FIRST_BLOCK_FLOATS` floats at least, then
        blocks as large as all before, doubling the capacity."""
        if count <= self.capacity:
            return
        if self.blocks and dimension != self.dimension:
            raise DimensionMismatch(f"rows of {dimension} floats for a pool of {self.dimension}")
        while (held := self.capacity) < count:
            rows = held or max(count, FIRST_BLOCK_FLOATS // max(1, dimension))
            self.blocks.append(np.empty((rows, dimension), dtype=np.float32))
            self.starts.append(held)
        self.norms, self.stamps, self.ids = (
            np.resize(column, self.capacity) for column in (self.norms, self.stamps, self.ids))

    def add(self, leaf: MemoryNode) -> None:
        """Append the columns of a leaf whose row is already written."""
        size = self._size
        wide = self.row(size).astype(np.float64)
        self.norms[size] = math.sqrt(wide.dot(wide))  # np.linalg.norm's float, without its dispatch
        self.stamps[size] = leaf.interval.end.timestamp()
        self.ids[size] = leaf.id
        self.postings.add(tokenize(leaf.text))
        self._size += 1

    def upto(self, t_q: datetime | None) -> LeafIndex:
        """A view of the leaves ending at or before an aware `t_q` (every
        leaf for None). It searches the end stamps, so the leaves must be
        in (end, id) order, as a tree's are: each level is append-only.
        `t_q`'s stamp is the float of `t_q.timestamp()`, and distinct
        microseconds stay distinct floats until the year 2242."""
        view = object.__new__(LeafIndex)  # shares every column; a grown one is a new array
        view.__dict__.update(self.__dict__)
        if t_q is not None:
            stamp = (t_q - _EPOCH).total_seconds()  # a naive t_q raises TypeError
            view._size = int(np.searchsorted(self.stamps[:self._size], stamp, side="right"))
        return view

    def rough_dots(self, unit_query: np.ndarray) -> np.ndarray:
        """Each leaf's float32 dot product with a float32 `unit_query`,
        one matrix-vector product per slice of at most `SCREEN_FLOATS`
        floats of a block.

        A sparse query, one with at most d / `_SPARSE_RATIO` nonzero
        columns, is dotted with those columns alone: each slice gathers
        them from its rows, a few floats per row where a dense query
        reads all d (4 KiB at d = 1024), and the gemv multiplies the
        gathered matrix by the query's nonzero entries. The terms left
        out are exact zeros, so the sum has fewer rounded terms and
        `_screen`'s bound holds. The support is the float32 query's, so
        an entry that underflowed to 0 is not read. A dense query's
        slices are views of its rows.
        """
        approx = np.empty(self._size, dtype=np.float32)
        width = self.dimension
        support = None
        if np.count_nonzero(unit_query) * _SPARSE_RATIO <= width:
            support = np.flatnonzero(unit_query)
            unit_query, width = unit_query[support], len(support)
        step = max(1, SCREEN_FLOATS // max(1, width))
        for start, block in zip(self.starts, self.blocks):
            if start >= self._size:
                break
            rows = block[:self._size - start]
            for first in range(0, len(rows), step):
                part = rows[first:first + step]
                if support is not None:
                    part = part.take(support, axis=1)
                np.dot(part, unit_query, out=approx[start + first:start + first + len(part)])
        return approx

    def dots(self, query: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The float64 dot products with `query` of the given ascending,
        distinct rows.

        They come from `einsum`, not from the gemv of `rows @ query`:
        OpenBLAS gemv can give two equal rows results that differ in the
        last bits depending on where they sit. `einsum` computes every
        row the same way, whichever rows it is given with, and for the
        mock embeddings bit for bit as the per-leaf `np.dot` of
        `cosine_similarity`. The rows are gathered in one take from each
        block that holds some of them.
        """
        bounds = np.searchsorted(rows, [*self.starts, self.capacity]).tolist()
        taken = [block[rows[lo:hi] - start] for start, block, lo, hi
                 in zip(self.starts, self.blocks, bounds, bounds[1:]) if hi > lo]
        return np.einsum("ij,j->i", taken[0] if len(taken) == 1 else np.concatenate(taken),
                         query)


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
    for a query whose norm is not finite. A NaN or inf outside a sparse
    query's columns is never read into the rough score; the norm shows it.
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
    query_norm = math.sqrt(query.dot(query))  # np.linalg.norm's float, without its dispatch
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
    return list(map(ScoredLeaf._make, zip(
        ids[top].tolist(), s_sem[top].tolist(), s_lex[top].tolist(), fused[top].tolist())))
