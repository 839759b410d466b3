from __future__ import annotations

import itertools
import json
import math
import random
import re
from collections import Counter
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timem import (
    Bm25Params,
    Level,
    MemoryEngine,
    MemoryNode,
    MemoryTree,
    ScoredLeaf,
    TemporalInterval,
    bm25_score,
    cosine_similarity,
    fused_top_k,
    parse_transcript,
    tokenize,
)
from timem import indexing
from timem.backends import MockEmbedder
from timem.bench import write_fixture
from timem.errors import DimensionMismatch, IndexOutOfRange, ZeroVector
from timem.indexing import (_SPARSE_RATIO, FIRST_BLOCK_FLOATS, LeafIndex, Postings, _screen,
                            bm25_scores)

from conftest import ingest_all, utc


# --- tokenize ---------------------------------------------------------------

def test_tokenize_examples():
    assert tokenize("Went to India, last year!") == ["went", "to", "india", "last", "year"]
    assert tokenize("") == []
    assert tokenize("GPT-4o 2024") == ["gpt", "4o", "2024"]


@given(st.text())
def test_tokenize_lowercase_alnum(text):
    for tok in tokenize(text):
        assert tok and tok == tok.lower()
        assert all(c.isascii() and (c.isalpha() or c.isdigit()) for c in tok)


def regex_tokens(text: str) -> list[str]:
    """The reference tokenizer: every maximal [a-z0-9] run of the lowered text."""
    return re.findall(r"[a-z0-9]+", text.lower())


@given(st.one_of(st.text(), st.text(st.characters(max_codepoint=0x7f))))
def test_tokenize_equals_the_regex(text):
    assert tokenize(text) == regex_tokens(text)


@pytest.mark.parametrize("text, tokens", [
    ("5\u212a run", ["5k", "run"]),  # the Kelvin sign lowers to ASCII k
    ("\u0130stanbul", ["i", "stanbul"]),  # İ lowers to i and a combining dot
    ("Stra\u00dfe", ["stra", "e"]),
    ("\u1e9e", []),  # capital sharp s lowers to ß
    ("caf\u00e9", ["caf"]),
    ("\uff11\uff12 km", ["km"]),  # full-width digits are not token characters
    ("a\xa0b\x85c\td\ne\r\nf", ["a", "b", "c", "d", "e", "f"]),
    ("a\x1cb\x1dc\x1ed\x1fe", ["a", "b", "c", "d", "e"]),
    ("\x1c\x1d\x1e\x1f", []),
    ("", []),
    ("?!., -- ...;", []),
    ("\x00A\x7fB\x80", ["a", "b"]),
    ("a\ud800b\udfffc", ["a", "b", "c"]),  # lone surrogates separate tokens
])
def test_tokenize_edge_cases(text, tokens):
    assert tokenize(text) == tokens == regex_tokens(text)


def test_tokenize_equals_the_regex_on_a_fixture(tmp_path):
    paths = write_fixture(tmp_path, seed=42)
    engine = MemoryEngine()
    texts = [json.loads(line)["question"] for line in paths[-1].read_text().splitlines()]
    for path in paths[:-1]:
        transcript = parse_transcript(path)
        ingest_all(engine, transcript.user_id, transcript.turns)
        texts += [node.text for node in engine.tree.all_nodes(transcript.user_id)]
    assert len(texts) > 100
    for text in texts:
        assert tokenize(text) == regex_tokens(text), text


# --- BM25 --------------------------------------------------------------------

CORPUS = [
    ["went", "to", "india", "last", "year"],
    ["went", "hiking", "in", "the", "alps"],
    ["india", "trip", "photos"],
]


def okapi_by_hand(n_containing: int, freq: int, dl: int, avgdl: float,
                  n_docs: int = 3, k1: float = 1.2, b: float = 0.75) -> float:
    """Independent spelled-out Okapi computation for single-term queries."""
    idf = math.log((n_docs - n_containing + 0.5) / (n_containing + 0.5) + 1.0)
    tf = freq * (k1 + 1) / (freq + k1 * (1 - b + b * dl / avgdl))
    return idf * tf


def test_bm25_hand_computed_values():
    avgdl = (5 + 5 + 3) / 3
    expected_d0 = okapi_by_hand(n_containing=2, freq=1, dl=5, avgdl=avgdl)
    expected_d2 = okapi_by_hand(n_containing=2, freq=1, dl=3, avgdl=avgdl)
    assert bm25_score(CORPUS, 0, ["india"]) == pytest.approx(expected_d0, abs=1e-9)
    assert bm25_score(CORPUS, 2, ["india"]) == pytest.approx(expected_d2, abs=1e-9)
    assert bm25_score(CORPUS, 1, ["india"]) == 0.0


def test_bm25_absent_keywords_zero():
    assert bm25_score(CORPUS, 0, ["zanzibar"]) == 0.0


def test_bm25_all_own_tokens_positive():
    corpus = [["only", "doc", "here"]]
    assert bm25_score(corpus, 0, ["only", "doc", "here"]) > 0.0


def test_bm25_multi_term_is_sum_of_terms():
    combined = bm25_score(CORPUS, 0, ["went", "india"])
    assert combined == pytest.approx(
        bm25_score(CORPUS, 0, ["went"]) + bm25_score(CORPUS, 0, ["india"]), abs=1e-12)


def test_bm25_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        bm25_score(CORPUS, 3, ["india"])


def test_bm25_params_validation():
    with pytest.raises(ValueError):
        Bm25Params(k1=-0.1)
    with pytest.raises(ValueError):
        Bm25Params(b=1.5)


# --- BM25 from postings, bit for bit --------------------------------------------

def per_document_bm25(corpus: list[list[str]], terms: list[str], params: Bm25Params) -> list[float]:
    """Okapi BM25 document by document, the oracle for the postings: each
    query term is counted in every document, in query order."""
    k1, b = params.k1, params.b
    n = len(corpus)
    scores = [0.0] * n
    for term in terms:
        freqs = [doc.count(term) for doc in corpus]
        containing = n - freqs.count(0)
        if not containing:
            continue
        avgdl = sum(len(doc) for doc in corpus) / n
        idf = math.log((n - containing + 0.5) / (containing + 0.5) + 1.0)
        for i, (doc, f) in enumerate(zip(corpus, freqs)):
            if f:
                scores[i] += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(doc) / avgdl))
    return scores


WORDS = ["lake", "kayak", "paella", "cello", "trip", "go"]
corpora = st.lists(st.lists(st.sampled_from(WORDS), max_size=12), max_size=30)
# multiword and repeated keywords, and "zebra", which no document holds
keyword_lists = st.lists(st.lists(st.sampled_from(WORDS[:3] + ["zebra"]), min_size=1, max_size=3)
                         .map(" ".join), max_size=4)
bm25_params = st.builds(Bm25Params, st.sampled_from([0.0, 0.5, 1.2, 2.0]),
                        st.sampled_from([0.0, 0.75, 1.0]))


def terms_of(keywords: list[str]) -> list[str]:
    return [t for kw in keywords for t in tokenize(kw)]


@settings(max_examples=300, deadline=None)
@given(corpora, keyword_lists, bm25_params, st.data())
def test_postings_scores_equal_the_per_document_loop(corpus, keywords, params, data):
    cut = data.draw(st.integers(0, len(corpus)), label="cut")
    terms = terms_of(keywords)
    want = per_document_bm25(corpus[:cut], terms, params)
    assert Postings.of(corpus).scores(terms, cut, params).tolist() == want  # every float
    assert bm25_scores(corpus[:cut], terms, params) == want


@settings(max_examples=60, deadline=None)
@given(corpora.filter(bool), st.lists(st.integers(1, 10), max_size=5), keyword_lists, st.data())
def test_postings_grown_in_catch_ups_equal_one_pass(corpus, steps, keywords, data):
    embedder = MockEmbedder(dimension=8)
    leaves = [make_leaf(i + 1, " ".join(doc), embedder.embed_text(f"leaf {i} {doc}"), i)
              for i, doc in enumerate(corpus)]
    tree = MemoryTree()
    inserted = 0
    for step in steps + [len(leaves)]:  # a catch-up after each step of inserts
        for leaf in leaves[inserted:inserted + step]:
            tree.insert_node(leaf)
        inserted = min(inserted + step, len(leaves))
        grown = tree.leaf_index("u")
    whole = LeafIndex.of(leaves).postings
    assert grown.postings.terms == whole.terms
    assert grown.postings.length_sums == whole.length_sums
    cut = data.draw(st.integers(0, len(corpus)), label="cut")
    terms = terms_of(keywords)
    assert (grown.postings.scores(terms, cut).tolist() == whole.scores(terms, cut).tolist()
            == per_document_bm25(corpus[:cut], terms, Bm25Params()))


@settings(max_examples=100, deadline=None)
@given(corpora.filter(bool), st.lists(st.tuples(st.integers(1, 8), keyword_lists),
                                      min_size=1, max_size=6), st.data())
def test_postings_read_between_catch_ups_equal_one_pass(corpus, steps, data):
    """Catch-ups grow the postings between reads: each score of a prefix
    equals one pass over the whole corpus and the per-document loop, bit
    for bit, a second read gives the same floats, and a view taken before
    a catch-up ranks as it did before it. The rows are so wide that every
    block doubles the capacity, so a catch-up also grows every column."""
    rng = np.random.default_rng(len(corpus))
    rows = rng.standard_normal((len(corpus), FIRST_BLOCK_FLOATS))
    rows = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)
    leaves = [make_leaf(i + 1, " ".join(doc), row, i) for i, (doc, row) in enumerate(zip(corpus, rows))]
    whole = Postings.of(corpus)
    tree = MemoryTree()
    inserted = 0
    views = []  # (view, query, keywords, its ranking when taken)
    for step, keywords in steps:
        for leaf in leaves[inserted:inserted + step]:
            tree.insert_node(leaf)
        inserted = min(inserted + step, len(leaves))
        index = tree.leaf_index("u")
        terms = terms_of(keywords)
        for cut in data.draw(st.lists(st.integers(0, inserted), min_size=1, max_size=3), label="cuts"):
            want = per_document_bm25(corpus[:cut], terms, Bm25Params())
            assert index.postings.scores(terms, cut).tolist() == want
            assert whole.scores(terms, cut).tolist() == want
            assert index.postings.scores(terms, cut).tolist() == want
        for view, query, words, ranked in views:
            assert fused_top_k(query, words, view, 0.9, 5) == ranked
        query = rows[inserted - 1].astype(np.float64) + rows[0]
        views.append((view := index.upto(leaves[inserted - 1].interval.end), query, keywords,
                      fused_top_k(query, keywords, view, 0.9, 5)))


def test_a_traceback_held_from_scores_does_not_stop_the_next_add():
    """`scores` reads copies of the postings, never views of them: an
    `array` with a live view refuses to grow, and an exception raised in
    `scores` and kept with its traceback keeps the frame's locals."""
    corpus = [["lake", "kayak"], ["lake"], ["paella", "lake", "lake"]]
    postings = Postings.of(corpus[:2])
    with pytest.raises(IndexError) as raised:
        postings.scores(["lake"], 3)  # past the rows posted
    assert raised.value.__traceback__ is not None  # held to the end of the test
    postings.add(corpus[2])
    terms = ["lake", "paella", "kayak"]
    assert postings.scores(terms, 3).tolist() == per_document_bm25(corpus, terms, Bm25Params())


@settings(max_examples=60, deadline=None)
@given(corpora, st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_leaf_columns_equal_numpy_norms_and_counter_postings(corpus, dim, seed):
    """A leaf's norm is the float of `np.linalg.norm` of its float64 row,
    and its postings those of a `Counter` of its tokens, in its order."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((len(corpus), dim)).astype(np.float32)
    rows *= rng.choice([1e-30, 1e-3, 1.0, 1e6, 1e30], size=(len(corpus), 1)).astype(np.float32)
    leaves = [make_leaf(i + 1, " ".join(doc), row, i) for i, (doc, row) in enumerate(zip(corpus, rows))]
    index = LeafIndex.of(leaves)
    want = np.array([np.linalg.norm(row.astype(np.float64)) for row in rows])
    assert index.norms[:len(index)].tobytes() == want.tobytes()
    terms: dict[str, tuple[list[int], list[int]]] = {}
    for row, doc in enumerate(corpus):
        for term, count in Counter(tokenize(" ".join(doc))).items():
            posting = terms.setdefault(term, ([], []))
            posting[0].append(row)
            posting[1].append(count)
    assert [(term, (rows.tolist(), counts.tolist()))
            for term, (rows, counts) in index.postings.terms.items()] == list(terms.items())
    assert index.postings.length_sums.tolist() == list(itertools.accumulate(
        (len(tokenize(" ".join(doc))) for doc in corpus), initial=0))


# --- cosine -------------------------------------------------------------------

def test_cosine_identity_orthogonal_antipodal():
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    assert cosine_similarity(e0, e0) == pytest.approx(1.0)
    assert cosine_similarity(e0, e1) == pytest.approx(0.0)
    assert cosine_similarity(e0, -e0) == pytest.approx(-1.0)


def test_cosine_errors():
    with pytest.raises(DimensionMismatch):
        cosine_similarity(np.ones(3), np.ones(4))
    with pytest.raises(ZeroVector):
        cosine_similarity(np.zeros(3), np.ones(3))


# --- fused scoring -------------------------------------------------------------

def make_leaf(node_id: int, text: str, embedding: np.ndarray, end_minute: int) -> MemoryNode:
    ts = utc(2023, 5, 1, 10, 0) if end_minute < 0 else utc(2023, 5, 1, 10 + end_minute // 60, end_minute % 60)
    return MemoryNode(
        id=node_id, user_id="u", level=Level.SEGMENT,
        interval=TemporalInterval(ts, ts), text=text, embedding=embedding)


def brute_force_fused(query_emb, keywords, leaves, lam, k,
                      params: Bm25Params | None = None):
    """Exhaustive reference: scores the whole pool and sorts."""
    params = params or Bm25Params()
    terms = []
    for kw in keywords:
        terms.extend(tokenize(kw))
    corpus = [tokenize(leaf.text) for leaf in leaves]
    n = len(corpus)
    avgdl = sum(len(d) for d in corpus) / n
    df: dict[str, int] = {}
    for doc in corpus:
        for t in set(doc):
            df[t] = df.get(t, 0) + 1
    raw = []
    for doc in corpus:
        score = 0.0
        for t in terms:
            if t not in df:
                continue
            f = doc.count(t)
            idf = math.log((n - df[t] + 0.5) / (df[t] + 0.5) + 1.0)
            score += idf * f * (params.k1 + 1) / (f + params.k1 * (1 - params.b + params.b * len(doc) / avgdl))
        raw.append(score)
    lo, hi = min(raw), max(raw)
    lex = [(x - lo) / (hi - lo) if hi > lo else 0.0 for x in raw]
    rows = []
    q = np.asarray(query_emb, dtype=np.float64)
    for leaf, s_lex in zip(leaves, lex):
        e = np.asarray(leaf.embedding, dtype=np.float64)
        s_sem = (1 + float(q @ e) / float(np.linalg.norm(q) * np.linalg.norm(e))) / 2
        fused = lam * s_sem + (1 - lam) * s_lex
        rows.append((fused, leaf.interval.end, leaf.id))
    rows.sort(key=lambda r: (-r[0], -r[1].timestamp(), r[2]))
    return [r[2] for r in rows[:k]]


def random_pool(rng: random.Random, size: int, embedder: MockEmbedder):
    vocab = ["kayak", "archery", "pottery", "lake", "cedar", "mount", "trip",
             "dinner", "cello", "banjo", "paella", "ramen", "city", "park"]
    leaves = []
    for i in range(size):
        words = rng.choices(vocab, k=rng.randint(3, 10))
        text = " ".join(words)
        leaves.append(make_leaf(i + 1, text, embedder.embed_text(text), rng.randint(0, 600)))
    return leaves


def test_fused_top_k_matches_oracle_randomized():
    embedder = MockEmbedder(dimension=64)
    rng = random.Random(42)
    for trial in range(20):
        size = rng.randint(5, 200)
        leaves = random_pool(rng, size, embedder)
        lam = rng.choice([0.0, 0.5, 0.9, 1.0])
        k = rng.randint(1, 25)
        keywords = rng.sample(["kayak", "lake", "paella", "cello", "zebra", "lake kayak", "lake"],
                              k=rng.randint(0, 3))
        query = embedder.embed_text("kayak trip to the lake")
        got = [s.node_id for s in fused_top_k(query, keywords, leaves, lam, k)]
        want = brute_force_fused(query, keywords, leaves, lam, k)
        assert got == want, f"trial {trial}: {got} != {want}"


def test_fused_lambda_one_is_pure_cosine():
    embedder = MockEmbedder(dimension=32)
    leaves = random_pool(random.Random(1), 30, embedder)
    query = embedder.embed_text("pottery cedar")
    got = fused_top_k(query, ["paella"], leaves, 1.0, 30)
    cosines = sorted(
        ((cosine_similarity(query, l.embedding), l.interval.end.timestamp(), l.id) for l in leaves),
        key=lambda r: (-r[0], -r[1], r[2]))
    assert [s.node_id for s in got] == [c[2] for c in cosines]
    assert all(s.fused == pytest.approx(s.s_sem) for s in got)


def test_fused_lambda_zero_single_keyword_leaf_first():
    embedder = MockEmbedder(dimension=32)
    leaves = [
        make_leaf(1, "archery at the range", embedder.embed_text("archery at the range"), 0),
        make_leaf(2, "paella for dinner", embedder.embed_text("paella for dinner"), 1),
        make_leaf(3, "walk in the park", embedder.embed_text("walk in the park"), 2),
    ]
    query = embedder.embed_text("anything at all")
    got = fused_top_k(query, ["paella"], leaves, 0.0, 3)
    assert got[0].node_id == 2
    assert got[0].s_lex == 1.0


def test_a_scored_leaf_is_immutable_and_built_by_position_or_keyword():
    embedder = MockEmbedder(dimension=16)
    leaves = random_pool(random.Random(3), 10, embedder)
    got = fused_top_k(embedder.embed_text("cello"), ["cello"], leaves, 0.5, 3)
    assert all(type(leaf) is ScoredLeaf for leaf in got)
    leaf = got[0]
    assert leaf == ScoredLeaf(leaf.node_id, leaf.s_sem, leaf.s_lex, leaf.fused) == ScoredLeaf(
        node_id=leaf.node_id, s_sem=leaf.s_sem, s_lex=leaf.s_lex, fused=leaf.fused)
    with pytest.raises(AttributeError):
        leaf.fused = 1.0


def test_fused_empty_pool_returns_empty():
    embedder = MockEmbedder(dimension=16)
    assert fused_top_k(embedder.embed_text("x"), ["x"], [], 0.9, 20) == []


def test_fused_scores_in_unit_range_and_sorted():
    embedder = MockEmbedder(dimension=64)
    leaves = random_pool(random.Random(5), 80, embedder)
    got = fused_top_k(embedder.embed_text("cello banjo"), ["cello"], leaves, 0.9, 80)
    assert all(0.0 <= s.s_sem <= 1.0 and 0.0 <= s.s_lex <= 1.0 and 0.0 <= s.fused <= 1.0
               for s in got)
    fused_values = [s.fused for s in got]
    assert fused_values == sorted(fused_values, reverse=True)
    for s in got:
        assert s.fused == pytest.approx(0.9 * s.s_sem + 0.1 * s.s_lex, abs=1e-9)


def test_fused_keyword_monotonicity():
    """A keyword matching only leaf X never lowers X's rank when lambda < 1."""
    embedder = MockEmbedder(dimension=64)
    leaves = random_pool(random.Random(9), 40, embedder)
    target = make_leaf(99, "unique zanzibar festival", embedder.embed_text("unique zanzibar festival"), 50)
    pool = leaves + [target]
    query = embedder.embed_text("festival trip")

    def rank_of(keywords):
        ids = [s.node_id for s in fused_top_k(query, keywords, pool, 0.9, len(pool))]
        return ids.index(99)

    assert rank_of(["festival", "zanzibar"]) <= rank_of(["festival"])


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10_000))
def test_fused_deterministic(seed_pool, seed_kw):
    embedder = MockEmbedder(dimension=32)
    leaves = random_pool(random.Random(seed_pool), 25, embedder)
    rng = random.Random(seed_kw)
    keywords = rng.sample(["kayak", "lake", "paella"], k=rng.randint(0, 2))
    query = embedder.embed_text("kayak lake")
    first = fused_top_k(query, keywords, leaves, 0.9, 10)
    second = fused_top_k(query, keywords, leaves, 0.9, 10)
    assert first == second


# --- the vectorised scorer, bit for bit ------------------------------------------

def per_leaf_reference(query_emb, keywords, leaves, lam, dot):
    """fused_top_k leaf by leaf in Python floats: `dot(q, e)` per leaf, the
    min-max and fusion per element, then one sort; returns every leaf."""
    terms = []
    for kw in keywords:
        terms.extend(tokenize(kw))
    raw = bm25_scores([tokenize(leaf.text) for leaf in leaves], terms)
    lo, hi = min(raw), max(raw)
    q = np.asarray(query_emb, dtype=np.float64)
    rows = []
    for leaf, x in zip(leaves, raw):
        e = np.asarray(leaf.embedding, dtype=np.float64)
        cos = float(dot(q, e) / (float(np.linalg.norm(q)) * float(np.linalg.norm(e))))
        s_sem = (1.0 + cos) / 2.0
        s_lex = (x - lo) / (hi - lo) if hi > lo else 0.0
        fused = lam * s_sem + (1.0 - lam) * s_lex
        rows.append((fused, leaf.interval.end, leaf.id, ScoredLeaf(leaf.id, s_sem, s_lex, fused)))
    rows.sort(key=lambda r: (-r[0], -r[1].timestamp(), r[2]))
    return [r[3] for r in rows]


DIM = 1024
ROWS = 64  # an index built one leaf at a time starts a new block at leaf ROWS + 1


def dense_pool(rng: np.random.Generator, size: int) -> list[MemoryNode]:
    """Unit float32 rows in (end, id) order. Leaves ROWS and ROWS + 1
    repeat leaf 4's text and embedding at one end, as the last row of a
    block of the index and the first row of the next; the last leaf
    repeats it at the latest end."""
    vocab = ["kayak", "lake", "paella", "cello", "trip", "park", "dinner"]
    leaves = []
    for i in range(size):
        vec = rng.standard_normal(DIM).astype(np.float32)
        vec /= np.linalg.norm(vec.astype(np.float64))
        text = " ".join(rng.choice(vocab, size=int(rng.integers(2, 8))))
        leaves.append(make_leaf(i + 1, text, vec, i))
    for i, end in ((ROWS - 1, ROWS - 1), (ROWS, ROWS - 1), (size - 1, size - 1)):
        leaves[i] = make_leaf(i + 1, leaves[3].text, leaves[3].embedding.copy(), end)
    return leaves


@pytest.mark.parametrize("kind", ["mock", "dense"])
@pytest.mark.parametrize("cutoff", ["none", "at-end", "just-before"])
def test_vectorised_scorer_matches_per_leaf_reference(kind, cutoff):
    size = 2 * ROWS + 40
    if kind == "mock":
        embedder = MockEmbedder(dimension=DIM)
        leaves = sorted(random_pool(random.Random(17), size, embedder),
                        key=lambda leaf: (leaf.interval.end, leaf.id))
        query = embedder.embed_text("kayak trip to the lake")
        dot = np.dot  # what cosine_similarity computes
    else:
        leaves = dense_pool(np.random.default_rng(17), size)
        query = leaves[3].embedding  # the twins tie on every channel
        dot = lambda q, e: np.einsum("j,j->", e, q)  # noqa: E731
    tree = MemoryTree()
    for leaf in leaves:
        tree.insert_node(leaf)
    pivot = leaves[size // 2].interval.end
    t_q = {"none": None, "at-end": pivot,
           "just-before": pivot - timedelta(microseconds=1)}[cutoff]
    pool = [leaf for leaf in leaves if t_q is None or leaf.interval.end <= t_q]

    index = tree.leaf_index("u").upto(t_q)
    assert len(index) == len(pool)
    for keywords in ([], ["lake"], ["kayak", "lake paella"]):
        got = fused_top_k(query, keywords, index, 0.9, size)
        want = per_leaf_reference(query, keywords, pool, 0.9, dot)
        assert got == want  # ids and every float, bit for bit
    if kind == "dense":  # equal rows score equal, then the later end, then the smaller id wins
        assert ROWS in tree.leaf_index("u").starts  # the twins on both sides of a block's end
        twins = [s for s in got if s.node_id in (4, ROWS, ROWS + 1, size)]
        assert len({(s.s_sem, s.s_lex, s.fused) for s in twins}) == 1
        expected = [ROWS, ROWS + 1, 4]
        assert [s.node_id for s in twins] == ([size] + expected if t_q is None else expected)


@pytest.mark.parametrize("cutoff", ["none", "at-end", "just-before"])
def test_dense_twins_compete_for_fewer_places_than_they_are(cutoff):
    """k = 3 with four leaves tied on every channel: the float32 screen
    must keep every twin, and the exact pass picks by end, then id."""
    size = 2 * ROWS + 40
    leaves = dense_pool(np.random.default_rng(17), size)
    query = leaves[3].embedding
    index = LeafIndex.of(leaves)
    pivot = leaves[size // 2].interval.end
    t_q = {"none": None, "at-end": pivot, "just-before": pivot - timedelta(microseconds=1)}[cutoff]
    pool = [leaf for leaf in leaves if t_q is None or leaf.interval.end <= t_q]
    dot = lambda q, e: np.einsum("j,j->", e, q)  # noqa: E731
    for keywords in ([], ["lake"], ["kayak", "lake paella"]):
        got = fused_top_k(query, keywords, index.upto(t_q), 0.9, 3)
        assert got == per_leaf_reference(query, keywords, pool, 0.9, dot)[:3]
    assert [s.node_id for s in got] == ([size, ROWS, ROWS + 1] if t_q is None
                                        else [ROWS, ROWS + 1, 4])


def test_upto_cuts_at_the_microsecond_and_rejects_a_naive_t_q():
    """Leaves one microsecond apart: each cut keeps exactly the leaves
    ending at or before it."""
    vec = np.ones(DIM, dtype=np.float32) / np.sqrt(DIM)
    leaves = [make_leaf(i + 1, "kayak", vec, 0) for i in range(12)]
    for i, leaf in enumerate(leaves):
        end = leaf.interval.end + timedelta(microseconds=i)
        leaf.interval = TemporalInterval(end, end)
    index = LeafIndex.of(leaves)
    for i, leaf in enumerate(leaves):
        assert len(index.upto(leaf.interval.end)) == i + 1
        assert len(index.upto(leaf.interval.end - timedelta(microseconds=1))) == i
    with pytest.raises(TypeError):
        index.upto(leaves[3].interval.end.replace(tzinfo=None))


# --- the float32 screen, bit for bit ------------------------------------------------

def stacked(index: LeafIndex) -> np.ndarray:
    """The index's rows as one matrix: a copy of its blocks, cut at its size."""
    return np.concatenate(index.blocks)[:len(index)]


def full_pass_reference(query_emb, keywords, index, lam, k):
    """fused_top_k without the screen: the float64 `einsum` of every row,
    then the fusion and the order over the whole pool."""
    n = len(index)
    q = np.asarray(query_emb, dtype=np.float64)
    dots = np.einsum("ij,j->i", stacked(index), q)
    norms, stamps, ids = index.norms[:n], index.stamps[:n], index.ids[:n]
    s_sem = (1.0 + dots / (float(np.linalg.norm(q)) * norms)) / 2.0
    raw = index.postings.scores(terms_of(keywords), n)
    lo, hi = raw.min(), raw.max()
    s_lex = (raw - lo) / (hi - lo) if hi > lo else np.zeros(n)
    fused = lam * s_sem + (1.0 - lam) * s_lex
    top = np.lexsort((ids, -stamps, -fused))[:k]
    return [ScoredLeaf(int(ids[i]), float(s_sem[i]), float(s_lex[i]), float(fused[i]))
            for i in top]


def unit32(vector: np.ndarray) -> np.ndarray:
    vector = vector.astype(np.float32)
    return vector / np.float32(np.linalg.norm(vector.astype(np.float64)))


def twin_row(dim: int) -> int:
    """The row of screened_pool's second twin: a power of two, so at
    dims 16 and 1024 the first row of a block of an index built leaf by
    leaf, with at least 1024 rows and 2**15 floats before it. The pool
    then holds 4k leaves at dim 16, and at dims 384 and 1024 its screen
    is a matrix large enough for OpenBLAS to split a gemv of it across
    threads."""
    rows = 1024
    while rows * dim < 1 << 15:
        rows *= 2
    return rows


def screened_pool(rng: np.random.Generator, dim: int) -> tuple[list[MemoryNode], np.ndarray]:
    """Dense unit rows in (end, id) order, and a query.

    Sixty leaves, at random places, lie near a target row: half within
    1e-7 of it in random directions, half in steps of 1e-7 from it along
    one direction. The query leans toward that direction, so the k-th
    score falls among scores about 5e-8 apart, closer than float32 can
    tell them. Two exact twins of the target sit on both sides of the
    end of a block of an index built leaf by leaf (`twin_row`), at one
    end and with one text."""
    rows = twin_row(dim)
    size = 2 * rows + 30
    vocab = ["kayak", "lake", "paella", "cello", "trip", "park", "dinner"]
    target = unit32(rng.standard_normal(dim))
    step = unit32(rng.standard_normal(dim))
    near = dict(zip(rng.choice(size, size=60, replace=False).tolist(), range(60)))
    start = utc(2023, 5, 1, 10, 0)
    leaves = []
    for i in range(size):
        if i not in near:
            vec = rng.standard_normal(dim)
        elif near[i] % 2:
            vec = target + 1e-7 * rng.standard_normal(dim) / np.sqrt(dim)
        else:
            vec = target + 1e-7 * near[i] / 2 * step
        text = " ".join(rng.choice(vocab, size=int(rng.integers(2, 8))))
        end = start + timedelta(minutes=i)
        leaves.append(MemoryNode(id=i + 1, user_id="u", level=Level.SEGMENT,
                                 interval=TemporalInterval(end, end), text=text,
                                 embedding=unit32(vec)))
    for i in (rows - 1, rows):
        end = start + timedelta(minutes=rows - 1)
        leaves[i] = MemoryNode(id=i + 1, user_id="u", level=Level.SEGMENT,
                               interval=TemporalInterval(end, end), text="kayak lake trip",
                               embedding=target.copy())
    query = target.astype(np.float64) + 0.5 * step
    return leaves, query / np.linalg.norm(query)


@pytest.mark.parametrize("dim", [16, 384, 1024])
def test_screened_top_k_equals_the_full_pass(dim):
    """At dims 384 and 1024, sparse queries too: the leaning query cut to
    the columns where the target is largest, so the leaves near it stay
    near ties there, with as many columns as the screen gathers and one
    more, which it screens by the gemv."""
    rng = np.random.default_rng(dim)
    leaves, leaning = screened_pool(rng, dim)
    index = LeafIndex.of(leaves)
    rows = twin_row(dim)
    target = leaves[rows].embedding.astype(np.float64)
    queries = [leaning, target, target + 1e-3 * rng.standard_normal(dim),
               rng.standard_normal(dim)]
    gathered = dim // _SPARSE_RATIO
    heavy = np.argsort(-np.abs(target))
    for width in (gathered, gathered + 1) if gathered else ():
        sparse = np.zeros(dim)
        sparse[heavy[:width]] = leaning[heavy[:width]]
        queries.append(sparse)
    cutoffs = [None, leaves[rows].interval.end,
               leaves[len(leaves) // 2].interval.end - timedelta(microseconds=1)]
    screened = set()
    for (i, query), t_q in itertools.product(enumerate(queries), cutoffs):
        view = index.upto(t_q)
        for lam, k, keywords in itertools.product(
                [0.0, 0.5, 0.9, 1.0], [1, 20], ([], ["lake"], ["kayak", "lake paella"])):
            got = fused_top_k(query, keywords, view, lam, k)
            assert got == full_pass_reference(query, keywords, view, lam, k), (i, t_q, lam, k)
        no_lex = np.zeros(len(view))  # the screen on the semantic channel alone
        kept = _screen(view, query, float(np.linalg.norm(query)), no_lex, 1.0, 20)
        if len(kept) < len(view):
            screened.add(i)
    # the screen dropped leaves, so the comparison tested it, on every sparse query
    assert screened & {0, 1, 2, 3} and set(range(4, len(queries))) <= screened


def test_rough_dots_cover_every_row_once_across_slices(monkeypatch):
    """The screen's gemvs over slices of SCREEN_FLOATS floats give each
    row of the view, on either side of a slice's or a block's end, its
    own dot product within float32's error, and nothing past the view,
    for an index of a list and one built leaf by leaf. A sparse query's
    slices gather its nonzero columns, so they hold more rows, and no
    gemv on either path reads more than SCREEN_FLOATS floats: with 2**12
    of them, a block of the list's index holds more gathered floats than
    one slice."""
    monkeypatch.setattr(indexing, "SCREEN_FLOATS", 1 << 12)
    rng = np.random.default_rng(5)
    size = 3 * 256 + 3
    leaves = dense_pool(rng, size)
    whole = LeafIndex.of(leaves)
    tree = MemoryTree()
    for leaf in leaves:
        tree.insert_node(leaf)
    grown = tree.leaf_index("u")
    shapes = []
    dot = np.dot

    def spy(a, b, out=None):
        shapes.append(a.shape)
        return dot(a, b, out=out)

    for width in (DIM, DIM // _SPARSE_RATIO):  # a dense query, then a sparse one
        query = unit32(rng.standard_normal(DIM))
        query[rng.choice(DIM, DIM - width, replace=False)] = 0
        step = indexing.SCREEN_FLOATS // width
        ends = {step, 2 * step, *grown.starts[1:]}
        assert {16, 256, 512} <= ends and size > 2 * step  # a block holds slices
        exact = np.einsum("ij,j->i", stacked(whole), query.astype(np.float64))
        shapes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "dot", spy)
            for index in (whole, grown):
                counts = {0, 1, size} | {e + j for e in ends for j in (-1, 0, 1) if e + j <= size}
                for n in sorted(counts - {ROWS}):  # no view ends between the twins at one end
                    view = (index.upto(leaves[n - 1].interval.end) if n
                            else index.upto(utc(2000, 1, 1, 0, 0)))
                    rough = view.rough_dots(query)
                    assert rough.dtype == np.float32 and len(rough) == n
                    # DIM * 2**-24 bounds the error
                    assert np.allclose(rough, exact[:n], rtol=0, atol=1e-4)
        assert {columns for _, columns in shapes} == {width}
        assert max(rows * columns for rows, columns in shapes) <= indexing.SCREEN_FLOATS


def test_screen_keeps_the_leaves_it_cannot_bound():
    """A row holding NaN, a row of float32 subnormals (below the relative
    error bound's range) and every leaf for a NaN query or a query whose
    norm overflows are kept, and scored as the full pass scores them.
    At d = 1024 a mock query is sparse: NaN and inf entries outside its
    columns reach no rough score, and only their rows' norms keep those
    rows, also for a query whose entry there is 0 in float32 alone."""
    embedder = MockEmbedder(dimension=32)
    leaves = random_pool(random.Random(3), 60, embedder)
    leaves.sort(key=lambda leaf: (leaf.interval.end, leaf.id))
    for i in (10, 11):
        leaves[i].embedding = leaves[i].embedding.copy()
        leaves[i].embedding[5] = np.nan
    leaves[20].embedding = (leaves[20].embedding * 1e-40).astype(np.float32)
    query = embedder.embed_text("kayak trip to the lake")
    nan_query = query.copy()
    nan_query[0] = np.nan
    # the lexical best leaf's product with this query overflows, so its
    # fused score is NaN, while its rough score is the highest
    huge_query = np.abs(query.astype(np.float64)) * 1e300
    leaves[30].embedding = (np.abs(leaves[30].embedding) * 1e10).astype(np.float32)
    leaves[30].text = "lake lake lake"
    # in six leaves, two NaN rows must fill the top five
    pools = [LeafIndex.of(leaves), LeafIndex.of(leaves[8:14])]
    cases = [*itertools.product(pools, [query, nan_query, huge_query], [0.0, 0.5, 0.9], [1, 5])]

    wide = MockEmbedder(dimension=1024)
    leaves = random_pool(random.Random(3), 60, wide)
    leaves.sort(key=lambda leaf: (leaf.interval.end, leaf.id))
    query = wide.embed_text("kayak trip to the lake").astype(np.float64)
    outside = int(np.flatnonzero(query == 0)[0])
    for i, value in ((10, np.nan), (11, np.inf), (12, -np.inf)):
        leaves[i].embedding = leaves[i].embedding.copy()
        leaves[i].embedding[outside] = value
    faint_query = query.copy()
    faint_query[outside] = 1e-50
    pools = [LeafIndex.of(leaves), LeafIndex.of(leaves[8:14])]
    for q in (query, faint_query):
        unit = (q / np.linalg.norm(q)).astype(np.float32)
        assert np.count_nonzero(unit) * _SPARSE_RATIO <= 1024
        assert np.isfinite(pools[0].rough_dots(unit)).all()
        kept = _screen(pools[0], q, float(np.linalg.norm(q)), np.zeros(60), 1.0, 5)
        assert {10, 11, 12} <= set(kept.tolist()) and len(kept) < 60
    cases += itertools.product(pools, [query, faint_query], [0.0, 0.5, 0.9], [1, 5])

    with np.errstate(over="ignore", invalid="ignore"):
        for index, q, lam, k in cases:
            got = fused_top_k(q, ["lake"], index, lam, k)
            assert repr(got) == repr(full_pass_reference(q, ["lake"], index, lam, k)), (lam, k)


@pytest.mark.parametrize("dim", [16, 384])
def test_dots_of_any_rows_equal_the_einsum_over_every_row(dim):
    """Rows gathered in one take per block, every row or only some, give
    each row the bits of an `einsum` over all the rows of the view, for
    an index of a list and one built leaf by leaf."""
    rng = np.random.default_rng(dim)
    leaves, query = screened_pool(rng, dim)
    whole = LeafIndex.of(leaves)
    tree = MemoryTree()
    for leaf in leaves:
        tree.insert_node(leaf)
    grown = tree.leaf_index("u")
    rows = twin_row(dim)
    assert len(grown.blocks) > 1
    for index in (whole, grown):
        for view in (index, index.upto(leaves[rows + 5].interval.end)):
            n = len(view)
            full = np.einsum("ij,j->i", stacked(view), query)
            for kept in (np.arange(n), np.delete(np.arange(n), [0, rows + 2]),
                         np.r_[3, rows:n], np.sort(rng.choice(n, size=n // 3, replace=False)),
                         np.array([n - 1])):
                assert view.dots(query, kept).tobytes() == full[kept].tobytes()
