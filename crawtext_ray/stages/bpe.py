"""From-scratch byte-level BPE tokenizer (public knowledge: Sennrich et
al. 2016 subword units; Radford et al. 2019 byte-level form). No
tokenizer library exists in this environment, so training AND encoding
are built from primitives:

- pre-tokenizer: a compiled regex splits text into word pieces
  (contractions, letter runs, digit runs, punctuation runs, each with
  an optional leading space — an ASCII approximation of the GPT-2
  pattern; bytes outside ASCII ride along inside the non-alnum runs);
- training: ONE distributed exchange — map-side ``Counter`` partials
  per batch, a keyed ``groupby(word).Sum`` — streamed into a
  driver-side top-``max_distinct_words`` selection; the merge LOOP
  then runs over that bounded word-frequency dict. This is how BPE
  training scales: the corpus pass is O(bytes) ONCE, the loop is
  O(merges × affected distinct words) with a pair→words index, and
  the corpus never re-streams per merge;
- encoding: the trained table broadcasts once (``ray.put``); each
  worker memoizes word → token count/ids, so a batch encodes at the
  cost of its DISTINCT words, not its length.

Determinism: the merge pick breaks count ties on the pair's byte
order (smallest first), so the trained table is a pure function of
the (word, count) multiset — two trainings on the same corpus are
identical, regardless of block order. Differential-tested against an
independent naive reference trainer/encoder in tests/test_bpe.py.

SQL-inexpressibility note (COVERAGE.md): the merge loop is inherently
iterative (each merge changes the pair statistics the next one reads),
so there is no DuckDB oracle form; correctness is pinned by the
differential + round-trip + determinism pytest suite instead.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict

import pyarrow as pa

# contractions | space?letters | space?digits | space?other-runs |
# trailing-ws | ws-run  (ASCII approximation of the GPT-2 pattern)
_WORD_RE = re.compile(
    r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+"
    r"|\s+(?!\S)|\s+"
)


def pretokenize(text: str) -> list[str]:
    """Split text into the word pieces BPE merges operate within."""
    return _WORD_RE.findall(text or "")


def _merge_word(sym: tuple, pair: tuple, merged: bytes) -> tuple:
    """Replace adjacent ``pair`` occurrences in a symbol tuple,
    left-to-right (the canonical BPE application order)."""
    out = []
    i = 0
    while i < len(sym):
        if i + 1 < len(sym) and sym[i] == pair[0] and sym[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(sym[i])
            i += 1
    return tuple(out)


def train_merges(word_counts: dict[str, int],
                 n_merges: int) -> list[tuple[bytes, bytes]]:
    """The BPE merge loop over a bounded (word, count) dict — pure
    driver-side compute, no corpus access; a pair seen fewer than 2
    times is never merged. A pair→words index makes
    each merge touch only the words containing the pair, and selection
    pops a LAZY max-heap (entries re-pushed on every count change,
    stale ones discarded at pop) instead of rescanning every distinct
    pair per merge — so a large-vocab train is O(updates · log) rather
    than O(merges × distinct pairs). Tie-break: highest weighted count,
    then smallest pair bytes (the heap key (-count, pair) orders
    identically to the naive argmin, so the lazy heap is
    selection-for-selection equal to the reference trainer)."""
    import heapq

    words = [tuple(bytes([b]) for b in w.encode("utf-8"))
             for w in word_counts]
    counts = list(word_counts.values())

    pair_count: dict = defaultdict(int)
    pair_words: dict = defaultdict(set)
    heap: list[tuple[int, tuple[bytes, bytes]]] = []

    def index_word(i: int, sign: int) -> None:
        w, c = words[i], counts[i] * sign
        for p in zip(w, w[1:]):
            pair_count[p] += c
            if sign > 0:
                pair_words[p].add(i)
        if sign < 0:
            for p in zip(w, w[1:]):
                if pair_count[p] <= 0:
                    pair_count.pop(p, None)
                pair_words.get(p, set()).discard(i)
        for p in set(zip(w, w[1:])):
            n = pair_count.get(p, 0)
            if n >= 2:
                heapq.heappush(heap, (-n, p))

    for i in range(len(words)):
        index_word(i, +1)

    merges: list[tuple[bytes, bytes]] = []
    while len(merges) < n_merges and heap:
        negn, pair = heapq.heappop(heap)
        if pair_count.get(pair, 0) != -negn:
            continue  # stale entry (count changed since the push)
        merges.append(pair)
        merged = pair[0] + pair[1]
        for i in list(pair_words.get(pair, ())):
            index_word(i, -1)
            words[i] = _merge_word(words[i], pair, merged)
            index_word(i, +1)
        pair_count.pop(pair, None)
        pair_words.pop(pair, None)
    return merges


class BPETokenizer:
    """Trained byte-level BPE: 256 byte tokens + one token per merge.
    Picklable (ships via ray.put once; workers memoize per word)."""

    def __init__(self, merges: list[tuple[bytes, bytes]],
                 truncated: bool = False):
        self.merges = list(merges)
        self.ranks = {p: i for i, p in enumerate(self.merges)}
        self.vocab = [bytes([i]) for i in range(256)] + [
            a + b for a, b in self.merges
        ]
        # two merge paths can FORM the same byte string (("a","bc") and
        # ("ab","c") both yield b"abc"); first id wins for encoding —
        # decode goes through the vocab list, so round-trip is exact
        # either way
        self.token_id: dict[bytes, int] = {}
        for i, t in enumerate(self.vocab):
            self.token_id.setdefault(t, i)
        self.truncated = truncated  # word-count stream hit max_distinct

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def encode_word(self, word: bytes) -> list[int]:
        sym = [bytes([b]) for b in word]
        while len(sym) > 1:
            best_rank, best_i = None, -1
            for i in range(len(sym) - 1):
                r = self.ranks.get((sym[i], sym[i + 1]))
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank, best_i = r, i
            if best_rank is None:
                break
            sym[best_i:best_i + 2] = [sym[best_i] + sym[best_i + 1]]
        return [self.token_id[s] for s in sym]

    def encode(self, text: str, _cache: dict | None = None) -> list[int]:
        cache = _cache if _cache is not None else {}
        out: list[int] = []
        for w in pretokenize(text):
            ids = cache.get(w)
            if ids is None:
                ids = cache[w] = self.encode_word(w.encode("utf-8"))
            out.extend(ids)
        return out

    def decode(self, ids) -> str:
        return b"".join(self.vocab[i] for i in ids).decode(
            "utf-8", errors="replace"
        )


def train_bpe(ds, text_col: str = "text", vocab_size: int = 512,
              max_distinct_words: int = 200_000) -> BPETokenizer:
    """Distributed training front-end: map-side Counter partials, one
    keyed Sum exchange over distinct words, driver-side top-N selection
    (deterministic order: count desc, word asc), then the merge loop
    (pairs seen fewer than 2 times are never merged).
    Driver memory is O(max_distinct_words), never O(corpus)."""
    import heapq

    from ray.data.aggregate import Sum

    if vocab_size < 256:
        raise ValueError("byte-level vocab_size is at least 256")

    def emit(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch[text_col].to_pylist():
            c.update(pretokenize(t))
        return pa.table({
            "w": pa.array(list(c.keys()), pa.string()),
            "n": pa.array(list(c.values()), pa.int64()),
        })

    counts = ds.select_columns([text_col]).map_batches(
        emit, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("w").aggregate(Sum("n", alias_name="n"))

    # stream the aggregate into a bounded top-N heap; the key keeps the
    # LARGEST counts and, on count ties, the lexicographically SMALLEST
    # words — byte values are negated AND a sentinel (1, greater than
    # any negated byte) terminates the tuple so a PREFIX word ("ab")
    # also outranks its extensions ("abc"), completing the word-asc
    # order at the truncation boundary
    heap: list[tuple[int, tuple, str]] = []
    truncated = False
    for b in counts.iter_batches(batch_format="pyarrow"):
        for w, n in zip(b["w"].to_pylist(), b["n"].to_pylist()):
            key = (int(n),
                   tuple(-x for x in w.encode("utf-8")) + (1,), w)
            if len(heap) < max_distinct_words:
                heapq.heappush(heap, key)
            else:
                truncated = True
                if key > heap[0]:
                    heapq.heapreplace(heap, key)
    wc = {w: n for n, _, w in sorted(heap, reverse=True)}
    merges = train_merges(wc, n_merges=vocab_size - 256)
    return BPETokenizer(merges, truncated=truncated)


# per-worker memo caps: web-scale text has an effectively unbounded
# distinct-word-piece set (urls, typos, non-ASCII runs), so the caches
# clear wholesale at a size bound — amortized hit rate stays high (hot
# pieces re-enter immediately) and worker RSS stays bounded for the
# process lifetime that fused() pins the cache to
_COUNT_CACHE_CAP = 2_000_000
_IDS_CACHE_CAP = 500_000


def add_bpe_token_counts(ds, tokenizer, text_col: str = "text",
                         out_col: str = "n_bpe_tokens"):
    """Append the real subword token count per document — what a
    pretraining loader actually consumes (feed ``out_col`` to
    ``pack_sequences(n_tokens_col=...)``). The tokenizer broadcasts
    once; each worker memoizes per distinct word piece (bounded)."""
    import ray

    ref = tokenizer if isinstance(tokenizer, ray.ObjectRef) \
        else ray.put(tokenizer)

    from .fusion import map_stage

    def factory():
        tok = ray.get(ref)
        cache: dict[str, int] = {}

        def fn(batch: pa.Table) -> pa.Table:
            if len(cache) > _COUNT_CACHE_CAP:
                cache.clear()
            counts = []
            for t in batch[text_col].to_pylist():
                n = 0
                for w in pretokenize(t):
                    c = cache.get(w)
                    if c is None:
                        c = cache[w] = len(tok.encode_word(
                            w.encode("utf-8")))
                    n += c
                counts.append(n)
            return batch.append_column(
                out_col, pa.array(counts, pa.int64())
            )

        return fn

    return map_stage(ds, factory)


def bpe_encode_docs(ds, tokenizer, text_col: str = "text",
                    with_counts: bool = False):
    """Full encode: append the token-id sequence (``bpe_ids``,
    list<int32>) per document — the materialized form a tokenized-shard
    export writes.
    ``with_counts=True`` also emits ``n_bpe_tokens`` from the SAME
    encode pass (one tokenization, one broadcast — the --bpe-ids CLI
    path, instead of stacking this on add_bpe_token_counts)."""
    import ray

    ref = tokenizer if isinstance(tokenizer, ray.ObjectRef) \
        else ray.put(tokenizer)

    from .fusion import map_stage

    def factory():
        tok = ray.get(ref)
        cache: dict[str, list[int]] = {}

        def fn(batch: pa.Table) -> pa.Table:
            if len(cache) > _IDS_CACHE_CAP:
                cache.clear()
            ids = [tok.encode(t, _cache=cache)
                   for t in batch[text_col].to_pylist()]
            out = batch.append_column(
                "bpe_ids", pa.array(ids, pa.list_(pa.int32()))
            )
            if with_counts:
                out = out.append_column(
                    "n_bpe_tokens",
                    pa.array([len(x) for x in ids], pa.int64()),
                )
            return out

        return fn

    return map_stage(ds, factory)
