"""Vectorized text-analysis stages over a documents table (the
training-data operator set): language id, quality features, token
counting, fingerprinting, relevance filtering (M7 as a Dataset op)."""

from __future__ import annotations

from collections import Counter

import pyarrow as pa

from ..extract.query import Query
from ..functions.text import (
    house_tokens,
    language_id,
    quality_features,
    rolling_fingerprint,
    token_count,
)


class TextFeatures:
    """Batch stage: stopword tables loaded once per worker; per batch
    emits doc_id + the feature columns of the ``text`` column (quality
    features in the row's ``lang``, English when there is no such
    column)."""

    def __init__(self):
        from ..extract.stopwords import KNOWN_LANGUAGES, stopword_set

        for lang in KNOWN_LANGUAGES:
            stopword_set(lang)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        ids = batch["doc_id"].to_pylist()
        langs = (
            batch["lang"].to_pylist()
            if "lang" in batch.column_names
            else ["en"] * len(texts)
        )
        # columnar accumulation: the per-doc kernels (language_id,
        # fingerprint) are legitimately Python, but assembly goes one
        # list per COLUMN → typed arrays (from_pylist's per-row dicts
        # measured slower in the arrow conversion; cf. extract_stage)
        n_chars, n_words, n_tokens = [], [], []
        mean_wl, punct_r, stop_r = [], [], []
        pred_lang, fingerprint = [], []
        for t, l in zip(texts, langs):
            t = t or ""
            q = quality_features(t, l if l in ("en", "fr", "de", "es") else "en")
            n_chars.append(q["n_chars"])
            n_words.append(q["n_words"])
            n_tokens.append(token_count(t))
            mean_wl.append(q["mean_word_len"])
            punct_r.append(q["punct_ratio"])
            stop_r.append(q["stop_ratio"])
            pred_lang.append(language_id(t))
            fingerprint.append(rolling_fingerprint(t))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars_calc": pa.array(n_chars, pa.int64()),
                "n_words": pa.array(n_words, pa.int64()),
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "mean_word_len": pa.array(mean_wl, pa.float64()),
                "punct_ratio": pa.array(punct_r, pa.float64()),
                "stop_ratio": pa.array(stop_r, pa.float64()),
                "pred_lang": pa.array(pred_lang, pa.string()),
                "fingerprint": pa.array(fingerprint, pa.int64()),
            }
        )


def text_features(ds):
    from .fusion import map_stage

    return map_stage(ds, TextFeatures)


# PII scrub patterns — RE2-compatible so the Arrow kernel, the Python
# fallback, and the DuckDB oracle share EXACT semantics
EMAIL_RE = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\+?[0-9][0-9\-\s]{7,}[0-9]"


def redact_pii(ds):
    """Training-corpus PII scrub of the ``text`` column: emails then
    phone-number shapes replaced with placeholder tokens, keyed by
    ``doc_id``. Pure Arrow RE2 kernels
    (replace_substring_regex) — vectorized, zero Python per row."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        col = pc.replace_substring_regex(
            batch["text"], pattern=EMAIL_RE, replacement="[EMAIL]"
        )
        col = pc.replace_substring_regex(
            col, pattern=PHONE_RE, replacement="[PHONE]"
        )
        return pa.table({"doc_id": batch["doc_id"], "clean_text": col})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def chunk_documents(ds):
    """Sliding-window document chunking (the tokenize-and-pack precursor):
    whitespace tokens of ``text``, windows of 64 tokens every 48 (the
    final window may be short; docs with zero tokens emit nothing).
    flat_map shape — one input row fans out to ceil(n/48) chunk rows
    keyed by ``doc_id``; chunk_id is 1-based per doc."""
    width, stride = 64, 48

    def fn(batch: pa.Table) -> pa.Table:
        out_id, out_chunk, out_text = [], [], []
        for i, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            toks = (t or "").split()
            k = 0
            while k * stride < len(toks):
                s = k * stride
                out_id.append(i)
                out_chunk.append(k + 1)
                out_text.append(" ".join(toks[s:s + width]))
                k += 1
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "chunk_id": pa.array(out_chunk, pa.int64()),
            "chunk_text": pa.array(out_text, pa.large_string()),
        })

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def vocabulary_topk(ds, text_col: str = "text", *, k: int):
    """Corpus vocabulary: top-k tokens by global count (tokens =
    lowercased [a-z0-9]+ runs), ties broken lexicographically.

    The shuffle-volume pattern the 100 TB story requires: each block
    PRE-AGGREGATES its token counts map-side (value_counts over the
    flattened token array), so the keyed exchange carries one
    (token, n) row per DISTINCT token per block — O(block vocabulary),
    not O(corpus tokens) — then one ``report.key_sums`` sort on the
    token and a tiny top-k sort."""
    import pyarrow.compute as pc

    from .report import key_sums

    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(house_tokens(batch[text_col])[0])
        return pa.table({
            "token": vc.field("values"),
            "n": pc.cast(vc.field("counts"), pa.int64()),
        })

    totals = key_sums(ds.select_columns([text_col]), partial, "token")
    return totals.sort(["n", "token"], descending=[True, False]).limit(k)


def relevance_filter(ds, expression: str):
    """M7 over a documents table: compile the boolean query once per
    actor, keep the rows whose ``text`` matches."""

    class Match:
        def __init__(self):
            self.q = Query(expression)

        def __call__(self, batch: pa.Table) -> pa.Table:
            texts = batch["text"].to_pylist()
            mask = [self.q.match(t or "") for t in texts]
            return batch.filter(pa.array(mask, pa.bool_()))

    from .fusion import map_stage

    return map_stage(ds, Match)


# the word n-gram length decontamination matches on
BENCHMARK_NGRAM = 8


def benchmark_ngram_hashes(texts):
    """Sorted unique uint64 hashes of a benchmark/eval set's word
    ``BENCHMARK_NGRAM``-grams, using the exact shingle scheme of the
    dedup stages (dedup._shingle_array: [a-z0-9]+ tokens, cached md5
    token hashes, polynomial rolling combine). Texts shorter than that
    contribute their whole-text gram, matching the shingler."""
    import numpy as np

    from .dedup import _shingle_array

    parts = [_shingle_array((t or ""), BENCHMARK_NGRAM) for t in texts]
    parts = [p for p in parts if p.size]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))


def _benchmark_texts(benchmark, text_col: str) -> list:
    """Collect the small benchmark side as a list of texts. Dataset form:
    read ``text_col`` if present, else the Dataset's single string
    column (erroring clearly when that is ambiguous)."""
    if not hasattr(benchmark, "iter_batches"):
        return list(benchmark)
    schema = benchmark.schema()
    if text_col in schema.names:
        col = text_col
    elif "text" in schema.names:
        col = "text"
    else:
        str_cols = [
            nm for nm, t in zip(schema.names, schema.types)
            if pa.types.is_string(t) or pa.types.is_large_string(t)
        ]
        if len(str_cols) != 1:
            raise ValueError(
                f"benchmark Dataset has no {text_col!r} or 'text' column "
                f"and {len(str_cols)} string columns {str_cols} — pass "
                "one with a single text column or the right text_col"
            )
        col = str_cols[0]
    texts = []
    for b in benchmark.select_columns([col]).iter_batches(
        batch_format="pyarrow"
    ):
        texts.extend(b[col].to_pylist())
    return texts


def _contamination_hits_factory(benchmark, text_col: str):
    """Shared scaffolding for the decontamination stages: collect the
    small benchmark side, hash its n-grams, broadcast once via
    ``ray.put``, and return a factory whose product maps a batch to a
    per-row hit-count array (empty-benchmark → None sentinel)."""
    import numpy as np
    import ray

    bench = benchmark_ngram_hashes(_benchmark_texts(benchmark, text_col))
    ref = ray.put(bench)

    from .dedup import _shingle_array

    def factory():
        bset = ray.get(ref)  # once per worker process

        def hits_of(batch: pa.Table):
            if not bset.size:
                return None
            hits = np.zeros(batch.num_rows, dtype=np.int64)
            for i, t in enumerate(batch[text_col].to_pylist()):
                sh = _shingle_array(t or "", BENCHMARK_NGRAM)
                if sh.size:
                    hits[i] = int(np.isin(sh, bset, assume_unique=True).sum())
            return hits

        return hits_of

    return factory


def contamination_flags(docs, benchmark):
    """Benchmark decontamination (standard LLM-training-data step): flag
    documents that share at least one word 8-gram (``BENCHMARK_NGRAM``)
    with an eval/benchmark set, so they can be dropped before training.

    Scale shape: the benchmark side is SMALL by construction (eval sets
    are thousands of documents, not corpora), so its n-gram hash set is
    broadcast ONCE via ``ray.put`` and probed inside ``map_batches``
    with a vectorized ``np.isin`` per document — no shuffle, no join;
    the corpus streams. Hash collisions can over-flag at ~2^-64 per
    probe (the safe direction for decontamination: a collision drops a
    training doc, never keeps a contaminated one). Differential test vs
    a hash-free string-set oracle: tests/test_training_data.py.

    ``benchmark``: list[str], or a Dataset carrying ``text``.
    Returns (doc_id, n_hits:int64, contaminated:bool) — one row per doc
    of ``docs`` (``doc_id``, ``text``).
    """
    import numpy as np

    from .fusion import map_stage

    hits_factory = _contamination_hits_factory(benchmark, "text")

    def factory():
        hits_of = hits_factory()

        def stage(batch: pa.Table) -> pa.Table:
            hits = hits_of(batch)
            if hits is None:
                hits = np.zeros(batch.num_rows, dtype=np.int64)
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "n_hits": pa.array(hits, pa.int64()),
                    "contaminated": pa.array(hits > 0, pa.bool_()),
                }
            )

        return stage

    return map_stage(docs.select_columns(["doc_id", "text"]), factory)


def decontaminate(docs, benchmark, text_col: str = "text"):
    """Drop contaminated documents: ``contamination_flags`` folded into a
    per-batch mask (single pass, no second scan — the flags stage and
    the filter fuse into the same streaming map)."""
    from .fusion import map_stage

    hits_factory = _contamination_hits_factory(benchmark, text_col)

    def factory():
        hits_of = hits_factory()

        def stage(batch: pa.Table) -> pa.Table:
            hits = hits_of(batch)
            if hits is None or batch.num_rows == 0:
                return batch
            return batch.filter(pa.array(hits == 0))

        return stage

    return map_stage(docs, factory)


def _line_repetition(text):
    """(non-empty lines, their Counter, dup_line_frac) of one text —
    dup_line_frac = 1 - distinct/total, 0.0 when there are no lines. The
    one definition ``repetition_stats`` and ``repetition_gate`` share."""
    lines = [ln for ln in (text or "").split("\n") if ln]
    counts = Counter(lines)
    return lines, counts, (1.0 - len(counts) / len(lines) if lines else 0.0)


def repetition_stats(docs):
    """Within-document repetition measures (the Gopher/C4-style quality
    gates): per doc (``doc_id``), over the non-empty lines of ``text`` —

      n_lines        total non-empty lines
      dup_line_frac  1 - distinct/total (0.0 when no lines)
      dup_char_frac  characters in lines occurring >1 time / all line
                     characters (0.0 when no lines)

    Pure per-batch map (no shuffle); one row per doc. A DuckDB
    differential test pins the definition (tests/test_training_data.py).
    High values flag boilerplate / template / scraped-navigation docs a
    pretraining corpus should drop."""

    def stage(batch: pa.Table) -> pa.Table:
        n_lines_c, dup_line_c, dup_char_c = [], [], []
        for t in batch["text"].to_pylist():
            lines, counts, dup_line = _line_repetition(t)
            chars = sum(len(ln) for ln in lines)
            dup_chars = sum(
                len(ln) * c for ln, c in counts.items() if c > 1
            )
            n_lines_c.append(len(lines))
            dup_line_c.append(dup_line)
            dup_char_c.append(dup_chars / chars if chars else 0.0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_lines": pa.array(n_lines_c, pa.int64()),
                "dup_line_frac": pa.array(dup_line_c, pa.float64()),
                "dup_char_frac": pa.array(dup_char_c, pa.float64()),
            }
        )

    return docs.select_columns(["doc_id", "text"]).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True
    )


def repetition_gate(ds, text_col: str = "text", *,
                    max_dup_line_frac: float):
    """Drop documents whose duplicate-line fraction exceeds the
    threshold (same definition as ``repetition_stats``): the actionable
    form of the Gopher-style repetition gate — a pure streaming
    per-batch filter, no shuffle."""

    def stage(batch: pa.Table) -> pa.Table:
        keep = []
        for t in batch[text_col].to_pylist():
            lines, _, dup_line = _line_repetition(t)
            # emptiness is the length gate's job
            keep.append(not lines or dup_line <= max_dup_line_frac)
        return batch.filter(pa.array(keep, pa.bool_()))

    return ds.map_batches(stage, batch_format="pyarrow",
                          zero_copy_batch=True)


def unigram_lm_scores(docs, vocab_size: int):
    """Model-based quality scoring, CCNet/C4-shape: train a unigram
    language model on the corpus's ``text``, then score every document by
    its mean token negative log-likelihood (cross-entropy; LOWER = more
    like the training distribution, high = gibberish/outlier, the classic
    perplexity-filter signal).

    Two phases, both scale-shaped:
      1. TRAIN — map-side `value_counts` partials per block, one
         ``report.key_sums`` over O(block-vocabulary) rows,
         top-``vocab_size`` kept (ties lexicographic). Lidstone
         smoothing (alpha 0.5) with one shared OOV bucket.
      2. SCORE — the model (≤ vocab_size rows) is broadcast once via
         ``ray.put``; each batch builds its token list-array, probes
         log-probs vectorized (Arrow index_in against the broadcast vocab)
         and averages per doc via the list offsets (vocab lookup via
         pc.index_in — C-vectorized, no Python per token). No shuffle; the
         corpus streams.

    Tokens = lowercased [a-z0-9]+ runs (the house tokenizer). Returns
    (doc_id, n_tokens:int64, nll:float64) — nll = 0.0 for token-less docs.
    """
    def scores(batch: pa.Table, nlls: list) -> pa.Table:
        n_toks, nll = nlls[0]
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": pa.array(n_toks, pa.int64()),
                         "nll": pa.array(nll, pa.float64())})

    model = _train_unigram_lm(docs, "text", vocab_size)
    return _nll_map(docs.select_columns(["doc_id", "text"]), "text",
                    [model], scores)


def _train_unigram_lm(train, text_col: str, vocab_size: int):
    """Unigram model over the corpus's top-``vocab_size`` tokens
    (``vocabulary_topk``), Lidstone-smoothed with alpha 0.5: returns
    (ray.put ref of (vocab_arrow, logp_array), oov_logp). Shared by the
    scoring query, the curation LM gate and DSIR."""
    import numpy as np
    import ray

    alpha = 0.5

    top = vocabulary_topk(train, text_col, k=vocab_size)
    toks_list, counts_list = [], []
    for b in top.iter_batches(batch_format="pyarrow"):
        toks_list.extend(b["token"].to_pylist())
        counts_list.extend(b["n"].to_pylist())
    vocab = pa.array(toks_list, pa.string())
    counts = np.asarray(counts_list, dtype=np.float64)
    total = counts.sum()
    v = len(vocab)
    denom = total + alpha * (v + 1)  # +1: the shared OOV bucket
    logp = np.log((counts + alpha) / denom)
    oov_logp = float(np.log(alpha / denom))
    return ray.put((vocab, logp)), oov_logp


def _batch_nll(batch: pa.Table, text_col: str, vcb, lp, oov_logp: float):
    """(n_tokens int64 array, nll float64 array) for one batch —
    vectorized scoring against the broadcast model."""
    import numpy as np
    import pyarrow.compute as pc

    vals, row_idx = house_tokens(batch[text_col])
    n = batch.num_rows
    n_toks = np.bincount(row_idx, minlength=n)
    if len(vcb):
        # C-vectorized vocab lookup: index_in maps each token to its
        # vocab position (null = OOV); no Python per token
        idx = pc.fill_null(
            pc.index_in(vals, value_set=vcb), -1
        ).to_numpy(zero_copy_only=False)
        tok_lp = np.where(idx >= 0, lp[np.clip(idx, 0, None)], oov_logp)
    else:
        tok_lp = np.full(len(vals), oov_logp)
    sum_lp = np.bincount(row_idx, weights=-tok_lp, minlength=n)
    nll = np.divide(sum_lp, n_toks, out=np.zeros(n), where=n_toks > 0)
    return n_toks, nll


def _nll_map(ds, text_col: str, models: list, emit):
    """The scoring pass of the LM scorer, the LM gate and DSIR: each
    ``_train_unigram_lm`` model is fetched once per worker, and every
    batch maps to ``emit(batch, nlls)`` with one ``_batch_nll``
    (n_tokens, nll) pair per model. No shuffle; the corpus streams."""
    import ray

    from .fusion import map_stage

    def factory():
        got = [(ray.get(ref), oov) for ref, oov in models]

        def stage(batch: pa.Table) -> pa.Table:
            return emit(batch, [_batch_nll(batch, text_col, vcb, lp, oov)
                                for (vcb, lp), oov in got])

        return stage

    return map_stage(ds, factory)


def lm_gate(ds, max_nll: float, text_col: str = "text"):
    """Perplexity filter (CCNet shape): drop documents whose mean token
    negative log-likelihood under the unigram LM exceeds ``max_nll``
    (high nll = far from the training distribution — gibberish,
    boilerplate soup, wrong-language residue). The model trains on ``ds``
    itself over its top 50,000 tokens; token-less documents are kept
    (emptiness is the length gate's job). Scoring streams:
    broadcast-once model, vectorized probe, no shuffle — same scale shape
    as ``unigram_lm_scores``."""

    def keep(batch: pa.Table, nlls: list) -> pa.Table:
        n_toks, nll = nlls[0]
        return batch.filter(pa.array((nll <= max_nll) | (n_toks == 0)))

    model = _train_unigram_lm(ds, text_col, 50_000)
    return _nll_map(ds, text_col, [model], keep)


def dsir_weights(ds, target_docs, text_col: str = "text", *,
                 vocab_size: int, target_text_col: str | None = None):
    """DSIR-shape importance weights (public knowledge: Xie et al.
    2023, "Data Selection for Language Models via Importance
    Resampling" — the n-gram/unigram proxy-LM variant): per-document
    log importance weight = mean token cross-entropy under the
    BACKGROUND model minus under the TARGET model
    (``logw = nll_bg − nll_target``; positive = the document looks
    more like the target distribution than like the background).
    Both models are the house map-side-trained Lidstone unigram LMs
    (the CCNet/LM-gate machinery reused), broadcast once;
    the background is the corpus itself. ``target_text_col`` names the
    target corpus's text column when it differs from the scored
    corpus's (e.g. curated ``extracted_text`` vs a reference table's
    ``text``). Appends ``dsir_logw`` (float64) streaming — no shuffle,
    two broadcast probes per batch."""
    models = [_train_unigram_lm(target_docs, target_text_col or text_col,
                                vocab_size),
              _train_unigram_lm(ds, text_col, vocab_size)]

    def logw(batch: pa.Table, nlls: list) -> pa.Table:
        (_, nll_t), (_, nll_b) = nlls
        return batch.append_column("dsir_logw",
                                   pa.array(nll_b - nll_t, pa.float64()))

    return _nll_map(ds, text_col, models, logw)


def dsir_select(ds, target_docs, keep_frac: float, text_col: str = "text",
                clip: float = 20.0, target_text_col: str | None = None):
    """Keep (approximately) the top ``keep_frac`` of documents by DSIR
    importance weight — the data-selection form of ``dsir_weights``, with
    10,000-token models.

    Scale shape: the threshold comes from a map-side HISTOGRAM of
    log-weights (2048 fixed bins over [−clip, clip], per-block
    int64 partials folded by ``report.tally`` — at most 2048 rows
    on the driver, no sort of the corpus), then selection is a vectorized
    per-batch filter ``logw >= threshold``. Histogram granularity makes
    the kept fraction approximate to one bin of probability mass (an
    exact fraction would need a global sort); with 2048 bins over ±20
    nats a bin is ~0.02 nats wide. Two streaming passes over ``ds`` (weights
    are recomputed on the filter pass), so pass a materialized /
    checkpointed dataset, the curate-chain convention. Deterministic
    given the corpus. Returns the input rows + ``dsir_logw``."""
    import numpy as np

    if not 0.0 < keep_frac <= 1.0:
        raise ValueError("keep_frac must be in (0, 1]")
    weighted = dsir_weights(ds, target_docs, text_col=text_col,
                            vocab_size=10_000,
                            target_text_col=target_text_col)

    n_bins = 2048
    edges = np.linspace(-clip, clip, n_bins + 1)

    def hist_partial(batch: pa.Table) -> pa.Table:
        w = np.clip(batch["dsir_logw"].to_numpy(zero_copy_only=False),
                    -clip, clip)
        counts, _ = np.histogram(w, bins=edges)
        nz = np.flatnonzero(counts)
        return pa.table({"bin": pa.array(nz, pa.int64()),
                         "n": pa.array(counts[nz], pa.int64())})

    from .report import tally

    hist = tally(weighted, hist_partial, ["bin"])
    totals = np.zeros(n_bins, dtype=np.int64)
    totals[hist["bin"].to_numpy()] = hist["n"].to_numpy()
    total = int(totals.sum())
    if total == 0:
        return weighted
    # walk bins from the top until >= keep_frac of the mass is covered;
    # the threshold is that bin's LOWER edge (so the kept fraction errs
    # toward keeping one extra bin of mass, never silently under-keeping).
    # Bin 0 also holds the weights clipped up from below -clip, so
    # reaching it keeps everything.
    wanted = keep_frac * total
    acc = 0
    thr = -np.inf
    for b in range(n_bins - 1, 0, -1):
        acc += totals[b]
        if acc >= wanted:
            thr = edges[b]
            break

    import pyarrow.compute as pc

    return weighted.map_batches(
        lambda t: t.filter(
            pc.greater_equal(t["dsir_logw"], pa.scalar(float(thr)))),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def stratified_sample(docs, rates: dict, id_col: str = "doc_id",
                      default_rate: float = 1.0):
    """Per-language quota sampling (language rebalancing of a
    pretraining mix): keep a row iff the row's id hash falls under its
    ``lang``'s rate — deterministic, so every rerun selects the identical
    rows. Pure streaming per-batch filter: no shuffle, no per-language
    pass; languages not in ``rates`` use ``default_rate``. Rates are
    fractions in [0, 1], quantized to 1/65536.

    The hash is the first two bytes of md5(str(id)) (the same scheme as
    T3's sample_docs_deterministic): any id type, one md5 call per row,
    and DuckDB reproduces it bit-for-bit."""
    import numpy as np

    from .partitioning import md5_prefix_array

    cuts = {k: int(65536 * v) for k, v in rates.items()}
    default_cut = int(65536 * default_rate)

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        strata = batch["lang"].to_pylist()
        cut = np.fromiter(
            (cuts.get(s, default_cut) for s in strata),
            dtype=np.int64, count=len(strata),
        )
        hash16 = md5_prefix_array(batch[id_col].to_pylist(), 2)
        return batch.filter(pa.array(hash16 < cut))

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def corpus_data_card(docs):
    """The corpus "data card" a training-mix planner reads: one row per
    ``lang`` with document, token, and character totals of ``text`` (house
    tokenizer: [a-z0-9]+ runs on lowercased text) plus the mean
    document length in tokens. ONE streaming pass — a ``report.tally``
    over the language key, no shuffle at all. Returns a pandas DataFrame
    sorted by language (a null language last)."""
    import numpy as np
    import pyarrow.compute as pc

    from .report import ones, tally

    docs = docs.select_columns(["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        rows = house_tokens(batch["text"])[1]
        return pa.table({
            "lang": batch["lang"],
            "n_docs": ones(batch),
            "n_tokens": pa.array(np.bincount(rows, minlength=batch.num_rows),
                                 pa.int64()),
            "n_chars": pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
        })

    df = tally(docs, partial, ["lang"]).to_pandas()
    df["mean_doc_tokens"] = df["n_tokens"] / df["n_docs"]
    return df
