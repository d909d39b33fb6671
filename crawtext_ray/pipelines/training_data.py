"""Training-data curation pipeline: the composition a 100 TB pretraining
corpus build runs on top of the extraction engine.

    pages ─ extract (flagship stages) ─ keep ok/relevant
          ─ quality filter (vectorized length/stopword/word-len gates)
          ─ exact dedup (one key-run reduce over key rows + loser
            anti-join)
          ─ minhash-LSH near-dup drop (distributed Bloom;
            optional exact-Jaccard verification)
          ─ lineage-partitioned auditable articles parquet

Each stage is a streaming map or a keyed reduce over KEYS (hashes,
urls, band keys) — article text crosses an exchange only in the
explicitly-capped fallbacks. The gated corpus is checkpointed once
(materialize here; a parquet write at 100 TB) because both dedup stages
make a key-gathering pass and a filtering pass over it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages import partitioning
from ..stages.dedup import first_by, minhash_lsh_duplicates
from ..stages.partitioning import key_runs, member_filter, run_starts
from .flagship import build_articles


def quality_gate_mask(texts_col, langs_col, n_words_col,
                      min_words: int, min_stop_ratio: float,
                      max_mean_word_len: float) -> "pa.BooleanArray":
    """Vectorized keep-mask for the pretraining-corpus gates (too-short,
    too-little-function-words, gibberish-long-tokens): Arrow split/trim
    kernels + one is_in per language + bincount — no per-row Python.
    Differentially tested against the scalar definition
    (tests/test_training_data.py)."""
    import pyarrow.compute as pc

    from ..extract.stopwords import stopword_set

    gate_langs = ("en", "fr", "de", "es")
    n = len(texts_col)
    low = pc.utf8_lower(texts_col)
    toks = pc.split_pattern_regex(low, pattern=r"\s+")
    arr = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    # list_parent_indices/list_flatten skip NULL list slots consistently
    # (an offsets-diff np.repeat would count a null slot's offset range
    # and misalign every following row); a null text row simply
    # contributes no tokens and fails the n_toks > 0 gate below
    vals = pc.list_flatten(arr)
    row_idx = pc.list_parent_indices(arr).to_numpy(zero_copy_only=False)
    # split_pattern_regex keeps boundary empties that .split() drops
    lens = pc.utf8_length(vals).to_numpy(zero_copy_only=False)
    nonempty = lens > 0
    n_toks = np.bincount(row_idx[nonempty], minlength=n)
    sum_len = np.bincount(row_idx, weights=lens, minlength=n)
    stripped = pc.utf8_trim(vals, characters=".,;:!?")
    hits_by_lang = {}
    for lang in gate_langs:
        isw = pc.is_in(
            stripped, value_set=pa.array(sorted(stopword_set(lang)))
        ).to_numpy(zero_copy_only=False)
        hits_by_lang[lang] = np.bincount(
            row_idx, weights=isw & nonempty, minlength=n
        )
    langs = langs_col.to_pylist()
    hits = np.array([
        hits_by_lang.get(l, hits_by_lang["en"])[i] for i, l in enumerate(langs)
    ])
    n_words = np.asarray(n_words_col.to_numpy(zero_copy_only=False))
    safe = np.maximum(n_toks, 1)
    mean_len = sum_len / safe
    stop_ratio = hits / safe
    keep = (
        (n_words >= min_words)
        & (n_toks > 0)
        & (stop_ratio >= min_stop_ratio)
        & (mean_len <= max_mean_word_len)
    )
    return pa.array(keep, pa.bool_())


def quality_gate(articles, min_words: int = 20):
    """Vectorized quality filter over extracted articles (the classic
    pretraining-corpus gates: fewer than ``min_words`` words, a stopword
    ratio under 0.1, a mean word length over 14)."""

    def gate(batch: pa.Table) -> pa.Table:
        return batch.filter(
            quality_gate_mask(
                batch["extracted_text"], batch["lang"], batch["n_words"],
                min_words, 0.1, 14.0,
            )
        )

    return articles.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)


def drop_exact_dups(articles):
    """Exact content dedup keyed on content_sha256: keep the earliest
    warc_ts (tie: lexicographic url).

    Key-only shuffle: ONE key-run reduce (``partitioning.key_runs``) over
    the (content_sha256, url, warc_ts) rows — never ``extracted_text`` —
    emits every run's non-first rows, the LOSERS (the dup fraction, the
    genuinely small side), which come back as a broadcast anti-join over
    the streaming articles. Exact: no Bloom decides a drop. When the
    loser set exceeds ``partitioning.BROADCAST_ROWS`` the stage falls back
    to a full-row ``first_by`` (pays the wide shuffle, needs zero driver
    memory) — the same two-modes-by-threshold shape as
    ``dedup.dedup_paragraphs``' winner map.

    (A native hash semi-join on winners was tried and rejected: Acero
    joins reject struct/list payload columns, which the articles schema
    carries.) Assumes url is unique per input row (the pages contract)."""
    import pyarrow.compute as pc

    def row_key(t: pa.Table):
        """Composite (url, warc_ts) row-identity key as one string column
        — url can't contain \\x00, so the join is collision-free — for
        vectorized ``pc.is_in`` anti-join probes."""
        return pc.binary_join_element_wise(
            pc.cast(t["url"], pa.string()),
            pc.cast(pc.cast(t["warc_ts"], pa.int64()), pa.string()),
            "\x00",
        )

    keys = articles.select_columns(["content_sha256", "url", "warc_ts"])
    by_age = ["warc_ts", "url"]

    def losers_of(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ident = run_starts(t["content_sha256"], t["warc_ts"], t["url"])
        if len(ident) != t.num_rows:
            # two rows sharing (url, warc_ts) identity would make the
            # anti-join drop the winner along with the loser — fail loud
            # on contract-violating input instead of silently losing rows
            dup = int(np.setdiff1d(np.arange(t.num_rows), ident)[0])
            raise ValueError(
                "drop_exact_dups: duplicate (url, warc_ts) row identity "
                f"inside a content group (url={t['url'][dup].as_py()!r}); "
                "the pages contract requires it to be unique"
            )
        keep = np.ones(t.num_rows, dtype=bool)
        keep[starts] = False  # all but each run's winner
        return t.filter(pa.array(keep)).select(["url", "warc_ts"])

    losers = key_runs(keys, "content_sha256", by_age,
                      losers_of).materialize()
    n_losers = losers.count()
    if n_losers == 0:
        return articles
    if n_losers <= partitioning.BROADCAST_ROWS:
        # row identity is (url, warc_ts), NOT url alone: a recrawl of the
        # same url dedupes into the same hash group, so the loser's url
        # can equal the winner's url
        loser_keys = pa.concat_arrays([
            row_key(b).combine_chunks()
            for b in losers.iter_batches(batch_format="pyarrow")
            if b.num_rows])
        return member_filter(articles, row_key, loser_keys, keep=False)

    # distributed fallback: exact, no driver memory, full-row exchange
    return first_by(articles, "content_sha256", *by_age)


def drop_near_dups(articles, shingle_k: int = 5,
                   verify_threshold: float | None = None):
    """MinHash-LSH near-dup removal over extracted text (64 permutations
    in 16 bands), keyed by url.

    The dup-url set is folded into a Bloom filter built DISTRIBUTED
    (per-block partial filters ORed on the driver — driver memory is
    O(filter), never O(dup urls)), then applied as a streaming
    anti-join. A Bloom false positive drops a non-dup article; near-dup
    removal is already approximate, so the filter's 1e-4 false-positive
    rate only needs to keep that loss negligible.

    ``verify_threshold``: when set, LSH candidate pairs are verified
    with the exact n-gram Jaccard (broadcast-free routed verifier) and
    only pairs at/above the threshold are dropped — the precision knob
    that keeps LSH band collisions from deleting non-duplicates."""
    from ..state.bloom import build_bloom

    pairs = minhash_lsh_duplicates(
        articles.select_columns(["url", "extracted_text"]),
        text_col="extracted_text",
        id_col="url",
        num_perm=64,
        bands=16,
        shingle_k=shingle_k,
    ).materialize()  # small: one row per near-dup candidate
    if verify_threshold is not None and pairs.count() > 0:
        from ..stages.dedup import verify_pairs_jaccard_distributed

        pairs = verify_pairs_jaccard_distributed(
            pairs,
            articles.select_columns(["url", "extracted_text"]),
            text_col="extracted_text",
            id_col="url",
            k=shingle_k,
            threshold=verify_threshold,
        ).materialize()
    n_dups = pairs.count()
    if n_dups == 0:
        return articles
    bloom = build_bloom(pairs, "url", capacity=n_dups, fp_rate=1e-4)
    return member_filter(articles, "url", bloom, keep=False)


def curate(
    pages_path,
    out_dir: str | None = None,
    query_expression: str | None = None,
    rule_lines: list[str] | None = None,
    num_partitions: int = 16,
    concurrency="tasks",
    min_words: int = 20,
    verify_dups: float | None = None,
    benchmark=None,
    max_dup_line_frac: float | None = None,
    max_nll: float | None = None,
    rates: dict | None = None,
    dedup_paras: bool = False,
    dsir_target=None,
    dsir_keep: float = 0.25,
):
    """Full curation chain; returns the curated articles Dataset (written
    to ``out_dir`` when given). ``verify_dups``: exact-Jaccard threshold
    for verifying LSH near-dup candidates before dropping (None = drop
    all candidates). ``benchmark``: optional eval-set texts (list[str] or
    a Dataset with a ``text`` column) — documents sharing any 8-gram
    with it are dropped (decontamination) between the quality gate and
    dedup, while the corpus is smallest upstream of the shuffle-bearing
    stages. ``max_nll``: optional perplexity filter — drop articles
    whose unigram-LM cross-entropy (trained on the gated corpus itself)
    exceeds the threshold. ``rates``: optional per-language quota sampling
    applied LAST (after dedup — sampling first would bias which
    duplicate survives), e.g. ``{"en": 0.3}`` to downsample English.
    ``dedup_paras``: corpus-wide paragraph-level exact dedup (C4/Dolma
    boilerplate removal) applied to the checkpointed corpus — every
    paragraph of >= 30 chars keeps one occurrence
    corpus-wide; n_words and content_sha256 are recomputed so the
    downstream exact dedup sees the cleaned text. ``dsir_target``:
    optional target-domain corpus (Dataset with a ``text`` column or
    list[str]) — after dedup, keep the top ``dsir_keep`` fraction of
    documents by DSIR importance weight (target-vs-corpus unigram LMs;
    stages.textops.dsir_select); runs in the sampling family with
    ``rates``, after dedup so duplicate survival is unbiased, and adds
    a ``dsir_logw`` column to the output."""
    arts = build_articles(
        pages_path,
        query_expression=query_expression,
        rule_lines=rule_lines,
        concurrency=concurrency,
    )
    ok = arts.map_batches(
        lambda t: t.filter(pa.compute.equal(t["status"], pa.scalar("ok"))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # checkpoint between the extract phase and the dedup phase: both dedup
    # stages make a key-gathering pass AND a filtering pass over the gated
    # corpus, so it must not re-run extraction per pass. With an out_dir
    # the checkpoint is a PARQUET write + re-read next to the output (the
    # 100 TB form — an unconditional materialize would spill the whole
    # gated corpus through the object store); without one (interactive /
    # small runs) it stays an object-store materialize.
    gate = quality_gate(ok, min_words=min_words)
    if max_dup_line_frac is not None:
        from ..stages.textops import repetition_gate

        gate = repetition_gate(gate, text_col="extracted_text",
                               max_dup_line_frac=max_dup_line_frac)
    if benchmark is not None:
        from ..stages.textops import decontaminate

        gate = decontaminate(gate, benchmark, text_col="extracted_text")
    ckpt_dirs = []

    def checkpoint(ds, suffix: str):
        if not out_dir:
            return ds.materialize()
        import shutil

        import ray.data as rd

        ckpt_dirs.append(out_dir.rstrip("/") + suffix)
        # a crashed prior run leaves parquet here; re-reading it alongside
        # the fresh write would duplicate rows (and hard-fail
        # drop_exact_dups' row-identity check) — start clean
        shutil.rmtree(ckpt_dirs[-1], ignore_errors=True)
        ds.write_parquet(ckpt_dirs[-1])
        return rd.read_parquet(ckpt_dirs[-1], file_extensions=["parquet"])

    gated = checkpoint(gate, "_gated.ckpt")
    if dedup_paras:
        import hashlib as _hl

        from ..stages.dedup import dedup_paragraphs

        # after the checkpoint on purpose (like the LM gate): the
        # operator's pair-emission pass and the downstream dedup scans
        # then re-read cheap parquet, never re-run extraction
        gated = dedup_paragraphs(gated, text_col="extracted_text",
                                 id_col="url", min_chars=30,
                                 output="replace")

        def refresh(t: pa.Table) -> pa.Table:
            texts = t["extracted_text"].to_pylist()
            nw = pa.array([len((x or "").split()) for x in texts],
                          pa.int32())
            sha = pa.array(
                [_hl.sha256((x or "").encode("utf-8")).digest()
                 for x in texts], pa.binary())
            t = t.set_column(t.schema.get_field_index("n_words"),
                             "n_words", nw)
            return t.set_column(
                t.schema.get_field_index("content_sha256"),
                "content_sha256", sha)

        gated = gated.map_batches(refresh, batch_format="pyarrow",
                                  zero_copy_batch=True)
        # re-apply the length gate: paragraph dedup can hollow a document
        # out entirely (every paragraph a later duplicate), and all such
        # empties share one content_sha256 — without this re-filter,
        # drop_exact_dups would keep exactly one empty-text row in the
        # final corpus, violating the --min-words contract. Runs before
        # the re-checkpoint so the checkpoint is already clean.
        if min_words > 0:
            _mw = int(min_words)
            gated = gated.map_batches(
                lambda t: t.filter(
                    pa.compute.greater_equal(t["n_words"], pa.scalar(_mw))),
                batch_format="pyarrow", zero_copy_batch=True)
        # re-checkpoint the rewritten corpus: the rebuild probes + the
        # stat refresh hash every paragraph, and the downstream dedup
        # stages scan `gated` twice — against a second parquet
        # checkpoint those scans are plain reads
        gated = checkpoint(gated, "_paras.ckpt")
    if max_nll is not None:
        from ..stages.textops import lm_gate

        # AFTER the checkpoint/materialize on purpose: LM training pulls
        # the whole upstream stream to count tokens — doing that on the lazy gate chain would run the
        # entire extraction twice (once for training, once for the
        # checkpoint write). Against the checkpoint both the training
        # pass and the per-pass re-scoring in the dedup scans are cheap
        # vectorized reads, never extraction.
        gated = lm_gate(gated, max_nll, text_col="extracted_text")
    deduped = drop_exact_dups(gated)
    curated = drop_near_dups(deduped, verify_threshold=verify_dups)
    if dsir_target is not None:
        import ray.data as rd

        from ..stages.textops import dsir_select

        target = (rd.from_items([{"text": t} for t in dsir_target])
                  if isinstance(dsir_target, (list, tuple))
                  else dsir_target)
        # two streaming passes (threshold histogram + filter) — both over
        # the dedup chain's broadcast/Bloom probes against the parquet
        # checkpoint, never extraction
        curated = dsir_select(curated, target, keep_frac=dsir_keep,
                              text_col="extracted_text",
                              target_text_col="text")
    if rates is not None:
        from ..stages.textops import stratified_sample

        curated = stratified_sample(curated, rates, id_col="url")
    if out_dir:
        # same partitioned sink + lineage sidecars as the extract job:
        # url-hash partition files with checksums, auditable by
        # `python -m crawtext_ray.audit`. NOTE: unlike extraction,
        # curation dedup is GLOBAL, so lineage here gives atomic
        # completion + integrity auditing, not partial-rerun reuse — a
        # rerun recomputes the whole chain (winners can change), so the
        # partitions of an earlier run go first: the sink writes only the
        # partitions that have rows and would leave the others stale.
        import shutil

        import ray.data as rd

        from ..state.lineage import clear_partitions, write_partitioned

        clear_partitions(out_dir)
        write_partitioned(curated, out_dir, num_partitions).take_all()
        # the gated checkpoints served their purpose once the audited
        # sink is complete; the returned Dataset re-reads the SINK
        # (stable), so they can go (at 100 TB you might keep them for
        # debugging — plain parquet dirs next to the output)
        for d in ckpt_dirs:
            shutil.rmtree(d, ignore_errors=True)
        return rd.read_parquet(out_dir, file_extensions=["parquet"])
    return curated
