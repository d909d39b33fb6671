"""Byte-level BPE: differential vs an independent naive reference,
round-trip, determinism, and the Ray-side count/encode/pack/card
integrations (SQL-inexpressible — the merge loop is iterative — so this
differential suite is the correctness pin; see stages/bpe.py)."""

from collections import Counter

import numpy as np
import pytest

from crawtext_ray.stages.bpe import (
    BPETokenizer,
    pretokenize,
    train_merges,
)

# ------------------------------------------------------------------
# Independent naive reference: recount every pair from scratch each
# iteration (no incremental index), merge by rescanning every word.


def ref_train(word_counts: dict[str, int], n_merges: int,
              min_count: int = 2):
    words = {w: [bytes([b]) for b in w.encode("utf-8")]
             for w in word_counts}
    merges = []
    for _ in range(n_merges):
        pc: Counter = Counter()
        for w, syms in words.items():
            for p in zip(syms, syms[1:]):
                pc[p] += word_counts[w]
        if not pc:
            break
        pair = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if pc[pair] < min_count:
            break
        merged = pair[0] + pair[1]
        for w, syms in words.items():
            out, i = [], 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == pair[0]
                        and syms[i + 1] == pair[1]):
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = out
        merges.append(pair)
    return merges


def ref_encode_word(word: bytes, ranks: dict) -> list[bytes]:
    syms = [bytes([b]) for b in word]
    while True:
        pairs = [(ranks[p], i) for i, p in enumerate(zip(syms, syms[1:]))
                 if p in ranks]
        if not pairs:
            return syms
        _, i = min(pairs)
        syms[i:i + 2] = [syms[i] + syms[i + 1]]


CORPUS = [
    "the quick brown fox jumps over the lazy dog",
    "the lazy dog sleeps while the quick fox runs",
    "pack my box with five dozen liquor jugs, quickly!",
    "how quickly daft jumping zebras vex... the dog again",
    "sphinx of black quartz, judge my vow; the fox agrees",
    "it's the dog's fault that the fox can't sleep",
] * 3


def corpus_word_counts(texts) -> dict[str, int]:
    c: Counter = Counter()
    for t in texts:
        c.update(pretokenize(t))
    return {w: n for w, n in sorted(c.items(),
                                    key=lambda kv: (-kv[1], kv[0]))}


def test_pretokenize_partitions_text():
    for t in CORPUS + ["", "  spaced  out  ", "né café ü",
                       "tabs\tand\nnewlines", "123abc!?x_y"]:
        assert "".join(pretokenize(t)) == t


def test_train_merges_matches_naive_reference():
    wc = corpus_word_counts(CORPUS)
    fast = train_merges(wc, n_merges=80)
    slow = ref_train(wc, n_merges=80)
    assert fast == slow
    assert len(fast) > 20  # the corpus genuinely trains


def test_encode_matches_reference_and_round_trips():
    wc = corpus_word_counts(CORPUS)
    tok = BPETokenizer(train_merges(wc, n_merges=60))
    ranks = tok.ranks
    for t in CORPUS + ["unseen wordforms zyx", "né café — ü",
                       "it's can't won't"]:
        ids = tok.encode(t)
        # reference: per word piece, lowest-rank-first merging
        ref_syms = []
        for w in pretokenize(t):
            ref_syms.extend(ref_encode_word(w.encode("utf-8"), ranks))
        assert [tok.vocab[i] for i in ids] == ref_syms
        assert tok.decode(ids) == t  # byte-level: exact round-trip


def test_training_is_deterministic_and_order_independent():
    wc = corpus_word_counts(CORPUS)
    shuffled = dict(sorted(wc.items(), key=lambda kv: kv[0], reverse=True))
    assert train_merges(wc, 50) == train_merges(shuffled, 50)


def test_distributed_train_matches_driver_train(ray_session):
    import ray.data as rd

    from crawtext_ray.stages.bpe import train_bpe

    ds = rd.from_items([{"text": t} for t in CORPUS],
                       override_num_blocks=4)
    tok = train_bpe(ds, vocab_size=256 + 60)
    assert not tok.truncated
    assert tok.merges == train_merges(corpus_word_counts(CORPUS), 60)


def test_add_bpe_token_counts_and_encode_docs(ray_session):
    import ray.data as rd

    from crawtext_ray.stages.bpe import (
        add_bpe_token_counts,
        bpe_encode_docs,
        train_bpe,
    )

    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(CORPUS)]
    )
    tok = train_bpe(ds, vocab_size=256 + 40)
    counted = add_bpe_token_counts(ds, tok).to_pandas()
    encoded = bpe_encode_docs(ds, tok).to_pandas()
    for _, r in counted.merge(encoded, on="doc_id").iterrows():
        assert r["n_bpe_tokens"] == len(r["bpe_ids"])
        assert r["n_bpe_tokens"] == len(tok.encode(r["text_x"]))
        assert tok.decode(r["bpe_ids"]) == r["text_x"]


def test_pack_sequences_consumes_bpe_counts(ray_session):
    """The export-packing integration: pack_id/pack_offset computed from
    REAL subword counts equal a driver-side exclusive cumsum over the
    same shuffle order."""
    import ray.data as rd

    from crawtext_ray.stages.bpe import add_bpe_token_counts, train_bpe
    from crawtext_ray.stages.shuffle import pack_sequences

    ds = rd.from_items(
        [{"doc_id": i, "text": CORPUS[i % len(CORPUS)] + f" tail {i}"}
         for i in range(40)]
    )
    tok = train_bpe(ds, vocab_size=256 + 30)
    counted = add_bpe_token_counts(ds, tok).rename_columns(
        {"n_bpe_tokens": "n_tokens"})
    packed = pack_sequences(counted, seq_len=64, n_shards=4,
                            seed=1).to_pandas()
    assert len(packed) == 40
    for _, g in packed.groupby("shard"):
        g = g.sort_values("pos")
        prev = np.concatenate(([0], np.cumsum(g["n_tokens"])[:-1]))
        assert (g["pack_id"].to_numpy() == prev // 64).all()
        assert (g["pack_offset"].to_numpy() == prev % 64).all()


def test_truncated_word_stream_flag(ray_session):
    import ray.data as rd

    from crawtext_ray.stages.bpe import train_bpe

    ds = rd.from_items([{"text": t} for t in CORPUS])
    tok = train_bpe(ds, vocab_size=256 + 10, max_distinct_words=5)
    assert tok.truncated
    assert len(tok.merges) <= 10


def test_vocab_size_floor():
    with pytest.raises(ValueError, match="at least 256"):
        import ray.data as rd  # noqa: F401 — signature check only

        from crawtext_ray.stages.bpe import train_bpe
        train_bpe(None, vocab_size=100)


def test_bpe_round_trip_property():
    """Property test: ANY text byte-round-trips through a trained
    tokenizer (byte-level BPE can never lose information), and the
    pretokenizer partitions every input exactly."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    tok = BPETokenizer(train_merges(corpus_word_counts(CORPUS), 40))

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def check(t):
        assert "".join(pretokenize(t)) == t
        assert tok.decode(tok.encode(t)) == t

    check()
