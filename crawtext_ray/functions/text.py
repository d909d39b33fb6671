"""Text-analysis scalar functions (SURVEY.md §2.9 + the training-data
operator set): language id, quality scoring, token counting, document
fingerprinting. All but ``house_tokens`` (an Arrow column kernel) are
pure functions over one string, wrapped by vectorized ``map_batches``
stages in ``crawtext_ray.stages.textops``.

Tokenization contracts are frozen ASCII regexes so the DuckDB oracle can
reproduce them exactly (see __ray_entry__.oracle_sql):
- word_count: runs of non-whitespace
- token_count (BPE-ish): ``[A-Za-z0-9_]+|[^A-Za-z0-9_\\s]`` (a word run or
  a single punctuation mark)
- house_tokens (the Arrow house tokenizer of the curation stages):
  ``[a-z0-9]+`` runs of the lowercased text
"""

from __future__ import annotations

import re

from ..extract.stopwords import LANGID_LANGUAGES, stopword_set

_WS_TOKEN = re.compile(r"\S+")
_BPE_TOKEN = re.compile(r"[A-Za-z0-9_]+|[^A-Za-z0-9_\s]")
_WORD = re.compile(r"[a-z0-9]+")
_PUNCT = re.compile(r"[^\w\s]")


def house_tokens(texts):
    """The house tokenizer over an Arrow string column: the non-empty
    ``[a-z0-9]+`` runs of each lowercased text, flattened, and the row
    index of each token (an int64 numpy array). Null text has no tokens."""
    import pyarrow as pa
    import pyarrow.compute as pc

    lists = pc.split_pattern_regex(pc.utf8_lower(texts), pattern="[^a-z0-9]+")
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    toks = pc.list_flatten(lists)
    rows = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    keep = pc.utf8_length(toks).to_numpy(zero_copy_only=False) > 0
    return toks.filter(pa.array(keep)), rows[keep]


def word_count(text: str) -> int:
    return len(_WS_TOKEN.findall(text))


def token_count(text: str) -> int:
    """BPE-ish token count: word runs + individual punctuation marks."""
    return len(_BPE_TOKEN.findall(text))


def _cjk_ratio(text: str) -> float:
    if not text:
        return 0.0
    cjk = sum(1 for ch in text if "\u4e00" <= ch <= "\u9fff")
    return cjk / len(text)


def language_id(text: str) -> str:
    """Heuristic language id: CJK-script ratio check for zh, else argmax
    stopword hit-rate over the langid tables (en/fr/de/es/it/pt/nl);
    'und' when nothing matches."""
    if _cjk_ratio(text) > 0.25:
        return "zh"
    toks = _WORD.findall(text.lower())
    if not toks:
        return "und"
    best, best_hits = "und", 0
    for lang in LANGID_LANGUAGES:
        sw = stopword_set(lang)
        hits = sum(1 for t in toks if t in sw)
        if hits > best_hits:
            best, best_hits = lang, hits
    return best


def quality_features(text: str, lang: str) -> dict:
    """Quality-scoring features for a training-data filter: length,
    word/punctuation/stopword ratios, mean word length."""
    n_chars = len(text)
    words = _WS_TOKEN.findall(text)
    n_words = len(words)
    n_punct = len(_PUNCT.findall(text))
    toks = _WORD.findall(text.lower())
    sw = stopword_set(lang)
    n_stop = sum(1 for t in toks if t in sw)
    return {
        "n_chars": n_chars,
        "n_words": n_words,
        "mean_word_len": (sum(len(w) for w in words) / n_words) if n_words else 0.0,
        "punct_ratio": (n_punct / n_chars) if n_chars else 0.0,
        "stop_ratio": (n_stop / len(toks)) if toks else 0.0,
    }


_FP_BASE = 1_000_003
_FP_MOD = (1 << 61) - 1


def rolling_fingerprint(text: str) -> int:
    """Deterministic document fingerprint: min of a Rabin-Karp rolling
    hash over 16-character windows (a winnowing-style content id that is
    stable under small appends, unlike a whole-document hash)."""
    window = 16
    if not text:
        return 0
    if len(text) <= window:
        h = 0
        for ch in text:
            h = (h * _FP_BASE + ord(ch)) % _FP_MOD
        return h
    h = 0
    pw = pow(_FP_BASE, window - 1, _FP_MOD)
    best = None
    for i, ch in enumerate(text):
        h = (h * _FP_BASE + ord(ch)) % _FP_MOD
        if i >= window:
            h = (h - ord(text[i - window]) * pw * _FP_BASE) % _FP_MOD
        if i >= window - 1:
            best = h if best is None or h < best else best
    return int(best)
