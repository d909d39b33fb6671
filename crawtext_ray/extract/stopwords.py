"""Stopword tables + stopword counts (SURVEY.md §2 M8/M9, goose:
goose/text.py::StopWords; resources layout mirrors
goose:resources/text/stopwords-xx.txt).

Tokenization contract (SURVEY.md §2.7 item 1): NFC normalize -> strip
unicode punctuation (categories P*) -> lowercase -> split on whitespace.

``stopword_count`` applies the contract per word: it NFC-normalizes the
text, splits it on whitespace, and maps each word to
``word.translate(_PUNCT_TABLE).lower()`` through a bounded module memo
(``_TOKENS``). This equals ``tokenize`` by construction: no P* code point
is whitespace, so deleting punctuation neither adds nor removes a split
point; no character lowercases to or from whitespace; and ``str.lower``'s
one context-dependent mapping (final sigma) looks no further than the
surrounding cased letters, which whitespace ends. A word that is all
punctuation maps to "" and counts as no token. Words longer than
``MAX_MEMO_LEN`` and texts longer than ``MAX_MEMO_TEXT`` are counted
without being memoized, so one huge page cannot fill the memos.
"""

from __future__ import annotations

import unicodedata
from functools import lru_cache
from importlib import resources as _ilr
from typing import Callable

DEFAULT_LANGUAGE = "en"
# extraction contract languages (frozen — goldens depend on this set)
KNOWN_LANGUAGES = ("en", "fr", "de", "es")
# wider set for the language-id heuristic (safe to extend: language_id is
# a training-data op, not part of the byte-identity contract)
LANGID_LANGUAGES = ("en", "fr", "de", "es", "it", "pt", "nl")


def _punct_table() -> dict[int, None]:
    """Translation table dropping every unicode punctuation code point,
    from the frozen P* ranges (tools/freeze_punct.py) instead of a scan
    of all 1.1M code points in every process."""
    ref = _ilr.files("crawtext_ray") / "resources" / "punctuation_ranges.txt"
    table: dict[int, None] = {}
    for line in ref.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            lo, _, hi = line.partition("-")
            table.update(dict.fromkeys(range(int(lo, 16), int(hi or lo, 16) + 1)))
    return table


_PUNCT_TABLE = _punct_table()


def tokenize(text: str) -> list[str]:
    """The frozen counting tokenizer."""
    t = unicodedata.normalize("NFC", text)
    t = t.translate(_PUNCT_TABLE)
    return t.lower().split()


@lru_cache(maxsize=None)
def stopword_set(lang: str) -> frozenset[str]:
    lang = (lang or DEFAULT_LANGUAGE).lower()[:2]
    if lang not in LANGID_LANGUAGES:
        lang = DEFAULT_LANGUAGE
    ref = _ilr.files("crawtext_ray") / "resources" / f"stopwords-{lang}.txt"
    words = ref.read_text(encoding="utf-8").split()
    return frozenset(words)


# memo bounds: entries per memo (a memo is cleared at its cap, like the
# Adblock verdicts) and the longest word / text a memo keeps
MAX_MEMO_WORDS = 1 << 15
MAX_MEMO_LEN = 32
MAX_MEMO_TEXTS = 4096
MAX_MEMO_TEXT = 2048
_TOKENS: dict[str, str] = {}  # word -> its token ("" for punctuation)
_COUNTS: dict[tuple[str, str], int] = {}  # (text, lang) -> stopword count


def _token(word: str) -> str:
    tok = word.translate(_PUNCT_TABLE).lower()
    if len(word) <= MAX_MEMO_LEN:
        if len(_TOKENS) >= MAX_MEMO_WORDS:
            _TOKENS.clear()
        _TOKENS[word] = tok
    return tok


def stopword_count(text: str, lang: str) -> int:
    """Stopword tokens of ``text``: ``tokenize`` counted word by word
    through the token memo."""
    sw = stopword_set(lang)
    get = _TOKENS.get
    n = 0
    for w in unicodedata.normalize("NFC", text).split():
        tok = get(w)
        if tok is None:
            tok = _token(w)
        if tok in sw:
            n += 1
    return n


def stopword_count_cached(text: str, lang: str) -> int:
    """Memoized stopword count: the scorer re-evaluates the same node
    texts several times per page (keep filter, boost walk, sibling
    checks); pure function, bounded cache."""
    if len(text) > MAX_MEMO_TEXT:
        return stopword_count(text, lang)
    key = (text, lang)
    n = _COUNTS.get(key)
    if n is None:
        n = stopword_count(text, lang)
        if len(_COUNTS) >= MAX_MEMO_TEXTS:
            _COUNTS.clear()
        _COUNTS[key] = n
    return n


def resolve_language(input_lang: str | None, meta_lang: str | None,
                     text: str | Callable[[], str]) -> str:
    """M8 language resolver: input ``lang`` column, else meta lang, else
    argmax stopword hits across known languages (ties -> KNOWN_LANGUAGES
    order, strict > argmax). ``text`` may be a function returning the
    text: it is then called only when the stopword fallback runs."""
    for cand in (input_lang, meta_lang):
        if cand:
            c = cand.lower()[:2]
            if c in KNOWN_LANGUAGES:
                return c
    toks = tokenize(text() if callable(text) else text)
    best_lang, best_hits = DEFAULT_LANGUAGE, -1
    for lang in KNOWN_LANGUAGES:
        sw = stopword_set(lang)
        hits = sum(1 for t in toks if t in sw)
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    return best_lang
