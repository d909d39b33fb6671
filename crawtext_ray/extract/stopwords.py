"""Stopword tables + word statistics (SURVEY.md §2 M8/M9, goose:
goose/text.py::StopWords/WordStats; resources layout mirrors
goose:resources/text/stopwords-xx.txt).

Tokenization contract (SURVEY.md §2.7 item 1): NFC normalize -> strip
unicode punctuation (categories P*) -> lowercase -> split on whitespace.
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


class WordStats:
    """goose: goose/text.py::WordStats equivalent."""

    __slots__ = ("word_count", "stop_word_count", "stop_words")

    def __init__(self, word_count: int, stop_words: list[str]):
        self.word_count = word_count
        self.stop_words = stop_words
        self.stop_word_count = len(stop_words)


def word_stats(text: str, lang: str = DEFAULT_LANGUAGE) -> WordStats:
    toks = tokenize(text)
    sw = stopword_set(lang)
    return WordStats(len(toks), [t for t in toks if t in sw])


def stopword_count(text: str, lang: str = DEFAULT_LANGUAGE) -> int:
    toks = tokenize(text)
    sw = stopword_set(lang)
    return sum(map(sw.__contains__, toks))


@lru_cache(maxsize=4096)
def stopword_count_cached(text: str, lang: str) -> int:
    """Memoized stopword count: the scorer re-evaluates the same node
    texts several times per page (keep filter, boost walk, sibling
    checks); pure function, bounded cache."""
    return stopword_count(text, lang)


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
