"""Scalar text functions + metas + stopwords (M5/M8/M9, §2.9)."""

from hypothesis import given, settings
from hypothesis import strategies as st

import crawtext_ray.extract.stopwords as stopwords
from crawtext_ray.extract.dom import parse_html
from crawtext_ray.extract.metas import clean_title, get_meta_lang, get_title
from crawtext_ray.extract.stopwords import (
    resolve_language,
    stopword_count,
    stopword_count_cached,
    stopword_set,
    tokenize,
)
from crawtext_ray.functions.text import (
    language_id,
    quality_features,
    rolling_fingerprint,
    token_count,
    word_count,
)


def test_tokenize_contract():
    assert tokenize("Hello, World! it's fine") == ["hello", "world", "its", "fine"]


def test_stopword_count_langs():
    assert stopword_count("the cat and the dog", "en") == 3
    assert stopword_count("le chat et la maison", "fr") >= 2
    assert len(tokenize("the cat")) == 2


# words and separators that stress the per-word form of the tokenizer:
# final and medial sigma, dotted/dotless i, NEL and the \x1c-\x1f
# separators, NBSP, combining marks NFC composes, punctuation-only words
_PIECES = [
    "the", "The", "THE", "and", "of", "le", "la", "et", "der", "die", "und",
    "el", "de", "ΑΣ", "Σ", "σ", "ς", "ΟΔΟΣ", "İ", "ı", "I", "e\u0301", "é",
    "\u0085", "\x1c", "\x1f", "\u00a0", "\u2028", "\u3000", " ", "\t", "\n",
    "'", "—", ".", ",", "!?", "«", "»", "\u00ad", "x", "1",
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
                 st.text(max_size=200)),
       st.sampled_from(["en", "fr", "de", "es"]))
def test_stopword_count_equals_tokenize_reference(text, lang):
    """The per-word memo form counts exactly the frozen tokenizer's
    stopword tokens, cached or not."""
    sw = stopword_set(lang)
    want = sum(t in sw for t in tokenize(text))
    assert stopword_count(text, lang) == want
    assert stopword_count_cached(text, lang) == want
    assert stopword_count_cached(text, lang) == want  # memo hit


def test_stopword_memos_keep_no_long_entries():
    """Hostile input: huge single-paragraph texts and huge 'words' are
    counted correctly and never stored in either memo."""
    long_word = "x" * (stopwords.MAX_MEMO_LEN + 1)
    texts = [
        "the " * 100_000,
        ("the " + long_word + " ") * 1_000,
        "a" * 1_000_000,
        " ".join(f"{i}the{i}" * 3 for i in range(5_000)),
    ]
    for t in texts:
        want = sum(w in stopword_set("en") for w in tokenize(t))
        assert stopword_count_cached(t, "en") == want
        assert stopword_count(t, "en") == want
    assert max(map(len, stopwords._TOKENS), default=0) <= stopwords.MAX_MEMO_LEN
    assert max((len(t) for t, _ in stopwords._COUNTS), default=0) <= stopwords.MAX_MEMO_TEXT
    assert len(stopwords._TOKENS) <= stopwords.MAX_MEMO_WORDS
    assert len(stopwords._COUNTS) <= stopwords.MAX_MEMO_TEXTS


def test_resolve_language_priority():
    assert resolve_language("fr", "de", "the the the") == "fr"
    assert resolve_language(None, "de", "the the the") == "de"
    assert resolve_language(None, None, "the cat and the dog is here") == "en"
    assert resolve_language("zz", None, "der hund und die katze ist hier") == "de"


def test_resolve_language_builds_text_only_on_fallback():
    calls = []

    def text():
        calls.append(1)
        return "der hund und die katze ist hier"

    assert resolve_language("fr", None, text) == "fr"
    assert resolve_language(None, "es-ES", text) == "es"
    assert not calls
    assert resolve_language(None, None, text) == "de"
    assert calls == [1]


def test_title_rules():
    assert clean_title("Short | A Much Longer Fragment Here") == "A Much Longer Fragment Here"
    assert clean_title("Main Story - site") == "Main Story"
    assert clean_title("A » B longer") == "B longer"
    assert clean_title("No splitter   here") == "No splitter here"
    r = parse_html("<head><title>X | Bigger Part</title></head>")
    assert get_title(r) == "Bigger Part"


def test_meta_lang():
    assert get_meta_lang(parse_html('<html lang="FR-fr"><body/></html>')) == "fr"
    assert (
        get_meta_lang(
            parse_html('<meta http-equiv="content-language" content="de-DE">')
        )
        == "de"
    )


def test_word_and_token_count():
    assert word_count("two words") == 2
    assert word_count("  ") == 0
    assert token_count("hello, world!") == 4  # hello , world !


def test_language_id():
    assert language_id("the cat and the dog is in the house") == "en"
    assert language_id("el perro y el gato en la casa") == "es"
    assert language_id("12345 67890") == "und"


def test_quality_features():
    q = quality_features("The cat, the dog.", "en")
    assert q["n_chars"] == 17
    assert q["n_words"] == 4
    assert 0 < q["punct_ratio"] < 0.2
    assert q["stop_ratio"] == 0.5


def test_rolling_fingerprint_deterministic():
    a = rolling_fingerprint("some document body text here")
    b = rolling_fingerprint("some document body text here")
    assert a == b and a > 0
    assert rolling_fingerprint("") == 0
    assert rolling_fingerprint("abc") != rolling_fingerprint("abd")
    # short texts hash the whole string
    assert rolling_fingerprint("abc") == rolling_fingerprint("abc")


def test_frozen_punctuation_table_equals_unicodedata_scan():
    """The tokenizer's punctuation table, read from the frozen range
    resource, equals a full scan of this interpreter's unicodedata
    (regenerate with ``python -m tools.freeze_punct``)."""
    import sys
    import unicodedata

    from crawtext_ray.extract.stopwords import _PUNCT_TABLE

    scan = {cp: None for cp in range(sys.maxunicode + 1)
            if unicodedata.category(chr(cp)).startswith("P")}
    assert _PUNCT_TABLE == scan
