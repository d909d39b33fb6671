"""Scalar text functions + metas + stopwords (M5/M8/M9, §2.9)."""

from crawtext_ray.extract.dom import parse_html
from crawtext_ray.extract.metas import clean_title, get_meta_lang, get_title
from crawtext_ray.extract.stopwords import (
    resolve_language,
    stopword_count,
    tokenize,
    word_stats,
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
    assert word_stats("the cat", "en").word_count == 2


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
