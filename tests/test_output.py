"""X5–X10 pruning + formatting (reference goose: outputformatters.py)."""

import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from crawtext_ray.extract.article import extract_article
from crawtext_ray.extract.dom import parse_html
from crawtext_ray.extract.output import (
    convert_to_text,
    inner_trim,
    sibling_threshold,
)

RICH = (
    "this is a paragraph with plenty of the usual common words that we "
    "expect to see because they are part of the language and of the test"
)


def test_inner_trim():
    assert inner_trim("  a\n\t b   c ") == "a b c"


_WS_RE = re.compile(r"\s+")


def _regex_inner_trim(text: str) -> str:
    """The former regex form of inner_trim."""
    return _WS_RE.sub(" ", text).strip()


def test_inner_trim_equals_regex_form_on_every_space():
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert spaces == [c for c in map(chr, range(sys.maxunicode + 1))
                      if _WS_RE.fullmatch(c)]
    for c in spaces:
        for s in (f"a{c}b", f"{c}a{c}{c}b{c}", c, f"x{c}", f"{c}\u200bx"):
            assert inner_trim(s) == _regex_inner_trim(s), hex(ord(c))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet=st.sampled_from(
    list("ab \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028"
         "\u2029\u202f\u205f\u3000\u200b\u180e\ufeff")), max_size=60)
    | st.text(max_size=200))
def test_inner_trim_equals_regex_form(s):
    assert inner_trim(s) == _regex_inner_trim(s)


def test_sibling_threshold_floor():
    assert sibling_threshold(10) == 10
    assert sibling_threshold(100) == 30


def test_x10_paragraph_join_contract():
    top = parse_html(f"<div><p> one  two </p><p>three</p><p></p></div>").find_first("div")
    out = convert_to_text(top)
    assert out == "one two\n\nthree"
    assert not out.endswith("\n")


def test_direct_p_sibling_joins(article_html=None):
    html = (
        "<body><div id='content'>"
        f"<p>lead sibling {RICH}</p>"
        f"<div id='body'><p>{RICH}</p><p>{RICH}</p><p>{RICH}</p></div>"
        "</div></body>"
    ).encode()
    art = extract_article(html, "http://t.example/x", "en")
    assert art["status"] == "ok"
    assert art["extracted_text"].startswith("lead sibling")


def test_x8_inline_flattening():
    html = (
        f"<body><div><p><strong>Bold</strong> start {RICH} "
        f"<a href='/x'>linked words</a> end</p><p>{RICH}</p><p>{RICH}</p></div></body>"
    ).encode()
    art = extract_article(html, "http://t.example/x", "en")
    t = art["extracted_text"]
    assert "Bold start" in t
    assert "linked words" in t  # link text kept, markup gone


def test_x9_fewwords_removed():
    html = (
        f"<body><div><p>{RICH}</p><p>photo credit agency</p><p>{RICH}</p>"
        f"<p>{RICH}</p></div></body>"
    ).encode()
    art = extract_article(html, "http://t.example/x", "en")
    assert "photo credit agency" not in art["extracted_text"]


def test_empty_page_status():
    art = extract_article(b"<html><body><div>nothing rich here</div></body></html>",
                          "http://t.example/x", "en")
    assert art["status"] == "empty"
    assert art["extracted_text"] == ""


def test_idempotent_and_deterministic():
    html = (
        f"<body><div><p>{RICH}</p><p>{RICH}</p></div></body>"
    ).encode()
    a = extract_article(html, "http://t.example/x", "en")
    b = extract_article(html, "http://t.example/x", "en")
    assert a["extracted_text"] == b["extracted_text"]
    assert a["content_sha256"] == b["content_sha256"]
