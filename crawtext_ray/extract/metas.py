"""Metadata extractors (SURVEY.md §2.2 M5; reference goose:
goose/extractors.py::ContentExtractor.get_title / get_meta_description /
get_meta_keywords / get_meta_lang / get_canonical_link). They read the
raw tree's parse-time tag lists (``dom.tagged``).

Title rule (SURVEY.md §2.7 item 5): entities already decoded by the
parser; split on the FIRST splitter present among "|", " - ", "»", ":";
take the longest fragment; collapse whitespace. (" - " is matched with
surrounding spaces so hyphenated words survive.)
"""

from __future__ import annotations

from .dom import Node, tagged
from .output import inner_trim
from .urlnorm import canon_url

_TITLE_SPLITTERS = ("|", " - ", "»", ":")


def clean_title(raw: str) -> str:
    title = raw
    for sp in _TITLE_SPLITTERS:
        if sp in title:
            frags = title.split(sp)
            title = max(frags, key=lambda f: len(f.strip()))
            break
    return inner_trim(title)


def get_title(root: Node) -> str:
    titles = tagged(root, "title")
    return clean_title(titles[0].text_content()) if titles else ""


def _meta_content(root: Node, name: str) -> str:
    for m in tagged(root, "meta"):
        if m.get("name").lower() == name or m.get("property").lower() == name:
            return m.get("content").strip()
    return ""


def get_meta_description(root: Node) -> str:
    return _meta_content(root, "description")


def get_meta_keywords(root: Node) -> str:
    return _meta_content(root, "keywords")


def get_meta_lang(root: Node) -> str:
    """html@lang, else http-equiv content-language, else meta name=lang;
    first 2 chars lowercased."""
    html = tagged(root, "html")
    if html and html[0].get("lang"):
        return html[0].get("lang")[:2].lower()
    for m in tagged(root, "meta"):
        if m.get("http-equiv").lower() == "content-language" and m.get("content"):
            return m.get("content")[:2].lower()
        if m.get("name").lower() == "lang" and m.get("content"):
            return m.get("content")[:2].lower()
    return ""


def get_canonical_link(root: Node, page_url: str) -> str:
    for l in tagged(root, "link"):
        if l.get("rel").lower() == "canonical" and l.get("href"):
            return canon_url(page_url, l.get("href"))
    return page_url
