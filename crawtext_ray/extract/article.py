"""The pure extraction entry point (SURVEY.md §3.3): the analog of
``Goose().extract(raw_html=...)`` (goose: goose/crawler.py::Crawler.crawl)
as a Ray-free deterministic function. Golden byte-identity tests call this
directly; the Ray stage (crawtext_ray.stages.extract_stage) is a thin
Arrow wrapper.

Stage order (goose crawl order, SURVEY.md §2):
  decode (M3) → parse (M4) → metas (M5) → element-hide (F3) →
  clean C1–C6 → score X1–X4 → siblings X5 → post-cleanup X6 →
  format X7–X10 → outlinks M6.
"""

from __future__ import annotations

import hashlib
from typing import Any

from . import cleaners, metas, output, scoring
from .adblock import AdblockRules
from .dom import parse_html, tagged
from .encoding import decode_html
from .stopwords import resolve_language
from .urlnorm import canon_url, is_crawlable

STATUS_OK = "ok"
STATUS_EMPTY = "empty"
STATUS_PARSE_ERROR = "parse_error"
STATUS_BLOCKED = "blocked"


def _extract_outlinks(root, page_url: str, rules: AdblockRules | None) -> list[str]:
    """M6: all a/@href absolutized (M1), filtered (M2 + F2), de-duplicated
    within page, order-preserving."""
    seen: set[str] = set()
    out: list[str] = []
    # per-page memo: real pages repeat nav/footer hrefs dozens of times —
    # canonize + filter + adblock-match each distinct href once
    memo: dict[str, str | None] = {}
    for a in tagged(root, "a"):
        href = a.get("href")
        if not href:
            continue
        if href in memo:
            u = memo[href]
        else:
            u = canon_url(page_url, href)
            if not u or not is_crawlable(u) or (
                rules is not None and rules.should_block(u)
            ):
                u = None
            memo[href] = u
        if u and u not in seen:
            seen.add(u)
            out.append(u)
    return out


def extract_article(
    html: bytes,
    url: str,
    lang: str | None,
    rules: AdblockRules | None = None,
) -> dict[str, Any]:
    """bytes -> article dict. Pure, deterministic, never raises on bad
    markup. Keys mirror the ``articles`` schema (SURVEY.md §1.2)."""
    result: dict[str, Any] = {
        "url": url,
        "lang": lang or "",
        "title": "",
        "extracted_text": "",
        "meta_description": "",
        "meta_keywords": "",
        "meta_lang": "",
        "canonical": url,
        "outlinks": [],
        "status": STATUS_EMPTY,
        "n_words": 0,
        "content_sha256": b"",
        "encoding": "",
    }

    if rules is not None and url and rules.should_block(url):
        result["status"] = STATUS_BLOCKED
        return result

    try:
        text, enc = decode_html(html)
        result["encoding"] = enc
        root = parse_html(text)
    except Exception:
        # html.parser is lenient; this is a pure safety net (e.g. recursion
        # depth on pathological nesting)
        result["status"] = STATUS_PARSE_ERROR
        return result

    # M5 metas on the raw (pre-clean) tree, like goose
    result["title"] = metas.get_title(root)
    result["meta_description"] = metas.get_meta_description(root)
    result["meta_keywords"] = metas.get_meta_keywords(root)
    meta_lang = metas.get_meta_lang(root)
    result["meta_lang"] = meta_lang
    result["canonical"] = metas.get_canonical_link(root, url)

    # M6 outlinks from the raw tree (before boilerplate removal)
    result["outlinks"] = _extract_outlinks(root, url, rules)

    # M8 language; the raw tree's text is built only for the stopword
    # fallback (the lang column or the meta lang decides most pages)
    use_lang = resolve_language(lang, meta_lang, root.text_content)
    result["lang"] = use_lang

    # C1 + C2 + F3 + C3 + C4 fused into one removal pass (byte-identical
    # to the sequential passes; see cleaners.remove_unwanted, which also
    # drops the raw-tree index before the tree's first mutation), then
    # C5/C6.
    cleaners.remove_unwanted(root, rules)
    cleaners.clean_em_tags(root)
    cleaners.remove_drop_caps(root)
    cleaners.clean_para_spans(root)
    cleaners.div_to_para(root)

    # X1–X4 scoring
    score = scoring.calculate_best_node(root, use_lang)
    if score.top_node is None:
        result["status"] = STATUS_EMPTY
        return result

    # X5 siblings → X6 prune → X7–X10 format
    top = output.add_siblings(score.top_node, score.top_node_score, use_lang)
    top = output.post_cleanup(top, score.top_node_score, use_lang)
    text_out = output.format_output(top, use_lang)

    result["extracted_text"] = text_out
    result["n_words"] = len(text_out.split())
    result["content_sha256"] = hashlib.sha256(text_out.encode("utf-8")).digest()
    result["status"] = STATUS_OK if text_out else STATUS_EMPTY
    return result
