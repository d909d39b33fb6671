"""Document cleaner — boilerplate removal before scoring (SURVEY.md §2.4
C1–C6; reference goose: goose/cleaners.py::DocumentCleaner).

All operations mutate the parsed tree in place, in the fixed order
C1 → C2 → F3 (element-hide) → C3 → C4 → C5 → C6; the first five run as one
removal walk (``remove_unwanted``; the sequential one-pass-per-step forms
are the test reference, tests/reference_cleaners.py).
Every regex list lives in version-controlled resources (SURVEY.md §2.7
item 2) and is compiled once per process.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources as _ilr

from .dom import COMMENT, IDENT_ATTRS, REMOVABLE, REMOVABLE_TAGS, Node

BLOCK_TAGS = frozenset(
    ["a", "blockquote", "dl", "div", "img", "ol", "p", "pre", "table", "ul"]
)


@lru_cache(maxsize=1)
def _naughty_re() -> "re.Pattern[str]":
    """C3 boilerplate id/class/name alternation, order-significant, from
    resources/boilerplate_patterns.txt (goose: goose/cleaners.py REGEX
    analog)."""
    ref = _ilr.files("crawtext_ray") / "resources" / "boilerplate_patterns.txt"
    pats = [ln.strip() for ln in ref.read_text(encoding="utf-8").splitlines() if ln.strip()]
    return re.compile("|".join(re.escape(p) for p in pats), re.IGNORECASE)


# C4 targeted regexes (goose: clean_body_classes / remove_nodes_regex)
_TARGETED_RES = [
    re.compile(r"^caption$"),
    re.compile(r" google "),
    re.compile(r"^[^entry-]more.*$"),
    re.compile(r"[^-]facebook"),
    re.compile(r"facebook-broadcasting"),
    re.compile(r"[^-]twitter"),
]



@lru_cache(maxsize=1)
def _boilerplate_re() -> "re.Pattern[str]":
    """C3 (case-insensitive) and C4 (case-sensitive) as one regex: it
    searches a string iff one of them does."""
    return re.compile("|".join(
        [f"(?i:{_naughty_re().pattern})", *(r.pattern for r in _TARGETED_RES)]
    ))


# C3+C4 verdict memo: id/class/name strings repeat across a site's pages
# and within a page. Bounded like the Adblock verdicts: cleared at
# MAX_VERDICTS entries, and strings longer than MAX_VERDICT_LEN are
# searched without being kept.
MAX_VERDICTS = 4096
MAX_VERDICT_LEN = 256
_VERDICTS: dict[str, bool] = {}


def boilerplate_verdict(ident: str) -> bool:
    """``_boilerplate_re().search(ident)`` as a bool, through the memo."""
    v = _VERDICTS.get(ident)
    if v is None:
        v = _boilerplate_re().search(ident) is not None
        if len(ident) <= MAX_VERDICT_LEN:
            if len(_VERDICTS) >= MAX_VERDICTS:
                _VERDICTS.clear()
            _VERDICTS[ident] = v
    return v


_DROP_CAP_RE = re.compile(r"drop_?cap(ital)?", re.IGNORECASE)


def clean_em_tags(root: Node) -> None:
    """C5a (goose: clean_em_tags): unwrap <em> without <img> descendants."""
    for n in root.walk("em"):
        if n.parent is not None and n.find_first("img") is None:
            n.unwrap()


def remove_drop_caps(root: Node) -> None:
    """C5b (goose: remove_drop_caps): unwrap styled drop-cap spans."""
    for n in root.walk("span"):
        if n.parent is None:
            continue
        if _DROP_CAP_RE.search(n.get("class")) or _DROP_CAP_RE.search(n.get("id")):
            n.unwrap()


def clean_para_spans(root: Node) -> None:
    """C5c (goose: clean_para_spans): unwrap spans inside paragraphs."""
    for p in root.walk("p"):
        for n in p.walk("span"):
            if n.parent is not None:
                n.unwrap()


def _has_block_descendant(div: Node) -> bool:
    for n in div.iter():
        if n is div:
            continue
        if n.tag in BLOCK_TAGS:
            return True
    return False


def div_to_para(root: Node) -> None:
    """C6 (goose: div_to_para + get_replacement_nodes): a div with no
    block-level descendants becomes a <p>; inside mixed divs, contiguous
    runs of text/inline children are wrapped in new <p> elements while
    block children stay in place."""
    for div in root.walk("div"):
        if div.parent is None:
            continue
        if not _has_block_descendant(div):
            div.tag = "p"
            continue
        new_children: list[Node] = []
        cur_p: Node | None = None

        def emit_text(s: str) -> None:
            nonlocal cur_p
            if cur_p is None:
                if not s.strip():
                    return
                cur_p = Node("p", order=div.order)
            if cur_p.children:
                cur_p.children[-1].tail += s
            else:
                cur_p.text += s

        def flush() -> None:
            nonlocal cur_p
            if cur_p is not None and (cur_p.text.strip() or cur_p.children):
                new_children.append(cur_p)
            cur_p = None

        emit_text(div.text)
        div.text = ""
        for child in div.children:
            tail = child.tail
            child.tail = ""
            if child.tag in BLOCK_TAGS or child.tag == COMMENT:
                flush()
                new_children.append(child)
            else:
                if cur_p is None:
                    cur_p = Node("p", order=child.order)
                cur_p.append(child)
            emit_text(tail)
        flush()
        div.children = []
        for c in new_children:
            div.append(c)


def remove_unwanted(root: Node, rules=None) -> None:
    """Fused single-pass removal of C1 (comments), C2 (script/style/
    noscript), F3 (element-hiding rules) and C3/C4 (boilerplate
    id/class/name) — the removal criteria are disjoint and
    order-independent, so one pass in document order produces the same
    tree as the sequential passes (tests/reference_cleaners.py).

    A node without an id, class or name attribute can match only a
    tag-only hiding rule. Without such rules, only C1/C2 nodes and nodes
    carrying one of those attributes can be removed, and a parsed
    ``Document`` lists exactly those, in document order, in its raw-tree
    index (``dom.REMOVABLE``): the pass reads that list instead of
    walking the tree. It clears the index before it removes anything;
    the index describes the tree as parsed only. The C3+C4 verdict of
    each id/class/name string goes through a bounded memo."""
    hide = rules.hide_rules if rules is not None else ()
    hide_exc = rules.hide_exceptions if rules is not None else ()
    bare_hide = rules is not None and bool(rules.hide_plain)
    index = getattr(root, "tag_index", None)
    if index is not None:
        root.tag_index = None
    if index is not None and not bare_hide:
        nodes = index[REMOVABLE]
    else:
        nodes = root.walk()
    for n in nodes:
        if n.parent is None:
            continue
        tag = n.tag
        if tag in REMOVABLE_TAGS:
            n.parent.remove(n)
            continue
        if tag in ("html", "body", "#document"):
            continue
        if not bare_hide and IDENT_ATTRS.isdisjoint(n.attrs):
            continue
        if hide:
            cands = rules.hide_candidates(n)
            if cands and any(h.matches(n) for h in cands) and not any(
                h.matches(n) for h in hide_exc
            ):
                n.parent.remove(n)
                continue
        ident = n.id_class_name()
        if ident and boilerplate_verdict(ident):
            n.parent.remove(n)
