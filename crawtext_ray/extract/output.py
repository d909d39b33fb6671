"""Post-extraction pruning + output formatting (SURVEY.md §2.6 X5–X10;
reference goose: goose/extractors.py::post_cleanup/add_siblings +
goose/outputformatters.py::OutputFormatter).

``extracted_text`` bytes are defined here (X10): per direct child of the
top node, collapse internal whitespace to single spaces and strip; drop
empties; join paragraphs with "\n\n"; LF only; no trailing newline
(SURVEY.md §2.7 item 8).
"""

from __future__ import annotations

from .dom import Node
from .scoring import is_high_link_density
from .stopwords import stopword_count_cached

_SIBLING_MIN_THRESHOLD = 10.0
_SIBLING_SCORE_FACTOR = 0.30
_CHILD_PRUNE_FACTOR = 0.08
_FEWWORDS_MIN_STOPWORDS = 3  # strictly fewer than this is removed


def inner_trim(text: str) -> str:
    """goose: goose/utils innerTrim — collapse whitespace, strip.
    ``str.split()`` splits on exactly the characters regex ``\\s`` matches
    in a str pattern (both are ``str.isspace``)."""
    return " ".join(text.split())


def sibling_threshold(top_node_score: float) -> float:
    """X5 contract: max(10, 0.30 * top_node_score)."""
    return max(_SIBLING_MIN_THRESHOLD, _SIBLING_SCORE_FACTOR * top_node_score)


def _sibling_paragraphs(sib: Node, threshold: float, lang: str) -> list[Node]:
    """X5 (goose: get_siblings_content): a sibling <p> with text joins
    directly; otherwise its <p> descendants whose stopword_count beats the
    threshold (and which are not high link density) are re-wrapped as
    fresh <p> nodes."""
    if sib.tag == "p" and sib.text_content().strip():
        return [sib]
    out: list[Node] = []
    for p in sib.walk("p"):
        txt = p.text_content()
        if not txt.strip():
            continue
        if is_high_link_density(p):
            continue
        if stopword_count_cached(txt, lang) > threshold:
            np = Node("p", order=p.order)
            np.text = txt
            out.append(np)
    return out


def add_siblings(top_node: Node, top_node_score: float, lang: str) -> Node:
    """X5 (goose: add_siblings): walk previous siblings nearest-first and
    prepend accepted paragraphs, preserving their original relative order."""
    threshold = sibling_threshold(top_node_score)
    for sib in top_node.previous_siblings():  # nearest first
        paras = _sibling_paragraphs(sib, threshold, lang)
        for p in reversed(paras):
            # detach from old parent if joined directly
            if p.parent is not None:
                p.parent.remove(p, keep_tail=False)
            p.tail = ""
            top_node.insert(0, p)
    return top_node


def _is_table_no_para(e: Node, lang: str) -> bool:
    """X6 helper (goose: is_table_and_no_para_exist): prune trivially-short
    <p> descendants (< 25 chars), then report true when no <p> survives and
    the element is not a td."""
    for p in e.walk("p"):
        if p is e:
            continue
        if len(p.text_content()) < 25 and p.parent is not None:
            p.parent.remove(p)
    has_para = any(n.tag == "p" and n is not e for n in e.iter())
    return not has_para and e.tag != "td"


def _score_threshold_met(top_score: float, e: Node) -> bool:
    """X6 (goose: is_nodescore_threshold_met): child survives when its own
    gravity score reaches 8% of the top score (td always survives)."""
    threshold = top_score * _CHILD_PRUNE_FACTOR
    if e.gravity_score < threshold and e.tag != "td":
        return False
    return True


def post_cleanup(top_node: Node, top_score: float, lang: str) -> Node:
    """X6 (goose: post_cleanup): inside the top node remove non-<p>
    children that are high link density, tables/structures without real
    paragraphs, or below the 8% score threshold."""
    for e in list(top_node.children):
        if e.tag == "p":
            continue
        if (
            is_high_link_density(e)
            or _is_table_no_para(e, lang)
            or not _score_threshold_met(top_score, e)
        ):
            top_node.remove(e)
    return top_node


def remove_negativescore_nodes(top_node: Node) -> None:
    """X7 (goose: outputformatters.remove_negativescores_nodes): remove
    scored nodes with gravity_score < 1 (the top node itself excepted)."""
    for n in top_node.walk():
        if n is top_node or n.parent is None:
            continue
        if n.gravity_nodes > 0 and n.gravity_score < 1:
            n.parent.remove(n)


_UNWRAP_TAGS = frozenset(["b", "strong", "i", "sup", "em"])


def flatten_inline(top_node: Node) -> None:
    """X8 (goose: links_to_text + replace_with_text): <a> becomes its text;
    b/strong/i/sup/em unwrap; <br> becomes a single space."""
    for n in top_node.walk("a"):
        if n.parent is None:
            continue
        txt = n.text_content()
        # replace the <a> subtree with its flattened text
        i = n.parent.index(n)
        parent = n.parent
        tail = n.tail
        parent.remove(n, keep_tail=False)
        if i > 0:
            parent.children[i - 1].tail += txt + tail
        else:
            parent.text += txt + tail
    for n in top_node.walk():
        if n.tag in _UNWRAP_TAGS and n.parent is not None:
            n.unwrap()
    for n in top_node.walk("br"):
        if n.parent is None:
            continue
        i = n.parent.index(n)
        parent = n.parent
        sp = " " + n.tail
        parent.remove(n, keep_tail=False)
        if i > 0:
            parent.children[i - 1].tail += sp
        else:
            parent.text += sp


def remove_fewwords_paragraphs(top_node: Node, lang: str) -> None:
    """X9 (goose: remove_fewwords_paragraphs): drop elements (except br,
    and except the top node itself) whose text has stopword_count < 3 and
    which contain no object/embed; walked in reverse document order so
    nested removals cascade outward."""
    nodes = [n for n in top_node.walk() if n is not top_node]
    for el in reversed(nodes):
        if el.tag == "br" or el.parent is None:
            continue
        sw = stopword_count_cached(el.text_content(), lang)
        if sw < _FEWWORDS_MIN_STOPWORDS:
            has_media = any(n.tag in ("object", "embed") for n in el.iter())
            if not has_media:
                el.parent.remove(el)


def convert_to_text(top_node: Node) -> str:
    """X10: the byte-defining formatter."""
    texts = [top_node.text]
    for child in top_node.children:
        texts += (child.text_content(), child.tail)
    return "\n\n".join(t for t in map(inner_trim, texts) if t)


def format_output(top_node: Node, lang: str) -> str:
    """X7 → X8 → X9 → X10 pipeline over a (sibling-augmented, post-cleaned)
    top node."""
    remove_negativescore_nodes(top_node)
    flatten_inline(top_node)
    remove_fewwords_paragraphs(top_node, lang)
    return convert_to_text(top_node)
