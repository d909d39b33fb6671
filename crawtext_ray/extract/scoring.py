"""Content scorer + top-node selection — the heart of Goose-style
extraction (SURVEY.md §2.5 X1–X4; reference goose:
goose/extractors.py::ContentExtractor.calculate_best_node and friends).

All constants are frozen by the determinism contract SURVEY.md §2.7 item 4:

- candidate keep: stopword_count > 2 and not high link density (X3)
- link density high iff (link_words / words) * n_links >= 1.0 (X2)
- boost: +50 / starting_boost when a nearby following sibling <p> has
  stopword_count > 5 within 3 <p> steps; starting_boost += 1 per boost (X3)
- with n > 15 kept nodes, the bottom 25% get -(bottom_index^2) negative
  boosts, with the "> 40 -> +5" escape (X3)
- parent gets upscore, grandparent upscore/2 (X3)
- argmax with strict ">" so the earliest-touched parent wins ties (X4)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dom import Node
from .stopwords import stopword_count_cached

CANDIDATE_TAGS = frozenset(["p", "pre", "td"])
_MIN_KEEP_STOPWORDS = 2        # strictly greater-than
_BOOST_MIN_STOPWORDS = 5       # strictly greater-than
_BOOST_MAX_STEPS = 3
_NEG_ESCAPE = 40.0
_NEG_ESCAPE_BONUS = 5.0
_GRANDPARENT_FACTOR = 0.5


def nodes_to_check(root: Node) -> list[Node]:
    """X1: all p, pre, td in document order."""
    return [n for n in root.walk() if n.tag in CANDIDATE_TAGS]


def is_high_link_density(node: Node) -> bool:
    """X2. Nodes with no links are never high density; link-only nodes
    (no words at all) are."""
    return _high_link_density(node, None)


def _high_link_density(node: Node, text: str | None) -> bool:
    """X2 with the node's ``text_content()`` when the caller has it."""
    links = [n for n in node.walk("a") if n is not node]
    if not links:
        return False
    words = (node.text_content() if text is None else text).split()
    if not words:
        return True
    link_words = " ".join(l.text_content() for l in links).split()
    score = (len(link_words) / len(words)) * len(links)
    return score >= 1.0


def is_boostable(node: Node, lang: str) -> bool:
    """X3 boost test: a following sibling <p> with stopword_count > 5
    within 3 <p> steps (SURVEY.md §2.5 X3 contract)."""
    steps = 0
    for sib in node.following_siblings():
        if sib.tag != "p":
            continue
        if steps >= _BOOST_MAX_STEPS:
            return False
        if stopword_count_cached(sib.text_content(), lang) > _BOOST_MIN_STOPWORDS:
            return True
        steps += 1
    return False


def update_score(node: Node, delta: float) -> None:
    node.gravity_score += delta


def update_node_count(node: Node, delta: int) -> None:
    node.gravity_nodes += delta


@dataclass
class ScoreResult:
    top_node: Node | None = None
    top_node_score: float = 0.0
    kept_candidates: list[Node] = field(default_factory=list)


def calculate_best_node(root: Node, lang: str) -> ScoreResult:
    """X3 + X4 (goose: calculate_best_node)."""
    res = ScoreResult()
    candidates = nodes_to_check(root)

    kept: list[Node] = []
    kept_sw: list[int] = []
    for node in candidates:
        text = node.text_content()
        sw = stopword_count_cached(text, lang)
        if sw > _MIN_KEEP_STOPWORDS and not _high_link_density(node, text):
            kept.append(node)
            kept_sw.append(sw)
    res.kept_candidates = kept

    n = len(kept)
    starting_boost = 1.0
    bottom_neg = n * 0.25
    parent_nodes: list[Node] = []

    for i, (node, sw) in enumerate(zip(kept, kept_sw)):
        boost_score = 0.0
        if is_boostable(node, lang):
            boost_score = (1.0 / starting_boost) * 50.0
            starting_boost += 1.0
        if n > 15 and (n - i) <= bottom_neg:
            booster = bottom_neg - (n - i)
            boost_score = -(booster * booster)
            if abs(boost_score) > _NEG_ESCAPE:
                boost_score = _NEG_ESCAPE_BONUS
        upscore = int(sw + boost_score)

        parent = node.parent
        if parent is None:
            continue
        update_score(parent, upscore)
        update_node_count(parent, 1)
        if parent not in parent_nodes:
            parent_nodes.append(parent)
        grandparent = parent.parent
        if grandparent is not None:
            update_score(grandparent, upscore * _GRANDPARENT_FACTOR)
            update_node_count(grandparent, 1)
            if grandparent not in parent_nodes:
                parent_nodes.append(grandparent)

    top: Node | None = None
    top_score = 0.0
    for e in parent_nodes:
        if top is None:
            top = e
            top_score = e.gravity_score
        elif e.gravity_score > top_score:  # strict > : earliest wins ties (X4)
            top = e
            top_score = e.gravity_score
    res.top_node = top
    res.top_node_score = top_score if top is not None else 0.0
    return res
