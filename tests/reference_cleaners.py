"""Sequential reference forms of the fused removal walk
(``crawtext_ray.extract.cleaners.remove_unwanted``): one full-tree pass
per goose cleaner step, C1 → C2 → F3 → C3 → C4. The package runs only the
fused walk; tests check each step here and the fused walk against their
composition."""

from crawtext_ray.extract.cleaners import (
    _TARGETED_RES,
    _naughty_re,
    clean_em_tags,
    clean_para_spans,
    div_to_para,
    remove_drop_caps,
)
from crawtext_ray.extract.dom import COMMENT, Node


def remove_comments(root: Node) -> None:
    """C1 (goose: remove_comments)."""
    for n in root.walk():
        if n.tag == COMMENT and n.parent is not None:
            n.parent.remove(n)


def remove_scripts_styles(root: Node) -> None:
    """C2 (goose: remove_scripts_styles): drop script/style/noscript with
    their text content."""
    for n in root.walk():
        if n.tag in ("script", "style", "noscript") and n.parent is not None:
            n.parent.remove(n)


def hide_elements(rules, root: Node) -> int:
    """F3: remove DOM elements matched by ``rules``' element-hiding rules
    (minus exceptions). Returns number of removed elements."""
    if not rules.hide_rules:
        return 0
    removed = 0
    for n in root.walk():
        if n.parent is None or n.tag.startswith("#"):
            continue
        cands = rules.hide_candidates(n)
        if cands and any(h.matches(n) for h in cands) and not any(
            h.matches(n) for h in rules.hide_exceptions
        ):
            n.parent.remove(n)
            removed += 1
    return removed


def remove_naughty_nodes(root: Node) -> None:
    """C3 (goose: clean_bad_tags): remove elements whose id/class/name
    matches the boilerplate alternation. html/body are never removed."""
    rx = _naughty_re()
    for n in root.walk():
        if n.parent is None or n.tag in ("html", "body", "#document"):
            continue
        ident = n.id_class_name()
        if ident and rx.search(ident) and n.parent is not None:
            n.parent.remove(n)


def remove_targeted_nodes(root: Node) -> None:
    """C4: targeted regex removals on class/id."""
    for n in root.walk():
        if n.parent is None or n.tag in ("html", "body", "#document"):
            continue
        ident = n.id_class_name()
        if ident and any(rx.search(ident) for rx in _TARGETED_RES):
            if n.parent is not None:
                n.parent.remove(n)


def clean_document(root: Node) -> None:
    """Full C1–C6 ordering without element hiding."""
    remove_comments(root)
    remove_scripts_styles(root)
    remove_naughty_nodes(root)
    remove_targeted_nodes(root)
    clean_em_tags(root)
    remove_drop_caps(root)
    clean_para_spans(root)
    div_to_para(root)
