"""Adblock-style URL + element filtering (SURVEY.md §2.3 F1–F3; reference
capability mandated by BASELINE.json:6 "compiled Adblock rule tries held in
actor pools"; public-syntax model: EasyList / the PyPI ``adblockparser``
rule semantics).

Supported EasyList subset (F1):

- ``!`` comments, blank lines
- ``@@`` exception rules (exceptions beat blocks)
- ``||domain^`` domain-anchor, ``|`` start/end anchors, ``^`` separator,
  ``*`` wildcard
- ``$option,...`` suffix: ``domain=a.com|~b.com`` constraints honored;
  resource-type options (script, image, ...) are parsed and ignored for
  page-URL matching
- element hiding ``##selector`` / exception ``#@#selector`` with
  tag / .class / #id selectors (optionally ``tag.class``)

Matching (F2): each rule is indexed under its longest token — a run of
3+ ``[a-z0-9]`` characters that the rule delimits on both sides (by a
``||``/``|`` anchor, a ``^`` separator, or a literal character that is
neither alphanumeric nor ``*``). Every url the rule's regex matches
then holds that token as a whole ``[a-z0-9]`` run of its case-folded
form, so a url's own tokens look up every rule that can match it; rules
with no delimited token are candidates for every url. A candidate is
rejected when its longest literal run is not a substring of the
lowercased url (tested only when both are ASCII: ``re.IGNORECASE`` also
folds ``ſ``, ``ı``, ``İ`` and the Kelvin sign onto ASCII letters), then
confirmed with its compiled regex; the url's host is parsed only for
rules with ``domain=`` options.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources as _ilr

from .dom import Node
from .urlnorm import domain_of

_TOKEN_RE = re.compile(r"[a-z0-9]{3,}")
_RULE_TOKEN_RE = re.compile(r"[A-Za-z0-9]{3,}")
# the non-ASCII characters re.IGNORECASE matches against ASCII letters
_ASCII_FOLD = {0x130: "i", 0x131: "i", 0x17F: "s", 0x212A: "k"}
_SEP = r"[^A-Za-z0-9_\-.%]"


@dataclass
class UrlRule:
    raw: str
    regex: "re.Pattern[str]"
    is_exception: bool
    tokens: list[str]       # the tokens the rule delimits on both sides
    literal: str | None     # longest ASCII literal run, lowercased
    domains_inc: frozenset[str]
    domains_exc: frozenset[str]

    def domain_ok(self, host: str) -> bool:
        def matches(d: str) -> bool:
            return host == d or host.endswith("." + d)

        if self.domains_exc and any(matches(d) for d in self.domains_exc):
            return False
        if self.domains_inc:
            return any(matches(d) for d in self.domains_inc)
        return True


@dataclass
class HideRule:
    tag: str        # "" = any
    cls: str        # "" = none required
    elid: str       # "" = none required
    is_exception: bool

    def matches(self, node: Node) -> bool:
        if self.tag and node.tag != self.tag:
            return False
        if self.cls and self.cls not in node.classes():
            return False
        if self.elid and node.get("id") != self.elid:
            return False
        return True


_START_ANCHORS = {"||": r"^[a-z][a-z0-9+.\-]*://(?:[^/?#]*\.)?", "|": "^", "": ""}


def _split_anchors(body: str) -> tuple[str, str, bool]:
    """``body`` -> (start anchor "||", "|" or "", the pattern between the
    anchors, whether a "|" end anchor follows it)."""
    start = "||" if body.startswith("||") else "|" if body.startswith("|") else ""
    core = body[len(start):]
    end = core.endswith("|")
    return start, core[:-1] if end else core, end


def _rule_to_regex(body: str) -> str:
    """EasyList filter body -> regex source (public adblockparser scheme)."""
    start, core, end = _split_anchors(body)
    out: list[str] = [_START_ANCHORS[start]]
    for ch in core:
        if ch == "*":
            out.append(".*")
        elif ch == "^":
            out.append(f"(?:{_SEP}|$)")
        else:
            out.append(re.escape(ch))
    out.append("$" if end else "")
    return "".join(out)


def _delimited_tokens(body: str) -> list[str]:
    """Lowercased tokens of ``body`` (a rule with its ``$`` options cut)
    that every url matching the rule holds as whole ``[a-z0-9]`` runs."""
    start, core, end = _split_anchors(body)

    def delimits(ch: str) -> bool:
        # "^" is the separator class; any other literal that is not
        # alphanumeric (nor "*") matches no ASCII letter or digit, even
        # under re.IGNORECASE (its folds onto ASCII are all letters)
        return not ch.isalnum() and ch != "*"

    out = []
    for m in _RULE_TOKEN_RE.finditer(core):
        i, j = m.span()
        if ((bool(start) if i == 0 else delimits(core[i - 1]))
                and (end if j == len(core) else delimits(core[j]))):
            out.append(m.group().lower())
    return out


def _longest_literal(body: str) -> str | None:
    """The longest ASCII run of ``body`` between anchors, ``*`` and ``^``,
    lowercased: a substring of every url the rule matches."""
    runs = [r for r in re.split(r"[*^]", _split_anchors(body)[1]) if r.isascii()]
    return max(runs, key=len, default="").lower() or None


def _parse_selector(sel: str) -> HideRule | None:
    sel = sel.strip()
    m = re.fullmatch(r"([a-zA-Z][a-zA-Z0-9]*)?(?:\.([\w\-]+)|#([\w\-]+))?", sel)
    if not m or not sel:
        return None
    tag, cls, elid = m.group(1) or "", m.group(2) or "", m.group(3) or ""
    if not (tag or cls or elid):
        return None
    return HideRule(tag.lower(), cls, elid, is_exception=False)


class AdblockRules:
    """F1 compiled rule set. Build once (driver or actor __init__), use per
    batch. ``should_block`` implements F2 with exceptions-beat-blocks."""

    def __init__(self, lines: list[str]):
        self.block_rules: list[UrlRule] = []
        self.except_rules: list[UrlRule] = []
        self.hide_rules: list[HideRule] = []
        self.hide_exceptions: list[HideRule] = []
        # token -> indexes into block_rules / except_rules
        self._block_index: dict[str, list[int]] = {}
        self._except_index: dict[str, list[int]] = {}
        self._block_untokenized: list[int] = []
        self._except_untokenized: list[int] = []
        # verdict memo: nav/footer outlinks repeat across pages of a site,
        # so on real web corpora most should_block calls are repeats.
        # Bounded (cleared at the cap) — rule sets are immutable after init.
        self._verdicts: dict[str, bool] = {}
        for raw in lines:
            self._add_line(raw)
        # hide-rule candidate index: a rule requiring a class/id can only
        # match nodes carrying it, so bucket by that attribute and keep
        # only tag-only rules in the per-node scan list
        self._hide_by_cls: dict[str, list[HideRule]] = {}
        self._hide_by_id: dict[str, list[HideRule]] = {}
        self.hide_plain: list[HideRule] = []
        for h in self.hide_rules:
            if h.cls:
                self._hide_by_cls.setdefault(h.cls, []).append(h)
            elif h.elid:
                self._hide_by_id.setdefault(h.elid, []).append(h)
            else:
                self.hide_plain.append(h)

    def hide_candidates(self, node: "Node") -> list[HideRule]:
        """Hide rules that could possibly match ``node`` (superset filter;
        callers only iterate the result — never mutate — so the shared
        ``hide_plain`` list is returned as-is when no class/id bucket
        hits, avoiding a per-node allocation on the hot cleaner walks."""
        cands = None
        if self._hide_by_cls and node.attrs:
            for c in node.classes():
                hit = self._hide_by_cls.get(c)
                if hit:
                    if cands is None:
                        cands = list(self.hide_plain)
                    cands.extend(hit)
        if self._hide_by_id:
            nid = node.get("id")
            if nid:
                hit = self._hide_by_id.get(nid)
                if hit:
                    if cands is None:
                        cands = list(self.hide_plain)
                    cands.extend(hit)
        return self.hide_plain if cands is None else cands

    def _add_line(self, raw: str) -> None:
        line = raw.strip()
        if not line or line.startswith("!") or line.startswith("["):
            return
        if "#@#" in line:
            _, sel = line.split("#@#", 1)
            hr = _parse_selector(sel)
            if hr:
                hr.is_exception = True
                self.hide_exceptions.append(hr)
            return
        if "##" in line:
            _, sel = line.split("##", 1)
            hr = _parse_selector(sel)
            if hr:
                self.hide_rules.append(hr)
            return
        is_exc = line.startswith("@@")
        if is_exc:
            line = line[2:]
        body, _, opts = line.partition("$")
        inc: set[str] = set()
        exc: set[str] = set()
        if opts:
            for opt in opts.split(","):
                opt = opt.strip()
                if opt.startswith("domain="):
                    for d in opt[7:].split("|"):
                        d = d.strip().lower()
                        if d.startswith("~"):
                            exc.add(d[1:])
                        elif d:
                            inc.add(d)
                # resource-type options ignored for page URLs
        if not body:
            return
        try:
            rx = re.compile(_rule_to_regex(body), re.IGNORECASE)
        except re.error:
            return
        rule = UrlRule(raw, rx, is_exc, _delimited_tokens(body),
                       _longest_literal(body), frozenset(inc), frozenset(exc))
        if is_exc:
            idx = len(self.except_rules)
            self.except_rules.append(rule)
            self._index(rule, idx, self._except_index, self._except_untokenized)
        else:
            idx = len(self.block_rules)
            self.block_rules.append(rule)
            self._index(rule, idx, self._block_index, self._block_untokenized)

    @staticmethod
    def _index(rule: UrlRule, idx: int, table: dict[str, list[int]],
               untokenized: list[int]) -> None:
        if rule.tokens:
            # one distinctive token suffices for candidate lookup; index the
            # longest (fewest false candidates)
            tok = max(rule.tokens, key=len)
            table.setdefault(tok, []).append(idx)
        else:
            untokenized.append(idx)

    def _candidates(self, url_tokens: set[str], table: dict[str, list[int]],
                    untokenized: list[int]) -> list[int]:
        # each rule sits under one token, so distinct url tokens give
        # distinct candidates
        cands = list(untokenized)
        for tok in url_tokens:
            hit = table.get(tok)
            if hit:
                cands.extend(hit)
        return cands

    def _any_match(self, url: str, url_l: str | None, rules: list[UrlRule],
                   cands: list[int]) -> bool:
        """``url_l`` is the lowercased url when it is ASCII, else None."""
        host = None
        for i in cands:
            r = rules[i]
            if url_l is not None and r.literal is not None and r.literal not in url_l:
                continue
            if r.domains_inc or r.domains_exc:
                if host is None:
                    host = domain_of(url)
                if not r.domain_ok(host):
                    continue
            if r.regex.search(url):
                return True
        return False

    def should_block(self, url: str) -> bool:
        """F2: block iff a block rule matches and no exception matches."""
        v = self._verdicts.get(url)
        if v is not None:
            return v
        if url.isascii():
            url_l = url.lower()
            toks = set(_TOKEN_RE.findall(url_l))
        else:
            url_l = None
            toks = set(_TOKEN_RE.findall(url.translate(_ASCII_FOLD).lower()))
        bc = self._candidates(toks, self._block_index, self._block_untokenized)
        if not self._any_match(url, url_l, self.block_rules, bc):
            v = False
        else:
            ec = self._candidates(toks, self._except_index, self._except_untokenized)
            v = not self._any_match(url, url_l, self.except_rules, ec)
        if len(self._verdicts) >= 1 << 17:
            self._verdicts.clear()
        self._verdicts[url] = v
        return v


def default_rules() -> AdblockRules:
    ref = _ilr.files("crawtext_ray") / "resources" / "rules.txt"
    return AdblockRules(ref.read_text(encoding="utf-8").splitlines())
