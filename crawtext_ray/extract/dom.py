"""Lenient HTML DOM on stdlib ``html.parser`` (SURVEY.md §7.5, operator M4).

The reference (goose: goose/parsers.py::Parser) wraps lxml.html; lxml is
absent from this environment, so we build a small deterministic tree over
``html.parser.HTMLParser`` events: void-element table, HTML5-lite implicit
close rules, attribute dicts (first value wins), parent/children links,
document-order ids (the determinism anchor for top-node tie-breaks,
SURVEY.md §2.5 X4), lxml-style ``text``/``tail`` model, itertext, and
tag/class/id matching for the cleaner and element-hiding filters.

Determinism contract (SURVEY.md §2.7 item 7): document order == parser
event order; every node carries a monotonically increasing ``order`` id
assigned at creation.

Raw-tree index: the parser returns a ``Document`` root whose
``tag_index`` lists the ``a``, ``meta``, ``link``, ``title`` and ``html``
nodes in creation order, which is the DFS document order of the tree as
parsed. ``tagged(root, tag)`` reads it instead of walking the tree. The
index holds only until the tree's first mutation: code that mutates a
parsed tree sets ``tag_index`` to None first, and ``tagged`` then walks.
"""

from __future__ import annotations

import re
from html import unescape as _unescape
from html.parser import HTMLParser
from typing import Iterator

try:
    # private stdlib regexes, reused so the fast scanner's accept
    # semantics match HTMLParser by construction; no compatibility
    # guarantee, so a rename in a future CPython must degrade to the
    # stdlib-parser speed, not to an ImportError for the whole module
    from html.parser import (
        attrfind_tolerant as _attrfind,
        commentclose as _commentclose,
        endtagfind as _endtagfind,
        tagfind_tolerant as _tagfind,
    )

    _HAVE_FAST = True
except ImportError:  # pragma: no cover - future-python guard
    _HAVE_FAST = False

COMMENT = "#comment"

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

# HTML5-lite implicit-close table: starting <key> closes an open <value>.
_P_CLOSERS = frozenset(
    "address article aside blockquote details div dl fieldset figcaption figure "
    "footer form h1 h2 h3 h4 h5 h6 header hgroup hr main menu nav ol p pre "
    "section table ul".split()
)
_IMPLICIT_CLOSE = {
    "li": frozenset(["li"]),
    "dt": frozenset(["dt", "dd"]),
    "dd": frozenset(["dt", "dd"]),
    "tr": frozenset(["tr", "td", "th"]),
    "td": frozenset(["td", "th"]),
    "th": frozenset(["td", "th"]),
    "option": frozenset(["option"]),
    "optgroup": frozenset(["option", "optgroup"]),
    "thead": frozenset(["thead", "tbody", "tfoot"]),
    "tbody": frozenset(["thead", "tbody", "tfoot"]),
    "tfoot": frozenset(["thead", "tbody"]),
}


class Node:
    """One element (or comment) in the tree.

    lxml-style text model: ``text`` is the character data before the first
    child; each child's ``tail`` is the character data between that child's
    end tag and the next sibling (or the parent's end tag).
    """

    __slots__ = (
        "tag", "attrs", "parent", "children", "text", "tail", "order",
        "gravity_score", "gravity_nodes",
    )

    def __init__(self, tag: str, attrs: dict[str, str] | None = None, order: int = -1):
        self.tag = tag
        self.attrs = attrs if attrs is not None else {}
        self.parent: Node | None = None
        self.children: list[Node] = []
        self.text: str = ""
        self.tail: str = ""
        self.order = order
        self.gravity_score: float = 0.0
        self.gravity_nodes: int = 0

    # -- structure ---------------------------------------------------------
    def append(self, child: "Node") -> None:
        child.parent = self
        self.children.append(child)

    def insert(self, index: int, child: "Node") -> None:
        child.parent = self
        self.children.insert(index, child)

    def index(self, child: "Node") -> int:
        return self.children.index(child)

    def remove(self, child: "Node", keep_tail: bool = True) -> None:
        """Remove ``child`` subtree. Its tail text is preserved by default
        (attached to the previous sibling's tail, else to our ``text``) —
        the text-preserving removal semantics frozen for goldens."""
        i = self.children.index(child)
        if keep_tail and child.tail:
            if i > 0:
                self.children[i - 1].tail += child.tail
            else:
                self.text += child.tail
        del self.children[i]
        child.parent = None

    def drop_tree(self) -> None:
        if self.parent is not None:
            self.parent.remove(self)

    def unwrap(self) -> None:
        """lxml ``drop_tag``: remove this element but splice its text and
        children into the parent at the same position."""
        parent = self.parent
        if parent is None:
            return
        i = parent.children.index(self)
        prev = parent.children[i - 1] if i > 0 else None

        def _append_text(s: str) -> None:
            nonlocal prev
            if not s:
                return
            if prev is not None:
                prev.tail += s
            else:
                parent.text += s

        del parent.children[i]
        _append_text(self.text)
        for c in self.children:
            c.parent = parent
            parent.children.insert(i, c)
            i += 1
            prev = c
        _append_text(self.tail)
        self.parent = None

    # -- traversal ---------------------------------------------------------
    def iter(self, tag: str | None = None) -> Iterator["Node"]:
        """Depth-first, document order, self included (iterative — the
        recursive-generator form profiled ~2x slower on deep trees)."""
        stack = [self]
        while stack:
            n = stack.pop()
            if tag is None or n.tag == tag:
                yield n
            stack.extend(reversed(n.children))

    def walk(self, tag: str | None = None) -> list["Node"]:
        """Materialized ``iter()`` (same DFS document order, self included)
        without per-node generator resumption — for callers that consume
        the whole walk (every cleaner/formatter pass does)."""
        stack = [self]
        pop = stack.pop
        push = stack.extend
        out: list[Node] = []
        add = out.append
        while stack:
            n = pop()
            if tag is None or n.tag == tag:
                add(n)
            cs = n.children
            if cs:
                push(reversed(cs))
        return out

    def find_all(self, tags: frozenset[str] | set[str]) -> list["Node"]:
        return [n for n in self.walk() if n.tag in tags]

    def find_first(self, tag: str) -> "Node | None":
        for n in self.iter(tag):
            return n
        return None

    def itertext(self) -> Iterator[str]:
        if self.tag == COMMENT:
            return
        if self.text:
            yield self.text
        for c in self.children:
            yield from c.itertext()
            if c.tail:
                yield c.tail

    def text_content(self) -> str:
        """``"".join(self.itertext())`` without recursive-generator
        resumption: DFS with tail strings pushed as literal stack entries
        (a child's tail is emitted after its subtree; comments contribute
        their tail but never their text — itertext semantics exactly)."""
        if self.tag == COMMENT:
            return ""
        out: list[str] = []
        add = out.append
        stack: list[Node | str] = [self]
        pop = stack.pop
        push = stack.append
        while stack:
            x = pop()
            if x.__class__ is str:
                add(x)
                continue
            if x.tag == COMMENT:
                continue
            if x.text:
                add(x.text)
            cs = x.children
            for i in range(len(cs) - 1, -1, -1):
                c = cs[i]
                if c.tail:
                    push(c.tail)
                push(c)
        return "".join(out)

    # -- attribute helpers -------------------------------------------------
    def get(self, name: str, default: str = "") -> str:
        return self.attrs.get(name, default)

    def classes(self) -> list[str]:
        return self.get("class").split()

    def id_class_name(self) -> str:
        """Concatenated id/class/name attribute text, the string the
        boilerplate regexes (C3/C4) match against. Most nodes carry no
        attributes at all — skip the list build for them (hot path:
        called once per element per cleaner pass)."""
        attrs = self.attrs
        if not attrs:
            return ""
        parts = [attrs.get("id"), attrs.get("class"), attrs.get("name")]
        return " ".join(p for p in parts if p)

    def previous_siblings(self) -> list["Node"]:
        """Siblings before this node, nearest first (goose walk_siblings)."""
        if self.parent is None:
            return []
        sibs = self.parent.children
        i = sibs.index(self)
        return list(reversed(sibs[:i]))

    def following_siblings(self) -> list["Node"]:
        if self.parent is None:
            return []
        sibs = self.parent.children
        i = sibs.index(self)
        return sibs[i + 1:]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.tag} order={self.order} attrs={self.attrs}>"


INDEXED_TAGS = ("a", "meta", "link", "title", "html")


class Document(Node):
    """A parsed tree's root, with the raw-tree index (module docstring)."""

    __slots__ = ("tag_index",)

    def __init__(self) -> None:
        super().__init__("#document", order=0)
        self.tag_index: dict[str, list[Node]] | None = {
            t: [] for t in INDEXED_TAGS
        }


def tagged(root: Node, tag: str) -> list[Node]:
    """``root.walk(tag)``; read from the raw-tree index while ``root``
    still has one. Callers must not mutate the returned list."""
    index = getattr(root, "tag_index", None)
    if index is not None and tag in index:
        return index[tag]
    return root.walk(tag)


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Document()
        self.stack: list[Node] = [self.root]
        self._order = 1

    # helpers
    def _new_node(self, tag: str, attrs: list[tuple[str, str | None]]) -> Node:
        # HTMLParser delivers tag and attribute NAMES already lowercased
        d: dict[str, str] = {}
        for k, v in attrs:
            if k not in d:  # first value wins (determinism contract)
                d[k] = v if v is not None else ""
        n = Node(tag, d, self._order)
        self._order += 1
        listed = self.root.tag_index.get(tag)
        if listed is not None:
            listed.append(n)
        return n

    def updatepos(self, i: int, j: int) -> int:
        # line/col tracking feeds only error messages we never surface;
        # HTMLParser.goahead only needs the returned scan position
        return j

    def _add_text(self, data: str) -> None:
        cur = self.stack[-1]
        if cur.children:
            cur.children[-1].tail += data
        else:
            cur.text += data

    # parser events
    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        # implicit closes
        closers = _IMPLICIT_CLOSE.get(tag)
        top = self.stack[-1].tag
        if tag in _P_CLOSERS and top == "p":
            self.stack.pop()
        elif closers and top in closers:
            self.stack.pop()
        node = self._new_node(tag, attrs)
        self.stack[-1].append(node)
        if tag not in VOID_ELEMENTS:
            self.stack.append(node)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        node = self._new_node(tag, attrs)
        self.stack[-1].append(node)

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_ELEMENTS:
            return
        # pop to the matching open tag if present; ignore stray end tags
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return

    def handle_data(self, data: str) -> None:
        if data:
            self._add_text(data)

    def handle_comment(self, data: str) -> None:
        n = Node(COMMENT, order=self._order)
        self._order += 1
        n.text = data
        self.stack[-1].append(n)

    def handle_decl(self, decl: str) -> None:  # <!DOCTYPE ...>
        pass

    def unknown_decl(self, data: str) -> None:
        pass


class _Bail(Exception):
    """Raised by the fast scanner on a construct it does not replicate;
    the caller re-parses the whole document with stdlib HTMLParser."""


# <tagname> with no attributes — the majority of tags in article bodies.
# Equivalent to tagfind_tolerant + empty attr loop + '>' on this shape.
_SIMPLE_START = re.compile(r"([a-zA-Z][a-zA-Z0-9]*)>")
_CDATA_CLOSE = {
    "script": re.compile(r"</\s*script\s*>", re.I),
    "style": re.compile(r"</\s*style\s*>", re.I),
}


def _fast_build(html: str, b: _TreeBuilder) -> None:
    """Single-pass tokenizer replicating the event sequence stdlib
    ``HTMLParser(convert_charrefs=True)`` emits to our handlers (the tree
    coalesces adjacent data events, so chunking differences are
    immaterial). Reuses the stdlib's own compiled regexes for tag name,
    attribute, end-tag, and comment-close matching so accept/position
    semantics are identical by construction; raises ``_Bail`` on the
    rare constructs it does not cover (junk inside a start tag, EOF
    inside markup, marked sections) and the caller falls back to stdlib
    for that document. Differential tree-identity tests: test_dom.py."""
    # The _TreeBuilder handler bodies are INLINED here (text append,
    # implicit-close, node creation, stray-end-tag pop) — one method
    # dispatch per markup event was ~10% of parse time. The stdlib
    # fallback path still exercises the originals, and the differential
    # tree-identity suite pins the two paths to each other.
    stack = b.stack  # shared list: builder state IS the scanner state
    order = b._order
    index_get = b.root.tag_index.get
    find = html.find
    i, n = 0, len(html)
    cdata: str | None = None
    try:
        while i < n:
            if cdata is not None:
                m = _CDATA_CLOSE[cdata].search(html, i)
                if m is None:
                    return  # unterminated script/style swallows to EOF
                j = m.start()
                if i < j:
                    cur = stack[-1]  # raw: no charrefs in cdata
                    if cur.children:
                        cur.children[-1].tail += html[i:j]
                    else:
                        cur.text += html[i:j]
                for si in range(len(stack) - 1, 0, -1):
                    if stack[si].tag == cdata:
                        del stack[si:]
                        break
                cdata = None
                i = m.end()
                continue
            j = find("<", i)
            if j < 0:
                cur = stack[-1]
                if cur.children:
                    cur.children[-1].tail += _unescape(html[i:])
                else:
                    cur.text += _unescape(html[i:])
                return
            if i < j:
                cur = stack[-1]
                if cur.children:
                    cur.children[-1].tail += _unescape(html[i:j])
                else:
                    cur.text += _unescape(html[i:j])
            i = j
            c = html[i + 1] if i + 1 < n else ""
            if ("a" <= c <= "z") or ("A" <= c <= "Z"):
                m = _SIMPLE_START.match(html, i + 1)
                if m is not None:  # <p>, <div>, <b> ... the hot shape
                    tag = m.group(1).lower()
                    top = stack[-1]
                    if (
                        top.tag == "p"
                        and tag in _P_CLOSERS
                        or (c2 := _IMPLICIT_CLOSE.get(tag))
                        and top.tag in c2
                    ):
                        stack.pop()
                        top = stack[-1]
                    node = Node(tag, {}, order)
                    order += 1
                    if (listed := index_get(tag)) is not None:
                        listed.append(node)
                    node.parent = top
                    top.children.append(node)
                    if tag not in VOID_ELEMENTS:
                        stack.append(node)
                        if tag in ("script", "style"):
                            cdata = tag
                    i = m.end()
                    continue
                m = _tagfind.match(html, i + 1)
                k = m.end()
                tag = m.group(1).lower()
                d: dict[str, str] = {}
                while True:
                    ch = html[k] if k < n else ""
                    if ch == ">":
                        k += 1
                        selfclose = False
                        break
                    if ch == "/" and html.startswith("/>", k):
                        k += 2
                        selfclose = True
                        break
                    am = _attrfind.match(html, k)
                    if am is None:
                        raise _Bail  # junk inside tag / EOF inside tag
                    attrname, rest, attrvalue = am.group(1, 2, 3)
                    if not rest:
                        attrvalue = None
                    elif (
                        attrvalue[:1] == "'" == attrvalue[-1:]
                        or attrvalue[:1] == '"' == attrvalue[-1:]
                    ):
                        attrvalue = attrvalue[1:-1]
                    if attrvalue:
                        attrvalue = _unescape(attrvalue)
                    attrname = attrname.lower()
                    if attrname not in d:  # first value wins (contract)
                        d[attrname] = attrvalue if attrvalue is not None else ""
                    k = am.end()
                if selfclose:
                    node = Node(tag, d, order)
                    order += 1
                    if (listed := index_get(tag)) is not None:
                        listed.append(node)
                    top = stack[-1]
                    node.parent = top
                    top.children.append(node)
                else:
                    top = stack[-1]
                    if (
                        top.tag == "p"
                        and tag in _P_CLOSERS
                        or (c2 := _IMPLICIT_CLOSE.get(tag))
                        and top.tag in c2
                    ):
                        stack.pop()
                        top = stack[-1]
                    node = Node(tag, d, order)
                    order += 1
                    if (listed := index_get(tag)) is not None:
                        listed.append(node)
                    node.parent = top
                    top.children.append(node)
                    if tag not in VOID_ELEMENTS:
                        stack.append(node)
                        if tag in ("script", "style"):
                            cdata = tag
                i = k
            elif c == "/":
                m = _endtagfind.match(html, i)
                if m is not None:
                    tag = m.group(1).lower()
                    i = m.end()
                elif (nm := _tagfind.match(html, i + 2)) is None:
                    # tolerant paths: </>, </ junk → bogus comment
                    if html.startswith("</>", i):
                        i += 3
                        continue
                    pos = find(">", i + 2)
                    if pos < 0:
                        raise _Bail  # EOF recovery differs; defer to stdlib
                    node = Node(COMMENT, order=order)
                    order += 1
                    node.text = html[i + 2 : pos]
                    top = stack[-1]
                    node.parent = top
                    top.children.append(node)
                    i = pos + 1
                    continue
                else:  # </tag junk>
                    gtpos = find(">", nm.end())
                    if gtpos < 0:
                        raise _Bail
                    tag = nm.group(1).lower()
                    i = gtpos + 1
                if tag not in VOID_ELEMENTS:
                    for si in range(len(stack) - 1, 0, -1):
                        if stack[si].tag == tag:
                            del stack[si:]
                            break
            elif html.startswith("<!--", i):
                m = _commentclose.search(html, i + 4)
                if m is None:
                    raise _Bail  # unterminated comment: stdlib EOF recovery
                node = Node(COMMENT, order=order)
                order += 1
                node.text = html[i + 4 : m.start()]
                top = stack[-1]
                node.parent = top
                top.children.append(node)
                i = m.end()
            elif c == "?":
                pos = find(">", i + 2)
                if pos < 0:
                    raise _Bail
                i = pos + 1  # handle_pi is a no-op for the tree
            elif c == "!":
                if html.startswith("<![", i):
                    raise _Bail  # marked section (parse_marked_section)
                if html[i : i + 9].lower() == "<!doctype":
                    pos = find(">", i + 9)
                    if pos < 0:
                        raise _Bail
                    i = pos + 1  # handle_decl is a no-op for the tree
                else:
                    pos = find(">", i + 2)
                    if pos < 0:
                        raise _Bail
                    node = Node(COMMENT, order=order)  # bogus comment
                    order += 1
                    node.text = html[i + 2 : pos]
                    top = stack[-1]
                    node.parent = top
                    top.children.append(node)
                    i = pos + 1
            else:
                # lone '<' (incl. as the final character: stdlib breaks,
                # then the end-flush emits it as data — same coalesced
                # text)
                cur = stack[-1]
                if cur.children:
                    cur.children[-1].tail += "<"
                else:
                    cur.text += "<"
                i += 1
    finally:
        b._order = order


def parse_html(html: str) -> Document:
    """Parse (possibly broken) HTML into a Node tree; never raises on
    malformed markup — the fast scanner bails to stdlib ``html.parser``
    (lenient by construction) on constructs it does not replicate."""
    b = _TreeBuilder()
    try:
        if not _HAVE_FAST:
            raise _Bail
        _fast_build(html, b)
        return b.root
    except _Bail:
        b = _TreeBuilder()
        try:
            b.feed(html)
            b.close()
        except Exception:
            # stdlib chokes on pathological markup (e.g. _markupbase
            # AssertionError on '<![' junk); keep the partial tree —
            # lenient like the reference's lxml, and such inputs crashed
            # outright before, so no golden depends on them
            pass
        return b.root


def serialize(node: Node) -> str:
    """Debug/test serializer (not part of the byte-identity contract)."""
    out: list[str] = []

    def walk(n: Node) -> None:
        if n.tag == COMMENT:
            out.append(f"<!--{n.text}-->")
        elif n.tag == "#document":
            if n.text:
                out.append(n.text)
            for c in n.children:
                walk(c)
                if c.tail:
                    out.append(c.tail)
            return
        else:
            attrs = "".join(f' {k}="{v}"' for k, v in n.attrs.items())
            if n.tag in VOID_ELEMENTS:
                out.append(f"<{n.tag}{attrs}/>")
            else:
                out.append(f"<{n.tag}{attrs}>")
        if n.tag not in VOID_ELEMENTS and n.tag != COMMENT:
            if n.text:
                out.append(n.text)
            for c in n.children:
                walk(c)
                if c.tail:
                    out.append(c.tail)
            out.append(f"</{n.tag}>")

    walk(node)
    return "".join(out)
