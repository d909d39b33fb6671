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

Two parse paths build the same tree. ``_fast_build`` runs one compiled
tokenizer regex (``_TOKEN``) over the document; its alternatives are the
hot shapes: text runs, start tags that are bare or carry only
``name="value"`` attributes (optionally self-closing), plain end tags,
terminated comments and the doctype. Every other construct at a ``<``
(other attribute quotings, bogus comments, processing instructions,
tolerant end tags) and the raw text of script/style go to per-construct
code at that position, after which the scanner restarts. Where that code
does not replicate the stdlib (junk inside a start tag, EOF inside
markup, marked sections), the whole document is re-parsed by the stdlib
``HTMLParser`` builder ``_TreeBuilder``, which is also the differential
tests' oracle (tests/test_dom_fast.py).

Raw-tree index: the parser returns a ``Document`` root whose
``tag_index`` lists, in creation order (the DFS document order of the
tree as parsed), the ``a``, ``meta``, ``link``, ``title`` and ``html``
nodes, and under ``REMOVABLE`` the nodes ``cleaners.remove_unwanted`` can
act on: comments, script/style/noscript, and nodes with an id, class or
name attribute. ``tagged(root, tag)`` reads a tag list instead of walking
the tree. The index holds only until the tree's first mutation: code that
mutates a parsed tree sets ``tag_index`` to None first (the first
mutation in the kernel is ``remove_unwanted``, which does so itself), and
``tagged`` then walks.
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

# HTML5-lite implicit-close table: starting <key> closes the innermost
# open element when its tag is in <value>.
_IMPLICIT_CLOSE = {
    **dict.fromkeys(
        "address article aside blockquote details div dl fieldset figcaption "
        "figure footer form h1 h2 h3 h4 h5 h6 header hgroup hr main menu nav "
        "ol p pre section table ul".split(),
        frozenset(["p"]),
    ),
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

    def __init__(self, tag: str, order: int, attrs: dict[str, str] | None = None):
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
# the index's list of the nodes cleaners.remove_unwanted can act on: the
# nodes it removes by tag, and those carrying an attribute it tests
REMOVABLE = "#removable"
REMOVABLE_TAGS = frozenset([COMMENT, "script", "style", "noscript"])
IDENT_ATTRS = frozenset(["id", "class", "name"])


class Document(Node):
    """A parsed tree's root, with the raw-tree index (module docstring)."""

    __slots__ = ("tag_index",)

    def __init__(self) -> None:
        super().__init__("#document", order=0)
        self.tag_index: dict[str, list[Node]] | None = {
            t: [] for t in (*INDEXED_TAGS, REMOVABLE)
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
        n = Node(tag, self._order, d)
        self._order += 1
        index = self.root.tag_index
        listed = index.get(tag)
        if listed is not None:
            listed.append(n)
        if tag in REMOVABLE_TAGS or not IDENT_ATTRS.isdisjoint(d):
            index[REMOVABLE].append(n)
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
        if closers and self.stack[-1].tag in closers:
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
        self.root.tag_index[REMOVABLE].append(n)
        self.stack[-1].append(n)

    def handle_decl(self, decl: str) -> None:  # <!DOCTYPE ...>
        pass

    def unknown_decl(self, data: str) -> None:
        pass


class _Bail(Exception):
    """Raised by the fast scanner on a construct it does not replicate;
    the caller re-parses the whole document with stdlib HTMLParser."""


# The tokenizer's hot shapes, one alternative each. Every name and value
# class is the stdlib's own (tagfind_tolerant's tag name, endtagfind,
# attrfind_tolerant on a double-quoted value, commentclose; as of the
# CPython the differential tests run on), so a shape this regex accepts
# is split exactly as HTMLParser splits it. A tag name is followed by one
# of the characters that end it (``[\t\n\r\f ]``, ``/``, ``>``), so
# backtracking cannot shorten it; a lazy comment body ends where
# commentclose's search from the body's start would.
_NAME = r"[a-zA-Z][^\t\n\r\f />\x00]*"
_QATTR = r'[^\s/>][^\s/=>]*="[^"]*"'
_TOKEN = re.compile(
    r"([^<]+)"                                              # 1 text run
    r"|<(?:"
    r"/\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>"                   # 2 end tag
    rf"|({_NAME})>"                                         # 3 bare start tag
    rf"|({_NAME})[\t\n\r\f ]\s*([^\s/>][^\s/=>]*)=\"([^\"]*)\"\s*>"  # 4-6
    rf"|({_NAME})((?:[\t\n\r\f ]\s*{_QATTR})(?:\s+{_QATTR})*)?\s*(/?)>"  # 7-9
    r"|!--(.*?)--\s*>"                                      # 10 comment
    r"|![dD][oO][cC][tT][yY][pP][eE][^>]*>"                 # doctype: no group
    r"|(?![a-zA-Z/!?])()"                                   # 11 lone '<'
    r"|()"                                                  # 12 anything else
    r")",
    re.S,
)
_QATTRS = re.compile(r'([^\s/>][^\s/=>]*)="([^"]*)"')
_CDATA_CLOSE = {
    "script": re.compile(r"</\s*script\s*>", re.I),
    "style": re.compile(r"</\s*style\s*>", re.I),
}


def _fast_build(html: str, b: _TreeBuilder) -> None:
    """Build the tree ``b`` would build from stdlib
    ``HTMLParser(convert_charrefs=True)`` events (the tree coalesces
    adjacent data events, so chunking differences are immaterial).

    One ``_TOKEN`` scanner walks the document; each match is a text run,
    a start tag that is bare or has only ``name="value"`` attributes
    (one attribute captured directly, more split by ``_QATTRS``), an end
    tag, a comment or the doctype. Every other construct at a ``<`` goes
    to per-construct code reusing the stdlib's own compiled regexes, and
    so does the raw text of script/style; the scanner restarts after
    it. Raises ``_Bail`` on what that code does not replicate (junk
    inside a start tag, EOF inside markup, marked sections); the caller
    then re-parses with stdlib. Differential tree-identity tests:
    test_dom_fast.py."""
    # The _TreeBuilder handler bodies are INLINED here (text append,
    # implicit-close, node creation, stray-end-tag pop) — one method
    # dispatch per markup event was ~10% of parse time. The stdlib
    # fallback path still exercises the originals, and the differential
    # tree-identity suite pins the two paths to each other.
    stack = b.stack  # shared list: builder state IS the scanner state
    order = b._order
    index = b.root.tag_index
    index_get = index.get
    removable = index[REMOVABLE].append
    find = html.find
    n = len(html)
    match = _TOKEN.scanner(html).match
    try:
        while (m := match()) is not None:
            k = m.lastindex
            if k == 1:
                s = m[1]
                if "&" in s:
                    s = _unescape(s)
                top = stack[-1]
                if top.children:
                    top.children[-1].tail += s
                else:
                    top.text += s
                continue
            if k == 2:
                tag = m[2].lower()
                if stack[-1].tag == tag:  # never void: voids are not pushed
                    stack.pop()
                elif tag not in VOID_ELEMENTS:
                    for si in range(len(stack) - 2, 0, -1):
                        if stack[si].tag == tag:
                            del stack[si:]
                            break
                continue
            if k == 6:
                tag, name, value = m.group(4, 5, 6)
                tag = tag.lower()
                d = {name.lower(): _unescape(value) if "&" in value else value}
                selfclose = False
            elif k == 3:
                tag = m[3].lower()
                d = {}
                selfclose = False
            elif k == 9:
                tag, attrs, selfclose = m.group(7, 8, 9)
                tag = tag.lower()
                d = {}
                if attrs:
                    for name, value in _QATTRS.findall(attrs):
                        name = name.lower()
                        if name not in d:  # first value wins (contract)
                            d[name] = _unescape(value) if "&" in value else value
            elif k == 10:
                node = Node(COMMENT, order=order)
                order += 1
                node.text = m[10]
                removable(node)
                top = stack[-1]
                node.parent = top
                top.children.append(node)
                continue
            elif k is None:
                continue  # doctype: handle_decl is a no-op for the tree
            elif k == 11:
                # '<' opening no markup (also as the final character:
                # stdlib breaks, then the end-flush emits it as data)
                top = stack[-1]
                if top.children:
                    top.children[-1].tail += "<"
                else:
                    top.text += "<"
                continue
            else:
                i = m.start()
                c = html[i + 1]  # a letter, '/', '!' or '?' (else k == 11)
                if c == "/":  # endtagfind does not match here (else k == 2)
                    if (nm := _tagfind.match(html, i + 2)) is None:
                        # tolerant paths: </>, </ junk → bogus comment
                        if html.startswith("</>", i):
                            match = _TOKEN.scanner(html, i + 3).match
                            continue
                        pos = find(">", i + 2)
                        if pos < 0:
                            raise _Bail  # EOF recovery differs; defer to stdlib
                        node = Node(COMMENT, order=order)
                        order += 1
                        node.text = html[i + 2 : pos]
                        removable(node)
                        top = stack[-1]
                        node.parent = top
                        top.children.append(node)
                        match = _TOKEN.scanner(html, pos + 1).match
                        continue
                    else:  # </tag junk>
                        gtpos = find(">", nm.end())
                        if gtpos < 0:
                            raise _Bail
                        tag = nm[1].lower()
                        i = gtpos + 1
                    if tag not in VOID_ELEMENTS:
                        for si in range(len(stack) - 1, 0, -1):
                            if stack[si].tag == tag:
                                del stack[si:]
                                break
                    match = _TOKEN.scanner(html, i).match
                    continue
                if c == "?":
                    pos = find(">", i + 2)
                    if pos < 0:
                        raise _Bail
                    # handle_pi is a no-op for the tree
                    match = _TOKEN.scanner(html, pos + 1).match
                    continue
                if c == "!":
                    # a comment or doctype here is unterminated (else k is
                    # 10 or None): stdlib EOF recovery
                    if (
                        html.startswith("<!--", i)
                        or html.startswith("<![", i)  # parse_marked_section
                        or html[i : i + 9].lower() == "<!doctype"
                        or (pos := find(">", i + 2)) < 0
                    ):
                        raise _Bail
                    node = Node(COMMENT, order=order)  # bogus comment
                    order += 1
                    node.text = html[i + 2 : pos]
                    removable(node)
                    top = stack[-1]
                    node.parent = top
                    top.children.append(node)
                    match = _TOKEN.scanner(html, pos + 1).match
                    continue
                # any other start tag: tagfind_tolerant + attrfind_tolerant
                tm = _tagfind.match(html, i + 1)
                i = tm.end()
                tag = tm[1].lower()
                d = {}
                while True:
                    ch = html[i] if i < n else ""
                    if ch == ">":
                        i += 1
                        selfclose = False
                        break
                    if ch == "/" and html.startswith("/>", i):
                        i += 2
                        selfclose = True
                        break
                    am = _attrfind.match(html, i)
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
                    i = am.end()
                match = _TOKEN.scanner(html, i).match
            # a start tag (tag, d, selfclose); a self-closing one is
            # handle_startendtag: no implicit close, never pushed
            top = stack[-1]
            if (
                not selfclose
                and (closers := _IMPLICIT_CLOSE.get(tag))
                and top.tag in closers
            ):
                stack.pop()
                top = stack[-1]
            node = Node(tag, order, d)
            order += 1
            if (listed := index_get(tag)) is not None:
                listed.append(node)
            if tag in REMOVABLE_TAGS or d and not IDENT_ATTRS.isdisjoint(d):
                removable(node)
            node.parent = top
            top.children.append(node)
            if selfclose or tag in VOID_ELEMENTS:
                continue
            stack.append(node)
            if tag != "script" and tag != "style":
                continue
            # raw text up to the element's end tag (set_cdata_mode). A
            # close-regex match whose name only case-folds to the tag
            # ('</ſcript>') is no end tag to parse_endtag: it is data and
            # the raw text goes on.
            if k != 12:
                i = m.end()
            close = _CDATA_CLOSE[tag]
            j = i
            while (cm := close.search(html, j)) is not None and (
                _endtagfind.match(html, cm.start()) is None
            ):
                j = cm.end()
            end = j if cm is None else cm.start()
            node.text = html[i:end]  # raw: no charrefs in cdata
            if cm is None:
                return  # unterminated script/style swallows the rest
            stack.pop()  # the node: nothing opens inside raw text
            match = _TOKEN.scanner(html, cm.end()).match
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

