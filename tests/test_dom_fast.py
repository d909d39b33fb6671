"""Differential tests: the fast DOM scanner must produce a tree identical
(tags, attrs, text, tail, AND document-order ids — the X4 tie-break anchor)
to the stdlib-HTMLParser build on every input, or bail to it."""

import glob
import random

import pyarrow.parquet as pq
import pytest

from crawtext_ray.extract.dom import (
    IDENT_ATTRS,
    INDEXED_TAGS,
    REMOVABLE,
    REMOVABLE_TAGS,
    Document,
    _Bail,
    _TreeBuilder,
    _fast_build,
    parse_html,
    tagged,
)


def _stdlib_tree(html: str):
    b = _TreeBuilder()
    b.feed(html)
    b.close()
    return b.root


def _fast_tree(html: str):
    """Fast scan only — raises _Bail instead of falling back."""
    b = _TreeBuilder()
    _fast_build(html, b)
    return b.root


def _digest(n, out):
    out.append((n.tag, n.order, tuple(sorted(n.attrs.items())), n.text, n.tail))
    for c in n.children:
        _digest(c, out)


def digest(root):
    out = []
    _digest(root, out)
    return out


def assert_same(html: str):
    try:
        ref = digest(_stdlib_tree(html))
    except Exception:
        # stdlib itself crashes on this input (e.g. '<![' junk hits a
        # _markupbase AssertionError); the only contract is that
        # parse_html stays lenient and returns a tree
        parse_html(html)
        return
    try:
        fast = digest(_fast_tree(html))
    except _Bail:
        # fallback path: parse_html must still equal stdlib
        fast = digest(parse_html(html))
    assert fast == ref, html[:200]


EDGE_CASES = [
    "",
    "plain text only",
    "a &amp; b &lt;c&gt; &#65; &#x42; &unknown; &amp no-semi",
    "<p>one<p>two</p>",
    "<div class='a b' id=x data-y=\"1\">t</div>",
    "<a href='u?a=1&amp;b=2'>l</a>",
    "<a href=bare>x</a><img src=x.png alt=>",
    "<br/><hr /><img src='y'/>",
    "<script>if (a < b && c > d) { x(); }</script>after",
    "<script>no close tag at all",
    "<style>p { color: red; } /* </weird */</style>ok",
    "<SCRIPT>UPPER</SCRIPT><sCrIpT>x</ScRiPt>",
    "<script src='x'></script>",
    "<script/>not-cdata</script>",
    "<!-- comment -->text<!-- multi\nline --\t>tail",
    "<!DOCTYPE html><html><body>x</body></html>",
    "<!doctype html public 'x'>y",
    "<?php echo 1; ?>text<?pi>",
    "<!weird decl>x",
    "</>empty</ >spaced</div junk>after</123>num",
    "< 5 is less<p>x</p>2 > 1",
    "tail<",
    "<p",
    "<a href=",
    "<a href='unterminated",
    "<!-- unterminated",
    "<![CDATA[raw]]>x",
    "<a b c d>multi bare attrs</a>",
    "<a b=1 b=2>dup attr</a>",
    "<a B=1 CLASS=UP>case</a>",
    "<e x=a\"b>quote in bare</e>",
    "<a x=1/>selfclose-attr</a>",
    "<a x=1 />selfclose-spaced",
    "<a x = = 1>multi-eq</a>",
    "<a x='&amp;&#65;'>entity in attr</a>",
    "<p>été café 中文</p>",
    "<td>1<td>2<tr><td>3",
    "<ul><li>a<li>b</ul>",
    "<div><p>inner<div>closes p</div></div>",
    "<a <b>>x",
    "<p>a<0>b</p>",
    "<p>end with amp &",
    "&#9731; &#xFF; &#999999999;",
    "<p title='a>b'>gt in quoted attr</p>",
    "<a href=\"x\" 'bogus'>y</a>",
    # the tokenizer's hot shapes at their boundaries
    '<A HREF="x">up</A>',
    '<a href="1" HREF="2" Href="3">dup upper</a>',
    '<div class="a" class="b" id="c" ID="d">dup</div>',
    'x &amp; y & z &lt;<p title="a &amp; b &lt; c &">t</p>',
    '<p class="x"\n>nl</p><div\n\tid="y"  \n>ws</div\n>',
    '<a href="x" >sp</a ><br >',
    "<ScRiPt>if (a<b) {}</sCrIpT>after",
    "<style>unterminated { color: red; }",
    '<style type="text/css">p{}</style>x',
    "<!---->empty<!-- a --!>still comment -->after",
    "<!-- a --!>unterminated",
    "<!-- a -- >closed",
    "<!DOCTYPE html><p>x",
    "<!DOCTYPE>x<!doctypeNoSpace>y",
    "<p>x<!DOCTYPE html",
    "<br/><br />x<img src=\"a\"/><img src=\"b\" />",
    '<p title="<b>not a tag</b>">t</p><a href="a>b" id="c<d">l</a>',
    '<a x=""y="1">adjacent</a><a x="1"/ y="2">slash</a>',
    '<a x =\"1\" y= "2">spaced eq</a>',
    "<p\x0b>vt</p><p\xa0x=\"1\">nbsp</p><p\x00>nul",
    "<p\x0b/>vt-selfclose<a\x0bx=\"1\">vt-attr</a>",
    "<a\x0bx=\"1\" >vt-attr-space</a><p\xa0id=\"1\" class=\"2\"\n>nbsp</p>",
    "<a\x0bx=\"1 2\">vt-spaced-value</a><a\x0bx=\"1 2\"/>",
    "<my-tag data-x=\"1\">t</my-tag><h:x>ns</h:x>",
    "<p/>p-selfclose<script/>not cdata",
    "<script>a</\u017fcript>b</script>c",
    "<script>a</scr\u0131pt>b",
    "<noscript><p>n</p></noscript><!--c-->",
    "<< <3 a<b<p>x",
]


@pytest.mark.parametrize("case", range(len(EDGE_CASES)))
def test_fast_dom_edge_cases(case):
    assert_same(EDGE_CASES[case])


def test_fast_dom_golden_corpus():
    """Every golden input parses identically (and via the fast path)."""
    paths = sorted(glob.glob("tests/golden/*/input.html"))
    assert len(paths) >= 100
    bails = 0
    for p in paths:
        raw = open(p, "rb").read()
        try:
            html = raw.decode("utf-8")
        except UnicodeDecodeError:
            html = raw.decode("latin-1")
        try:
            fast = digest(_fast_tree(html))
        except _Bail:
            bails += 1
            fast = digest(parse_html(html))
        assert fast == digest(_stdlib_tree(html)), p
    # the fast path must actually cover the corpus, not bail through it
    assert bails <= len(paths) // 20, bails


def test_fast_dom_fixture_pages(pages_small):
    """All 1000 synthetic CC-style pages: identical trees, ~no bails."""
    t = pq.read_table(pages_small, columns=["html"])
    bails = 0
    for buf in t["html"].to_pylist():
        html = buf.decode("utf-8", errors="replace")
        try:
            fast = digest(_fast_tree(html))
        except _Bail:
            bails += 1
            fast = digest(parse_html(html))
        assert fast == digest(_stdlib_tree(html))
    assert bails <= 10, bails


def test_fast_dom_fuzz():
    """Seeded random soup of the tokens that exercise tokenizer branches."""
    rng = random.Random(42)
    atoms = [
        "<", ">", "&", ";", "'", '"', "/", "=", "!", "-", "?", " ", "\n",
        "p", "div", "a", "script", "style", "amp", "x1", "--", "<!--",
        "-->", "</", "/>", "<![", "text ", "&amp;", "&#65;", "é",
        '="x"', '="a&amp;b"', '="<>"', " class", " ID", "HREF", "A",
        "ScRiPt", "<!---->", "--!>", "-- >", "<!DOCTYPE html>", "<br/>",
        "\t", "\x0b", "\xa0", "\u017f",
    ]
    for _ in range(400):
        html = "".join(rng.choice(atoms) for _ in range(rng.randint(1, 60)))
        assert_same(html)


def test_walk_and_text_content_match_lazy_forms():
    """walk(tag) == list(iter(tag)) and text_content == joined itertext
    on trees built from the fuzz corpus (the materialized forms are used
    on every hot path; the lazy generators are the semantic reference)."""
    rng = random.Random(7)
    atoms = [
        "<p>", "</p>", "<div class=x>", "</div>", "<em>", "</em>",
        "text ", "más ", "<!--c-->", "<br>", "<li>a", "<span id=s>",
        "</span>", "&amp; ", "<td>1", "<b>", "</b>",
    ]
    for _ in range(200):
        html = "".join(rng.choice(atoms) for _ in range(rng.randint(1, 40)))
        root = parse_html(html)
        assert root.walk() == list(root.iter())
        for tag in ("p", "div", "span", "em"):
            assert root.walk(tag) == list(root.iter(tag))
        for n in root.walk():
            assert n.text_content() == "".join(n.itertext())


def assert_index_is_walk(root):
    """Every parse-time tag list equals the DFS walk of its tag, and the
    removal list equals the walk filtered to the nodes remove_unwanted
    can act on (C1/C2 tags, or an id/class/name attribute)."""
    assert isinstance(root, Document)
    for tag in INDEXED_TAGS:
        assert root.tag_index[tag] == root.walk(tag), tag
        assert tagged(root, tag) is root.tag_index[tag]
    assert root.tag_index[REMOVABLE] == [
        n for n in root.walk()
        if n.tag in REMOVABLE_TAGS or not IDENT_ATTRS.isdisjoint(n.attrs)]


_INDEX_ATOMS = [
    "<html lang=en>", "<html>", "</html>", "<head>", "<title>", "</title>",
    "<meta name=description content=d>", "<meta property=og:x content=y/>",
    "<link rel=canonical href=/c>", "<a href=/x>", "<a>", "</a>", "<p>",
    "</p>", "<div class=x>", "</div>", "<!--c-->", "<script>", "</script>",
    "<table><tr><td>", "<li>", "text ", "&amp; ", "<A HREF=up>", "<br/>",
    '<div class="x">', "<div id=y>", "<p name='n'>", "<!x>", "</ junk>",
    "<style>s</style>", "<noscript>", "</noscript>", "<span CLASS=Up>",
    '<img id="i"/>', "<p class>",
]


def test_tag_index_equals_walk_fast_and_fallback():
    """The parse-time lists (tag lists and the removal list) equal their
    walks on the fast scanner's trees, on the stdlib builder's trees (the
    _Bail fallback), and on parse_html's, including documents that bail
    half way."""
    rng = random.Random(11)
    cases = list(EDGE_CASES)
    for _ in range(300):
        cases.append("".join(rng.choice(_INDEX_ATOMS)
                             for _ in range(rng.randint(1, 40))))
    cases += [c + "<![CDATA[x]]>" + c for c in cases[-50:]]  # bail late
    fast = 0
    for html in cases:
        try:
            assert_index_is_walk(_fast_tree(html))
            fast += 1
        except _Bail:
            pass
        try:
            ref = _stdlib_tree(html)
        except Exception:
            ref = None  # stdlib itself crashes on this input
        if ref is not None:
            assert_index_is_walk(ref)
        assert_index_is_walk(parse_html(html))
    assert fast > len(cases) // 2


def test_tagged_walks_without_an_index():
    root = parse_html("<html lang=en><a href=1>x</a><p><a href=2>y</a></p>")
    links = root.tag_index["a"]
    root.tag_index = None
    assert tagged(root, "a") == links
    p = root.walk("p")[0]
    assert tagged(p, "a") == [links[1]]  # a plain node has no index
    assert tagged(root, "p") == [p]


try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    _HAVE_HYP = True
except Exception:  # pragma: no cover
    _HAVE_HYP = False


if _HAVE_HYP:

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.sampled_from(
                list("<>&;/='\"!?- \npa1#.éx")
                + ["script", "style", "--", "<p", "</", "<!", "&#6", "amp"]
            ),
            min_size=0,
            max_size=60,
        ).map("".join)
    )
    def test_fast_dom_hypothesis_differential(html):
        """Hypothesis-driven tree-identity differential vs stdlib."""
        assert_same(html)

    _WS = st.sampled_from(["", " ", "\n", "\t", " \n\t", "\x0b", "\xa0"])
    _TAG = st.sampled_from(["p", "div", "a", "A", "br", "li", "td", "tr",
                            "span", "ScRiPt", "style", "noscript", "my-tag",
                            "h1", "x\x0b"])
    _VALUE = st.sampled_from(["", "x", "a b", "&amp;", "a&b", "a &lt; b",
                              "a<b", "a>b", "'", "u?a=1&amp;b=2"])
    _ATTR = st.builds(
        lambda ws, name, quote, value: ws + name + quote(value),
        st.sampled_from([" ", "\n", "  ", "\t\n"]),
        st.sampled_from(["href", "HREF", "class", "Class", "id", "name",
                         "x", "data-x"]),
        st.sampled_from([lambda v: f'="{v}"', lambda v: f"='{v}'",
                         lambda v: "=" + v.replace(" ", ""),
                         lambda v: ""]),
        _VALUE,
    )
    _START = st.builds(
        lambda tag, attrs, ws, end: f"<{tag}{''.join(attrs)}{ws}{end}",
        _TAG, st.lists(_ATTR, max_size=3), _WS, st.sampled_from([">", "/>"]),
    )
    _END = st.builds(lambda lead, tag, ws: f"</{lead}{tag}{ws}>",
                     st.sampled_from(["", " "]), _TAG, _WS)
    _OTHER = st.sampled_from([
        "text", "a & b", "&amp;", "x &lt; y", " ", "\n", "é", "<", "< ",
        "<!---->", "<!-- a -->", "<!-- a --!>", "<!-- a -- >",
        "<!DOCTYPE html>", "<!doctype x>", "<?pi?>", "<!bogus>",
        "</\u017fcript>", "</>",
    ])

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.one_of(_START, _END, _OTHER), max_size=30).map("".join))
    def test_tokenizer_grammar_differential(html):
        """Documents made of the tokenizer's shapes and their neighbours
        (other quotings, case, whitespace before '>', self-closing,
        raw-text elements, comment and doctype forms) build the stdlib
        builder's tree: tags, attrs, order, text and tail; and the
        parse-time lists equal their walks."""
        assert_same(html)
        assert_index_is_walk(parse_html(html))
