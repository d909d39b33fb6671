"""C1–C6 document cleaner branches (reference goose: goose/cleaners.py)."""

import reference_cleaners as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from crawtext_ray.extract import cleaners
from crawtext_ray.extract.dom import COMMENT, VOID_ELEMENTS, Node, parse_html


def serialize(node: Node) -> str:
    """Markup of ``node``'s tree, for comparing two trees (not part
    of the byte-identity contract)."""
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


def text(root):
    return root.text_content()


def test_c1_comments_removed():
    r = parse_html("<p>a<!-- gone -->b</p>")
    ref.remove_comments(r)
    assert not any(n.tag == "#comment" for n in r.iter())
    assert text(r) == "ab"


def test_c2_scripts_styles_removed_with_content():
    r = parse_html(
        "<body><script>var x=1;</script><style>p{}</style>"
        "<noscript>ns</noscript><p>keep</p></body>"
    )
    ref.remove_scripts_styles(r)
    assert text(r).strip() == "keep"


def test_c3_naughty_ids_classes():
    r = parse_html(
        '<body><div class="sidebar">s</div><div id="footer">f</div>'
        '<div name="comment">c</div><div class="story">keep</div></body>'
    )
    ref.remove_naughty_nodes(r)
    assert text(r).strip() == "keep"


def test_c3_never_removes_body():
    r = parse_html('<body class="sidebar"><p>keep</p></body>')
    ref.remove_naughty_nodes(r)
    assert r.find_first("body") is not None


def test_c4_targeted_regexes():
    r = parse_html(
        '<body><div class="caption">x</div><div class="my facebook plugin">y</div>'
        '<div class="pre-facebook">kept</div><p>keep</p></body>'
    )
    ref.remove_targeted_nodes(r)
    t = text(r)
    assert "x" not in t and "y" not in t
    assert "kept" in t and "keep" in t


def test_c5_em_unwrap_unless_img():
    r = parse_html("<p><em>plain</em> <em><img src=x>img</em></p>")
    cleaners.clean_em_tags(r)
    ems = list(r.iter("em"))
    assert len(ems) == 1  # the one with the img survives
    assert "plain" in text(r)


def test_c5_drop_caps_and_para_spans():
    r = parse_html(
        '<p><span class="dropcap">D</span>rop and <span>inline</span></p>'
        "<div><span>outside-para stays</span></div>"
    )
    cleaners.remove_drop_caps(r)
    cleaners.clean_para_spans(r)
    p = r.find_first("p")
    assert p.text_content() == "Drop and inline"
    assert not list(p.iter("span"))
    assert r.find_first("div").find_first("span") is not None


def test_c6_pure_div_becomes_p():
    r = parse_html("<body><div>just text <b>inline</b></div></body>")
    cleaners.div_to_para(r)
    assert r.find_first("p") is not None
    assert r.find_first("p").text_content() == "just text inline"


def test_c6_mixed_div_wraps_runs():
    r = parse_html(
        "<body><div>lead text<p>real para</p>trailing <i>run</i></div></body>"
    )
    cleaners.div_to_para(r)
    div = r.find_first("div")
    tags = [c.tag for c in div.children]
    assert tags == ["p", "p", "p"]
    assert div.children[0].text_content() == "lead text"
    assert div.children[1].text_content() == "real para"
    assert div.children[2].text_content() == "trailing run"


def test_fused_remove_unwanted_equals_sequential():
    """The fused single-pass removal must produce the same tree as the
    sequential C1→C2→F3→C3→C4 passes on generator pages."""
    from crawtext_ray.extract.adblock import default_rules
    from crawtext_ray.extract.encoding import decode_html
    from fixtures.gen_pages import build_page

    rules = default_rules()
    for row_id in (0, 13, 77, 256, 999):
        html, _ = decode_html(build_page(row_id)["html"])
        a = parse_html(html)
        cleaners.remove_unwanted(a, rules)

        b = parse_html(html)
        ref.remove_comments(b)
        ref.remove_scripts_styles(b)
        ref.hide_elements(rules, b)
        ref.remove_naughty_nodes(b)
        ref.remove_targeted_nodes(b)

        assert serialize(a) == serialize(b), f"divergence on row {row_id}"


def test_extract_cleaning_equals_reference_clean_document():
    """Without Adblock rules, the kernel's cleaning (the fused removal
    walk, then C5/C6) produces the same tree as the sequential C1–C6
    reference."""
    from crawtext_ray.extract.encoding import decode_html
    from fixtures.gen_pages import build_page

    for row_id in (0, 13, 77, 256, 999):
        html, _ = decode_html(build_page(row_id)["html"])
        a = parse_html(html)
        cleaners.remove_unwanted(a)
        cleaners.clean_em_tags(a)
        cleaners.remove_drop_caps(a)
        cleaners.clean_para_spans(a)
        cleaners.div_to_para(a)

        b = parse_html(html)
        ref.clean_document(b)

        assert serialize(a) == serialize(b), f"divergence on row {row_id}"


def _sequential_remove(root, rules):
    ref.remove_comments(root)
    ref.remove_scripts_styles(root)
    if rules is not None:
        ref.hide_elements(rules, root)
    ref.remove_naughty_nodes(root)
    ref.remove_targeted_nodes(root)


_TAG_ONLY_RULES = ["##aside", "##.promo", "###ad-slot", "#@#aside.keep"]
_ATTRS = ["", " href=x", " data-k='1' lang=en", " class=promo",
          " class='x SideBar'", " id=ad-slot", " class=caption",
          " id='a google b'", " class=entrymore", " class=xfacebook",
          " name=facebook-broadcasting", " class=keep", " id=Twitter",
          " id=xTwitter", " class=' twitter'", " class=ad-banner",
          " class='ad-banner ad-banner-editorial'", " name=menu"]


@st.composite
def _soup(draw):
    out = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            out.append(draw(st.sampled_from(["text ", "tail ", "<!--c-->",
                                             "<script>s</script>", "<br>"])))
        elif kind == 1:
            out.append(draw(st.sampled_from(["</div>", "</aside>", "</p>",
                                             "</span>"])))
        else:
            tag = draw(st.sampled_from(["div", "aside", "p", "span", "noscript"]))
            out.append(f"<{tag}{draw(st.sampled_from(_ATTRS))}>")
    return "<html><body>" + "".join(out) + "</body></html>"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_soup(), st.sampled_from(["none", "default", "tag_only"]))
def test_remove_unwanted_equals_sequential_reference(html, which):
    """The fused walk (bare-node skip, one C3+C4 regex) produces the
    reference tree with no rules, the default rules, and rules holding
    a tag-only hiding rule."""
    from crawtext_ray.extract.adblock import AdblockRules, default_rules

    rules = {"none": None, "default": default_rules(),
             "tag_only": AdblockRules(_TAG_ONLY_RULES)}[which]
    a = parse_html(html)
    cleaners.remove_unwanted(a, rules)
    b = parse_html(html)
    _sequential_remove(b, rules)
    assert serialize(a) == serialize(b)


def test_remove_unwanted_reads_the_index_only_without_tag_only_rules():
    """A parsed tree's removal list serves when no tag-only hiding rule
    exists; with one, bare nodes are walked and removed too. Either way
    the pass drops the raw-tree index."""
    from crawtext_ray.extract.adblock import AdblockRules

    html = ("<html><body><aside>bare</aside><aside class=keep>k</aside>"
            "<div class=sidebar>s</div><!--c--><p>text</p></body></html>")
    for rules in (None, AdblockRules(_TAG_ONLY_RULES)):
        a = parse_html(html)
        cleaners.remove_unwanted(a, rules)
        assert a.tag_index is None
        b = parse_html(html)
        _sequential_remove(b, rules)
        assert serialize(a) == serialize(b)
    assert "bare" not in text(a) and "k" in text(a)


_IDENT_PIECES = ["google", " google ", "Google", "GOOGLE", "facebook",
                 "facebook-broadcasting", "Facebook-Broadcasting", "-facebook",
                 "xfacebook", "twitter", "-twitter", "Twitter", "more",
                 "more…", "emore", "caption", "Caption", "sidebar", "SideBar",
                 "footer", "story", "entry-more", " ", "-", "x", "ſ", "K"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.sampled_from(_IDENT_PIECES), min_size=1,
                         max_size=5).map("".join), min_size=1, max_size=40),
       st.integers(1, 8))
def test_boilerplate_verdict_memo_equals_search(idents, cap):
    """The memo's verdict equals the C3+C4 regex search on case variants
    and C4 shapes, first call and repeat, and the memo never holds more
    than its cap."""
    import crawtext_ray.extract.cleaners as cl

    old = cl.MAX_VERDICTS
    cl.MAX_VERDICTS = cap
    cl._VERDICTS.clear()
    try:
        rx = cl._boilerplate_re()
        for ident in idents + [s.upper() for s in idents] + idents:
            assert cl.boilerplate_verdict(ident) == bool(rx.search(ident))
            assert len(cl._VERDICTS) <= cap
        long = "x" * cl.MAX_VERDICT_LEN + " google "
        assert cl.boilerplate_verdict(long)
        assert long not in cl._VERDICTS
    finally:
        cl.MAX_VERDICTS = old
        cl._VERDICTS.clear()
