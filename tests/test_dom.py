"""DOM builder unit tests (SURVEY.md §7.5 / M4)."""

from crawtext_ray.extract.dom import parse_html


def body(root):
    return root.find_first("body")


def test_basic_tree_and_text():
    r = parse_html("<html><body><p>hello <b>bold</b> tail</p></body></html>")
    p = r.find_first("p")
    assert p.text == "hello "
    assert p.children[0].tag == "b"
    assert p.children[0].text == "bold"
    assert p.children[0].tail == " tail"
    assert p.text_content() == "hello bold tail"


def test_implicit_p_close():
    r = parse_html("<body><p>one<p>two<div>three</div></body>")
    b = body(r)
    tags = [c.tag for c in b.children]
    assert tags == ["p", "p", "div"]
    assert b.children[0].text == "one"
    assert b.children[1].text == "two"


def test_void_elements_do_not_nest():
    r = parse_html("<body><p>a<br>b<img src=x>c</p></body>")
    p = r.find_first("p")
    assert [c.tag for c in p.children] == ["br", "img"]
    assert p.text_content() == "abc"


def test_li_and_td_implicit_close():
    r = parse_html("<ul><li>a<li>b</ul><table><tr><td>1<td>2<tr><td>3</table>")
    ul = r.find_first("ul")
    assert len([c for c in ul.children if c.tag == "li"]) == 2
    trs = r.walk("tr")
    assert len(trs) == 2
    assert len([n for n in r.iter("td")]) == 3


def test_stray_end_tags_ignored():
    r = parse_html("<body></i><p>ok</p></div></body>")
    assert r.find_first("p").text == "ok"


def test_document_order_monotonic():
    r = parse_html("<div><p>a</p><p>b</p><span>c</span></div>")
    orders = [n.order for n in r.iter() if n.tag != "#document"]
    assert orders == sorted(orders)
    assert len(set(orders)) == len(orders)


def test_unwrap_preserves_text():
    r = parse_html("<p>x <em>emph</em> y</p>")
    em = r.find_first("em")
    em.unwrap()
    p = r.find_first("p")
    assert p.text_content() == "x emph y"
    assert not p.children


def test_remove_keeps_tail():
    r = parse_html("<p>a<span>drop</span> keep</p>")
    span = r.find_first("span")
    span.parent.remove(span)
    assert r.find_first("p").text_content() == "a keep"


def test_attrs_first_value_wins_and_lowercase():
    r = parse_html('<div CLASS="x" class="y" ID="z">t</div>')
    d = r.find_first("div")
    assert d.get("class") == "x"
    assert d.get("id") == "z"


def test_comments_kept_but_textless():
    r = parse_html("<p>a<!-- hidden -->b</p>")
    assert r.find_first("p").text_content() == "ab"
    assert any(n.tag == "#comment" for n in r.iter())


def test_broken_markup_never_raises():
    parse_html("<div><p>unclosed <b att='  <span>")
    parse_html("")
    parse_html("just text, no tags")
