"""M6 outlinks: the per-href lookups the layer trace (perfbench/trace.py)
times by rebinding ``article.canon_url``, ``article.is_crawlable`` and an
Adblock rule set's ``should_block``."""

from crawtext_ray.extract import article
from crawtext_ray.extract.adblock import default_rules

PAGE_URL = "http://site.example/dir/page"
HREFS = [
    "/a", "http://other.example/b", "/a", "c.html", "/banner/x",
    "mailto:me@x", "/img.png", "http://other.example/b", "", "/d#frag",
    "/a", "c.html", "/d",
]


def _page() -> bytes:
    links = "".join(f'<a href="{h}">l{i}</a> ' if h else "<a>no href</a>"
                    for i, h in enumerate(HREFS))
    return (
        "<html lang=en><head><title>t</title></head><body>"
        f"<div id=nav>{links}</div>"
        "<p>the body of the page and the words of it</p></body></html>"
    ).encode()


def test_one_lookup_per_distinct_href_in_outlink_order(monkeypatch):
    rules = default_rules()
    canon_url, is_crawlable = article.canon_url, article.is_crawlable
    should_block = rules.should_block
    calls: dict[str, list] = {"canon": [], "crawl": [], "block": []}

    def counted(name, fn):
        def wrapper(*a):
            calls[name].append(a[-1])
            return fn(*a)
        return wrapper

    monkeypatch.setattr(article, "canon_url", counted("canon", canon_url))
    monkeypatch.setattr(article, "is_crawlable", counted("crawl", is_crawlable))
    monkeypatch.setattr(rules, "should_block", counted("block", should_block))

    res = article.extract_article(_page(), PAGE_URL, None, rules)

    distinct = list(dict.fromkeys(h for h in HREFS if h))
    assert calls["canon"] == distinct
    canon = [canon_url(PAGE_URL, h) for h in distinct]
    assert calls["crawl"] == [u for u in canon if u]
    crawlable = [u for u in canon if u and is_crawlable(u)]
    assert calls["block"] == [PAGE_URL, *crawlable]
    assert res["outlinks"] == list(dict.fromkeys(
        u for u in crawlable if not should_block(u)))
    assert res["outlinks"] == [
        "http://site.example/a", "http://other.example/b",
        "http://site.example/dir/c.html", "http://site.example/d",
    ]
