"""F1–F3 Adblock-style filtering (EasyList syntax subset)."""

import reference_cleaners as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from crawtext_ray.extract.adblock import AdblockRules
from crawtext_ray.extract.dom import parse_html
from crawtext_ray.extract.urlnorm import domain_of

RULES = [
    "! comment line",
    "||ads.example.com^",
    "/banner/",
    "&ad_box_",
    "|http://exact.start.example/x",
    "swf|",
    "/promo/*/track",
    "@@||ads.example.com/allowed/",
    "only-on-domain$domain=special.example|~sub.special.example",
    "##.ad-banner",
    "###ad-slot",
    "##aside.promo",
    "#@#.ad-banner-editorial",
]


def rules():
    return AdblockRules(RULES)


def test_domain_anchor():
    r = rules()
    assert r.should_block("http://ads.example.com/x")
    assert r.should_block("https://sub.ads.example.com/x")
    assert not r.should_block("http://notads.example.com/x")
    assert not r.should_block("http://ads.example.com.evil.net/x".replace("ads.example.com.", "other."))


def test_substring_and_wildcard():
    r = rules()
    assert r.should_block("http://a.com/banner/top")
    assert r.should_block("http://a.com/p?x=1&ad_box_2=3")
    assert r.should_block("http://a.com/promo/v1/track")
    assert not r.should_block("http://a.com/promotion/track")


def test_start_end_anchor():
    r = rules()
    assert r.should_block("http://exact.start.example/x")
    assert not r.should_block("http://pre.exact.start.example/x")
    assert r.should_block("http://a.com/movie.swf")
    assert not r.should_block("http://a.com/movie.swf.html")


def test_exception_beats_block():
    r = rules()
    assert not r.should_block("http://ads.example.com/allowed/thing")
    assert r.should_block("http://ads.example.com/other")


def test_domain_option():
    r = rules()
    assert r.should_block("http://special.example/only-on-domain")
    assert not r.should_block("http://other.example/only-on-domain")
    assert not r.should_block("http://sub.special.example/only-on-domain")


def test_element_hiding_and_exception():
    r = rules()
    root = parse_html(
        '<body><div class="ad-banner">x</div><div id="ad-slot">y</div>'
        '<aside class="promo">z</aside><aside class="other">keep</aside>'
        '<div class="ad-banner-editorial">keep2</div>'
        '<div class="ad-banner ad-banner-editorial">hidden: block rule class present</div>'
        "</body>"
    )
    removed = ref.hide_elements(r, root)
    body = root.find_first("body")
    texts = body.text_content()
    assert "keep" in texts and "keep2" in texts
    assert "x" not in texts and "y" not in texts and "z" not in texts
    # the combined-class node matches .ad-banner AND the #@# exception -> kept
    assert "hidden: block rule class present" in texts
    assert removed == 3


def test_undelimited_token_rules_still_block():
    """A rule whose longest token the rule does not delimit (open at the
    body start, or next to "*") must still block every url its regex
    matches: the token index may not hide it."""
    assert AdblockRules(["banner"]).should_block("http://x.com/bigbanner.png")
    assert AdblockRules(["adserv*"]).should_block("http://x.com/adservice/1")
    assert AdblockRules(["swf|"]).should_block("http://a.com/movieswf")
    assert AdblockRules(["*track^"]).should_block("http://a.com/pixeltrack?x")


def test_undelimited_exception_is_not_missed():
    """An exception missed by the index over-blocks: "@@ok" must match
    "bigok" although "ok" never appears as a whole url token."""
    r = AdblockRules(["/ads/", "@@okads"])
    assert not r.should_block("http://x.com/ads/brokads")
    assert r.should_block("http://x.com/ads/other")


def test_case_folded_urls_match_like_the_regex():
    """re.IGNORECASE folds "ſ", "ı", "İ" and the Kelvin sign onto ASCII
    letters, so the rule's regex matches these urls; should_block must
    agree."""
    r = AdblockRules(["/ads/", "||tracker.example^"])
    assert r.should_block("http://x.com/AdS/1")
    assert r.should_block("http://x.com/adſ/1")
    assert r.should_block("http://tracker.example/1")
    assert AdblockRules(["/kit/"]).should_block("http://x.com/Kit/")
    assert AdblockRules(["/pix/"]).should_block("http://x.com/pıx/")
    assert AdblockRules(["/pix/"]).should_block("http://x.com/pİx/")


def _brute_should_block(rules: AdblockRules, url: str) -> bool:
    """Any block rule (domain_ok + regex) and no exception rule."""
    host = domain_of(url)

    def hit(rs):
        return any(r.domain_ok(host) and r.regex.search(url) for r in rs)

    return hit(rules.block_rules) and not hit(rules.except_rules)


_ATOMS = ["ad", "ads", "banner", "big", "kit", "pix", "/", ".", "-", "_",
          "?", "=", "&", "|", "*", "^", "ſ", "K", "İ", "ı",
          "S", "ADS", "é", "1"]
_HOSTS = ["ads.example.com", "x.com", "special.example", "sub.special.example",
          "bigads.net"]


@st.composite
def _rule_line(draw):
    body = draw(st.sampled_from(["", "|", "||"]))
    body += "".join(draw(st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=6)))
    if draw(st.booleans()):
        body += "|"
    if draw(st.integers(0, 3)) == 0:
        doms = draw(st.lists(st.sampled_from(
            ["special.example", "~sub.special.example", "x.com", "~x.com"]),
            min_size=1, max_size=2))
        body += "$domain=" + "|".join(doms)
    return ("@@" if draw(st.integers(0, 3)) == 0 else "") + body


@st.composite
def _url(draw):
    path = "".join(draw(st.lists(st.sampled_from(_ATOMS), max_size=8)))
    return f"http://{draw(st.sampled_from(_HOSTS))}/{path}"


_FOLDS = {"s": ["S", "ſ"], "k": ["K", "K"], "i": ["I", "İ", "ı"],
          "a": ["A"], "d": ["D"]}


def _url_like(line: str, draw) -> str:
    """A url built from a rule body, so that it often matches: wildcards
    and separators filled in, letters case-folded the ways re.IGNORECASE
    allows."""
    body = line.removeprefix("@@").split("$")[0].strip("|")
    out = []
    for ch in body:
        if ch == "*":
            ch = draw(st.sampled_from(["", "x", "ad/"]))
        elif ch == "^":
            ch = draw(st.sampled_from(["/", "?", ""]))
        elif ch.lower() in _FOLDS and draw(st.booleans()):
            ch = draw(st.sampled_from(_FOLDS[ch.lower()]))
        out.append(ch)
    host = draw(st.sampled_from(_HOSTS))
    return f"http://{host}/{draw(st.sampled_from(['', 'big', 'x/']))}{''.join(out)}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_rule_line(), min_size=1, max_size=6),
       st.lists(_url(), min_size=1, max_size=8), st.data())
def test_should_block_equals_brute_force(lines, urls, data):
    r = AdblockRules(lines)
    urls += [_url_like(line, data.draw) for line in lines]
    for u in urls:
        assert r.should_block(u) == _brute_should_block(r, u), (lines, u)
