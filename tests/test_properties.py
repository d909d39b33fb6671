"""Property-based tests (hypothesis) for the deterministic core
(SURVEY.md §5.2: idempotence / robustness properties)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from crawtext_ray.extract.article import extract_article
from crawtext_ray.extract.dom import parse_html
from crawtext_ray.extract.output import inner_trim
from crawtext_ray.extract.stopwords import tokenize
from crawtext_ray.extract.urlnorm import canon_url


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=2000))
def test_parse_never_raises(s):
    parse_html(s)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=2000))
def test_extract_never_raises_and_is_deterministic(b):
    a1 = extract_article(b, "http://x.example/p", "en")
    a2 = extract_article(b, "http://x.example/p", "en")
    assert a1["extracted_text"] == a2["extracted_text"]
    assert a1["status"] in ("ok", "empty", "parse_error", "blocked")


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_canon_url_idempotent(href):
    u = canon_url("http://base.example/dir/", href)
    if u:
        assert canon_url("", u) == u  # canonical form is a fixed point
        assert u.startswith(("http://", "https://"))
        assert "#" not in u


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=500))
def test_tokenize_properties(s):
    toks = tokenize(s)
    assert all(t == t.lower() for t in toks)
    assert all(" " not in t and t for t in toks)
    assert tokenize(" ".join(toks)) == toks  # stable under re-join


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=500))
def test_inner_trim_idempotent(s):
    t = inner_trim(s)
    assert inner_trim(t) == t
    assert t == t.strip()
    assert "  " not in t and "\n" not in t and "\t" not in t


def test_bloom_filter_properties():
    import pyarrow as pa

    from crawtext_ray.state.bloom import BloomFilter

    bf = BloomFilter(capacity=10_000, fp_rate=0.001)
    keys = pa.array([f"http://h{i}.example/p{i}" for i in range(5_000)])
    bf.update(keys)
    assert bf.contains(keys).all()  # no false negatives, ever
    fresh = pa.array([f"http://other{i}.example/x{i}" for i in range(5_000)])
    assert bf.contains(fresh).sum() < 50  # ~0.1% target; generous bound


def test_bloom_batch_paths_match_scalar():
    """The Arrow batch paths (update / contains) over a string column set
    the same bits as a plain per-key reference of the filter's md5
    double hashing (two big-endian 64-bit halves of the key's md5, an
    odd stride, positions mod the bit count), so url-keyed filters keep
    their hashing; a null is never added and never a member."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from crawtext_ray.state.bloom import BloomFilter

    def positions(bf, key: str) -> list:
        d = hashlib.md5(key.encode("utf-8")).digest()
        h1, h2 = int.from_bytes(d[:8], "big"), int.from_bytes(d[8:], "big")
        return [(h1 + i * (h2 | 1)) % (1 << 64) % bf.n_bits
                for i in range(bf.n_hashes)]

    keys = [f"http://h{i}.example/p{i}" for i in range(500)]
    batched = BloomFilter(capacity=1000, fp_rate=0.01)
    batched.update(pa.array(keys + [None]))
    scalar = BloomFilter.with_params(batched.n_bits, batched.n_hashes)
    for k in keys:
        for p in positions(scalar, k):
            scalar.bits[p >> 6] |= np.uint64(1) << np.uint64(p & 63)
    assert np.array_equal(scalar.bits, batched.bits)

    def member(k) -> bool:
        return k is not None and all(
            int(batched.bits[p >> 6]) >> (p & 63) & 1
            for p in positions(batched, k))

    probes = keys[::7] + [f"http://miss{i}.example/" for i in range(200)]
    probes.append(None)
    got = batched.contains(pa.array(probes))
    assert np.array_equal(got, np.array([member(k) for k in probes]))
    assert not got[-1]
    assert batched.contains(pa.array([], pa.string())).shape == (0,)


def test_export_report(tmp_path):
    import json

    import pandas as pd

    from crawtext_ray.stages.export import export_report

    df = pd.DataFrame({"lang": ["en", "fr"], "n_docs": [10, 5]})
    p = export_report(df, str(tmp_path / "r.json"))
    assert json.load(open(p)) == [
        {"lang": "en", "n_docs": 10},
        {"lang": "fr", "n_docs": 5},
    ]
    p = export_report(df, str(tmp_path / "r.csv"))
    assert open(p).read().splitlines()[0] == "lang,n_docs"


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=1500))
def test_pdf_extract_never_raises(b):
    from crawtext_ray.extract.pdf import extract_pdf_text

    r1 = extract_pdf_text(b"%PDF-1.4\n" + b)
    r2 = extract_pdf_text(b"%PDF-1.4\n" + b)
    assert r1 == r2  # deterministic
    assert r1["status"] in ("ok", "empty", "unsupported", "not_pdf")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcdefgh 0123456789", max_size=120),
                min_size=1, max_size=12))
def test_minhash_band_keys_batch_invariant(texts):
    """Band keys for a doc must not depend on which other docs share its
    batch (the per-doc exactness invariant the pair-emission pass relies
    on)."""
    import numpy as np

    from crawtext_ray.stages.dedup import _MinHashBands

    mb = _MinHashBands(num_perm=32, bands=8, shingle_k=3,
                       text_col="text", id_col="doc_id")
    whole = mb.band_keys(texts)
    for i, t in enumerate(texts):
        alone = mb.band_keys([t])
        assert np.array_equal(whole[i], alone[0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcdef ", max_size=100), min_size=1,
                max_size=8))
def test_simhash_batch_invariant(texts):
    from reference_lsh import simhash64

    from crawtext_ray.stages.dedup import _SimHash

    whole = _SimHash("text", "doc_id")._batch_simhash(texts)
    for t, got in zip(texts, whole):
        assert int(got) == simhash64(t)


def test_bloom_int_key_paths():
    """An integer column hashes with the splitmix64 pair: every added
    int64 key (including negative hash values) is found, absent keys
    stay out at ~fp_rate, an int32 column probes the same as its int64
    values, and the int path agrees with itself across a partial-filter
    OR (the distributed build contract)."""
    import numpy as np
    import pyarrow as pa

    from crawtext_ray.state.bloom import BloomFilter

    rng = np.random.default_rng(11)
    keys = rng.integers(-(2**62), 2**62, 5000, dtype=np.int64)
    bf = BloomFilter(capacity=5000, fp_rate=1e-4)
    bf.update(pa.array(keys))
    assert bf.contains(pa.array(keys)).all()
    absent = rng.integers(-(2**62), 2**62, 20000, dtype=np.int64)
    absent = absent[~np.isin(absent, keys)]
    fp = bf.contains(pa.array(absent)).mean()
    assert fp < 0.01
    small = np.arange(-50, 50, dtype=np.int64)
    bf.update(pa.array(small))
    assert bf.contains(pa.array(small.astype(np.int32))).all()
    # distributed build: two partials ORed == one filter over the union
    a = BloomFilter.with_params(bf.n_bits, bf.n_hashes)
    b = BloomFilter.with_params(bf.n_bits, bf.n_hashes)
    a.update(pa.array(keys[:2500]))
    b.update(pa.array(keys[2500:]))
    b.update(pa.array(small))
    a.bits |= b.bits
    assert np.array_equal(a.bits, bf.bits)
