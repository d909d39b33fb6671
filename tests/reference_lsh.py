"""Plain-Python reference forms of the LSH bucket pass
(``crawtext_ray.stages.dedup.banded_lsh_pairs`` and
``banded_lsh_candidate_pairs``): a bucket is a (band, key) pair, its
members a set of ids. Linking maps each doc to the min id sharing any of
its buckets; enumeration lists every id pair (a < b) sharing one. Tests
check the Ray forms against these over the same band keys. Also the
scalar simhash (the batch simhash's reference) and the per-pair n-gram
Jaccard (the verifiers' reference)."""

from itertools import combinations

import numpy as np

from crawtext_ray.stages.dedup import (
    _TOKEN_RE,
    _MinHashBands,
    _shingle_array,
    _token_hash,
)


def simhash64(text: str) -> int:
    """One doc's 64-bit Charikar simhash: per bit position, the majority
    vote of its token hashes."""
    toks = _TOKEN_RE.findall(text.lower())
    if not toks:
        return 0
    th = np.fromiter((_token_hash(t) for t in toks), dtype=np.uint64,
                     count=len(toks))
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((th[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
    v = (2 * bits - 1).sum(axis=0)
    return int(np.bitwise_or.reduce((v > 0).astype(np.uint64) << shifts))


def shingles(text: str, k: int) -> set[int]:
    return set(int(x) for x in _shingle_array(text, k))


def ngram_jaccard(a: str, b: str, k: int = 5) -> float:
    sa, sb = shingles(a, k), shingles(b, k)
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def minhash_band_keys(texts, num_perm=128, bands=32, shingle_k=5):
    """(n_docs, bands) minhash band keys, as the minhash operators
    compute them."""
    return _MinHashBands(num_perm=num_perm, bands=bands, shingle_k=shingle_k,
                         text_col="text", id_col="doc_id").band_keys(texts)


def simhash_band_keys(texts):
    """Per doc, the four 16-bit quarters of its scalar simhash."""
    return [[(simhash64(t) >> (16 * b)) & 0xFFFF for b in range(4)]
            for t in texts]


def buckets(ids, keys):
    """{(band, key): set of ids}; ``keys[i]`` holds doc ``ids[i]``'s key
    per band."""
    out = {}
    for i, row in zip(ids, keys):
        for band, k in enumerate(row):
            out.setdefault((band, int(k)), set()).add(i)
    return out


def link(ids, keys):
    """{id: min id sharing any bucket with it}, for every id that is not
    its own min (the (id, rep_id) rows of ``banded_lsh_pairs``)."""
    rep = {}
    for members in buckets(ids, keys).values():
        low = min(members)
        for i in members - {low}:
            rep[i] = min(rep.get(i, low), low)
    return rep


def first_hit_rep(ids, keys, doc):
    """The min id of ``doc``'s lowest-numbered band bucket that it
    shares with another doc (None when it shares none)."""
    table = buckets(ids, keys)
    row = keys[ids.index(doc)]
    for band, k in enumerate(row):
        members = table[(band, int(k))]
        if len(members) > 1:
            return min(members)
    return None


def candidate_pairs(ids, keys):
    """Every distinct (a, b), a < b, sharing at least one bucket."""
    return {pair for members in buckets(ids, keys).values()
            for pair in combinations(sorted(members), 2)}
