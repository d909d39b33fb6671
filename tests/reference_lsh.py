"""Plain-Python reference forms of the LSH bucket pass
(``crawtext_ray.stages.dedup.banded_lsh_pairs`` and
``banded_lsh_candidate_pairs``): a bucket is a (band, key) pair, its
members a set of ids. Linking maps each doc to the min id sharing any of
its buckets; enumeration lists every id pair (a < b) sharing one. Tests
check the Ray forms against these over the same band keys."""

from itertools import combinations

from crawtext_ray.stages.dedup import _MinHashBands, _SimHash


def minhash_band_keys(texts, num_perm=128, bands=32, shingle_k=5):
    """(n_docs, bands) minhash band keys, as the minhash operators
    compute them."""
    return _MinHashBands(num_perm=num_perm, bands=bands, shingle_k=shingle_k,
                         text_col="text", id_col="doc_id").band_keys(texts)


def simhash_band_keys(texts):
    """Per doc, the four 16-bit quarters of its scalar simhash."""
    return [[(_SimHash.simhash64(t) >> (16 * b)) & 0xFFFF for b in range(4)]
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
