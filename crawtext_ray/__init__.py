"""crawtext_ray — a Ray-Data-native web-text extraction engine.

From-scratch rebuild of the data-processing capabilities of
``cortext/crawtext`` (Goose-style main-content extraction + Adblock-style
filtering) as a streaming Ray Data pipeline over Arrow batches.

Layout (SURVEY.md §7.0 guiding split):

- ``crawtext_ray.extract`` — pure Python, Ray-free, deterministic: DOM,
  cleaners, scorer, formatter, adblock, url, query. Everything the golden
  byte-identity tests touch. No Ray imports allowed here.
- ``crawtext_ray.stages`` / ``sources`` / ``pipelines`` / ``state`` — thin
  Arrow/Ray wrappers: map_batches UDFs, task-fused stages, partitioning,
  lineage, reports.
- ``crawtext_ray.functions`` — scalar/sketch functions over Arrow arrays
  (word counts, hashes, minhash/simhash, language id, quality scores).
"""

__version__ = "0.1.0"
