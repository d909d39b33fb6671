"""Ray Data stages: thin Arrow wrappers over the pure extraction core
(HTML and PDF), plus the relational, dedup, similarity, text-analysis,
frontier, BPE and shuffle-export operator set."""

from .extract_stage import ARTICLES_SCHEMA, ExtractArticles, extract_articles  # noqa: F401
