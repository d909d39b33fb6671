"""Ray Data stages: thin Arrow wrappers over the pure extraction core,
plus the relational / dedup / similarity / text-analysis operator set."""

from .extract_stage import ARTICLES_SCHEMA, ExtractArticles, extract_articles  # noqa: F401
