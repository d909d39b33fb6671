"""PDF text-extraction stage (the north rule's "PDF/layout parse" leg):
opaque ``binary`` PDF payloads → extracted text + page metadata, as a
task-fused map_batches stage (same plumbing pattern as the HTML extract
stage)."""

from __future__ import annotations

import pyarrow as pa

from ..extract.pdf import extract_pdf_text


class ExtractPdfText:
    """(``doc_id``, ``payload``) rows → doc_id + extracted text and page
    metadata."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for i, p in zip(batch["doc_id"].to_pylist(),
                        batch["payload"].to_pylist()):
            res = extract_pdf_text(p or b"")
            rows.append(
                {
                    "doc_id": i,
                    "pdf_text": res["text"],
                    "n_pages": res["n_pages"],
                    "pdf_status": res["status"],
                    "n_chars": len(res["text"]),
                }
            )
        return pa.Table.from_pylist(rows)


def extract_pdf_texts(ds):
    """Batches of 32 rows: PDFs can be MB-scale rows."""
    from .fusion import map_stage

    return map_stage(ds, ExtractPdfText, batch_size=32)
