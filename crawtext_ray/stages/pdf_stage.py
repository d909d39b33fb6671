"""PDF text-extraction stage (the north rule's "PDF/layout parse" leg):
opaque ``binary`` PDF payloads → extracted text + page metadata, as a
task-fused map_batches stage (same plumbing pattern as the HTML extract
stage)."""

from __future__ import annotations

import pyarrow as pa

from ..extract.pdf import extract_pdf_text


class ExtractPdfText:
    def __init__(self, payload_col: str = "payload", id_col: str = "doc_id"):
        self.payload_col = payload_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for i, p in zip(
            batch[self.id_col].to_pylist(), batch[self.payload_col].to_pylist()
        ):
            res = extract_pdf_text(p or b"")
            rows.append(
                {
                    self.id_col: i,
                    "pdf_text": res["text"],
                    "n_pages": res["n_pages"],
                    "pdf_status": res["status"],
                    "n_chars": len(res["text"]),
                }
            )
        return pa.Table.from_pylist(rows)


def extract_pdf_texts(ds, payload_col: str = "payload", id_col: str = "doc_id",
                      batch_size: int = 32):
    """Small batches: PDFs can be MB-scale rows."""
    from .fusion import map_stage

    return map_stage(
        ds,
        lambda: ExtractPdfText(payload_col=payload_col, id_col=id_col),
        batch_size=batch_size,
    )
