"""Multimodal column stages (training-data operator set).

Images / audio / video are opaque ``binary`` columns with typed metadata
(mime, width/height or duration). The Ray-side plumbing — schema, stage
signature, small batches for large payloads, output layout — is real and
tested; the decode kernels themselves are STUBBED because no image/audio
libraries exist in this container:

- ``decode="fake"`` (default in tests): a deterministic fake decoder that
  derives features from the payload bytes (so pipelines are testable
  end-to-end).
- ``decode="real"``: raises NotImplementedError with the dependency note.

At 100 TB these stages want small ``batch_size`` (payload rows are
MB-scale); decoder state (codec contexts / models) is built once per
worker by the task-fused stage (stages/fusion.py).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("payload", pa.binary()),
        ("mime", pa.string()),
    ]
)


class DecodeImageFeatures:
    """binary payload -> (media_id, sha256, n_bytes, width, height,
    mean_luma). Real decode is stubbed (no PIL/cv2 in this image)."""

    def __init__(self, decode: str = "fake", payload_col: str = "payload",
                 id_col: str = "media_id"):
        if decode not in ("fake", "real"):
            raise ValueError(decode)
        self.decode = decode
        self.payload_col = payload_col
        self.id_col = id_col

    def _fake_decode(self, payload: bytes) -> tuple[int, int, float]:
        # deterministic pseudo-metadata from the payload digest
        d = hashlib.sha256(payload).digest()
        w = 64 + d[0] % 192
        h = 64 + d[1] % 192
        luma = d[2] / 255.0
        return w, h, luma

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decode == "real":
            raise NotImplementedError(
                "real image decode needs PIL/opencv, not present in this "
                "container; run with decode='fake' or install a decoder"
            )
        ids = batch[self.id_col].to_pylist()
        payloads = batch[self.payload_col].to_pylist()
        rows = []
        for i, p in zip(ids, payloads):
            p = p or b""
            w, h, luma = self._fake_decode(p)
            rows.append(
                {
                    self.id_col: i,
                    "sha256": hashlib.sha256(p).hexdigest(),
                    "n_bytes": len(p),
                    "width": w,
                    "height": h,
                    "mean_luma": luma,
                }
            )
        return pa.Table.from_pylist(rows)


def decode_image_features(ds, decode: str = "fake", batch_size: int = 16,
                          concurrency="tasks"):
    """Small batches: payload rows are large; batch bytes stay bounded
    (SURVEY.md §4.3 memory-pressure rule)."""
    from .fusion import map_stage

    return map_stage(
        ds, lambda: DecodeImageFeatures(decode=decode),
        batch_size=batch_size,
        concurrency=concurrency,
    )


class SampleFrames:
    """Video frame-sampler plumbing: emits (media_id, frame_index,
    frame_sha) rows for every Nth pseudo-frame. Real codec stubbed."""

    def __init__(self, every_n: int = 10, decode: str = "fake"):
        self.every_n = every_n
        self.decode = decode

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decode == "real":
            raise NotImplementedError("video decode needs ffmpeg/pyav")
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        out_id, out_idx, out_sha = [], [], []
        for i, p in zip(ids, payloads):
            p = p or b""
            n_frames = max(1, len(p) // 1024)  # fake: 1 frame per KiB
            for f in range(0, n_frames, self.every_n):
                out_id.append(i)
                out_idx.append(f)
                out_sha.append(
                    hashlib.sha256(p[f * 1024 : (f + 1) * 1024]).hexdigest()
                )
        return pa.table(
            {
                "media_id": pa.array(out_id, pa.int64()),
                "frame_index": pa.array(out_idx, pa.int64()),
                "frame_sha": pa.array(out_sha, pa.string()),
            }
        )


class ResizeImages:
    """Image resize plumbing: computes target dimensions (fit-to
    ``max_side``, aspect preserved, integer math) and a deterministic
    content id for the resized artifact. Real resampling is stubbed (no
    PIL/cv2); the fake path derives source dims exactly like
    DecodeImageFeatures so the two stages compose."""

    def __init__(self, max_side: int = 256, decode: str = "fake",
                 payload_col: str = "payload", id_col: str = "media_id"):
        if decode not in ("fake", "real"):
            raise ValueError(decode)
        self.max_side = max_side
        self.decode = decode
        self.payload_col = payload_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decode == "real":
            raise NotImplementedError(
                "real image resize needs PIL/opencv, not present in this "
                "container; run with decode='fake' or install a decoder"
            )
        ids = batch[self.id_col].to_pylist()
        payloads = batch[self.payload_col].to_pylist()
        out_w, out_h, out_sha = [], [], []
        for p in payloads:
            p = p or b""
            d = hashlib.sha256(p).digest()
            w = 64 + d[0] % 192
            h = 64 + d[1] % 192
            side = max(w, h)
            if side <= self.max_side:
                tw, th = w, h
            else:
                tw = max(1, (w * self.max_side) // side)
                th = max(1, (h * self.max_side) // side)
            out_w.append(tw)
            out_h.append(th)
            out_sha.append(
                hashlib.sha256(p + f"|{tw}x{th}".encode()).hexdigest()
            )
        return pa.table({
            self.id_col: pa.array(ids, pa.int64()),
            "out_width": pa.array(out_w, pa.int64()),
            "out_height": pa.array(out_h, pa.int64()),
            "resized_sha": pa.array(out_sha, pa.string()),
        })


def resize_images(ds, max_side: int = 256, batch_size: int = 16,
                  concurrency="tasks"):
    from .fusion import map_stage

    return map_stage(
        ds, lambda: ResizeImages(max_side=max_side),
        batch_size=batch_size,
        concurrency=concurrency,
    )


class AudioSegments:
    """Audio segmentation plumbing: fake duration model (1 ms per 16
    payload bytes) split into fixed windows; emits (media_id, seg_index,
    t_start_ms, t_end_ms). Real codec stubbed."""

    def __init__(self, window_ms: int = 10_000, decode: str = "fake",
                 payload_col: str = "payload", id_col: str = "media_id"):
        self.window_ms = window_ms
        self.decode = decode
        self.payload_col = payload_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decode == "real":
            raise NotImplementedError("audio decode needs ffmpeg/soundfile")
        ids = batch[self.id_col].to_pylist()
        payloads = batch[self.payload_col].to_pylist()
        out_id, out_seg, out_s, out_e = [], [], [], []
        for i, p in zip(ids, payloads):
            dur = max(1, len(p or b"") // 16)
            seg = 0
            for start in range(0, dur, self.window_ms):
                out_id.append(i)
                out_seg.append(seg)
                out_s.append(start)
                out_e.append(min(start + self.window_ms, dur))
                seg += 1
        return pa.table({
            self.id_col: pa.array(out_id, pa.int64()),
            "seg_index": pa.array(out_seg, pa.int64()),
            "t_start_ms": pa.array(out_s, pa.int64()),
            "t_end_ms": pa.array(out_e, pa.int64()),
        })


def audio_segments(ds, window_ms: int = 10_000, batch_size: int = 16,
                   concurrency="tasks"):
    from .fusion import map_stage

    return map_stage(
        ds, lambda: AudioSegments(window_ms=window_ms),
        batch_size=batch_size,
        concurrency=concurrency,
    )


def sample_frames(ds, every_n: int = 10, batch_size: int = 8, concurrency="tasks"):
    from .fusion import map_stage

    return map_stage(
        ds, lambda: SampleFrames(every_n=every_n),
        batch_size=batch_size,
        concurrency=concurrency,
    )
