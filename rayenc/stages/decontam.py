"""Benchmark decontamination: flag training documents that overlap an
evaluation set at the n-gram level (the GPT-3/Gopher 13-gram overlap
rule; Brown et al. 2020 Appendix C, Rae et al. 2021 §A.3.2).

Ray-Data shape: the benchmark side is SMALL (an eval suite — thousands
of documents), so its k-gram hash set is built once on the driver,
sorted, and broadcast with ``ray.put``; every corpus task membership-
tests its windows with one vectorized ``searchsorted`` against the
shared sorted array (read-only, zero-copy from the object store). No
shuffle anywhere — the corpus streams through map_batches tasks.
Window hashing reuses the substr.py rolling-hash machinery, so a
benchmark span matches regardless of which document carries it. Both
sides hash NORMALIZED tokens (utf8_lower + punctuation stripped — the
published rule's behavior; note utf8_lower is not full Unicode case
folding, e.g. Greek final sigma survives distinctly).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np
import pyarrow as pa

import ray

import pyarrow.compute as pc

from ..dispatch import map_stage
from .substr import _token_hashes, _window_hashes, flatten_nonempty

if TYPE_CHECKING:  # pragma: no cover
    import ray.data


def _normalized_window_hashes(
    texts: pa.ChunkedArray | pa.Array, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(window hashes, doc index) over NORMALIZED tokens: lowercased,
    punctuation stripped — the published rule matches near-verbatim
    quotes ("France." vs "france"), so both sides must hash the same
    normalized stream. RE2 Unicode classes keep non-Latin text intact."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    norm = pc.replace_substring_regex(
        pc.utf8_lower(pc.cast(texts, pa.large_string())),
        r"[^\p{L}\p{N}\s]+",
        " ",
    )
    flat, counts = flatten_nonempty(pc.utf8_split_whitespace(norm))
    h, d, _ = _window_hashes(_token_hashes(flat), counts, k)
    return h, d


def benchmark_ngram_hashes(texts: Iterable[str | None], k: int = 13) -> np.ndarray:
    """Sorted unique uint64 k-gram hashes of the benchmark texts
    (normalized: lowercase, punctuation stripped). Benchmark items
    shorter than k tokens contribute no windows and are not matched —
    the published 13-gram rule's behavior; lower k (the published
    range is 8-13) to catch shorter eval items."""
    arr = pa.array(list(texts), type=pa.large_string())
    h, _ = _normalized_window_hashes(arr, k)
    return np.unique(h)


def flag_contaminated(
    ds: "ray.data.Dataset",
    benchmark_texts: Iterable[str | None],
    text_col: str = "text",
    k: int = 13,
    concurrency=(1, 4),
) -> "ray.data.Dataset":
    """Append ``contaminated_ngrams`` (count of corpus windows hitting
    the benchmark set) and ``contaminated`` (bool) to every row.
    Filtering vs. span-surgery on hits is the caller's policy (the
    published pipelines drop the document)."""
    bench = benchmark_ngram_hashes(benchmark_texts, k=k)
    bref = ray.put(bench)

    class Flag:
        def __init__(self):
            self.bench = ray.get(bref)  # sorted uint64, shared read-only

        def __call__(self, batch: pa.Table) -> pa.Table:
            n = len(batch)
            hits = np.zeros(n, dtype=np.int64)
            if len(self.bench):
                h, d = _normalized_window_hashes(batch[text_col], k)
                if len(h):
                    pos = np.searchsorted(self.bench, h)
                    pos[pos == len(self.bench)] = 0
                    hit = self.bench[pos] == h
                    hits = np.bincount(d[hit], minlength=n).astype(np.int64)
            return batch.append_column(
                "contaminated_ngrams", pa.array(hits, type=pa.int64())
            ).append_column("contaminated", pa.array(hits > 0))

    return map_stage(ds, Flag, concurrency=concurrency)
