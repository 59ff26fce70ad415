"""Partition assignment: salted repo-groupby + within-partition sort.

The engine's ONE data shuffle (SURVEY.md §7.2): co-locating a repo's
rows before encoding manufactures the runs and low-cardinality locality
the lightweight codecs feed on (same repo -> same dict entries; sorted
path/commit -> RLE runs). Skew is explicit (north rule): repo follows a
Zipf — one giant repo can hold ~40% of rows (FIXTURES.md F1) — so giant
repos are SALTED into `ceil(rows / target)` sub-partitions by a stable
hash of path, and no single group (hence no single encode task) stalls
the pipeline.

Two passes:
1. metadata-sized stats pass: rows per repo (pre-aggregated per batch —
   output is one row per repo per batch, never row-scale);
2. salt map broadcast via ray.put (read once per worker, never
   re-shipped per batch), then groupby(_pkey).map_groups(sort) — the
   shuffle — feeding the encode stage.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def repo_row_counts(ds: "ray.data.Dataset", key: str = "repo") -> pd.DataFrame:
    """Rows per repo via per-batch partial counts (no shuffle). Driver
    memory is O(total repos) — fine up to millions of repos; for larger
    key spaces use giant_repo_counts (shuffle, tiny result)."""
    from .stages.agg import grouped_agg_lowcard

    return grouped_agg_lowcard(ds, [key], {"rows": (None, "count")})


def giant_repo_counts(
    ds: "ray.data.Dataset", key: str = "repo", target_rows: int = 100_000
) -> pd.DataFrame:
    """Rows per repo, returning ONLY repos above target_rows — the scale
    path: one single-column groupby shuffle, and the driver/broadcast
    side holds just the skewed tail (giant repos are few by definition),
    never the full repo universe."""
    counts = ds.select_columns([key]).groupby(key).count()
    big = counts.map_batches(
        lambda t: t.filter(pc.greater(t["count()"], target_rows)),
        batch_format="pyarrow",
    ).to_pandas()
    return big.rename(columns={"count()": "rows"})


def build_salt_map(
    counts: pd.DataFrame, key: str = "repo", target_rows: int = 100_000
) -> dict[str, int]:
    """repo -> number of salted sub-partitions, ONLY for repos that need
    splitting (>1 salt); absent repos default to a single partition."""
    out: dict[str, int] = {}
    for _, row in counts.iterrows():
        n = max(1, -(-int(row["rows"]) // target_rows))
        if n > 1:
            out[row[key]] = n
    return out


def _stable_hash(values: pa.Array | pa.ChunkedArray | list[str]) -> np.ndarray:
    """Vectorized uint64 per value (batched xxhash; the round-1 per-value
    crc32 loop sat on the salted giant-repo path). Salt assignment only
    needs run-internal stability — layout, not identity."""
    from .stages.hashing import hash_array_64

    if not isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = pa.array(values, type=pa.string())
    return hash_array_64(values, seed=3)


def salted_partition(
    ds: "ray.data.Dataset",
    key: str = "repo",
    salt_col: str = "path",
    sort_within: tuple[str, ...] = ("path", "commit"),
    target_rows: int = 100_000,
    use_shuffle_counts: bool = False,
) -> "ray.data.Dataset":
    """Assign each row a partition key `repo#salt`, shuffle so each
    partition is contiguous, and sort rows within each partition —
    the compression-locality layout the encode stage consumes.

    The broadcast salt map holds only GIANT repos; the per-batch
    assignment is vectorized per giant repo (the giant set is small),
    with zero per-row Python for the common case."""
    if use_shuffle_counts:
        counts = giant_repo_counts(ds, key, target_rows)
    else:
        counts = repo_row_counts(ds, key)
    salt_map = build_salt_map(counts, key, target_rows)
    ref = ray.put(salt_map)

    def assign(batch: pa.Table) -> pa.Table:
        smap = ray.get(ref)
        n = batch.num_rows
        salts = np.zeros(n, dtype=np.uint64)
        if smap:
            keys_arr = batch[key]
            h = None
            for giant, n_salts in smap.items():  # few giants; vectorized each
                # fill_null: a null key compares to null, and an object-
                # dtype (True/None) numpy array is rejected as a bool mask
                mask = pc.fill_null(pc.equal(keys_arr, giant), False).to_numpy(
                    zero_copy_only=False
                )
                if mask.any():
                    if h is None:
                        h = _stable_hash(batch[salt_col])
                    salts[mask] = h[mask] % np.uint64(n_salts)
        if salts.any():
            salt_str = pa.array(
                np.char.mod("#%03d", salts).tolist(), type=pa.string()
            )
        else:
            salt_str = pa.array(["#000"] * n, type=pa.string())
        pkey = pc.binary_join_element_wise(batch[key], salt_str, "")
        return batch.append_column("_pkey", pkey)

    keyed = ds.map_batches(assign, batch_format="pyarrow")

    sort_cols = list(sort_within)

    def sort_group(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(sort_cols).drop(columns=["_pkey"])

    return keyed.groupby("_pkey").map_groups(sort_group, batch_format="pandas")


def locality_encode(
    ds: "ray.data.Dataset",
    target_rows: int = 100_000,
    block_rows: int = 4000,
    **encode_kw,
) -> "ray.data.Dataset":
    """salted_partition -> encode: the full SURVEY §3.4 layout path."""
    from .encode import encode_dataset

    laid_out = salted_partition(ds, target_rows=target_rows)
    return encode_dataset(laid_out, block_rows=block_rows, **encode_kw)
