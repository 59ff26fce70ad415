"""Salted-partition layout tests: skew split, locality win, losslessness."""

from __future__ import annotations

import pyarrow as pa
import pytest

from rayenc.corpus import gen_corpus
from rayenc.partition import build_salt_map, repo_row_counts, salted_partition


@pytest.fixture(scope="module")
def shuffled_corpus(ray_session):
    import numpy as np

    t = gen_corpus(3000)
    rng = np.random.default_rng(0)
    perm = rng.permutation(t.num_rows)
    return t.take(pa.array(perm))


def test_salt_map_splits_giants(ray_session, shuffled_corpus):
    import ray.data as rd

    ds = rd.from_arrow(shuffled_corpus)
    counts = repo_row_counts(ds)
    smap = build_salt_map(counts, target_rows=500)
    giant = counts.sort_values("rows", ascending=False).iloc[0]
    assert giant["rows"] > 500  # the F1 corpus has a giant repo
    assert smap[giant["repo"]] >= 2  # giant is salted
    small = counts.sort_values("rows").iloc[0]
    assert small["repo"] not in smap  # normal repos default to 1 (absent)


def test_salted_partition_lossless_and_local(ray_session, shuffled_corpus):
    import ray.data as rd

    ds = rd.from_arrow(shuffled_corpus)
    out = salted_partition(ds, target_rows=500)
    t = pa.concat_tables(out.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert t.num_rows == shuffled_corpus.num_rows
    # same multiset of rows (sort both fully)
    keys = ["repo", "path", "commit", "lang"]
    a = t.sort_by([(k, "ascending") for k in keys])
    b = shuffled_corpus.sort_by([(k, "ascending") for k in keys])
    for k in keys + ["content"]:
        assert a[k].equals(b[k]), k
    assert "_pkey" not in t.column_names


def test_locality_improves_compression(ray_session, shuffled_corpus):
    """Sorted-by-repo layout must compress better than a shuffled layout
    (the point of paying the shuffle)."""
    import ray.data as rd

    from rayenc.encode import encode_dataset
    from rayenc.partition import locality_encode

    ds = rd.from_arrow(shuffled_corpus)
    base = encode_dataset(ds, block_rows=750, concurrency=2).materialize()
    base_bytes = sum(
        r["encoded_bytes"] for r in base.select_columns(["encoded_bytes"]).take_all()
    )
    laid = locality_encode(
        rd.from_arrow(shuffled_corpus), target_rows=500, block_rows=750, concurrency=2
    ).materialize()
    laid_bytes = sum(
        r["encoded_bytes"] for r in laid.select_columns(["encoded_bytes"]).take_all()
    )
    assert laid_bytes < base_bytes, (laid_bytes, base_bytes)


def test_salted_partition_tolerates_null_keys(ray_session):
    """A null key row in a batch containing a salted giant used to make
    pc.equal return an object-dtype (True/None) mask that numpy rejects
    as an index — IndexError inside the worker."""
    import pyarrow as pa
    import ray.data as rd

    from rayenc.partition import salted_partition

    n = 4000
    t = pa.table(
        {
            "repo": pa.array(
                ["giant"] * (n - 4) + [None, "small", None, "small"]
            ),
            "path": pa.array([f"p{i:05d}" for i in range(n)]),
        }
    )
    out = salted_partition(
        rd.from_arrow(t), key="repo", salt_col="path",
        sort_within=("path",), target_rows=500
    )
    got = out.to_pandas()
    assert len(got) == n
    assert got["repo"].isna().sum() == 2
