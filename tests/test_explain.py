"""explain_decode: the distributed prune-effectiveness report."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from rayenc import encode_dataset
from rayenc.decode import explain_decode


def test_explain_decode_reports_prunes(ray_session):
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(800, dtype=np.int64)),
            "body": pa.array(["x" * 200] * 800),
        }
    )
    blocks = encode_dataset(
        rd.from_arrow(t), block_rows=100, stats="page", page_rows=25, concurrency=2
    ).materialize()
    rep = explain_decode(blocks, [("doc_id", "<", 50)])
    assert rep["total_blocks"] == 8
    assert rep["kept_blocks"] == 1  # sorted ids: zones prune 7 of 8 blocks
    assert rep["total_rows"] == 800
    # inside the surviving block, pages past row 50 are pruned too
    assert rep["page_kept_rows"] == 50
    assert rep["kept_blob_bytes"] < rep["total_blob_bytes"]
    assert rep["block_prune_ratio"] == 0.875
    assert rep["page_row_prune_ratio"] == 1 - 50 / 800

    # DNF: two disjuncts touch two blocks
    rep = explain_decode(blocks, [[("doc_id", "==", 10)], [("doc_id", "==", 750)]])
    assert rep["kept_blocks"] == 2

    # a filter that cannot prune reports that honestly
    rep = explain_decode(blocks, [("doc_id", ">=", 0)])
    assert rep["kept_blocks"] == rep["total_blocks"]
    assert rep["block_prune_ratio"] == 0.0

    with pytest.raises(ValueError, match="needs a filter"):
        explain_decode(blocks, None)


def test_empty_block_table_gives_empty_answers(ray_session):
    """A block table with no rows and no schema (everything filtered
    away) gets the empty answer from explain_decode and agg_topk, as
    from agg_count and agg_sum, not an AttributeError on its schema. A
    malformed filter is still refused."""
    from rayenc import BlockEncoder, agg_count, agg_sum, agg_topk

    t = pa.table({"doc_id": pa.array(np.arange(50, dtype=np.int64))})
    none = rd.from_arrow(BlockEncoder().encode_table(t)).filter(lambda r: False)
    assert none.schema() is None
    filt = [("doc_id", "<", 10)]
    assert agg_count(none, filt) == 0 and agg_sum(none, "doc_id", filt) is None
    rep = explain_decode(none, filt)
    assert rep["total_blocks"] == rep["kept_blocks"] == rep["total_rows"] == 0
    assert rep["block_prune_ratio"] == rep["page_row_prune_ratio"] == 0.0
    for f in (None, filt):
        top = agg_topk(none, "doc_id", 3, extra_cols=["x"], filter=f)
        assert top.num_rows == 0 and top.column_names == ["doc_id", "x"]
    with pytest.raises(ValueError, match="unknown predicate op"):
        explain_decode(none, [("doc_id", "~", 1)])
