"""rayenc — a Ray-Data-native per-column lightweight-compression engine.

Built from scratch against the behavior of REASY/parquet-playground-rs
(see SURVEY.md; citations into /root/reference throughout): streaming
``ray.data.Dataset`` reads of a source-code Parquet table
(repo, path, commit, lang, content), ``map_batches`` over zero-copy
Arrow batches into an encode stage run as Ray Data tasks that samples
each block's columns, auto-selects a codec (dict / rle / fsst / bitpack / foref /
bss / alp / zstd-plain), and writes compressed column blocks plus per-partition
codec lineage + metrics to a resumable manifest. Decode reproduces every
value bit-identically (per-row content sha256 verified).

IMPORTANT: this package never calls ray.init()/ray.shutdown() — the
driver, bench.py and the test fixture own the Ray session.
"""

from .blocks import decode_column, decode_rows, encode_column
from .selector import encode_column_auto, select_codec
from .encode import BlockEncoder, encode_dataset, lineage_table
from .decode import (BlockDecoder, agg_approx_distinct, agg_approx_quantiles,
                     agg_count, agg_min_max,
                     agg_sum, agg_topk, attach_global_row_numbers, count_decoded_blocks,
                     decode_dataset, decode_ordered, explain_decode, prune_blocks)
from .jobs import (
    compact_job,
    delete_rows,
    encode_dataset_ordered,
    enrich_job,
    enrich_many,
    fsck_job,
    plan_partitions,
    read_blocks_at,
    run_encode_job,
    run_export_job,
    update_rows,
    vacuum_job,
)
from .partition import locality_encode, salted_partition
from .manifest import Manifest
from .verify import reference_parquet_bytes, tables_bit_identical, verify_blocks

__all__ = [
    "encode_column",
    "decode_column",
    "select_codec",
    "encode_column_auto",
    "BlockEncoder",
    "encode_dataset",
    "lineage_table",
    "BlockDecoder",
    "decode_dataset",
    "decode_ordered",
    "attach_global_row_numbers",
    "count_decoded_blocks",
    "agg_approx_distinct",
    "agg_approx_quantiles",
    "agg_count",
    "agg_min_max",
    "agg_sum",
    "agg_topk",
    "explain_decode",
    "prune_blocks",
    "encode_dataset_ordered",
    "decode_rows",
    "salted_partition",
    "locality_encode",
    "plan_partitions",
    "run_encode_job",
    "run_export_job",
    "compact_job",
    "delete_rows",
    "enrich_job",
    "enrich_many",
    "fsck_job",
    "update_rows",
    "vacuum_job",
    "read_blocks_at",
    "Manifest",
    "reference_parquet_bytes",
    "tables_bit_identical",
    "verify_blocks",
]

__version__ = "0.1.0"
