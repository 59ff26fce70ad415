"""Enrichment throughput probe: one-pass enrich_many vs sequential
single-column enrich_job over the same encoded corpus.

Usage: python tools/enrich_bench.py [ROWS]  (default 200_000)
RAY_GRAFT_CPUS sets Ray's logical CPU count (default 32), as in bench.py.

Generates the deterministic synthetic corpus, encodes it once, then
times (a) enrich_many({lang_pred, quality, n_tok}) in ONE decode pass
on a fresh copy, and (b) three sequential enrich_job calls on another
fresh copy. Prints one JSON line. Owns its Ray session (tool, not
library)."""

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray


def main() -> None:
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from rayenc import enrich_job, enrich_many, run_encode_job
    from rayenc.corpus import write_corpus

    d = Path(tempfile.mkdtemp(prefix="rayenc_enrichbench_"))
    src = write_corpus(str(d / "c.parquet"), rows, row_group_size=5_000)
    src_bytes = Path(src).stat().st_size
    t0 = time.perf_counter()
    # 16 MiB partitions: the probe corpus is small, so mirror the
    # many-partition layout a real job has (enrichment parallelism is
    # per partition — one 180 MB partition would measure a serial actor)
    run_encode_job(src, str(d / "job"), max_partition_bytes=16 << 20)
    enc_s = time.perf_counter() - t0
    cols = {"lang_pred": "lang_id", "quality": "quality_score", "n_tok": "n_tokens"}

    shutil.copytree(d / "job", d / "job_one")
    t0 = time.perf_counter()
    s1 = enrich_many(str(d / "job_one"), cols)
    one_pass_s = time.perf_counter() - t0
    assert s1["partitions_enriched"] == s1["partitions_total"]

    shutil.copytree(d / "job", d / "job_seq")
    t0 = time.perf_counter()
    for name, en in cols.items():
        enrich_job(str(d / "job_seq"), name, en)
    seq_s = time.perf_counter() - t0

    print(json.dumps({
        "rows": rows,
        "source_mb": round(src_bytes / 1e6, 1),
        "encode_sec": round(enc_s, 2),
        "one_pass_sec": round(one_pass_s, 2),
        "sequential_sec": round(seq_s, 2),
        "speedup": round(seq_s / one_pass_s, 2),
        "one_pass_mb_s": round(src_bytes / 1e6 / one_pass_s, 1),
    }))
    shutil.rmtree(d, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
