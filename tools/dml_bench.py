"""Maintenance-DML walls at scale: encode a multi-GB corpus, then time
snapshot / enrich_many / update(scrub) / delete / fsck over it.

Usage: python tools/dml_bench.py [ROWS]  (default 2_000_000 ≈ 4.7 GB)
RAY_GRAFT_CPUS sets Ray's logical CPU count (default 32), as in bench.py.

The point is the ZONE-BOUNDED claim: a narrow delete/update must cost a
metadata scan plus a few partition rewrites, not a full re-encode —
the probe reports partitions_rewritten/partitions_total alongside the
walls. Owns its Ray session (tool, not library). Prints one JSON line."""

import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray


def main() -> None:
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from rayenc import (
        delete_rows,
        enrich_many,
        fsck_job,
        run_encode_job,
        update_rows,
    )
    from rayenc.manifest import Manifest
    from rayenc.corpus import write_corpus

    d = Path(tempfile.mkdtemp(prefix="rayenc_dmlbench_"))
    src = write_corpus(str(d / "c.parquet"), rows, row_group_size=50_000)
    src_gb = Path(src).stat().st_size / 1e9
    out = str(d / "job")
    t0 = time.perf_counter()
    s = run_encode_job(src, out)
    enc_s = time.perf_counter() - t0
    r = {"rows": rows, "source_gb": round(src_gb, 2),
         "partitions": s["partitions_total"], "encode_sec": round(enc_s, 1)}

    Manifest(out).snapshot(note="pre-DML")

    t0 = time.perf_counter()
    e = enrich_many(out, {"n_tok": "n_tokens", "q": "quality_score"})
    r["enrich_2col_sec"] = round(time.perf_counter() - t0, 1)
    r["enrich_partitions"] = e["partitions_enriched"]

    # narrow update: one language's rows get scrubbed in place
    t0 = time.perf_counter()
    u = update_rows(out, [("lang", "==", "go")],
                    scrub={"content": [(r"return ", "RETURN ")]})
    r["update_sec"] = round(time.perf_counter() - t0, 1)
    r["update_rows"] = u["rows_updated"]
    r["update_parts"] = f"{u['partitions_rewritten']}/{u['partitions_total']}"

    # narrow delete: one module directory in the middle of the (path-
    # sequential) corpus — zone maps must bound the rewrite to the few
    # partitions whose path ranges cover it
    import pyarrow.parquet as pq

    mid = pq.ParquetFile(src).read_row_group(
        pq.ParquetFile(src).metadata.num_row_groups // 2, columns=["path"]
    )["path"][0].as_py()
    prefix = mid.rsplit("/", 1)[0] + "/"
    r["delete_prefix"] = prefix
    t0 = time.perf_counter()
    dd = delete_rows(out, [("path", "prefix", prefix)])
    r["delete_sec"] = round(time.perf_counter() - t0, 1)
    r["delete_rows"] = dd["rows_deleted"]
    r["delete_parts"] = f"{dd['partitions_rewritten']}/{dd['partitions_total']}"

    t0 = time.perf_counter()
    fr = fsck_job(out)
    r["fsck_sec"] = round(time.perf_counter() - t0, 1)
    r["fsck_ok"] = fr["ok"]

    print(json.dumps(r))
    import shutil

    shutil.rmtree(d, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
