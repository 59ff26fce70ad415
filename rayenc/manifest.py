"""Checkpoint manifest: per-partition codec lineage, metrics, commit log.

The reference has no checkpointing — `process.sh` reprocesses everything
(/root/reference/scripts/process.sh:42-59); the north rule requires the
opposite: a resumable commit log. Design:

- one JSON file per committed partition under ``<root>/manifest/``,
  written atomically (tmp + rename) by the worker that finished the
  partition — the idempotent-sink pattern (write-temp -> rename/commit);
- an entry records the partition's input fingerprint (path + row-group
  range), row count, per-column codec choices + sizes + timings, the
  content chain hashes of its blocks, and the output file;
- resume = `committed_ids()` -> filter the partition plan; a partially
  written output without its manifest entry is invisible and re-done.

Works on any fsspec-free shared filesystem path (NFS / local); at real
cluster scale the root lives on shared storage.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


# Job-dir layout version, recorded in job.json (and the export record).
# 2 = full-path pids (round-2 fix: basename pids collided across
# directories; a resume under another scheme would re-encode everything
# under new pids beside the stale files, duplicating rows, ADVICE r2).
# 2 -> 3: pack_bits_z switched element-major -> plane-major bit packing
# (block magic RYB1 -> RYB2); a v2 dir would decode to silently wrong
# values wherever n%8 == 0.
# 3 -> 4: the layout floor. A v4 dir has, on every block, `row_start`,
# `partition_seq` and a `zonemap` whose float zones carry a NaN count;
# its job record holds every STRICT_JOB_KEYS key and stores 'in' filter
# values sorted. The code no longer tolerates the absence of any of
# these, so every job-dir entry point refuses any other version through
# check_format (Delta Lake's protocol-version rule: refuse an old table,
# never upgrade it in place).
FORMAT_VERSION = 4

# Job parameters that change WHICH ROWS a partition contains (or how they
# verify); resuming with a different value would mix rows from different
# predicates/projections in one block table (ADVICE r2).
# max_partition_bytes and the resolved input list are strict because they
# change the PARTITION PLAN itself: different row-group ranges hash to
# all-new partition ids (old committed {pid}.parquet files would sit
# beside the re-encoded ones — every row read twice), and a changed input
# list reuses partition_seq ordinals already committed under other files
# (decode_ordered would interleave rows at the tied sort keys).
# A v4 record holds every key; a missing one compares as None.
STRICT_JOB_KEYS = (
    "filter",
    "columns",
    "hash_column",
    "max_partition_bytes",
    "inputs",
    # within-partition row order: a resume under a different cluster key
    # would mix orderings across partitions (rows intact, the
    # decode_ordered contract broken)
    "cluster_by",
    # same order contract as cluster_by: lex vs zorder changes
    # within-partition row order (normalized to None when cluster_by is
    # None)
    "cluster_mode",
)


def check_format(record: dict, root) -> None:
    """Refuse a job or export record whose layout is not FORMAT_VERSION.
    The one gate of every job-dir entry point (encode resume, the DML and
    maintenance stages, fsck, and export: its source dir and its own
    record): an older dir lacks fields this code requires, and is
    re-encoded, never upgraded in place."""
    ver = record.get("format_version")
    if ver != FORMAT_VERSION:
        raise ValueError(
            f"{root} was written with format_version {ver}; this rayenc "
            f"reads and writes only format_version {FORMAT_VERSION} and "
            "refuses older (or newer) layouts — re-encode into a fresh out_root"
        )


class Manifest:
    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.dir = self.root / "manifest"

    def ensure(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)

    def entry_path(self, partition_id: str) -> Path:
        return self.dir / f"{partition_id}.json"

    def commit(self, entry: dict) -> None:
        """Atomic publish: a partition exists iff its manifest file does."""
        self.ensure()
        pid = entry["partition_id"]
        fd, tmp = tempfile.mkstemp(dir=self.dir, prefix=f".{pid}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(entry, f, separators=(",", ":"))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.entry_path(pid))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def job_record_path(self) -> Path:
        return self.root / "job.json"

    def job_record(self) -> dict | None:
        p = self.job_record_path()
        if not p.exists():
            return None
        with open(p) as f:
            return json.load(f)

    def check_job(self, params: dict, allow_input_growth: bool = False) -> None:
        """Gate a (re)run of this out_root: write the job record on first
        run; on resume, REFUSE a format-version mismatch (check_format)
        and a strict-parameter mismatch (a different filter/columns/hash would
        mix rows from different predicates into one block table). Raises
        ValueError with the offending keys.

        `allow_input_growth` (append mode): an `inputs` mismatch is
        accepted when the recorded list is a strict PREFIX of the new one
        — appended files plan to all-new partitions whose seq ordinals
        follow the committed ones, so every existing partition keeps its
        id, seq and bytes, and decode_ordered still reads inputs in list
        order. Any other inputs change (removal, reorder, insertion that
        sorts mid-list) still refuses: it would re-number committed
        ordinals."""
        rec = self.job_record()
        if rec is None:
            if self.committed_ids():
                raise ValueError(
                    f"out_root {self.root} has committed partitions but no job "
                    "record — written by an older rayenc partition-id scheme; "
                    "refusing to resume (re-encode into a fresh out_root)"
                )
            self._write_job_record(
                {"format_version": FORMAT_VERSION, "params": params}
            )
            return
        check_format(rec, self.root)
        old = rec.get("params", {})
        mismatched = {
            k: {"recorded": old.get(k), "requested": params.get(k)}
            for k in STRICT_JOB_KEYS
            if old.get(k) != params.get(k)
        }
        if allow_input_growth and set(mismatched) == {"inputs"}:
            old_in, new_in = old.get("inputs") or [], params.get("inputs") or []
            if len(new_in) > len(old_in) and new_in[: len(old_in)] == old_in:
                mismatched = {}
        if mismatched and self.committed_ids():
            raise ValueError(
                f"resume parameter mismatch for {self.root}: {mismatched} — "
                "committed partitions were encoded under the recorded values; "
                "rerunning with different ones would mix rows from different "
                "predicates/projections (use a fresh out_root)"
            )
        # zero committed partitions: nothing was encoded under the old
        # values, so a strict-param change is safe — rewrite rather than
        # permanently locking a root whose first run failed pre-commit
        # (round-4 self-review). Non-strict changes (level, enc_cap, ...)
        # on a real resume rewrite too, so job.json reflects how the
        # REMAINING partitions will be encoded; prior values are kept in
        # param_history for audit.
        if old != params:
            rec2 = {"format_version": FORMAT_VERSION, "params": params}
            history = list(rec.get("param_history", []))
            history.append(old)
            rec2["param_history"] = history
            self._write_job_record(rec2)

    def _write_job_record(self, record: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".job.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(record, f, separators=(",", ":"))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.job_record_path())
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def committed_ids(self) -> set[str]:
        if not self.dir.is_dir():
            return set()
        return {p.stem for p in self.dir.glob("*.json")}

    def entries(self) -> list[dict]:
        out = []
        if not self.dir.is_dir():
            return out
        for p in sorted(self.dir.glob("*.json")):
            with open(p) as f:
                e = json.load(f)
            # RELOCATION SAFETY: entries record the output path as written
            # by the encoding worker, but a job dir is a portable unit —
            # copied for an experiment, or the same shared-storage dir
            # mounted at a different prefix on another node. Rebase any
            # recorded path that points OUTSIDE this root onto this root,
            # UNCONDITIONALLY — not only when the local file exists: on a
            # truncated copy (blocks file missing here), following the
            # recorded path would let a mutation (delete/update/enrich/
            # compact) silently rewrite the ORIGINAL dir's files while
            # committing only the copy's manifest. Rebased-but-missing
            # files fail loudly downstream (FileNotFoundError, fsck
            # 'missing'), which is the correct verdict for a torn copy.
            rec = e.get("output")
            if rec:
                local = self.root / "blocks" / Path(rec).name
                if str(local) != rec:
                    e["output"] = str(local)
            out.append(e)
        return out

    def summary(self) -> dict:
        es = self.entries()
        src = sum(e.get("source_bytes", 0) for e in es)
        enc = sum(e.get("encoded_bytes", 0) for e in es)
        codec_counts: dict[str, int] = {}
        for e in es:
            for col, info in e.get("columns", {}).items():
                for codec, cnt in info.get("codecs", {}).items():
                    codec_counts[f"{col}:{codec}"] = (
                        codec_counts.get(f"{col}:{codec}", 0) + cnt
                    )
        return {
            "partitions": len(es),
            "rows": sum(e.get("rows", 0) for e in es),
            "blocks": sum(e.get("blocks", 0) for e in es),
            "source_bytes": src,
            "encoded_bytes": enc,
            "ratio": (enc / src) if src else None,
            "codec_counts": codec_counts,
        }

    # -------------------------------------------------------- snapshots
    #
    # A snapshot pins the SET of committed partitions (plus each one's
    # rewrite generation) at a point in time — the lakehouse read-as-of
    # primitive for append-mode ingestion: a training run records the
    # snapshot version it read, and a later rerun over the same version
    # sees byte-identical rows even though the job dir has since grown.
    # Append-only growth keeps every old snapshot readable forever
    # (partitions are immutable once committed; compaction preserves row
    # content so it does NOT bump the generation). Row-CHANGING rewrites
    # (delete_rows) bump the partition's `generation`, which invalidates
    # snapshots that pinned the old rows — read_blocks_at raises a named
    # error rather than silently serving post-delete data as-of.

    def snapshots_dir(self) -> Path:
        return self.root / "snapshots"

    def snapshot_versions(self) -> list[int]:
        d = self.snapshots_dir()
        if not d.is_dir():
            return []
        out = []
        for p in d.glob("v*.json"):
            try:
                out.append(int(p.stem[1:]))
            except ValueError:
                continue  # foreign file; not ours to interpret
        return sorted(out)

    def snapshot_record(self, version: int) -> dict:
        p = self.snapshots_dir() / f"v{int(version):06d}.json"
        if not p.exists():
            have = self.snapshot_versions()
            raise ValueError(
                f"no snapshot v{version} under {self.root} (have: {have})"
            )
        with open(p) as f:
            return json.load(f)

    def snapshot(self, note: str | None = None) -> dict:
        """Pin the current committed-partition set as the next snapshot
        version. O(partitions) metadata; no data is copied — immutable
        block files ARE the snapshot storage. Single-writer like the job
        record (the file is created O_EXCL, so two racing drivers get a
        loud FileExistsError, never a clobbered version)."""
        import time

        es = self.entries()
        versions = self.snapshot_versions()
        version = (versions[-1] + 1) if versions else 1
        rec = {
            "version": version,
            "format_version": FORMAT_VERSION,
            "created_unix": time.time(),
            "note": note,
            "partitions": {
                e["partition_id"]: int(e.get("generation", 0))
                for e in es
                if e.get("output")
            },
            "rows": sum(e.get("rows", 0) for e in es),
            "blocks": sum(e.get("blocks", 0) for e in es),
            "encoded_bytes": sum(e.get("encoded_bytes", 0) for e in es),
        }
        d = self.snapshots_dir()
        d.mkdir(parents=True, exist_ok=True)
        path = d / f"v{version:06d}.json"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(rec, f, separators=(",", ":"))
                f.flush()
                os.fsync(f.fileno())
        except BaseException:
            path.unlink(missing_ok=True)
            raise
        return rec
