"""Resumable encode job: partition plan -> encode -> atomic commit.

The full-lifecycle pipeline from SURVEY.md §3.4: plan partitions from
parquet metadata (file + row-group ranges — deterministic ids so a rerun
recognizes finished work), skip committed partitions, encode the rest
through the shared ``BlockEncoder`` core, write each partition's block
table atomically, commit a manifest entry per partition.

The work queue is a small Ray Dataset of partition descriptors (a
control-plane table, a few hundred bytes per row); the heavy data is
read inside the encode task with pyarrow, column-pruned, row-group at
a time, so one partition never materializes more than one row-group +
one encoded block. This is the deliberate exception documented in the
survey: resumability requires partition identity, which Ray's opaque
batch splitting does not expose — everything else stays in the pure
streaming path (rayenc.encode.encode_dataset).

Skew handling (north rule): partitions are bounded by row-group ranges
(`max_partition_bytes`), so a giant input file becomes many partitions;
within a partition, blocks are capped at `block_rows` rows AND
`max_block_bytes` of string payload, so one huge content blob cannot
stall a task or blow a worker heap.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from .encode import BlockEncoder, cluster_cpus
from .manifest import Manifest

DEFAULT_MAX_PARTITION_BYTES = 256 << 20
DEFAULT_MAX_BLOCK_BYTES = 64 << 20

CLUSTER_MODES = ("lex", "zorder")


def validate_cluster_mode(mode: str, cluster_by: list[str] | None) -> str:
    """`lex` = lexicographic multi-key sort (tight zones on the first
    key); `zorder` = Morton-curve interleave (bounded per-block range on
    EVERY cluster key — see rayenc.zorder). Validated here once so the
    driver (run_encode_job) and the stage (PartitionEncoder) agree."""
    if mode not in CLUSTER_MODES:
        raise ValueError(f"cluster_mode must be one of {CLUSTER_MODES}, got {mode!r}")
    if mode == "zorder" and (not cluster_by or len(cluster_by) < 2):
        raise ValueError(
            "cluster_mode='zorder' needs >= 2 cluster_by columns; a single "
            "key z-order is just a sort — use cluster_mode='lex'"
        )
    return mode


def _width_or(t, default: int) -> int:
    try:
        return max(t.byte_width, 1)
    except (ValueError, AttributeError):
        return default


def _rg_zone(
    md_rg, col_idx: dict[str, int], columns: list[str], col_types: dict | None = None
) -> dict:
    """Parquet row-group statistics -> the zone-map dict shape that
    rayenc.decode.zone_may_match consumes. Timestamp stats convert via
    pa.scalar in the COLUMN'S OWN unit with naive-as-UTC semantics —
    datetime.timestamp() would shift bounds by the machine's UTC offset
    and hardcode µs, silently pruning row groups that match (round-2
    review finding, reproduced under TZ=America/New_York)."""
    import datetime

    zone: dict = {}
    for col in columns:
        i = col_idx.get(col)
        if i is None:
            continue
        st = md_rg.column(i).statistics
        if st is None or not st.has_min_max:
            continue
        lo, hi = st.min, st.max
        if isinstance(lo, datetime.datetime):
            t = (col_types or {}).get(col)
            if t is None or not pa.types.is_timestamp(t):
                continue  # unknown unit: don't prune
            lo = pa.scalar(lo.replace(tzinfo=None), type=pa.timestamp(t.unit)).value
            hi = pa.scalar(hi.replace(tzinfo=None), type=pa.timestamp(t.unit)).value
        if isinstance(lo, bytes):
            continue  # undecoded physical bytes: don't prune
        zone[col] = {"min": lo, "max": hi, "null_count": int(st.null_count or 0)}
    return zone


def resolve_input_paths(input_paths: list[str] | str) -> list[str]:
    """Expand the job's input spec to the concrete parquet file list.
    Directories expand for list elements too (round-4 self-review: the
    list form used to treat a directory as a literal file and crash
    inside pq.ParquetFile with no hint). This resolved list IS the job's
    input identity: it is recorded in the job record and strict-checked
    on resume, because partition_seq ordinals are plan-order — resuming
    with added/reordered inputs would reuse ordinals already committed
    under other files and corrupt the reconstructible total order."""
    if isinstance(input_paths, str):
        input_paths = [input_paths]
    paths: list[str] = []
    for raw in input_paths:
        p = Path(raw)
        paths.extend(
            sorted(str(q) for q in p.glob("*.parquet")) if p.is_dir() else [str(p)]
        )
    return paths


def plan_partitions(
    input_paths: list[str] | str,
    max_partition_bytes: int = DEFAULT_MAX_PARTITION_BYTES,
    filter: list | None = None,
    require_cols: list[str] | None = None,
) -> list[dict]:
    """Metadata-only scan: split every input file into row-group ranges
    of ~max_partition_bytes uncompressed, each a deterministic partition.

    `filter` ((col, op, value) conjunctions, the decode-side predicate
    shape) prunes whole ROW-GROUPS whose parquet statistics prove empty
    — the prune-at-the-read rule applied to the job planner, mirroring
    the reference's stats-granularity axis at its chunk level. Partition
    ids stay a pure function of (path, rg range), so a filtered plan's
    partitions match the unfiltered plan's ids for the ranges kept."""
    from .decode import zone_may_match

    paths = resolve_input_paths(input_paths)
    fcols = [c for c, _, _ in filter] if filter else []
    parts: list[dict] = []
    for path in paths:
        pf = pq.ParquetFile(path)
        md = pf.metadata
        col_idx = {md.schema.column(i).name: i for i in range(md.num_columns)}
        arrow_schema = pf.schema_arrow
        col_types = {f.name: f.type for f in arrow_schema}
        missing = [c for c in fcols if c not in col_types]
        if missing:
            # validate EVERY file at plan time (round-4 self-review: the
            # driver guard only probed the first file, so schema drift
            # crashed inside an encode actor hours into the job)
            raise ValueError(
                f"filter column(s) {missing} not in the schema of {path}; "
                "all input files must carry the filter columns"
            )
        missing = [c for c in (require_cols or []) if c not in col_types]
        if missing:
            # cluster_by columns ride the same per-file scan (no second
            # metadata pass over the input list)
            raise ValueError(
                f"cluster_by column(s) {missing} not in the schema of "
                f"{path}; all input files must carry them"
            )
        n_rg = md.num_row_groups
        start = 0
        acc = 0

        def flush(rg_end: int, acc: int) -> None:
            # full path in the id: two inputs named part-00000.parquet
            # in different directories must NOT collide (a collision
            # silently overwrites one partition's blocks and marks the
            # other committed on resume)
            pid = hashlib.sha256(f"{path}:{start}-{rg_end}".encode()).hexdigest()[:16]
            parts.append(
                {
                    "partition_id": pid,
                    "partition_seq": len(parts),  # plan-order ordinal
                    "path": path,
                    "rg_start": start,
                    "rg_end": rg_end,  # inclusive
                    "est_bytes": acc,
                }
            )

        for rg in range(n_rg):
            if filter and not zone_may_match(
                _rg_zone(md.row_group(rg), col_idx, fcols, col_types), filter
            ):
                # flush the open range, then skip this row-group entirely
                if acc > 0:
                    flush(rg - 1, acc)
                start = rg + 1
                acc = 0
                continue
            acc += md.row_group(rg).total_byte_size
            if acc >= max_partition_bytes or rg == n_rg - 1:
                flush(rg, acc)
                start = rg + 1
                acc = 0
    return parts


def iter_blocks(table: pa.Table, block_rows: int, max_block_bytes: int):
    """Split a row-group table into encode blocks bounded by rows AND
    bytes — byte-accurate per row, so one megabyte blob among small
    rows still closes its block at the cap instead of hiding behind
    an average (the reference's one-batch-per-file simplification,
    /root/reference/src/bin/js2pq/main.rs:119, is exactly the failure
    mode this avoids). Module-level so both encoder classes share one
    copy (round-4 self-review: OrderedStreamEncoder used to borrow the
    method unbound with a foreign self)."""
    import numpy as np
    import pyarrow.compute as pc

    n = table.num_rows
    if n == 0:
        return

    def _var_lens(col) -> "np.ndarray":
        return (
            pc.fill_null(pc.binary_length(col.cast(pa.large_binary())), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )

    def _row_sizes(ca) -> "np.ndarray":
        """Per-row payload bytes, recursing through EVERY nesting level —
        a megabyte string inside a struct, map or fixed-size list must
        count (round-4 reviews, twice: first the 8-bytes-per-element list
        estimate, then a flat 8-bytes-per-row fallback for struct and
        fixed_size_list, each let one giant blob blow past
        max_block_bytes unnoticed — the stall/OOM this cap exists to
        stop)."""
        if isinstance(ca, pa.ChunkedArray):
            ca = ca.combine_chunks()
        t = ca.type
        if (
            pa.types.is_string(t)
            or pa.types.is_large_string(t)
            or pa.types.is_binary(t)
            or pa.types.is_large_binary(t)
        ):
            return _var_lens(ca)
        if pa.types.is_map(t):
            # measure a map by its physical layout: list of entry structs
            ca = ca.cast(
                pa.list_(
                    pa.struct(
                        [
                            pa.field("key", t.key_type, nullable=False),
                            pa.field("value", t.item_type),
                        ]
                    )
                )
            )
            t = ca.type
        if pa.types.is_list(t) or pa.types.is_large_list(t):
            counts = (
                pc.fill_null(pc.list_value_length(ca), 0)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            inner = _row_sizes(pc.list_flatten(ca))
            c_in = np.concatenate(([0], np.cumsum(inner)))
            ends = np.cumsum(counts)
            return c_in[ends] - c_in[ends - counts]
        if pa.types.is_fixed_size_list(t):
            size = t.list_size
            # .values covers every slot of the UNSLICED child (incl. slots
            # under null rows) — window it to this array's offset/length
            inner = _row_sizes(ca.values.slice(ca.offset * size, len(ca) * size))
            return inner.reshape(len(ca), size).sum(axis=1)
        if pa.types.is_struct(t):
            out = np.zeros(len(ca), dtype=np.int64)
            for j in range(t.num_fields):
                out += _row_sizes(ca.field(j))
            return out
        return np.full(len(ca), _width_or(t, 8), dtype=np.int64)

    row_bytes = np.zeros(n, dtype=np.int64)
    for name in table.column_names:
        row_bytes += _row_sizes(table[name])
    cum = np.cumsum(row_bytes)
    pos = 0
    while pos < n:
        base = cum[pos - 1] if pos else 0
        # furthest row index keeping the block under the byte cap
        hi = int(np.searchsorted(cum, base + max_block_bytes, side="right"))
        step = max(1, min(block_rows, hi - pos))
        yield table.slice(pos, step)
        pos += step


def _encoder_from_params(params: dict, **overrides) -> BlockEncoder:
    """ONE params->BlockEncoder mapping for every rewrite stage
    (compaction, delete, update, enrich): each job-record codec/metadata
    knob must survive an in-place rewrite (a missed knob silently
    re-encodes with a default — e.g. KLL sketches stripped, an archive
    job re-encoded at the default tier). `overrides` pins the few
    per-stage differences (enrich: hash_column=None, forced_codecs=None)."""
    kwargs = dict(
        columns=None,  # the decoded table already honors the job's projection
        level=int(params.get("level", 3)),
        hash_column=params.get("hash_column"),
        stats=params.get("stats", "block"),
        page_rows=params.get("page_rows"),
        decode_weight=float(params.get("decode_weight", 0.0)),
        enc_cap=params.get("enc_cap"),
        forced_codecs=params.get("forced_codecs"),
        hll=bool(params.get("hll", False)),
        hll_b=int(params.get("hll_b", 10)),
        kll=bool(params.get("kll", False)),
        kll_k=int(params.get("kll_k", 128)),
        archive=bool(params.get("archive", False)),
        ngram=bool(params.get("ngram", False)),
        ngram_n=int(params.get("ngram_n", 3)),
    )
    kwargs.update(overrides)
    return BlockEncoder(**kwargs)


def _chaos_die_once(chaos_dir: str, pid: str) -> None:
    """Fault-injection hook (chaos tests): hard-exit the task worker
    process the FIRST time each partition reaches the caller's crash
    point. Ray's task retry reruns the partition on another worker; an
    O_EXCL flag file claims the death atomically, so the retried attempt
    (and any concurrent duplicate) sails through. ``os._exit``
    bypasses every exception handler and finalizer on purpose — this
    models a node loss, not an error path. Exercised by
    tests/test_chaos.py; never set in production jobs."""
    flag = Path(chaos_dir) / (
        hashlib.sha256(pid.encode()).hexdigest()[:16] + ".died"
    )
    try:
        fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(1)


def _file_fields(blocks: pa.Table | None) -> dict:
    """The manifest entry fields a partition's blocks file determines.
    ``None`` is the empty partition that publishes no file."""
    if blocks is None:
        return {"rows": 0, "blocks": 0, "encoded_bytes": 0, "block_hashes": []}
    return {
        "rows": int(pc.sum(blocks["n_rows"]).as_py() or 0),
        "blocks": blocks.num_rows,
        "encoded_bytes": int(pc.sum(blocks["encoded_bytes"]).as_py() or 0),
        "block_hashes": blocks["content_sha256"].to_pylist(),
    }


def _entry_drift(entry: dict, got: dict) -> list[str]:
    """Each way a manifest entry disagrees with its file's `_file_fields`
    (empty when they agree)."""
    pid = entry["partition_id"]
    errs = [
        f"{pid}: {got[k]} {k.replace('_', ' ')} in file, {entry.get(k)} in manifest"
        for k in ("blocks", "rows", "encoded_bytes")
        if got[k] != entry.get(k)
    ]
    if sorted(got["block_hashes"]) != sorted(entry.get("block_hashes", [])):
        errs.append(f"{pid}: per-block sha256 chain list disagrees")
    return errs


def _column_summaries(blocks: pa.Table, names=None) -> dict:
    """Fold the blocks' per-column lineage JSON into the entry's
    ``columns`` summaries (codec counts, bytes, encode ms), optionally
    only for `names`."""
    out: dict[str, dict] = {}
    for s in blocks["lineage"].to_pylist():
        for col, info in json.loads(s or "{}").items():
            if names is not None and col not in names:
                continue
            cs = out.setdefault(
                col, {"codecs": {}, "src_bytes": 0, "enc_bytes": 0, "ms": 0.0}
            )
            cs["codecs"][info["codec"]] = cs["codecs"].get(info["codec"], 0) + 1
            cs["src_bytes"] += info["src_bytes"]
            cs["enc_bytes"] += info["enc_bytes"]
            cs["ms"] = round(cs["ms"] + info["ms"], 3)
    return out


def _commit_entry(manifest: Manifest, entry: dict, blocks: pa.Table | None,
                  **fields) -> dict:
    """Entry rebuild + commit: `entry` with its file-derived fields
    re-read from `blocks` and `fields` laid over it."""
    new_entry = {**entry, **_file_fields(blocks), **fields}
    manifest.commit(new_entry)
    return new_entry


def _publish(manifest: Manifest, entry: dict, blocks: pa.Table | None,
             chaos_dir: str | None = None, t0: float | None = None,
             **fields) -> dict:
    """The one publish path of ``blocks/<pid>.parquet``: stage-write ->
    atomic os.replace -> chaos hook -> entry rebuild -> manifest commit.
    An entry whose ``output`` is None (a partition the row filter
    emptied) commits with no file, so resume still recognizes it as
    done. `t0` stamps the entry's ``wall_s`` at the commit."""
    if entry.get("output"):
        out_file = Path(entry["output"])
        tmp = _tmp_path(out_file)
        # blocks are already compressed; don't pay zstd twice
        pq.write_table(blocks, tmp, compression="none")
        os.replace(tmp, out_file)  # atomic: readers see old or new, never half
        if chaos_dir:
            # crash window under test: file published, manifest commit
            # absent — the retry must re-publish idempotently (encode),
            # reconcile from the file (delete/update; never re-apply) or
            # take the commit-finish path (enrich; never append twice)
            _chaos_die_once(chaos_dir, entry["partition_id"])
    if t0 is not None:
        fields["wall_s"] = round(time.perf_counter() - t0, 3)
    return _commit_entry(manifest, entry, blocks, **fields)


def _encode_blocks(core: BlockEncoder, tables, block_rows: int,
                   max_block_bytes: int, pid: str, pseq: int) -> pa.Table | None:
    """Block and encode a partition's tables in order: block_seq and
    row_start count from 0. None when there are no rows."""
    out: list[pa.Table] = []
    rows = 0
    for t in tables:
        for block in iter_blocks(t, block_rows, max_block_bytes):
            out.append(core.encode_table(block, block_seq=len(out), partition_id=pid,
                                         partition_seq=pseq, row_start=rows))
            rows += block.num_rows
    return pa.concat_tables(out) if out else None


def _row_starts(n_rows) -> pa.Array:
    """Exclusive cumsum of per-block row counts: each block's row_start."""
    nr = n_rows.to_numpy(zero_copy_only=False).astype(np.int64)
    rs = np.zeros(len(nr), dtype=np.int64)
    np.cumsum(nr[:-1], out=rs[1:])
    return pa.array(rs, pa.int64())


def _job_entries(out_root: str) -> tuple[Manifest, dict, list[dict]]:
    """Job-record gate of every stage that rewrites a committed dir: the
    manifest, the recorded params and the committed non-empty entries."""
    manifest = Manifest(out_root)
    rec = manifest.job_record()
    if rec is None:
        raise ValueError(f"{out_root} has no job record; not an encode-job dir")
    entries = [e for e in manifest.entries() if e.get("output") and e.get("rows")]
    return manifest, rec.get("params", {}), entries


# The stage of the operation this worker process last served:
# op token -> stage object. One slot, so a new operation's token evicts
# the previous operation's stage.
_STAGE_SLOT: dict = {}


def _run_stage(batch: pa.Table, stage_class: type, ctor_kwargs: dict,
               op_token: str) -> pa.Table:
    """Ray Data task body of `_map_partitions`. A worker builds the
    operation's stage on the first partition it receives and reuses it
    for every later partition of that operation it gets, so the stage's
    setup and its encoder's codec cache carry across partitions."""
    stage = _STAGE_SLOT.get(op_token)
    if stage is None:
        # built before the old stage is dropped, so a new stage never
        # reuses the previous operation's object id
        stage = stage_class(**ctor_kwargs)
        _STAGE_SLOT.clear()
        _STAGE_SLOT[op_token] = stage
    return stage(batch)


def _map_partitions(stage_class: type, items: list, concurrency, **ctor) -> list[dict]:
    """Run a `_PartitionStage` over `items` (partition descriptors,
    manifest entries or partition ids), one partition per Ray Data task.
    Task workers outlive the call, so later operations find rayenc
    already imported. At most `concurrency` partitions run at once (a
    tuple's upper bound); the default leaves two CPUs to the rest of the
    cluster, and the cap never exceeds the partition count. Items ride as
    JSON strings: their nested per-column/lineage dicts vary in shape
    across partitions (post-delete entries carry keys fresh ones lack),
    which a columnar from_items block can't represent uniformly."""
    if concurrency is None:
        concurrency = max(2, cluster_cpus() - 2)
    elif isinstance(concurrency, tuple):
        concurrency = concurrency[1]
    return (
        ray.data.from_items([{"item": json.dumps(x)} for x in items],
                            override_num_blocks=len(items))
        .map_batches(
            _run_stage,
            fn_kwargs={"stage_class": stage_class, "ctor_kwargs": ctor,
                       "op_token": secrets.token_hex(16)},
            batch_format="pyarrow",
            batch_size=1,
            concurrency=min(int(concurrency), len(items)),
            zero_copy_batch=True,
        )
        .take_all()  # control-plane rows: one per partition, tiny
    )


class _PartitionStage:
    """Base of the stages `_map_partitions` drives: `_run` turns one
    partition's item into its result row."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.Table.from_pylist(
            [self._run(json.loads(r["item"])) for r in batch.to_pylist()]
        )


class PartitionEncoder(_PartitionStage):
    """Partition stage of run_encode_job: one partition descriptor in ->
    one committed partition out (blocks parquet + manifest entry)."""

    def __init__(
        self,
        out_root: str,
        columns: list[str] | None,
        level: int,
        block_rows: int,
        max_block_bytes: int,
        hash_column: str | None,
        row_filter: list | None = None,
        stats: str = "block",
        page_rows: int | None = None,
        decode_weight: float = 0.0,
        enc_cap: float | None = None,
        forced_codecs: dict | None = None,
        hll: bool = False,
        hll_b: int = 10,
        archive: bool = False,
        cluster_by: list[str] | None = None,
        cluster_mode: str = "lex",
        kll: bool = False,
        kll_k: int = 128,
        ngram: bool = False,
        ngram_n: int = 3,
        chaos_dir: str | None = None,
    ):
        self.out_root = Path(out_root)
        self.chaos_dir = chaos_dir
        self.blocks_dir = self.out_root / "blocks"
        self.blocks_dir.mkdir(parents=True, exist_ok=True)
        self.manifest = Manifest(out_root)
        self.core = BlockEncoder(
            columns=columns,
            level=level,
            hash_column=hash_column,
            stats=stats,
            page_rows=page_rows,
            decode_weight=decode_weight,
            enc_cap=enc_cap,
            forced_codecs=forced_codecs,
            hll=hll,
            hll_b=hll_b,
            archive=archive,
            kll=kll,
            kll_k=kll_k,
            ngram=ngram,
            ngram_n=ngram_n,
        )
        self.columns = columns
        self.block_rows = block_rows
        self.max_block_bytes = max_block_bytes
        self.row_filter = row_filter
        self.cluster_by = list(cluster_by) if cluster_by else None
        self.cluster_mode = validate_cluster_mode(cluster_mode, self.cluster_by)

    def _run(self, part: dict) -> dict:
        t0 = time.perf_counter()
        pid = part["partition_id"]
        pf = pq.ParquetFile(part["path"])
        # filter columns must be READ even when projected out of the
        # encode set (round-3 review: a filter on a pruned column
        # KeyError'd inside the actor); widen the read, filter, then
        # drop the extras so the encoded schema honors `columns`
        read_cols = self.columns
        if self.columns:
            extra = [c for c, _, _ in (self.row_filter or []) if c not in self.columns]
            extra += [c for c in (self.cluster_by or []) if c not in self.columns]
            if extra:
                read_cols = self.columns + sorted(set(extra))

        def _rg_tables():
            """Row-group tables, filtered and projected. cluster_by
            concatenates the partition and SORTS it before blocking —
            within-partition zones become tight and disjoint on the
            cluster key, so range scans over an unsorted source prune at
            block granularity. Memory: the whole partition's rows live in
            the task at once (<= max_partition_bytes source bytes, the
            same per-task ceiling PartitionExporter works to) instead of
            one row-group; that is the price of the layout choice."""
            for rg in range(part["rg_start"], part["rg_end"] + 1):
                rg_table = pf.read_row_group(rg, columns=read_cols)
                if self.row_filter:
                    from .decode import filter_table

                    rg_table = filter_table(rg_table, self.row_filter)
                if read_cols is not self.columns and self.columns:
                    rg_table = rg_table.select(self.columns + sorted(
                        {c for c in (self.cluster_by or []) if c not in self.columns}
                    ))
                yield rg_table
            # NOTE: when columns is set and cluster_by names a projected-out
            # column, it is kept through the sort and dropped below.

        if self.cluster_by:
            whole = pa.concat_tables(_rg_tables())
            missing = [c for c in self.cluster_by if c not in whole.column_names]
            if missing:
                raise ValueError(
                    f"cluster_by column(s) {missing} not in the input schema "
                    f"of {part['path']}"
                )
            if self.cluster_mode == "zorder":
                from .zorder import zorder_sort_indices

                whole = whole.take(pa.array(zorder_sort_indices(whole, self.cluster_by)))
            else:
                whole = whole.sort_by([(c, "ascending") for c in self.cluster_by])
            if self.columns:
                whole = whole.select(self.columns)
            tables = [whole]
        else:
            tables = _rg_tables()
        blocks = _encode_blocks(self.core, tables, self.block_rows, self.max_block_bytes,
                                pid, int(part.get("partition_seq", 0)))
        entry = _publish(
            self.manifest,
            {
                "partition_id": pid,
                "input": {k: part[k] for k in ("path", "rg_start", "rg_end")},
                "source_bytes": int(pc.sum(blocks["source_bytes"]).as_py()) if blocks else 0,
                "columns": _column_summaries(blocks) if blocks else {},
                "output": str(self.blocks_dir / f"{pid}.parquet") if blocks else None,
            },
            blocks,
            self.chaos_dir,
            t0=t0,
        )
        keys = ("partition_id", "rows", "blocks", "source_bytes", "encoded_bytes", "wall_s")
        return {**{k: entry[k] for k in keys}, "skipped": False}


class OrderedStreamEncoder:
    """Actor-pool stage for the ORDERED streaming path: partition
    descriptor rows in -> encoded block rows out (no sink, no manifest —
    pure streaming). Because each block carries its plan ordinal
    (partition_seq, block_seq), the output has a reconstructible total
    order even though Ray schedules partitions arbitrarily — closing the
    round-1 hole where encode_dataset blocks all carried seq 0
    (the reference preserves order implicitly on its single-threaded
    path, /root/reference/src/vec_pq_reader.rs:828-831)."""

    def __init__(
        self,
        columns: list[str] | None,
        level: int,
        block_rows: int,
        max_block_bytes: int,
        hash_column: str | None,
        stats: str = "block",
        page_rows: int | None = None,
        decode_weight: float = 0.0,
        enc_cap: float | None = None,
        forced_codecs: dict | None = None,
    ):
        self.core = BlockEncoder(
            columns=columns,
            level=level,
            hash_column=hash_column,
            stats=stats,
            page_rows=page_rows,
            decode_weight=decode_weight,
            enc_cap=enc_cap,
            forced_codecs=forced_codecs,
        )
        self.columns = columns
        self.block_rows = block_rows
        self.max_block_bytes = max_block_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: list[pa.Table] = []
        last_table: pa.Table | None = None
        for part in batch.to_pylist():
            pf = pq.ParquetFile(part["path"])
            seq = 0
            row_off = 0
            for rg in range(part["rg_start"], part["rg_end"] + 1):
                rg_table = pf.read_row_group(rg, columns=self.columns)
                last_table = rg_table
                for block in iter_blocks(
                    rg_table, self.block_rows, self.max_block_bytes
                ):
                    out.append(
                        self.core.encode_table(
                            block,
                            block_seq=seq,
                            partition_id=part["partition_id"],
                            partition_seq=int(part["partition_seq"]),
                            row_start=row_off,
                        )
                    )
                    row_off += block.num_rows
                    seq += 1
        if not out:
            # zero-row partitions (empty shards from distributed writers):
            # return a 0-ROW table with the block schema instead of letting
            # concat_tables([]) kill the actor (same class of bug as the
            # round-1 BlockDecoder empty-batch fix)
            if last_table is None:
                return pa.table({})
            # row_start=0 keeps the empty block's schema identical to the
            # non-empty ones (a missing column on empty outputs is the
            # exact schema-degeneration flake class fixed in round 3)
            return self.core.encode_table(
                last_table.slice(0, 0), row_start=0
            ).slice(0, 0)
        return pa.concat_tables(out)


def encode_dataset_ordered(
    input_paths: list[str] | str,
    columns: list[str] | None = None,
    level: int = 3,
    block_rows: int = 8192,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
    max_partition_bytes: int = DEFAULT_MAX_PARTITION_BYTES,
    hash_column: str | None = "content",
    concurrency: int | tuple[int, int] | None = None,
    stats: str = "block",
    page_rows: int | None = None,
    decode_weight: float = 0.0,
    enc_cap: float | None = None,
    forced_codecs: dict | None = None,
) -> "ray.data.Dataset":
    """Streaming encode with TOTAL ORDER: plan partitions from parquet
    metadata (deterministic ordinals), fan the descriptor table out over
    an actor pool that reads + encodes its own row-groups. Use
    decode_ordered / attach_global_row_numbers on the result."""
    if concurrency is None:
        concurrency = (1, max(2, cluster_cpus() - 2))
    parts = plan_partitions(input_paths, max_partition_bytes)
    ds = ray.data.from_items(parts)
    return ds.map_batches(
        OrderedStreamEncoder,
        fn_constructor_kwargs={
            "columns": columns,
            "level": level,
            "block_rows": block_rows,
            "max_block_bytes": max_block_bytes,
            "hash_column": hash_column,
            "stats": stats,
            "page_rows": page_rows,
            "decode_weight": decode_weight,
            "enc_cap": enc_cap,
            "forced_codecs": forced_codecs,
        },
        batch_format="pyarrow",
        batch_size=1,
        concurrency=concurrency,
    )


def _jsonable_predicate(p) -> list:
    """(col, op, value) -> the JSON form the job/export records store and
    compare on resume. 'in' values may arrive as tuple/set (both accepted
    by validate_predicate_shapes): a set is unordered AND unserializable
    (json.dump raises), a tuple round-trips to a list and then fails the
    equality check on resume — normalize to a sorted list so identical
    filters always compare equal across runs."""
    col, op, val = p
    if op == "in" and isinstance(val, (set, frozenset, tuple, list)):
        # membership is order-insensitive: sort so {a,b}, (b,a) and
        # [a,b] all record identically
        try:
            val = sorted(val)
        except TypeError:  # mixed types: any deterministic order works
            val = sorted(val, key=repr)
    elif isinstance(val, tuple):
        val = list(val)
    return [col, op, val]


def job_params(
    columns: list[str] | None = None,
    level: int = 3,
    block_rows: int = 8192,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
    max_partition_bytes: int = DEFAULT_MAX_PARTITION_BYTES,
    hash_column: str | None = "content",
    filter: list | None = None,
    stats: str = "block",
    page_rows: int | None = None,
    decode_weight: float = 0.0,
    enc_cap: float | None = None,
    forced_codecs: dict | None = None,
    inputs: list[str] | None = None,
    hll: bool = False,
    hll_b: int = 10,
    archive: bool = False,
    cluster_by: list[str] | None = None,
    cluster_mode: str = "lex",
    kll: bool = False,
    kll_k: int = 128,
    ngram: bool = False,
    ngram_n: int = 3,
) -> dict:
    """Canonical job-record parameter dict (JSON-normalized) — the shape
    Manifest.check_job records and compares on resume. `inputs` is the
    RESOLVED parquet file list (resolve_input_paths), the job's input
    identity."""
    return {
        "filter": [_jsonable_predicate(p) for p in filter] if filter else None,
        "columns": list(columns) if columns else None,
        "hash_column": hash_column,
        "inputs": list(inputs) if inputs else None,
        "block_rows": block_rows,
        "level": level,
        "stats": stats,
        "page_rows": page_rows,
        "decode_weight": decode_weight,
        "enc_cap": enc_cap,
        "forced_codecs": (
            dict(sorted(forced_codecs.items())) if forced_codecs else None
        ),
        "max_block_bytes": max_block_bytes,
        "max_partition_bytes": max_partition_bytes,
        # hll is NOT a strict resume key: sketches are additive metadata
        # (agg_approx_distinct names the blocks that lack one), unlike
        # filter/columns/inputs whose drift corrupts the data itself
        "hll": bool(hll),
        "hll_b": int(hll_b),
        # kll mirrors hll: additive metadata, not a strict resume key
        "kll": bool(kll),
        "kll_k": int(kll_k),
        # ngram mirrors hll: additive metadata (blocks without a filter
        # simply never prune a 'contains' probe), not a strict resume key
        "ngram": bool(ngram),
        "ngram_n": int(ngram_n),
        # archive is a codec-choice knob like level/enc_cap, not a strict
        # resume key: mixing tiers across resumes changes sizes, never rows
        "archive": bool(archive),
        # cluster_by IS strict: it changes within-partition row order, so
        # resuming with a different key would give decode_ordered a mix of
        # orderings across partitions (rows intact, order contract broken)
        "cluster_by": list(cluster_by) if cluster_by else None,
        # strict like cluster_by, and for the same reason; normalized to
        # None when no clustering is requested so pre-existing unclustered
        # records never see a phantom "lex" mismatch
        "cluster_mode": cluster_mode if cluster_by else None,
    }


def run_encode_job(
    input_paths: list[str] | str,
    out_root: str,
    columns: list[str] | None = None,
    level: int = 3,
    block_rows: int = 8192,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
    max_partition_bytes: int = DEFAULT_MAX_PARTITION_BYTES,
    hash_column: str | None = "content",
    concurrency: int | tuple[int, int] | None = None,
    filter: list | None = None,
    stats: str = "block",
    page_rows: int | None = None,
    decode_weight: float = 0.0,
    enc_cap: float | None = None,
    forced_codecs: dict | None = None,
    hll: bool = False,
    hll_b: int = 10,
    archive: bool = False,
    cluster_by: list[str] | None = None,
    cluster_mode: str = "lex",
    append: bool = False,
    kll: bool = False,
    kll_k: int = 128,
    ngram: bool = False,
    ngram_n: int = 3,
    chaos_dir: str | None = None,
) -> dict:
    """Resumable distributed encode. Returns a job summary dict.

    `chaos_dir` is a fault-injection hook for tests ONLY: when set, the
    first attempt at each partition hard-exits its task worker right
    after publishing the blocks parquet and before the manifest commit
    (the worst crash window); Ray's task retry reruns the partition.
    It changes no rows and is deliberately NOT part of the job record.

    `append=True` is incremental ingestion: the input list may GROW
    across runs (the recorded list must be a prefix of the new one —
    name increments so they sort after existing files, e.g. dated
    shards). Existing partitions keep their ids/ordinals and are
    skipped; only the appended files encode. Removal/reorder still
    refuses — it would re-number committed ordinals.

    `cluster_by` sorts each partition's rows by the given columns before
    blocking, so within-partition block/page zones are tight and disjoint
    on the cluster key — range scans over an unsorted source then prune
    at block granularity instead of decoding everything. The trade:
    decode_ordered reproduces CLUSTERED order, not source order, and each
    encode task holds one whole partition (<= max_partition_bytes source
    bytes) instead of one row-group. Strict resume key.

    `cluster_mode` picks the within-partition order: "lex" (default)
    sorts lexicographically — tight zones on the FIRST key; "zorder"
    orders along a Morton curve over quantile ranks (rayenc.zorder) —
    bounded per-block zones on EVERY cluster key, for workloads that
    filter on any of several columns. Strict resume key (same order
    contract as cluster_by).

    Rerun-safe: partitions already in the manifest are skipped before any
    data is read (kill-and-rerun covered by tests/test_resume.py). The
    out_root carries a job record (format version + parameters); resuming
    with a different filter/columns/hash_column — or into a root written
    by an older partition-id scheme — raises instead of silently mixing
    rows from different predicates (ADVICE r2).

    `filter` ((col, op, value) conjunctions) encodes only matching rows:
    row-groups proven empty by parquet statistics are skipped at PLAN
    time (never read), and the exact row filter runs on each row-group
    table before blocking."""
    validate_cluster_mode(cluster_mode, cluster_by)
    if filter:
        # fail fast on the driver (same class as decode.validate_predicates):
        # an unknown op or missing column would otherwise die inside an
        # encode task mid-partition
        from .decode import validate_predicate_shapes

        if any(
            isinstance(p, (list, tuple)) and p and not isinstance(p[0], str)
            for p in filter
        ):
            raise ValueError(
                "encode-job filter must be a flat (col, op, value) "
                "conjunction; DNF (OR-of-ANDs) filters are decode-side "
                "only (decode_dataset)"
            )
        schema_names: set[str] = set()
        probe = (
            input_paths
            if isinstance(input_paths, str)
            else (input_paths[0] if input_paths else None)
        )
        if probe is not None:
            pp = Path(probe)
            first = (sorted(pp.glob("*.parquet")) or [pp])[0] if pp.is_dir() else pp
            try:
                schema_names = set(pq.read_schema(str(first)).names)
            except Exception:
                pass  # unreadable yet: the planner will raise with context
        validate_predicate_shapes(filter, schema_names, "input schema")
    resolved = resolve_input_paths(input_paths)
    # plan BEFORE the job-record gate: planning validates every file's
    # schema (filter + cluster_by columns), and a validation failure must
    # not have rewritten the record first — an append run that updated
    # the recorded inputs and then raised would wedge the retry (the
    # shrunk list is no longer prefix-growth)
    parts = plan_partitions(
        resolved, max_partition_bytes, filter=filter, require_cols=cluster_by
    )
    manifest = Manifest(out_root)
    manifest.check_job(
        job_params(
            columns=columns,
            level=level,
            block_rows=block_rows,
            max_block_bytes=max_block_bytes,
            max_partition_bytes=max_partition_bytes,
            hash_column=hash_column,
            filter=filter,
            stats=stats,
            page_rows=page_rows,
            decode_weight=decode_weight,
            enc_cap=enc_cap,
            forced_codecs=forced_codecs,
            inputs=resolved,
            hll=hll,
            hll_b=hll_b,
            archive=archive,
            cluster_by=cluster_by,
            cluster_mode=cluster_mode,
            kll=kll,
            kll_k=kll_k,
            ngram=ngram,
            ngram_n=ngram_n,
        ),
        allow_input_growth=append,
    )
    committed = manifest.committed_ids()
    pending = [p for p in parts if p["partition_id"] not in committed]
    summary = {
        "partitions_total": len(parts),
        "partitions_skipped": len(parts) - len(pending),
        "partitions_encoded": 0,
        "rows": 0,
        "source_bytes": 0,
        "encoded_bytes": 0,
    }
    if pending:
        results = _map_partitions(
            PartitionEncoder,
            pending,
            concurrency,
            out_root=out_root,
            columns=columns,
            level=level,
            block_rows=block_rows,
            max_block_bytes=max_block_bytes,
            hash_column=hash_column,
            row_filter=filter,
            stats=stats,
            page_rows=page_rows,
            decode_weight=decode_weight,
            enc_cap=enc_cap,
            forced_codecs=forced_codecs,
            hll=hll,
            hll_b=hll_b,
            archive=archive,
            cluster_by=cluster_by,
            cluster_mode=cluster_mode,
            kll=kll,
            kll_k=kll_k,
            ngram=ngram,
            ngram_n=ngram_n,
            chaos_dir=chaos_dir,
        )
        summary["partitions_encoded"] = len(results)
        summary["rows"] = sum(r["rows"] for r in results)
        summary["source_bytes"] = sum(r["source_bytes"] for r in results)
        summary["encoded_bytes"] = sum(r["encoded_bytes"] for r in results)
    summary["manifest"] = manifest.summary()
    return summary


class PartitionCompactor(_PartitionStage):
    """Partition stage of compact_job: one committed-partition manifest
    entry in -> the same partition rewritten at target_block_rows."""

    def __init__(
        self,
        out_root: str,
        params: dict,
        target_block_rows: int,
        max_block_bytes: int,
    ):
        from .decode import BlockDecoder

        self.manifest = Manifest(out_root)
        self.core = _encoder_from_params(params)
        self.dec = BlockDecoder()
        self.target = int(target_block_rows)
        self.max_block_bytes = int(max_block_bytes)

    def _run(self, entry: dict) -> dict:
        pid = entry["partition_id"]
        old = pq.read_table(entry["output"]).sort_by("block_seq")
        pseq = int(old["partition_seq"][0].as_py()) if "partition_seq" in old.column_names else 0
        decoded = self.dec(old)  # one partition = one batch, row order = block_seq order
        if decoded.num_rows != entry["rows"]:
            raise RuntimeError(
                f"compact_job: partition {pid} decoded {decoded.num_rows} rows but the "
                f"manifest committed {entry['rows']} — refusing to swap "
                "(block file and manifest disagree; run verify --check-zones)"
            )
        blocks = _encode_blocks(self.core, [decoded], self.target, self.max_block_bytes,
                                pid, pseq)
        new_entry = _publish(self.manifest, entry, blocks,
                             compacted_from_blocks=entry["blocks"],
                             compacted_block_rows=self.target)
        return {
            "partition_id": pid,
            "blocks_before": entry["blocks"],
            "blocks_after": new_entry["blocks"],
            "encoded_bytes_before": entry["encoded_bytes"],
            "encoded_bytes_after": new_entry["encoded_bytes"],
        }


def _backfill_row_start(batch: pa.Table, blocks_dir: str) -> pa.Table:
    """Per-partition ``row_start`` backfill: a METADATA-ONLY rewrite of a
    legacy (pre-row_start) partition blocks file — blocks sorted by
    block_seq, the exclusive cumsum of n_rows written as row_start, the
    parquet swapped atomically. No blobs are decoded or re-encoded, so
    block_ids / sha256 chains / the manifest block inventory all stay
    valid. This is the remediation path RowStartRequired names (VERDICT
    r4 #7: the O(n_blocks) driver offset map is retired). Partitions
    already carrying non-null row_start are detected from the parquet
    FOOTER statistics alone — a healthy job dir pays one footer read per
    partition, never a data read."""
    out: list[dict] = []
    for row in batch.to_pylist():
        pid = row["partition_id"]
        f = Path(blocks_dir) / f"{pid}.parquet"
        pf = pq.ParquetFile(f)
        names = pf.schema_arrow.names
        needs = "row_start" not in names
        if not needs:
            idx = names.index("row_start")
            md = pf.metadata
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(idx).statistics
                if st is None or st.null_count is None or st.null_count > 0:
                    needs = True  # nulls (or no stats to prove otherwise)
                    break
        if not needs:
            out.append({"partition_id": pid, "backfilled": False})
            continue
        t = pq.read_table(f).sort_by([("block_seq", "ascending")])
        if "row_start" in t.column_names:
            t = t.drop_columns(["row_start"])
        # canonical slot (after content_sha256, matching encode_table):
        # appending at the END gives a MIXED job dir (some partitions
        # encoded with row_start, some backfilled) permuted per-file
        # schemas — Ray Data warns per RefBundle and positional
        # concatenation breaks downstream
        t = t.add_column(
            t.column_names.index("content_sha256") + 1,
            "row_start",
            _row_starts(t["n_rows"]),
        )
        tmp = _tmp_path(f)
        pq.write_table(t, tmp, compression="none")
        os.replace(tmp, f)
        out.append({"partition_id": pid, "backfilled": True})
    return pa.Table.from_pylist(out)


def fsck_job(out_root: str, deep: bool = False) -> dict:
    """Structural consistency check of a committed job dir: every
    manifest entry must have its blocks file, and the file's contents
    must agree with the entry (block count, row total, per-block sha256
    chain list, encoded-byte total); block files no entry references are
    reported as orphans (a crashed attempt that published before its
    plan changed, or a foreign file), staging leftovers are counted
    (vacuum candidates). Metadata-only by default — parquet footers and
    small meta columns, no blob decodes — so it is a driver-side scan
    even on a huge dir. `deep=True` additionally runs the distributed
    per-row sha256 chain verify over every block (verify_blocks).
    Returns {"ok": bool, "errors": [...], ...}; never mutates."""
    manifest = Manifest(out_root)
    errors: list[str] = []
    rec = manifest.job_record()
    if rec is None:
        return {
            "ok": False,
            "errors": [f"{out_root} has no job record; not an encode-job dir"],
        }
    blocks_dir = Path(out_root) / "blocks"
    entries = manifest.entries()
    referenced = {
        Path(e["output"]).name for e in entries if e.get("output")
    }
    checkable = [e for e in entries if e.get("output")]
    rows_total = 0
    blocks_total = 0
    # per-entry checks fan out as a control-plane Dataset stage: each is
    # one parquet-footer + three tiny meta columns, but at 10^5
    # partitions a serial driver loop is minutes where the pool is
    # seconds — the same one-row-per-partition pattern every job here
    # uses. Results are tiny dicts; order restored by sorting.
    if checkable:
        def _check_entry(batch: pa.Table) -> pa.Table:
            out = []
            for r in batch.to_pylist():
                e = json.loads(r["entry"])
                pid = e["partition_id"]
                f = Path(e["output"])
                errs = []
                rows = blocks = 0
                if not f.is_file():
                    errs.append(f"{pid}: blocks file missing: {f}")
                else:
                    got = _file_fields(pq.read_table(
                        str(f),
                        columns=["n_rows", "encoded_bytes", "content_sha256"],
                    ))
                    rows, blocks = got["rows"], got["blocks"]
                    errs = _entry_drift(e, got)
                out.append(
                    {"pid": pid, "rows": rows, "blocks": blocks,
                     "errors": json.dumps(errs)}
                )
            return pa.Table.from_pylist(out)

        items = [{"entry": json.dumps(e)} for e in checkable]
        if len(items) <= 8:
            # tiny dir: the serial loop beats a Ray stage's fixed cost
            # (and works with no Ray session at all)
            results = _check_entry(pa.Table.from_pylist(items)).to_pylist()
        else:
            results = (
                ray.data.from_items(items)
                .map_batches(_check_entry, batch_format="pyarrow", batch_size=64)
                .take_all()
            )  # control-plane rows: one per partition, tiny
        for r in sorted(results, key=lambda x: x["pid"]):
            rows_total += int(r["rows"])
            blocks_total += int(r["blocks"])
            errors.extend(json.loads(r["errors"]))
    orphans = sorted(
        f.name
        for f in blocks_dir.glob("*.parquet")
        if f.name not in referenced
    ) if blocks_dir.is_dir() else []
    staging = sum(
        1
        for f in Path(out_root).rglob("*.tmp")
        if f.name.startswith(("_", "."))
    )
    for o in orphans:
        errors.append(f"orphan blocks file (no manifest entry): {o}")
    report = {
        "ok": not errors,
        "errors": errors,
        "partitions": len(entries),
        "blocks": blocks_total,
        "rows": rows_total,
        "orphans": orphans,
        "staging_files": staging,
    }
    if deep and not any("missing" in e for e in errors):
        from .encode import read_blocks
        from .verify import verify_blocks

        v = verify_blocks(read_blocks(str(blocks_dir)),
                          hash_column=rec.get("params", {}).get("hash_column"))
        report["deep_verify"] = v
        if not v["ok"]:
            report["ok"] = False
            errors.append(f"deep verify failed: {v.get('bad_blocks')} bad blocks")
    return report


def vacuum_job(out_root: str, max_age_s: float = 3600.0) -> dict:
    """Remove stale STAGING files from a job/export dir tree. Crashed
    attempts leave attempt-unique `_*.tmp` files (and the manifest's
    mkstemp `.*.tmp` files) behind; they are invisible to every reader
    (discovery skips '_'/'.' names) but accumulate disk on a long-lived
    100 TB job dir, so a periodic sweep bounds them. Only files that are
    BOTH dot/underscore-prefixed AND `.tmp`-suffixed are candidates —
    published outputs, markers (`_done-*`, no suffix) and records
    (`_export.json`) can never match — and only when older than
    `max_age_s` (default 1 h), so a live attempt's staging file is never
    yanked mid-write. Driver-side walk: the candidate set is tiny
    (staging files, not data), so no Ray stage is warranted."""
    root = Path(out_root)
    removed = 0
    freed = 0
    now = time.time()
    for f in root.rglob("*.tmp"):
        if not (f.name.startswith("_") or f.name.startswith(".")):
            continue
        try:
            st = f.lstat()
        except FileNotFoundError:
            continue  # concurrent publish renamed it away
        if not os.path.isfile(f) or os.path.islink(f):
            continue
        if now - st.st_mtime < max_age_s:
            continue
        try:
            os.unlink(f)
        except FileNotFoundError:
            continue
        removed += 1
        freed += st.st_size
    return {"removed": removed, "bytes_freed": freed, "root": str(root)}


def compact_job(
    out_root: str,
    target_block_rows: int,
    concurrency: int | tuple[int, int] | None = None,
) -> dict:
    """MAINTENANCE COMPACTION for a committed encode-job dir: partitions
    whose committed blocks are finer than target_block_rows decode once
    (inside the task — nothing ships to the driver) and re-encode at the
    target, preserving the partition as the commit/resume unit: row
    order, block_seq, row_start and the per-row sha256 chains are all
    re-derived, the blocks parquet is swapped atomically, and the
    manifest entry re-commits with the new block inventory. Small-block
    build-up is the steady state of a long-running ingestion (late
    row-group tails, heavily filtered encodes) and each tiny block costs
    a selector trial + zone/bloom overhead at decode; compaction restores
    the intended block geometry without re-reading the source.

    Sibling of ``encode.compact_blocks`` (streaming re-block into a NEW
    block table, no manifest): use that for exporting; use this to
    maintain a live job dir whose manifest, resume gates, and readers
    must keep working mid-compaction.

    Skips partitions already at the target geometry (and empty ones) —
    rerunning is a no-op, and a killed run leaves every partition either
    old-shape or new-shape, never mixed. The job record is untouched:
    compaction changes block geometry, not job identity (filter/columns/
    hash), so resume gates keep working."""
    import math

    manifest, params, entries = _job_entries(out_root)
    pending = [  # finer than the target geometry
        e for e in entries if e["blocks"] > math.ceil(e["rows"] / int(target_block_rows))
    ]
    summary = {
        "partitions_compacted": 0,
        "partitions_skipped": len(manifest.entries()) - len(pending),
        "partitions_backfilled": 0,
        "blocks_before": 0,
        "blocks_after": 0,
        "encoded_bytes_before": 0,
        "encoded_bytes_after": 0,
    }
    # row_start backfill sweep over partitions NOT being re-encoded
    # (compaction itself re-derives row_start): legacy pre-row_start
    # dirs become random-access capable in place; healthy partitions
    # cost one parquet footer read each. See _backfill_row_start.
    compacting = {e["partition_id"] for e in pending}
    candidates = [
        {"partition_id": e["partition_id"]}
        for e in entries
        if e["partition_id"] not in compacting
    ]
    if candidates:
        bf = (
            ray.data.from_items(candidates)
            .map_batches(
                _backfill_row_start,
                fn_kwargs={"blocks_dir": str(Path(out_root) / "blocks")},
                batch_format="pyarrow",
            )
            .take_all()
        )
        summary["partitions_backfilled"] = sum(1 for r in bf if r["backfilled"])
    if not pending:
        return summary
    results = _map_partitions(
        PartitionCompactor, pending, concurrency, out_root=out_root, params=params,
        target_block_rows=int(target_block_rows),
        max_block_bytes=int(params.get("max_block_bytes", DEFAULT_MAX_BLOCK_BYTES)),
    )
    summary["partitions_compacted"] = len(results)
    for r in results:
        summary["blocks_before"] += r["blocks_before"]
        summary["blocks_after"] += r["blocks_after"]
        summary["encoded_bytes_before"] += r["encoded_bytes_before"]
        summary["encoded_bytes_after"] += r["encoded_bytes_after"]
    return summary


# ---------------------------------------------------------------------------
# Copy-on-write row deletes + snapshot reads. delete_rows rewrites ONLY
# the partitions (and within them, only the blocks) that actually hold
# matching rows — zone maps prove the rest untouched, so a narrow delete
# over a 100 TB job dir rewrites a handful of files. Snapshots
# (Manifest.snapshot / read_blocks_at) pin the committed-partition set
# for read-as-of over append-mode growth; a delete bumps the rewritten
# partitions' generation so stale snapshots fail loudly instead of
# silently serving post-delete rows. Public precedent: Delta/Iceberg
# copy-on-write DELETE + snapshot isolation; the reference has no
# mutation story at all (process.sh reprocesses from scratch,
# /root/reference/scripts/process.sh:42-59).
# ---------------------------------------------------------------------------


def _reconcile_entry(manifest: Manifest, entry: dict, kind: str) -> dict:
    """Crash-recovery commit-finish for the rewrite stages (delete/
    update): a prior attempt may have SWAPPED the blocks file and died
    before its manifest commit — the entry then disagrees with the file
    (rows/hashes/bytes), and a naive retry that finds nothing left to do
    would leave the dir manifest-behind-blocks forever (fsck red). Read
    the file's meta columns (cheap: no blobs), and when they disagree,
    rebuild the entry's file-derived fields, bump the generation (the
    row-changing rewrite DID happen), record crash-recovery lineage, and
    commit. Returns the (possibly corrected) entry."""
    meta = pq.read_table(
        entry["output"],
        columns=["n_rows", "encoded_bytes", "content_sha256", "block_seq"],
    ).sort_by("block_seq")
    got = _file_fields(meta)
    if not _entry_drift(entry, got):
        return entry
    recovery = {"crash_recovered": True, "rows_before": entry.get("rows"),
                "rows_after": got["rows"]}
    return _commit_entry(
        manifest, entry, meta,
        generation=int(entry.get("generation", 0)) + 1,
        **{kind: [*entry.get(kind, []), recovery]},
    )


class _PartitionRewriter(_PartitionStage):
    """Copy-on-write rewrite core of delete_rows/update_rows: one
    committed-partition manifest entry in -> the same partition with
    `_transform` applied to the rows matching a DNF filter. Three-level
    pruning before any byte is rewritten: (1) the zonemap column alone
    is read first — a partition whose blocks all prove empty returns
    untouched without fetching one encoded blob; (2) only zone-candidate
    blocks decode; (3) a candidate with zero exact matches keeps its
    original encoded row verbatim. block_seq is renumbered contiguously
    and row_start re-derived (block_id is a content digest, independent
    of seq), so decode_ordered / take_rows keep working. The swap is
    `_publish`: readers see the old or the new partition, never half.

    A subclass names its manifest lineage key and audit log (`kind`),
    its public op (`op`), the result counts the driver sums (`summed`),
    and supplies `_transform` and `_counts`."""

    kind = op = ""
    summed: tuple[str, ...] = ()

    def __init__(self, out_root: str, params: dict, filter: list,
                 chaos_dir: str | None = None):
        from .decode import BlockDecoder

        self.manifest = Manifest(out_root)
        self.chaos_dir = chaos_dir
        # filter arrives as a NORMALIZED DNF (list of conjunctions)
        self.dnf = [[tuple(p) for p in conj] for conj in filter]
        self.spec: dict = {}  # op parameters recorded in each lineage record
        self.core = _encoder_from_params(params)
        self.dec = BlockDecoder()

    def _run(self, entry: dict) -> dict:
        from .decode import dnf_mask, zone_may_match_any

        pid = entry["partition_id"]
        # finish a crashed attempt's commit BEFORE the zone scan: the
        # rewritten file's zones may no longer admit the filter at all,
        # so the scan alone would return untouched and leave the
        # manifest behind the blocks file forever. A reconciled partition
        # counts as rewritten; a delete's recovered row count IS
        # derivable (rows_before - rows_after), an update's is not.
        fixed = _reconcile_entry(self.manifest, entry, self.kind)
        recovered = max(0, int(entry.get("rows", 0)) - int(fixed.get("rows", 0)))
        untouched = {"partition_id": pid, "rewritten": fixed is not entry,
                     **self._counts(recovered, 0, 0)}
        entry = fixed
        # level 1: zonemaps only — no blob columns leave the file. Sorted
        # by block_seq so candidate positions align with the sorted full
        # read below even if a file's physical row order ever drifts from
        # seq order (today they coincide; this pins the invariant)
        if "zonemap" in pq.read_schema(entry["output"]).names:
            zonly = pq.read_table(
                entry["output"], columns=["zonemap", "block_seq"]
            ).sort_by("block_seq")
            candidates = [
                i
                for i, z in enumerate(zonly["zonemap"].to_pylist())
                if zone_may_match_any(json.loads(z) if z else {}, self.dnf)
            ]
        else:  # no zone metadata: every block is a candidate
            candidates = list(range(pq.ParquetFile(entry["output"]).metadata.num_rows))
        if not candidates:
            return untouched
        old = pq.read_table(entry["output"]).sort_by("block_seq")
        has_rs = "row_start" in old.column_names
        matched = removed = 0
        rewritten: dict[int, pa.Table | None] = {}  # idx -> new row | None: emptied
        for i in candidates:
            decoded = self.dec(old.slice(i, 1))
            m = dnf_mask(decoded, self.dnf)
            if m is None:  # validated non-empty upstream; belt-and-braces
                raise RuntimeError(f"{self.op}: empty filter reached the task")
            mask = pc.fill_null(m, False)
            n_match = int(pc.sum(mask).as_py() or 0)
            if n_match == 0:
                continue  # zone false positive: keep the encoded row as-is
            matched += n_match
            out = self._transform(decoded, mask)
            removed += decoded.num_rows - out.num_rows
            rewritten[i] = None if out.num_rows == 0 else self.core.encode_table(
                out,
                block_seq=0,  # renumbered below with the kept rows
                partition_id=pid,
                partition_seq=(
                    int(old["partition_seq"][i].as_py())
                    if "partition_seq" in old.column_names
                    else 0
                ),
                row_start=0 if has_rs else None,
            ).select(old.column_names)
        if matched == 0:
            return untouched
        kept = [rewritten.get(i, old.slice(i, 1)) for i in range(old.num_rows)]
        new = pa.concat_tables([t for t in kept if t is not None] or [old.slice(0, 0)])
        new = new.set_column(
            new.column_names.index("block_seq"), "block_seq",
            pa.array(np.arange(new.num_rows), pa.int64()),
        )
        if has_rs:
            new = new.set_column(
                new.column_names.index("row_start"), "row_start", _row_starts(new["n_rows"])
            )
        rows_after = _file_fields(new)["rows"]
        if rows_after + removed != entry["rows"]:
            raise RuntimeError(
                f"{self.op}: partition {pid} has {entry['rows']} manifest "
                f"rows but {rows_after} after the rewrite + {removed} removed "
                "— refusing to swap (block file and manifest disagree)"
            )
        dropped = sum(1 for t in rewritten.values() if t is None)
        record = {
            "filter": [[_jsonable_predicate(p) for p in conj] for conj in self.dnf],
            **self.spec,
            **self._counts(matched, len(rewritten) - dropped, dropped),
        }
        # row-changing rewrite: bump the generation (invalidates snapshots
        # that pinned the old rows) and append this op's lineage
        _publish(self.manifest, entry, new, self.chaos_dir,
                 generation=int(entry.get("generation", 0)) + 1,
                 **{self.kind: [*entry.get(self.kind, []), record]})
        return {"partition_id": pid, "rewritten": True,
                **self._counts(matched + recovered, len(rewritten) - dropped, dropped)}


class PartitionDeleter(_PartitionRewriter):
    """Partition stage of delete_rows: the rewrite core with the
    matching rows removed; a block left empty is dropped."""

    kind, op, summed = "deletes", "delete_rows", ("rows_deleted", "blocks_dropped")

    def _transform(self, decoded: pa.Table, mask) -> pa.Table:
        return decoded.filter(pc.invert(mask))

    def _counts(self, rows: int, blocks_rewritten: int, blocks_dropped: int) -> dict:
        return {"rows_deleted": rows, "blocks_dropped": blocks_dropped}


class PartitionUpdater(_PartitionRewriter):
    """Partition stage of update_rows: the rewrite core with the
    matching rows transformed in place — constant SET and/or vectorized
    regex scrub per column — and every recorded enrichment whose input
    is a target recomputed in the same pass, so derived columns never go
    stale. Row count and order never change. Updating a cluster_by key
    keeps pruning CORRECT (zones re-derive from the new values at
    re-encode) but can widen that block's zone — the clustered layout's
    disjointness is best-effort after an update, like after any append."""

    kind, op, summed = "updates", "update_rows", ("rows_updated",)

    def __init__(
        self,
        out_root: str,
        params: dict,
        filter: list,
        set_values: dict | None,
        scrub: dict | None,
        chaos_dir: str | None = None,
    ):
        super().__init__(out_root, params, filter, chaos_dir)
        self.set_values = dict(set_values or {})
        self.scrub = {c: [tuple(r) for r in rules] for c, rules in (scrub or {}).items()}
        self.spec = _update_spec(set_values, scrub)
        self.derived: list[tuple[str, str, str]] = []  # (column, enricher, input)
        self.fns: dict = {}  # enricher -> fn, set up once per stage

    def _run(self, entry: dict) -> dict:
        targets = set(self.set_values) | set(self.scrub)
        self.derived = [
            (x["column"], x["enricher"], x["input"])
            for x in entry.get("enrichments", [])
            if x["input"] in targets
        ]
        return super()._run(entry)

    def _transform(self, decoded: pa.Table, mask) -> pa.Table:
        """Apply SET + scrub to the masked rows only, then recompute the
        derived columns of the partition's changed inputs; types are
        pinned to each column's existing type so the block schema cannot
        drift."""
        out = decoded
        for col, val in self.set_values.items():
            t = out.schema.field(col).type
            new = pc.if_else(mask, pa.scalar(val, type=t), out[col])
            out = out.set_column(out.column_names.index(col), col, new)
        for col, rules in self.scrub.items():
            scrubbed = out[col]
            for pattern, replacement in rules:
                scrubbed = pc.replace_substring_regex(
                    scrubbed, pattern=pattern, replacement=replacement
                )
            new = pc.if_else(mask, scrubbed, out[col])
            out = out.set_column(out.column_names.index(col), col, new)
        if self.derived:
            # enrichers are per-row: recompute on the changed rows only
            # and put them back (a whole-block recompute cost more than
            # the rest of a scattered scrub)
            rows = pa.chunked_array(mask).combine_chunks()
            changed = out.filter(rows)
        for col, enricher, input_col in self.derived:
            if enricher not in self.fns:
                self.fns[enricher] = _enricher_registry()[enricher]()
            vals = self.fns[enricher](changed, input_col).cast(out.schema.field(col).type)
            new = pc.replace_with_mask(out[col], rows, pa.chunked_array(vals).combine_chunks())
            out = out.set_column(out.column_names.index(col), col, new)
        return out

    def _counts(self, rows: int, blocks_rewritten: int, blocks_dropped: int) -> dict:
        return {"rows_updated": rows, "blocks_rewritten": blocks_rewritten}


def _update_spec(set_values: dict | None, scrub: dict | None) -> dict:
    """An update's parameters as recorded in its lineage and audit log."""
    return {
        "set": {k: _json_scalar(v) for k, v in (set_values or {}).items()},
        "scrub": {c: [list(r) for r in rules] for c, rules in (scrub or {}).items()},
    }


def _json_scalar(v):
    """JSON-safe form of a SET constant for the lineage record (bytes
    are not JSON; record them hex-tagged rather than dropping lineage)."""
    if isinstance(v, bytes):
        return {"__hex__": v.hex()}
    return v


def update_rows(
    out_root: str,
    filter: list,
    set_values: dict | None = None,
    scrub: dict | None = None,
    concurrency: int | tuple[int, int] | None = None,
    chaos_dir: str | None = None,
) -> dict:
    """Copy-on-write UPDATE over a committed encode-job dir: every row
    matching the (col, op, value) conjunction is transformed in place —
    `set_values` assigns constants per column, `scrub` applies an
    ordered list of (regex, replacement) rewrites per string column
    (both may be given; scrub runs after set). Everything else is
    byte-identical afterwards, and zone maps bound the rewrite exactly
    as in delete_rows, so redacting one repo / one id set / one date
    range over a huge job dir is a metadata scan plus a few file
    rewrites. The flagship use is in-place PII redaction of an
    already-encoded corpus without a full re-encode.

    Reruns rewrite only still-matching rows: a SET that falsifies the
    filter (e.g. filter lang=='xx', set lang='yy') is idempotent like a
    delete; a scrub whose filter still matches the scrubbed text
    re-applies (regexes should consume what they match). Row content
    changes, so rewritten partitions' generations bump and snapshots
    taken before the update refuse those partitions (read_blocks_at).
    Enrichment columns whose recorded input is a SET/scrub target are
    recomputed for the changed rows in the same rewrite."""
    if not filter:
        raise ValueError("update_rows needs a non-empty (col, op, value) filter")
    if not set_values and not scrub:
        raise ValueError("update_rows needs set_values and/or scrub")
    for col, rules in (scrub or {}).items():
        for r in rules:
            if not (isinstance(r, (tuple, list)) and len(r) == 2
                    and all(isinstance(x, str) for x in r)):
                raise ValueError(
                    f"scrub[{col!r}] entries must be (regex, replacement) "
                    f"string pairs, got {r!r}"
                )
    spec = _update_spec(set_values, scrub)
    # lineage must be recordable: a non-JSON SET constant would otherwise
    # raise inside the task AFTER the block swap and BEFORE the manifest
    # commit — fail fast at the driver instead
    try:
        json.dumps(spec)
    except TypeError as e:
        raise ValueError(
            f"set_values must be JSON-recordable constants "
            f"(str/num/bool/None/bytes): {e}"
        ) from None
    dnf, params, entries = _rewrite_prologue(out_root, filter, "update_rows")
    targets = sorted(set(list(set_values or {}) + list(scrub or {})))
    if any(e.get("columns") for e in entries):
        # PER-ENTRY membership, not the union: a half-enriched dir (a
        # legal resumable state) has the target in SOME partitions —
        # a union check would pass the gate and then fail task-side
        # after other partitions were already rewritten and committed
        for c in targets:
            for e in entries:
                if c not in e.get("columns", {}):
                    raise ValueError(
                        f"update target column {c!r} is not in partition "
                        f"{e['partition_id']}'s encoded columns (have: "
                        f"{sorted(e.get('columns', {}))}) — finish the "
                        "pending enrich_many first"
                    )
    if entries:
        # type gate at the driver, BEFORE any partition rewrites: decode
        # one block row's target columns and refuse un-SET-table scalars
        # and scrub on non-string columns here (a task-side failure
        # would leave some partitions rewritten, some not)
        from .decode import BlockDecoder

        # prune the probe read: meta columns + only the target blobs
        # (a full read would pull every encoded blob of the partition
        # into the driver just to decode one block row)
        names = pq.read_schema(entries[0]["output"]).names
        keep = [c for c in names if not c.startswith("col_")] + [
            c for c in names if c.startswith("col_") and c[4:] in targets
        ]
        probe = BlockDecoder(columns=targets)(
            pq.read_table(entries[0]["output"], columns=keep).slice(0, 1)
        )
        for c, v in (set_values or {}).items():
            t = probe.schema.field(c).type
            try:
                pa.scalar(v, type=t)
            except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError) as e:
                raise ValueError(
                    f"set_values[{c!r}]={v!r} is not castable to the "
                    f"column's type {t}: {e}"
                ) from None
        for c in scrub or {}:
            t = probe.schema.field(c).type
            if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
                raise ValueError(
                    f"scrub column {c!r} has type {t}: regex scrub "
                    "needs a string column"
                )
    return _rewrite_rows(PartitionUpdater, out_root, dnf, params, entries,
                         concurrency, chaos_dir, spec,
                         set_values=set_values, scrub=scrub)


def _rewrite_prologue(out_root: str, filter: list, op: str) -> tuple:
    """Driver prologue shared by delete_rows/update_rows: normalize the
    filter (a flat conjunction or a DNF) and validate it, then gate on
    the job record and the encoded columns. Returns (dnf, params,
    entries)."""
    from .decode import normalize_dnf, validate_predicate_shapes

    dnf = normalize_dnf(filter)
    if not all(conj for conj in dnf):
        raise ValueError(f"{op}: empty conjunction in the DNF filter")
    for conj in dnf:
        validate_predicate_shapes(conj, set(), "job dir")
    _, params, entries = _job_entries(out_root)
    cols = {c for e in entries for c in e.get("columns", {})}
    if cols:
        for conj in dnf:
            validate_predicate_shapes(conj, cols, "encoded columns")
    return dnf, params, entries


def _rewrite_rows(stage: type, out_root: str, dnf: list, params: dict,
                  entries: list[dict], concurrency, chaos_dir: str | None,
                  spec: dict | None = None, **ctor) -> dict:
    """Driver dispatch shared by delete_rows/update_rows: run the rewrite
    stage over every committed partition, sum its counts into the
    summary and append the root-level audit line to ``<kind>.log``
    (single-driver append, like the job record)."""
    summary = {"partitions_total": len(entries), "partitions_rewritten": 0,
               **dict.fromkeys(stage.summed, 0)}
    if not entries:
        return summary
    results = _map_partitions(
        stage, entries, concurrency, out_root=out_root, params=params,
        filter=[[list(p) for p in conj] for conj in dnf], chaos_dir=chaos_dir, **ctor,
    )
    summary["partitions_rewritten"] = sum(1 for r in results if r["rewritten"])
    for k in stage.summed:
        summary[k] = sum(r[k] for r in results)
    line = {"filter": [[_jsonable_predicate(p) for p in conj] for conj in dnf],
            **(spec or {}), **summary}
    with open(Path(out_root) / f"{stage.kind}.log", "a") as f:
        f.write(json.dumps(line, separators=(",", ":")) + "\n")
    return summary


# ---------------------------------------------------------------------------
# In-place enrichment: ALTER TABLE ADD COLUMN AS f(existing column) over a
# committed job dir. The LLM-pipeline use: compute lang-id / quality /
# token counts / fingerprints over an encoded 100 TB corpus ONCE and store
# them as first-class encoded, zone-mapped columns — later scans filter on
# `quality >= x` or `lang_pred == 'en'` with block pruning instead of
# re-running the model/heuristic per scan. Enrichers are a fixed registry
# of named, deterministic, vectorized functions so the operation is
# recordable (manifest lineage) and resumable (a rerun skips partitions
# whose entry already carries the column).
# ---------------------------------------------------------------------------

def _enricher_registry() -> dict:
    """name -> factory() -> fn(decoded_block: pa.Table, input_col) -> pa.Array.
    Factories run once per stage (stateful setup: stopword tables); the
    returned fn is called once per block, fully vectorized."""
    from .rowhash import row_digests
    from .stages.text import (
        LangId,
        fingerprint_batch,
        quality_scores,
        token_stats,
    )

    def _with_ids(t: pa.Table, input_col: str) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array(np.arange(t.num_rows), type=pa.int64()),
                "text": t[input_col].cast(pa.string()),
            }
        )

    def _lang_id():
        stage = LangId()  # stopword tables built once per stage
        return lambda t, c: stage(_with_ids(t, c))["lang_pred"]

    def _quality():
        return lambda t, c: quality_scores(_with_ids(t, c))["quality"]

    def _stopword_ratio():
        return lambda t, c: quality_scores(_with_ids(t, c))["stopword_ratio"]

    def _n_tokens():
        return lambda t, c: token_stats(_with_ids(t, c))["n_tokens"]

    def _n_chars():
        return lambda t, c: pc.utf8_length(t[c].cast(pa.string())).cast(pa.int64())

    def _fingerprint():
        return lambda t, c: fingerprint_batch(_with_ids(t, c))["fingerprint"]

    def _sha256_hex():
        # cast pins non-string inputs to their canonical string repr so
        # the digest is well-defined for any column type
        return lambda t, c: pa.array(
            [d.hex() for d in row_digests(t[c].cast(pa.string()))],
            type=pa.string(),
        )

    def _rep(col: str):
        from .stages.text import repetition_scores

        def make():
            return lambda t, c: repetition_scores(_with_ids(t, c))[col]

        return make

    return {
        "lang_id": _lang_id,
        "quality_score": _quality,
        "stopword_ratio": _stopword_ratio,
        "n_tokens": _n_tokens,
        "n_chars": _n_chars,
        "fingerprint": _fingerprint,
        "sha256_hex": _sha256_hex,
        # Gopher repetition gates (text.py:repetition_scores), enrichable
        # in place so later scans threshold with block pruning
        "dup_line_frac": _rep("dup_line_frac"),
        "top2gram_char_frac": _rep("top2gram_char_frac"),
        "dup5gram_char_frac": _rep("dup5gram_char_frac"),
    }


class PartitionEnricher(_PartitionStage):
    """Partition stage of enrich_many/enrich_job: one committed-
    partition manifest entry in -> the same partition with one or more
    new encoded columns appended to every block. The input column
    decodes ONCE per block no matter how many enrichers run — at scale
    the decode dominates, so N derived columns cost ~1 decode + N cheap
    vectorized passes, not N decodes. Existing block bytes are
    byte-identical (the new col_* columns, merged lineage/zonemap JSON
    and the encoded_bytes counter are the only changes); block_id /
    content_sha256 / row content are untouched, so verify and ordered
    decode are unaffected and generations do NOT bump (like compaction:
    snapshots stay readable). Each new column gets the full selector
    treatment — codec auto-selection, zone maps, and whatever
    page/bloom/HLL/KLL metadata the job was encoded with — so later
    scans prune on it like any original column."""

    def __init__(self, out_root: str, params: dict, columns: dict,
                 input_column: str, chaos_dir: str | None = None):
        from .decode import BlockDecoder

        self.manifest = Manifest(out_root)
        self.columns = dict(columns)  # name -> enricher
        self.input_column = input_column
        self.chaos_dir = chaos_dir
        reg = _enricher_registry()
        self.fns = {n: reg[en]() for n, en in self.columns.items()}  # setup once
        # hash_column=None: the block's content chain must NOT be
        # recomputed (we keep the original row's), and the derived-column
        # table fed to encode_table rarely contains it anyway
        self.core = _encoder_from_params(
            params, hash_column=None, forced_codecs=None
        )
        self.dec = BlockDecoder(columns=[input_column])

    def _run(self, entry: dict) -> dict:
        pid = entry["partition_id"]
        old = pq.read_table(entry["output"])
        missing = [n for n in self.columns if f"col_{n}" not in old.column_names]
        new = old
        if missing:
            blobs: dict[str, list[bytes]] = {n: [] for n in missing}
            lineages: list[str] = []
            zonemaps: list[str] = []
            enc_bytes: list[int] = []
            for i in range(old.num_rows):
                decoded = self.dec(old.slice(i, 1))  # ONE decode per block
                arrs = {}
                for n in missing:
                    arr = self.fns[n](decoded, self.input_column)
                    if len(arr) != decoded.num_rows:
                        raise RuntimeError(
                            f"enricher {self.columns[n]!r} returned "
                            f"{len(arr)} values for a "
                            f"{decoded.num_rows}-row block"
                        )
                    arrs[n] = arr
                enc = self.core.encode_table(pa.table(arrs))
                enc_lin = json.loads(enc["lineage"][0].as_py())
                lin = json.loads(old["lineage"][i].as_py() or "{}")
                added = 0
                for n in missing:
                    blob = enc[f"col_{n}"][0].as_py()
                    blobs[n].append(blob)
                    added += len(blob)
                    lin[n] = enc_lin[n]
                lineages.append(json.dumps(lin, separators=(",", ":")))
                # merge the new columns' zones + reserved metadata keys
                # into the block's existing zonemap (reserved keys merge
                # per-column)
                z_old = json.loads(old["zonemap"][i].as_py() or "{}")
                z_new = json.loads(enc["zonemap"][0].as_py() or "{}")
                for k, v in z_new.items():
                    if k.startswith("__") and isinstance(v, dict):
                        z_old.setdefault(k, {}).update(v)
                    else:
                        z_old[k] = v
                zonemaps.append(json.dumps(z_old, separators=(",", ":")))
                enc_bytes.append(int(old["encoded_bytes"][i].as_py()) + added)
            new = new.set_column(
                new.column_names.index("lineage"), "lineage",
                pa.array(lineages, type=pa.string()),
            )
            new = new.set_column(
                new.column_names.index("zonemap"), "zonemap",
                pa.array(zonemaps, type=pa.string()),
            )
            new = new.set_column(
                new.column_names.index("encoded_bytes"), "encoded_bytes",
                pa.array(enc_bytes, type=pa.int64()),
            )
            for n in missing:
                new = new.append_column(
                    f"col_{n}", pa.array(blobs[n], type=pa.binary())
                )
        # summaries fold from the file's lineage: fresh columns AND the
        # commit-finish of columns a crashed attempt published
        summaries = _column_summaries(new, self.columns)
        cols = dict(entry.get("columns", {}))
        lineage = list(entry.get("enrichments", []))
        recorded = {x["column"] for x in lineage}
        changed = False
        for n in self.columns:
            if n not in cols:
                cols[n] = summaries[n]
                changed = True
            if n not in recorded:
                lineage.append(
                    {"column": n, "enricher": self.columns[n],
                     "input": self.input_column}
                )
                changed = True
        if missing:
            _publish(self.manifest, entry, new, self.chaos_dir,
                     columns=cols, enrichments=lineage)
        elif changed:  # published by a crashed attempt: commit only
            _commit_entry(self.manifest, entry, new, columns=cols, enrichments=lineage)
        return {
            "partition_id": pid,
            "rows": int(entry["rows"]) if missing else 0,
            "skipped": not missing,
        }


def enrich_many(
    out_root: str,
    columns: dict,
    input_column: str = "content",
    concurrency: int | tuple[int, int] | None = None,
    chaos_dir: str | None = None,
) -> dict:
    """ALTER TABLE ADD COLUMNs over a committed encode-job dir: compute
    several named, deterministic enrichers over ONE decoded input column
    in one pass and append each result as a NEW encoded, zone-mapped
    column in every block — no existing byte is re-encoded, and the
    expensive content decode happens once per block regardless of how
    many columns are derived. `columns` maps new-column name ->
    registered enricher name. Resumable per column: a rerun (or a wider
    rerun adding more columns) skips what is committed, appends only
    what is missing, and finishes the manifest commit of anything
    published by a crashed attempt. Refuses a column name that already
    exists, collides with block metadata, or was previously enriched by
    a DIFFERENT (enricher, input) pair."""
    reg = _enricher_registry()
    if not columns:
        raise ValueError("enrich_many needs at least one column -> enricher")
    meta_names = {
        "block_id", "partition_id", "partition_seq", "block_seq", "n_rows",
        "source_bytes", "encoded_bytes", "content_sha256", "row_start",
        "lineage", "zonemap",
    }
    for column, enricher in columns.items():
        if enricher not in reg:
            raise ValueError(
                f"unknown enricher {enricher!r} (have: {sorted(reg)})"
            )
        if not column or column.startswith("__") or column.startswith("col_"):
            raise ValueError(f"invalid enrichment column name {column!r}")
        if column in meta_names:
            raise ValueError(
                f"column name {column!r} collides with block metadata"
            )
    _, params, entries = _job_entries(out_root)
    pending = []
    for e in entries:
        cols = e.get("columns", {})
        if input_column not in cols:
            raise ValueError(
                f"input column {input_column!r} is not in partition "
                f"{e['partition_id']}'s encoded columns (have: {sorted(cols)})"
            )
        todo = False
        for column, enricher in columns.items():
            prior = [x for x in e.get("enrichments", []) if x["column"] == column]
            if prior:
                if (prior[-1]["enricher"] != enricher
                        or prior[-1]["input"] != input_column):
                    raise ValueError(
                        f"column {column!r} was enriched as "
                        f"{prior[-1]['enricher']}({prior[-1]['input']}) — "
                        "rerun with the same pair or pick a new column name"
                    )
                continue  # this column committed by a prior run
            if column in cols:
                raise ValueError(
                    f"column {column!r} already exists in partition "
                    f"{e['partition_id']} (an original encoded column)"
                )
            todo = True
        if todo:
            pending.append(e)
    summary = {
        "partitions_total": len(entries),
        "partitions_enriched": 0,
        "partitions_skipped": len(entries) - len(pending),
        "rows": 0,
    }
    if not pending:
        return summary
    results = _map_partitions(
        PartitionEnricher, pending, concurrency, out_root=out_root, params=params,
        columns=dict(columns), input_column=input_column, chaos_dir=chaos_dir,
    )
    for r in results:
        if r["skipped"]:
            summary["partitions_skipped"] += 1
        else:
            summary["partitions_enriched"] += 1
            summary["rows"] += int(r["rows"])
    return summary


def enrich_job(
    out_root: str,
    column: str,
    enricher: str,
    input_column: str = "content",
    concurrency: int | tuple[int, int] | None = None,
    chaos_dir: str | None = None,
) -> dict:
    """Single-column convenience wrapper over enrich_many (one decode
    pass, one derived column)."""
    return enrich_many(
        out_root,
        {column: enricher},
        input_column=input_column,
        concurrency=concurrency,
        chaos_dir=chaos_dir,
    )


def delete_rows(
    out_root: str,
    filter: list,
    concurrency: int | tuple[int, int] | None = None,
    chaos_dir: str | None = None,
) -> dict:
    """Copy-on-write DELETE over a committed encode-job dir: every row
    matching the (col, op, value) conjunction is removed; everything
    else is byte-identical afterwards. Zone maps bound the rewrite to
    the partitions/blocks that can hold matches, so a selective delete
    (one repo, one id set, one date range) over a huge job dir is a
    metadata scan plus a few file rewrites. Idempotent: rerunning the
    same delete finds no surviving match and rewrites nothing. Changes
    ROW CONTENT, so it bumps each rewritten partition's generation —
    snapshots taken before the delete refuse to read those partitions
    (read_blocks_at) instead of silently time-traveling to wrong rows."""
    if not filter:
        raise ValueError(
            "delete_rows needs a non-empty (col, op, value) filter — "
            "to drop a whole job dir, delete the out_root instead"
        )
    dnf, params, entries = _rewrite_prologue(out_root, filter, "delete_rows")
    return _rewrite_rows(PartitionDeleter, out_root, dnf, params, entries,
                         concurrency, chaos_dir)


def read_blocks_at(out_root: str, version: int) -> "ray.data.Dataset":
    """Open the block table AS OF a snapshot version (Manifest.snapshot):
    exactly the partitions the snapshot pinned, each verified to still
    carry the pinned generation. Appended partitions are excluded; a
    partition rewritten by delete_rows since the snapshot raises a named
    error (its pinned rows no longer exist — refusing beats silently
    reading post-delete data as-of). Compaction is generation-neutral:
    it preserves row content, so compacted snapshots stay readable."""
    from .encode import read_blocks

    manifest = Manifest(out_root)
    snap = manifest.snapshot_record(version)
    current = {
        e["partition_id"]: int(e.get("generation", 0)) for e in manifest.entries()
    }
    files: list[str] = []
    stale: list[str] = []
    missing: list[str] = []
    for pid, gen in sorted(snap["partitions"].items()):
        if pid not in current:
            missing.append(pid)
        elif current[pid] != gen:
            stale.append(pid)
        else:
            files.append(str(Path(out_root) / "blocks" / f"{pid}.parquet"))
    if missing or stale:
        raise ValueError(
            f"snapshot v{version} of {out_root} is no longer readable: "
            + (f"partitions {missing} vanished from the manifest; " if missing else "")
            + (
                f"partitions {stale} were rewritten by delete_rows after the "
                "snapshot (generation mismatch)"
                if stale
                else ""
            )
        )
    if not files:
        raise ValueError(f"snapshot v{version} of {out_root} pins zero partitions")
    return read_blocks(files)


# ---------------------------------------------------------------------------
# Resumable decode-export job: committed block partitions -> partitioned
# parquet of the ORIGINAL rows. The read-side sibling of run_encode_job —
# one output file per partition, atomically published (tmp + rename), so a
# killed 100 TB export skips every finished partition on rerun instead of
# restarting a single giant write_parquet from zero (the brief's
# "resumable output" rule applied to the decode direction).
# ---------------------------------------------------------------------------


def export_record_path(out_root: str | os.PathLike) -> Path:
    # underscore prefix: pyarrow/Ray parquet dataset discovery skips
    # '_'/'.'-prefixed files, so read_parquet(out_root) Just Works on a
    # finished export with the record sitting next to the part files
    return Path(out_root) / "_export.json"


def _tmp_path(out_file: Path) -> Path:
    """In-directory staging name for an atomic tmp+rename publish.
    Underscore-prefixed so a stale tmp from a killed task never breaks a
    directory-level parquet read (dataset discovery ignores '_' files),
    and never matches the 'part-*'/'*.parquet' resume globs. The name is
    attempt-unique (pid + random hex): on a real cluster a retried task
    can overlap a still-running original (network partition, straggler
    re-execution), and two writers sharing one staging file could publish
    the other's half-written bytes via rename — unique names make each
    attempt's write private, and the final os.replace stays last-wins
    with whole-file contents either way."""
    return out_file.with_name(
        f"_{out_file.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp"
    )


def _hive_val(v) -> str:
    """Path-safe hive-style key segment: None uses the hive default
    partition name; everything else percent-encodes so '/', '=', spaces
    and unicode can't break the directory layout."""
    if v is None:
        return "__HIVE_DEFAULT_PARTITION__"
    from urllib.parse import quote

    return quote(str(v), safe="")


def _export_params(
    blocks_root: str, columns, row_filter, ordered: bool, partition_by=None
) -> dict:
    from .decode import normalize_dnf

    return {
        "blocks_root": str(Path(blocks_root).resolve()),
        "columns": list(columns) if columns else None,
        "partition_by": list(partition_by) if partition_by else None,
        "filter": (
            [
                [_jsonable_predicate(p) for p in conj]
                for conj in normalize_dnf(row_filter)
            ]
            if row_filter
            else None
        ),
        "ordered": bool(ordered),
    }


def check_export_job(out_root: str | os.PathLike, params: dict) -> None:
    """Write the export record on first run; on resume REFUSE a parameter
    mismatch once any partition has been published — a different
    filter/columns would mix rows from two predicates in one output dir."""
    from .manifest import FORMAT_VERSION

    p = export_record_path(out_root)
    os.makedirs(out_root, exist_ok=True)
    if p.exists():
        with open(p) as f:
            rec = json.load(f)
        if rec.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"export root {out_root} was written with format_version "
                f"{rec.get('format_version')}, this rayenc writes "
                f"{FORMAT_VERSION}; use a fresh out_root"
            )
        from .manifest import canon_param

        mismatched = {
            k: (rec["params"].get(k), params.get(k))
            for k in params
            if canon_param(k, rec["params"].get(k)) != canon_param(k, params.get(k))
        }
        # rglob: partition_by exports publish under key subdirectories.
        # _done markers count too: an all-empty hive export (every row
        # filtered out) publishes markers and ZERO part files — without
        # this, a param-drift rerun would rewrite the record while the
        # stale markers silently skip every partition
        published = any(Path(out_root).rglob("part-*.parquet")) or any(
            Path(out_root).glob("_done-*")
        )
        if mismatched and published:
            raise ValueError(
                f"export resume parameter mismatch for {out_root}: "
                f"{mismatched} — published partitions were decoded under "
                "the recorded values (use a fresh out_root)"
            )
        if mismatched:
            p.unlink()  # nothing published: safe to rewrite the record
        else:
            return
    tmp = _tmp_path(p)
    with open(tmp, "w") as f:
        json.dump({"format_version": FORMAT_VERSION, "params": params}, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, p)


class PartitionExporter(_PartitionStage):
    """Partition stage of run_export_job: one committed block partition
    id in -> one published parquet of original rows out. Decode reuses
    the exact decode_dataset semantics locally: zone/Bloom prune ->
    page-pruned BlockDecoder -> exact DNF row filter -> projection.

    Memory bound: one partition's decoded rows live in the task at once
    (<= max_partition_bytes source bytes, 256 MiB at defaults) — the
    same per-task ceiling the encode side's PartitionEncoder works to."""

    def __init__(
        self,
        blocks_root: str,
        out_root: str,
        columns: list[str] | None = None,
        row_filter: list | None = None,
        ordered: bool = True,
        partition_by: list[str] | None = None,
        chaos_dir: str | None = None,
    ):
        from .decode import BlockDecoder, normalize_dnf

        self.chaos_dir = chaos_dir

        self.blocks_dir = Path(blocks_root) / "blocks"
        self.out_root = Path(out_root)
        self.out_root.mkdir(parents=True, exist_ok=True)
        self.columns = columns
        self.partition_by = list(partition_by) if partition_by else None
        self.dnf = normalize_dnf(row_filter) if row_filter else None
        decode_cols = columns
        if columns and self.dnf:
            # filter columns must decode even when projected out
            flat = [pr for conj in self.dnf for pr in conj]
            decode_cols = columns + sorted(
                {c for c, _, _ in flat if c not in columns}
            )
        self.core = BlockDecoder(columns=decode_cols, filter=row_filter)
        self.decode_cols = decode_cols  # None = all source columns
        self.ordered = ordered

    def _run(self, pid: str) -> dict:
        from .decode import filter_table_dnf, zone_may_match_any

        t0 = time.perf_counter()
        src = self.blocks_dir / f"{pid}.parquet"
        # racing-rerun skip BEFORE any block bytes are read (the seq in
        # the published name is unknown here, so match by pid). A
        # partition_by export publishes SEVERAL files per partition, so
        # its commit token is the per-partition _done marker written
        # after the last key file (underscore-prefixed: parquet dataset
        # discovery over out_root ignores it)
        done_marker = self.out_root / f"_done-{pid}"
        published = (
            done_marker.exists()
            if self.partition_by
            else next(self.out_root.glob(f"part-*-{pid}.parquet"), None) is not None
        )
        if published:
            return {"partition_id": pid, "rows": -1, "skipped": True, "wall_s": 0.0}
        # projection pushdown at the file read: only the decoded columns'
        # col_* blobs leave the parquet — an exported 2-column projection
        # must not deserialize a multi-MB content blob per block
        names = pq.read_schema(str(src)).names
        keep = [c for c in names if not c.startswith("col_")]
        if self.decode_cols is None:
            keep = names
        else:
            keep += [c for c in names if c.startswith("col_")
                     and c[4:] in self.decode_cols]
        blocks = pq.read_table(src, columns=keep)
        blocks_all = blocks  # pre-prune reference for the empty-schema probe
        seq = (
            int(blocks["partition_seq"][0].as_py())
            if "partition_seq" in blocks.column_names and len(blocks)
            else 0
        )
        if self.ordered and "block_seq" in blocks.column_names:
            blocks = blocks.sort_by("block_seq")
        if self.dnf and "zonemap" in blocks.column_names:
            mask = [
                zone_may_match_any(json.loads(z) if z else {}, self.dnf)
                for z in blocks["zonemap"].to_pylist()
            ]
            blocks = blocks.filter(pa.array(mask, type=pa.bool_()))
        if len(blocks):
            dec = self.core(blocks)
        else:
            dec = None  # every block pruned: publish an empty (0-row) file
        if dec is not None and self.dnf:
            dec = filter_table_dnf(dec, self.dnf)
        if dec is not None and self.columns:
            dec = dec.select(self.columns)
        if dec is None:
            # every block pruned: the empty file still needs the decoded
            # schema — derive it from one unpruned block row (already in
            # memory; no second file read)
            dec = self.core(blocks_all.slice(0, 1))
            if self.dnf:
                dec = filter_table_dnf(dec, self.dnf)
            if self.columns:
                dec = dec.select(self.columns)
            dec = dec.slice(0, 0)
        if self.partition_by:
            self._write_partitioned(dec, seq, pid, done_marker)
        else:
            out_file = self.out_root / f"part-{seq:06d}-{pid}.parquet"
            tmp = _tmp_path(out_file)
            pq.write_table(dec, tmp, compression="zstd")
            os.replace(tmp, out_file)  # atomic publish: existence == committed
            if self.chaos_dir:
                # crash window under test: published but the task result
                # is lost — the retry must SKIP on the part-file glob
                _chaos_die_once(self.chaos_dir, pid)
        return {
            "partition_id": pid,
            "rows": len(dec),
            "skipped": False,
            "wall_s": round(time.perf_counter() - t0, 3),
        }

    def _write_partitioned(
        self, dec: pa.Table, seq: int, pid: str, done_marker: Path
    ) -> None:
        """Hive-layout publish: rows route to one `key=value/` directory
        per distinct partition-key combination (the brief's "one
        directory per key range" output rule), each holding this
        partition's `part-{seq:06d}-{pid}.parquet`. Multi-file publish
        can't be one atomic rename, so the commit token is the _done
        marker written LAST: a crash mid-partition leaves some key files
        on disk but no marker, and the rerun redecodes the partition and
        os.replace()s every key file with identical content before
        re-writing the marker — exactly-once semantics at the partition
        level. Key columns stay IN the files (the directories are
        routing, not the only copy), so plain recursive read_parquet
        reconstructs the full table with no hive-parsing dependency."""
        import pyarrow.compute as pc

        keys = self.partition_by
        for c in keys:
            f = dec.schema.field(c)
            if pa.types.is_floating(f.type) or pa.types.is_nested(f.type):
                raise ValueError(
                    f"partition_by column {c!r} has type {f.type}: float keys "
                    "are not routable (NaN breaks equality) and nested keys "
                    "have no path form"
                )
        combo_t = (
            dec.select(keys).group_by(keys).aggregate([])
            if len(dec)
            else dec.select(keys).slice(0, 0)
        )
        # cardinality guard BEFORE to_pylist (a near-unique key would
        # otherwise materialize millions of per-row dicts just to trip it)
        if combo_t.num_rows > 10_000:
            raise ValueError(
                f"partition_by {keys} yields {combo_t.num_rows} distinct key "
                "combinations in one partition — a high-cardinality key "
                "would write that many files PER PARTITION; partition by a "
                "low-cardinality column (or bucket the key first)"
            )
        combos = combo_t.to_pylist()
        # case-folded collision check: values differing only by case
        # ('C' vs 'c') would route to ONE directory + identical file name
        # on a case-insensitive filesystem (macOS/Windows) and the second
        # os.replace would silently drop the first combo's rows — refuse
        # on every platform rather than lose rows on some
        folded: dict[str, tuple] = {}
        for combo in combos:
            seg = "/".join(f"{c}={_hive_val(combo[c])}" for c in keys)
            prev = folded.setdefault(seg.lower(), tuple(combo[c] for c in keys))
            if prev != tuple(combo[c] for c in keys):
                raise ValueError(
                    f"partition_by key values {prev!r} and "
                    f"{tuple(combo[c] for c in keys)!r} collide case-folded "
                    "(same path on a case-insensitive filesystem); normalize "
                    "or bucket the key first"
                )
        for combo in sorted(
            combos, key=lambda c: tuple(_hive_val(c[k]) for k in keys)
        ):
            mask = None
            for c in keys:
                v = combo[c]
                m = (
                    pc.is_null(dec[c])
                    if v is None
                    else pc.fill_null(
                        pc.equal(dec[c], pa.scalar(v, type=dec.schema.field(c).type)),
                        False,
                    )
                )
                mask = m if mask is None else pc.and_(mask, m)
            sub = dec.filter(mask)
            d = self.out_root.joinpath(*[f"{c}={_hive_val(combo[c])}" for c in keys])
            d.mkdir(parents=True, exist_ok=True)
            out_file = d / f"part-{seq:06d}-{pid}.parquet"
            tmp = _tmp_path(out_file)
            pq.write_table(sub, tmp, compression="zstd")
            os.replace(tmp, out_file)
        if self.chaos_dir:
            # crash window under test: every key file written, marker
            # absent — the retry must re-decode and re-publish
            # idempotently, then write the marker
            _chaos_die_once(self.chaos_dir, pid)
        tmp = _tmp_path(done_marker)
        with open(tmp, "w") as f:
            json.dump({"files": len(combos), "rows": len(dec)}, f)
        os.replace(tmp, done_marker)  # commit: marker existence == done


def run_export_job(
    blocks_root: str,
    out_root: str,
    columns: list[str] | None = None,
    filter: list | None = None,
    ordered: bool = True,
    concurrency: int | tuple[int, int] | None = None,
    partition_by: list[str] | None = None,
    chaos_dir: str | None = None,
) -> dict:
    """Resumable distributed decode-export. Returns a summary dict.

    `chaos_dir` is the tests-only fault-injection hook (see
    run_encode_job): first attempt per partition hard-exits its task —
    after the atomic publish on the flat path (retry must skip), after
    the key files but before the _done marker on the hive path (retry
    must re-publish idempotently).

    Output layout: ``out_root/part-{partition_seq:06d}-{pid}.parquet`` —
    one file per committed block partition, published atomically, named
    so a sorted directory listing reads back in source plan order
    (``ordered=True`` additionally sorts blocks by block_seq inside each
    file, so file-order + row-order == original row order for ordered
    encodes). Rerun-safe: published partitions are skipped before any
    block is read; the export record refuses a filter/columns change
    onto a half-finished dir (same class as the encode job record).

    ``partition_by=[col, ...]`` switches to a hive-style layout:
    ``out_root/col=value/part-{seq:06d}-{pid}.parquet`` — one directory
    per distinct key combination (the brief's "one directory per key
    range" output rule; pair with a ``cluster_by`` encode on the same
    key for disjoint key ranges per file). Keys must be string/int/bool/
    date-like (float keys are refused: NaN breaks equality routing) and,
    under a projection, included in ``columns``. The per-partition
    commit token becomes an underscore-prefixed ``_done-{pid}`` marker
    written after the last key file (multi-file publish can't be one
    rename), so reruns and crash recovery keep exactly-once semantics at
    the partition level."""
    from .decode import normalize_dnf, validate_predicate_shapes

    manifest = Manifest(blocks_root)
    entries = manifest.entries()
    if not entries:
        raise ValueError(f"no committed partitions under {blocks_root}")
    # a filtered ENCODE can commit a partition with zero blocks (no
    # blocks parquet on disk, entry records blocks=0): nothing to export
    # there — reading its missing file would crash the task, and leaving
    # it "pending" would re-schedule it on every rerun
    committed = sorted(e["partition_id"] for e in entries)
    nonempty = sorted(
        e["partition_id"] for e in entries if int(e.get("blocks", 0)) > 0
    )
    # all-empty jobs skip validation: there is no schema file to check
    # against and nothing to export — the summary is empty either way (a
    # filtered encode can legitimately commit only zero-block partitions)
    have: set[str] = set()
    if nonempty and (filter or partition_by):
        first = Path(blocks_root) / "blocks" / f"{nonempty[0]}.parquet"
        have = {
            c[4:] for c in pq.read_schema(str(first)).names if c.startswith("col_")
        }
    if filter and nonempty:
        for conj in normalize_dnf(filter):
            validate_predicate_shapes(conj, have, "block table")
    if partition_by:
        if columns:
            missing = [c for c in partition_by if c not in columns]
            if missing:
                raise ValueError(
                    f"partition_by columns {missing} must be included in the "
                    f"export projection {columns}"
                )
        if nonempty:
            bad = [c for c in partition_by if c not in have]
            if bad:
                raise ValueError(
                    f"partition_by columns {bad} not in the block table "
                    f"(have: {sorted(have)})"
                )
            # key-TYPE gate at the driver, BEFORE the record is written
            # and any task decodes a whole partition: decode one block
            # row's key columns and refuse float/nested keys here (the
            # in-task check stays as defense in depth)
            from .decode import BlockDecoder

            probe = BlockDecoder(columns=list(partition_by))(
                pq.read_table(str(first)).slice(0, 1)
            )
            for c in partition_by:
                f = probe.schema.field(c)
                if pa.types.is_floating(f.type) or pa.types.is_nested(f.type):
                    raise ValueError(
                        f"partition_by column {c!r} has type {f.type}: float "
                        "keys are not routable (NaN breaks equality) and "
                        "nested keys have no path form"
                    )
    params = _export_params(blocks_root, columns, filter, ordered, partition_by)
    check_export_job(out_root, params)
    if partition_by:
        # marker tmp files are '__done-*.tmp' (_tmp_path prefixes '_'),
        # which the '_done-*' glob can never match — no filter needed
        done = {
            f.name.removeprefix("_done-") for f in Path(out_root).glob("_done-*")
        }
    else:
        done = {
            f.name.split("-", 2)[2].removesuffix(".parquet")
            for f in Path(out_root).glob("part-*-*.parquet")
        }
    pending = [p for p in nonempty if p not in done]
    summary = {
        "partitions_total": len(committed),
        "partitions_skipped": len(committed) - len(pending),
        "partitions_exported": 0,
        "rows": 0,
        "out_root": str(out_root),
    }
    if pending:
        results = _map_partitions(
            PartitionExporter, pending, concurrency, blocks_root=blocks_root,
            out_root=out_root, columns=columns, row_filter=filter,
            ordered=ordered, partition_by=partition_by, chaos_dir=chaos_dir,
        )
        for r in results:
            if r["skipped"]:
                summary["partitions_skipped"] += 1
            else:
                summary["partitions_exported"] += 1
                summary["rows"] += int(r["rows"])
    return summary
