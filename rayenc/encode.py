"""Encode stage: streaming Dataset -> Dataset of encoded column blocks.

The Ray-Data-first restatement of the reference's single-threaded
encode loop (/root/reference/src/bin/js2pq/main.rs:46-131): where the
reference materializes one whole file into one RecordBatch on one
thread, we stream Arrow blocks through ``map_batches`` tasks (the
shared stage dispatch, ``rayenc.dispatch``) — each incoming zero-copy
Arrow batch becomes one encoded block (one output row holding a binary
blob per column + codec lineage + metrics), and the streaming executor
pipelines read / encode / write with backpressure. A worker's encoder
holds only its codec trial cache (SURVEY.md §2.3 T1); all per-block
state (symbol tables, dictionaries) ships inside the blocks, so a
retried task re-encodes the same rows into valid blocks.

Scale notes (100 TB design): no shuffle in this path — encoding is
embarrassingly parallel over blocks; batch_size bounds rows per block so
a batch x concurrency fits worker heaps even with megabyte content
values; blobs flow through the object store to a parquet sink
(compression=NONE — blocks are already compressed).
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any

import pyarrow as pa

import ray.data

from .blocks import encode_column
from .dispatch import map_stage
from .rowhash import chain_hash
from .selector import encode_column_auto

DEFAULT_BLOCK_ROWS = 8192
HASH_COLUMN = "content"
_ZONE_STR_CAP = 64  # truncate long string bounds in the zone map


def _zone_jsonable(v):
    """Scalar -> json-able zone bound (timestamps/dates as epoch ints)."""
    if v is None:
        return None
    if isinstance(v, (int, float, str, bool)):
        return v
    if isinstance(v, bytes):
        try:
            return v.decode("utf-8", "surrogateescape")[:_ZONE_STR_CAP]
        except Exception:
            return None
    # pa scalar leftovers (timestamp/date/decimal): integer view or skip
    try:
        return int(v.value)  # datetime.datetime via pa cast path not hit
    except Exception:
        return None


def _bound_max_str(s: str) -> str | None:
    """A valid UPPER bound for a truncated string max: take the prefix and
    increment its last code point (a bare prefix would under-bound). None
    if no increment is possible (all chars at the cap)."""
    if len(s) <= _ZONE_STR_CAP:
        return s
    p = s[:_ZONE_STR_CAP]
    for i in range(len(p) - 1, -1, -1):
        c = ord(p[i])
        if c < 0x10FFFF:
            return p[:i] + chr(c + 1)
    return None


def column_zone(arr: pa.Array | pa.ChunkedArray) -> dict | None:
    """min/max/null_count for one column chunk, or None when the type has
    no meaningful ordering (nested, binary blobs). The reference exposes
    stats granularity none/chunk/page as a CLI axis
    (/root/reference/src/bin/js2pq/main.rs:18-26,85-89); blocks are our
    'page'."""
    t = arr.type
    if not (
        pa.types.is_integer(t)
        or pa.types.is_floating(t)
        or pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_date(t)
        or pa.types.is_boolean(t)
    ):
        return None
    import pyarrow.compute as pc

    nc = arr.null_count
    if len(arr) - nc == 0:
        z = {"min": None, "max": None, "null_count": int(nc)}
        if pa.types.is_integer(t) or pa.types.is_boolean(t) or pa.types.is_floating(t):
            z["sum"] = None  # SQL SUM over all-NULL is NULL: contributes nothing
        if pa.types.is_floating(t):
            z["nan"] = 0
        return z
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        from .codecs.util import epoch_int_view

        mm = pc.min_max(epoch_int_view(arr))
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
    else:
        mm = pc.min_max(arr)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
    approx = False
    if isinstance(lo, str):
        raw_lo, raw_hi = lo, hi
        lo = lo[:_ZONE_STR_CAP]  # prefix is a valid lower bound
        hi = _bound_max_str(hi)
        # truncated bounds are SOUND for pruning but are strings that do
        # not exist in the data — flag them so the exact-aggregate API
        # (agg_min_max) refuses instead of returning fabricated values
        approx = lo != raw_lo or hi != raw_hi
    z = {"min": _zone_jsonable(lo), "max": _zone_jsonable(hi), "null_count": int(nc)}
    if approx:
        z["approx"] = 1
    # exact per-block SUM for numeric/bool columns (agg_sum pushdown:
    # fully-included blocks fold this number, zero decode). Skipped when
    # the worst-case |sum| could overflow int64 (agg_sum decodes those
    # blocks instead — correct, just not free) and when a float sum is
    # non-finite (NaN/inf don't survive a JSON round-trip comparably).
    if pa.types.is_integer(t) or pa.types.is_boolean(t):
        bound = 1 if pa.types.is_boolean(t) else max(abs(int(lo)), abs(int(hi)))
        if bound * (len(arr) - nc) < 2**62:
            z["sum"] = int(pc.sum(arr).as_py())
    elif pa.types.is_floating(t):
        import math

        s = pc.sum(arr).as_py()
        if s is not None and math.isfinite(s):
            z["sum"] = float(s)
    if pa.types.is_floating(t):
        # pc.min_max SKIPS NaN, so finite bounds say nothing about NaN
        # rows — store the count so zone_must_match and agg_topk's
        # threshold can prove float blocks (NaN fails every comparison
        # and sorts last; without this count no float proof is sound)
        z["nan"] = int(
            pc.sum(pc.fill_null(pc.is_nan(arr), False)).as_py() or 0
        )
    return z


def column_hll(arr: pa.Array | pa.ChunkedArray, b: int) -> str | None:
    """Base64 HLL registers (2^b uint8) for one column chunk, or None for
    types the batched hash kernel can't digest (nested, binary blobs) —
    the same unsupported-type contract as bloom_build: skip, never raise,
    so one exotic column can't kill the whole encode job."""
    import base64

    t = arr.type
    if not (
        pa.types.is_integer(t)
        or pa.types.is_floating(t)
        or pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_date(t)
        or pa.types.is_boolean(t)
        or pa.types.is_decimal(t)
    ):
        return None
    try:
        from .stages.sketch import hll_partial

        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        return base64.b64encode(hll_partial(arr, b=b).tobytes()).decode()
    except Exception:
        return None


def column_kll(arr: pa.Array | pa.ChunkedArray, k: int = 128) -> str | None:
    """JSON KLL quantile sketch for one NUMERIC/temporal column chunk,
    or None for unsketchable types (strings, nested, binary) — the same
    skip-never-raise contract as column_hll. Values sketch in float64
    (temporal on the epoch-int view, the zone convention; int64 beyond
    2^53 lose ulps — quantiles are approximate by charter). The
    compaction seed derives from the column content (CRC of the value
    bytes), so re-deriving the sketch from the decoded column reproduces
    it EXACTLY (check_zones audits it byte-for-byte) while distinct
    blocks still get uncorrelated compaction coins (the round-3 ADVICE
    constant-seed lesson)."""
    import zlib

    t = arr.type
    if not (
        pa.types.is_integer(t)
        or pa.types.is_floating(t)
        or pa.types.is_boolean(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_date(t)
    ):
        return None
    try:
        import pyarrow.compute as pc

        from .stages.sketch import KllSketch

        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if pa.types.is_timestamp(t) or pa.types.is_date(t):
            from .codecs.util import epoch_int_view

            arr = epoch_int_view(arr)
        vals = pc.drop_null(arr).to_numpy(zero_copy_only=False).astype("float64")
        seed = zlib.crc32(vals.tobytes()) or 1
        sk = KllSketch(k, seed=seed)
        sk.update(vals)  # update drops NaN itself; n counts finite values
        return sk.to_json()
    except Exception:
        return None


class BlockEncoder:
    """Stage callable: one input Arrow batch -> one block row.

    Stateful stage: built once per worker per encode (`dispatch.map_stage`
    keeps it in the worker's stage slot) and called per batch, so its
    codec trial cache carries across the batches that worker encodes —
    the Ray analog of the reference's reusable ``Builders`` accumulator
    (/root/reference/src/columns_builder.rs:23-33,109-147).
    """

    def __init__(
        self,
        columns: list[str] | None = None,
        level: int = 3,
        hash_column: str | None = HASH_COLUMN,
        forced_codecs: dict[str, str] | None = None,
        retrial_blocks: int = 16,
        stats: str = "block",
        page_rows: int | None = None,
        decode_weight: float = 0.0,
        bloom: bool = True,
        enc_cap: float | None = None,
        hll: bool = False,
        hll_b: int = 10,
        archive: bool = False,
        kll: bool = False,
        kll_k: int = 128,
        ngram: bool = False,
        ngram_n: int = 3,
    ):
        self.columns = columns
        self.level = level
        self.hash_column = hash_column
        self.forced_codecs = forced_codecs or {}
        if stats not in ("none", "block", "page"):
            raise ValueError(f"stats must be 'none', 'block' or 'page', got {stats!r}")
        self.stats = stats
        # the reference's 3-level stats axis none/chunk/page
        # (/root/reference/src/bin/js2pq/main.rs:18-26,85-89): "page"
        # implies the paged sub-block layout with per-page zone maps
        if stats == "page" and page_rows is None:
            from .blocks import DEFAULT_PAGE_ROWS

            page_rows = DEFAULT_PAGE_ROWS
        self.page_rows = page_rows
        self.page_zones = stats == "page"
        self.decode_weight = decode_weight
        # per-block Bloom filters for equality pruning (rayenc.bloom):
        # built whenever stats are on — two batched hash passes per
        # column, ~10 bits/key serialized into the zonemap JSON
        self.bloom = bloom and stats != "none"
        # opt-in per-block HLL distinct sketches (reserved zonemap key
        # "__hll__"): 2^hll_b uint8 registers per column, base64 in the
        # zonemap JSON (~1.4 KB/column at b=10). Lets agg_approx_distinct
        # estimate column cardinality over a committed block table from
        # metadata alone — zero blobs decoded. OFF by default: one batched
        # hash pass per column per block is real encode cost, and unlike
        # zones/blooms nothing in the decode path needs it.
        self.hll = hll and stats != "none"
        self.hll_b = int(hll_b)
        if self.hll and not (4 <= self.hll_b <= 16):
            raise ValueError(f"hll_b must be in [4, 16], got {hll_b}")
        # opt-in per-block KLL quantile sketches (reserved zonemap key
        # "__kll__"): ~k*3 float64s as JSON per numeric column per block
        # (~7 KB at k=128). Lets agg_approx_quantiles answer percentile
        # queries over a committed block table from metadata alone. OFF
        # by default for the same reason as hll: real encode cost, and
        # the decode path never needs it.
        self.kll = kll and stats != "none"
        self.kll_k = int(kll_k)
        if self.kll and not (16 <= self.kll_k <= 4096):
            raise ValueError(f"kll_k must be in [16, 4096], got {kll_k}")
        # opt-in per-block n-gram Bloom filters (reserved zonemap key
        # "__ngram__"): substring-predicate ("contains") pruning over
        # string columns — the skip-index for grep-style probes on a
        # source-code table (rayenc.bloom module note). OFF by default:
        # content-sized columns pay a full n-gram pass and up to 256 KiB
        # of filter per block, and only the "contains" op reads it.
        self.ngram = ngram and stats != "none"
        self.ngram_n = int(ngram_n)
        if self.ngram and not (2 <= self.ngram_n <= 8):
            raise ValueError(f"ngram_n must be in [2, 8], got {ngram_n}")
        # per-column codec choice cache: trial selection runs on the first
        # block and every `retrial_blocks` thereafter; in between the cached
        # winner encodes directly (per-partition selection granularity —
        # data drifts slowly within a partition, and trial encodes are the
        # dominant selector cost). A failed cached encode falls back to
        # plain and forces a re-trial on the next block.
        self.retrial_blocks = retrial_blocks
        # encode-speed gate passed to the selector (see select_codec):
        # candidates slower than fastest/enc_cap are dropped before ranking
        self.enc_cap = enc_cap
        # opt-in cold-storage tier: the selector additionally trials
        # plain@16/@19 on bulk text (see candidate_codecs) — ~-30%
        # payload at ~15x encode cost; wrong for the throughput-graded
        # operating points, right for write-once archives
        self.archive = archive
        self._cached: dict[str, str] = {}
        self._since_trial: dict[str, int] = {}
        # per-column runoff verdict cache (ROADMAP #3): retrials whose
        # sample ratios match a prior runoff skip the loser's full encode
        self._runoff: dict[str, dict] = {}

    def encode_table(
        self,
        batch: pa.Table,
        block_seq: int = 0,
        partition_id: str = "",
        partition_seq: int = 0,
        row_start: int | None = None,
        codecs: dict[str, str] | None = None,
        defer: list | None = None,
    ) -> pa.Table:
        """Encode one batch into one block row.

        Each column's codec comes from, in order: the encoder's
        `forced_codecs`; the per-call `codecs` (a codec this column's
        block already recorded in its lineage: a copy-on-write rewrite
        re-encodes with it instead of trialling, lineage reason
        ``"reused <codec>"``); the per-column cache of an earlier trial;
        a fresh selector trial. A forced, reused or cached codec that
        cannot encode the values (``bitpack`` after a negative value)
        falls back to ``plain`` and the reason names the codec that
        failed. Of these, only a cached codec touches the trial cache: it
        counts toward the next retrial, or is dropped when it failed so
        the next block re-trials.

        With `defer` (a list), the block's trial-cache updates are
        appended to it instead of applied, for `settle` to apply in
        block order: blocks that `cached_run` admits then encode
        concurrently with the cache left as it was."""
        cols = self.columns or batch.column_names
        codecs = codecs or {}
        for reserved in ("__bloom__", "__hll__", "__kll__", "__ngram__"):
            # reserved zonemap keys hold the per-column Bloom filter / HLL
            # register maps; a real column by either name would collide and
            # silently mis-prune (or mis-estimate) on the metadata paths.
            if reserved in cols:
                raise ValueError(
                    f"column name {reserved!r} is reserved by the block format"
                )
        n = batch.num_rows
        out: dict[str, Any] = {}
        lineage: dict[str, Any] = {}
        zones: dict[str, dict] = {}
        src_bytes = 0
        enc_bytes = 0
        h = hashlib.sha256()
        # {reserved zonemap key: (builder, {column: sketch})}
        sketches = {k: (build, {}) for k, build in self._sketch_builders().items()}
        # trial-cache updates: (column, "trial" | "cached" | "failed", codec)
        updates: list[tuple] = []
        for name in cols:
            arr = batch[name]
            if self.stats in ("block", "page"):
                z = column_zone(arr)
                if z is not None:
                    zones[name] = z
            for build, built in sketches.values():
                sk = build(arr)
                if sk is not None:
                    built[name] = sk
            t0 = time.perf_counter()
            given = self._given_codec(name, codecs)
            if given is None:
                blob, choice = encode_column_auto(
                    arr,
                    self.level,
                    page_rows=self.page_rows,
                    page_zones=self.page_zones,
                    decode_weight=self.decode_weight,
                    page_blooms=self.bloom,
                    enc_cap=self.enc_cap,
                    # retrial_blocks=0 means "every block decides from its
                    # own content" (q_codec_selection_documents relies on
                    # lineage being a pure function of the block) — the
                    # cross-block runoff verdict cache must stay off there
                    runoff_cache=(
                        self._runoff.setdefault(name, {})
                        if self.retrial_blocks > 0
                        else None
                    ),
                    archive=self.archive,
                )
                choice_info = choice.lineage()
                updates.append((name, "trial", choice.codec))
            else:
                codec, reason, failed, cached = given
                try:
                    blob = encode_column(
                        arr, codec, self.level, self.page_rows, self.page_zones,
                        self.bloom,
                    )
                    choice_info, how = {"codec": codec, "reason": reason}, "cached"
                except Exception:
                    blob = encode_column(
                        arr, "plain", self.level, self.page_rows, self.page_zones,
                        self.bloom,
                    )
                    choice_info, how = {"codec": "plain", "reason": failed}, "failed"
                if cached:
                    updates.append((name, how, codec))
            ms = (time.perf_counter() - t0) * 1000
            src_bytes += arr.nbytes
            enc_bytes += len(blob)
            choice_info.update(
                {"src_bytes": int(arr.nbytes), "enc_bytes": len(blob), "ms": round(ms, 3)}
            )
            lineage[name] = choice_info
            if len(blob) >= (1 << 31):
                # pa.binary() carries int32 offsets: a >=2 GiB blob would
                # die later in ArrowCapacityError with no hint — name the
                # fix instead (one blob this size also defeats the
                # per-block random-access story)
                raise ValueError(
                    f"encoded blob for column {name!r} is {len(blob)} bytes "
                    "(>= 2 GiB): lower block_rows / max_block_bytes so one "
                    "block's encoded column stays under the Arrow binary "
                    "offset limit"
                )
            out[f"col_{name}"] = pa.array([blob], type=pa.binary())
            # full-blob digest: a 64-byte prefix is mostly the fixed JSON
            # header and collides across distinct blocks of the same shape
            h.update(hashlib.sha256(blob).digest())
        for key, (_, built) in sketches.items():
            if built:
                zones[key] = built
        h.update(n.to_bytes(8, "little"))
        content_hash = ""
        if self.hash_column and self.hash_column in cols:
            content_hash = chain_hash(batch[self.hash_column])
            h.update(content_hash.encode())
        block_id = h.hexdigest()[:32]
        if defer is None:
            self.settle(updates)
        else:
            defer.extend(updates)
        meta = {
            "block_id": pa.array([block_id]),
            "partition_id": pa.array([partition_id]),
            "partition_seq": pa.array([partition_seq], type=pa.int64()),
            "block_seq": pa.array([block_seq], type=pa.int64()),
            "n_rows": pa.array([n], type=pa.int64()),
            "source_bytes": pa.array([src_bytes], type=pa.int64()),
            "encoded_bytes": pa.array([enc_bytes], type=pa.int64()),
            "content_sha256": pa.array([content_hash]),
            # within-partition exclusive row cumsum, recorded AT ENCODE
            # TIME by the ordered paths (the encoder sees its partition's
            # blocks in order, so the offset is free here). Lets
            # take_rows / attach_global_row_numbers compute global row
            # numbers from per-PARTITION totals only — no O(n_blocks)
            # driver materialization (VERDICT r3 #6). Ordered encoders
            # pass it; the unordered streaming path leaves it out.
            **(
                {"row_start": pa.array([row_start], type=pa.int64())}
                if row_start is not None
                else {}
            ),
            "lineage": pa.array([json.dumps(lineage, separators=(",", ":"))]),
            "zonemap": pa.array([json.dumps(zones, separators=(",", ":"))]),
        }
        meta.update(out)
        return pa.table(meta)

    def _sketch_builders(self) -> dict:
        """{reserved zonemap key: per-column builder} of the sketches
        this encoder keeps, in zonemap key order. Built per call, so a
        builder swapped into its module after import is the one used."""
        from .bloom import bloom_build, ngram_bloom_build

        kept = {
            "__bloom__": (self.bloom, bloom_build),
            "__hll__": (self.hll, lambda a: column_hll(a, self.hll_b)),
            "__kll__": (self.kll, lambda a: column_kll(a, self.kll_k)),
            "__ngram__": (self.ngram, lambda a: ngram_bloom_build(a, self.ngram_n)),
        }
        return {k: build for k, (on, build) in kept.items() if on}

    def _given_codec(self, name: str, codecs: dict) -> tuple | None:
        """(codec, lineage reason, reason if it fails, tracked) for a
        column whose codec is forced, reused from its block's lineage or
        cached from an earlier trial; None when the selector must trial
        it. Only a cached codec's outcome is `tracked` in the trial
        cache."""
        if forced := self.forced_codecs.get(name):
            return forced, "forced", f"forced {forced} failed; zstd backstop", False
        if reused := codecs.get(name):
            return reused, f"reused {reused}", f"reused {reused} failed; zstd backstop", False
        cached = self._cached.get(name)
        if cached is not None and self._since_trial.get(name, 0) < self.retrial_blocks:
            return cached, "cached selection", f"cached {cached} failed; re-trial next block", True
        return None

    def settle(self, updates: list) -> bool:
        """Apply one block's trial-cache updates (`encode_table`'s
        `defer`): a new trial sets the column's codec, a cached encode
        counts toward the next retrial, a failed one drops the codec so
        the next block re-trials. False when a cached codec failed."""
        for name, how, codec in updates:
            if how == "trial":
                self._cached[name] = codec
                self._since_trial[name] = 0
            elif how == "cached":
                self._since_trial[name] += 1
            else:
                del self._cached[name]
        return all(how != "failed" for _, how, _ in updates)

    def cached_run(self, batch: pa.Table) -> int:
        """How many blocks from `batch` on encode every column from the
        forced codecs or the trial cache, with no trial: 0 when `batch`
        runs one."""
        cols = [c for c in self.columns or batch.column_names
                if c not in self.forced_codecs]
        if any(c not in self._cached for c in cols):
            return 0
        return max(0, min((self.retrial_blocks - self._since_trial[c] for c in cols),
                          default=self.retrial_blocks))

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.encode_table(batch)


def _preselect_sample(ds: "ray.data.Dataset", rows: int) -> "pa.Table":
    """Deterministic stratified sample for preselect_codecs.

    `ds.limit(rows).take_batch(...)` returns whichever read task's rows
    arrive first — a SCHEDULING-DEPENDENT sample. Measured on the bench
    corpus: the content finalists (fsst@9 vs plain@12) sit within ~4% on
    single-block samples, so the runoff verdict flipped across sessions
    and moved the full-corpus compressed size by 2% (0.6121 vs 0.6271
    size_vs_ref) — on the one metric that is supposed to be
    machine-state-immune. When `ds` is a pure parquet read, sample the
    SORTED file list directly with pyarrow instead: up to 8 files spread
    evenly across the list, the head of each — deterministic across
    sessions AND stratified across the corpus (a single file's head
    over-represents its local content mix; the bench corpus's
    head-of-file blocks favor fsst@9 even though plain@12 wins the
    corpus). Transformed datasets (projections, filters, synthetic
    sources) keep the take_batch fallback: their source files no longer
    reflect the rows the encoder will see."""
    import pyarrow.parquet as pq

    try:
        # pure-read check: anything downstream of Read (projection,
        # filter, map) invalidates sampling the source files directly —
        # INCLUDING reader-level pushdown (read_parquet(filter=/columns=)
        # is still a single Read op, but raw file heads no longer
        # reflect the rows the encoder will see; review finding). Any
        # introspection failure (future Ray renames) degrades to the
        # safe take_batch fallback.
        from ray.data._internal.logical.operators.read_operator import Read

        dag = ds._logical_plan.dag
        src = getattr(dag, "_datasource", None)
        is_pure_read = (
            isinstance(dag, Read)
            and not getattr(src, "_to_batches_kwargs")  # filter= etc.
            and getattr(src, "_data_columns") is None  # columns=
        )
        files = sorted(ds.input_files()) if is_pure_read else []
    except Exception:
        files = []
    files = [f for f in files if f.endswith((".parquet", ".pq"))]
    if files:
        k = min(8, len(files))
        step = len(files) / k
        picks = [files[int(i * step)] for i in range(k)]
        per = (rows + k - 1) // k
        parts: list[pa.Table] = []
        try:
            for f in picks:
                pf = pq.ParquetFile(f)
                got: list[pa.RecordBatch] = []
                need = per
                for b in pf.iter_batches(batch_size=min(per, 8192)):
                    got.append(b.slice(0, need))
                    need -= got[-1].num_rows
                    if need <= 0:
                        break
                if got:
                    parts.append(pa.Table.from_batches(got, schema=pf.schema_arrow))
            if parts:
                # inside the try: schema drift across sampled files
                # (mixed pipeline versions) must degrade to the fallback,
                # not crash preselect (review finding)
                return pa.concat_tables(parts).slice(0, rows).combine_chunks()
        except Exception:
            pass
    return ds.limit(rows).take_batch(rows, batch_format="pyarrow")


def preselect_codecs(
    ds: "ray.data.Dataset",
    block_rows: int = DEFAULT_BLOCK_ROWS,
    level: int = 3,
    decode_weight: float = 0.0,
    enc_cap: float | None = None,
    archive: bool = False,
) -> dict[str, str]:
    """Run the codec selector ONCE on the driver over a deterministic
    block-sized sample and return {column: codec} for `forced_codecs`.

    One idle-driver selection (trials + runoff) replaces a first-block
    trial in every encoder — measured 85 core-s of trial work on a
    24-encoder flagship run, and, worse, inconsistent picks across
    encoders when CPU contention skews the trial timings. Right for
    homogeneous corpora; at 100 TB the one-off cost is noise while the
    per-worker (and per-retry) trial cost is not. The sample
    is stratified across the input files when `ds` is a pure parquet
    read (see _preselect_sample) so the choice map is reproducible
    across sessions."""
    from .selector import encode_column_auto

    sample = _preselect_sample(ds, block_rows)
    forced: dict[str, str] = {}
    for name in sample.column_names:
        _, choice = encode_column_auto(
            sample[name], level, decode_weight=decode_weight, enc_cap=enc_cap,
            archive=archive,
        )
        forced[name] = choice.codec
    return forced


def encode_dataset(
    ds: "ray.data.Dataset",
    columns: list[str] | None = None,
    level: int = 3,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    hash_column: str | None = HASH_COLUMN,
    concurrency: int | tuple[int, int] | None = None,
    forced_codecs: dict[str, str] | None = None,
    retrial_blocks: int = 16,
    stats: str = "block",
    page_rows: int | None = None,
    decode_weight: float = 0.0,
    bloom: bool = True,
    enc_cap: float | None = None,
    hll: bool = False,
    hll_b: int = 10,
    archive: bool = False,
    kll: bool = False,
    kll_k: int = 128,
    ngram: bool = False,
    ngram_n: int = 3,
) -> "ray.data.Dataset":
    """Streaming encode: Dataset of source rows -> Dataset of block rows.

    Each batch of `block_rows` rows becomes one block, encoded by a
    `BlockEncoder` run as Ray Data tasks (`dispatch.map_stage`): at most
    `concurrency` in flight (an int, or a (min, max) pair's upper
    bound), and Ray Data sizes it when None. Each worker builds one
    encoder per call, so a worker trials each column on its first block
    and every `retrial_blocks` after that.

    `forced_codecs=preselect_codecs(ds, ...)` runs the codec selector
    ONCE on the driver over a block-sized sample and ships the choices as
    forced codecs — every worker then encodes directly (no first-block
    trials, no runoff double-encodes). Right for homogeneous corpora
    where per-partition drift is small; leave it unset when column
    distributions shift across the input (the trial cache re-adapts
    every `retrial_blocks`). A forced codec that fails on a later block
    falls back to plain per block."""
    if columns:
        ds = ds.select_columns(columns)
    return map_stage(
        ds,
        BlockEncoder,
        {
            "columns": columns,
            "level": level,
            "hash_column": hash_column,
            "forced_codecs": forced_codecs,
            "retrial_blocks": retrial_blocks,
            "stats": stats,
            "page_rows": page_rows,
            "decode_weight": decode_weight,
            "bloom": bloom,
            "enc_cap": enc_cap,
            "hll": hll,
            "hll_b": hll_b,
            "archive": archive,
            "kll": kll,
            "kll_k": kll_k,
            "ngram": ngram,
            "ngram_n": ngram_n,
        },
        concurrency=concurrency,
        batch_size=block_rows,
        zero_copy_batch=True,
    )


def write_blocks(blocks: "ray.data.Dataset", out_dir: str) -> None:
    """Sink a block Dataset to parquet WITHOUT recompression (blocks are
    already codec-compressed; paying zstd twice would only burn CPU —
    the reference's stats-off-for-binary precedent,
    /root/reference/src/bin/js2pq/main.rs:110-111)."""
    blocks.write_parquet(out_dir, compression="none")


def read_blocks(path: "str | list[str]") -> "ray.data.Dataset":
    """Open a block table written by write_blocks / the encode job.

    A LIST of paths unions block tables from several job dirs in one
    read (schema evolution across pipeline versions: parquet schema
    unification null-fills col_* columns a dir predates — decode them
    with decode_dataset(..., fill_missing={col: type}))."""
    if isinstance(path, (list, tuple)):
        if not path:
            raise ValueError("read_blocks: empty path list")

        import pyarrow.parquet as pq
        from pyarrow.fs import FileSelector, FileSystem, FileType, LocalFileSystem

        # resolve dirs/files through pyarrow.fs so object-store URIs
        # (s3://...) work the same as local paths; one filesystem must
        # serve every path (mixed schemes can't share one Ray read op)
        fs = None
        files: list[str] = []
        for p in path:
            p_fs, rel = (
                FileSystem.from_uri(p) if "://" in p else (LocalFileSystem(), p)
            )
            if fs is None:
                fs = p_fs
            elif not fs.equals(p_fs):
                raise ValueError(f"read_blocks: mixed filesystems in {path!r}")
            info = fs.get_file_info(rel)
            if info.type == FileType.Directory:
                found = sorted(
                    fi.path
                    for fi in fs.get_file_info(FileSelector(rel))
                    if fi.is_file and fi.path.endswith(".parquet")
                )
                if not found:
                    raise FileNotFoundError(f"no .parquet block files in {p!r}")
                files += found
            elif info.type == FileType.File:
                files.append(rel)
            else:
                raise FileNotFoundError(f"read_blocks: no such path {p!r}")
        # Ray's read_parquet reports the FIRST file's schema and lets each
        # file's batches keep their own — a projection of a column only
        # later files carry then fails mid-pipeline. Unify the footer
        # schemas on the driver (metadata-only reads, threaded: planning
        # cost is O(n_files) footer fetches) and pin the read to the
        # union; the scanner null-fills columns a file predates.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(16, len(files))) as ex:
            schemas = list(ex.map(lambda f: pq.read_schema(f, filesystem=fs), files))
        unified = pa.unify_schemas(schemas)
        return ray.data.read_parquet(files, schema=unified, filesystem=fs)
    return ray.data.read_parquet(path)


def compact_blocks(
    blocks: "ray.data.Dataset",
    block_rows: int = DEFAULT_BLOCK_ROWS,
    level: int = 3,
    hash_column: str | None = None,
    concurrency: int | tuple[int, int] | None = None,
) -> "ray.data.Dataset":
    """Re-block an encoded block table: decode -> re-encode at the target
    block size, streaming end to end (decode and encode tasks pipeline
    through the object store; nothing materializes). The
    maintenance op for long-running ingestion, where many small commits
    leave under-sized blocks that waste header overhead and zstd window
    reach — compaction at 8k+ rows/block recovers both."""
    from .decode import decode_dataset

    decoded = decode_dataset(blocks, concurrency=concurrency)
    return encode_dataset(
        decoded,
        block_rows=block_rows,
        level=level,
        hash_column=hash_column,
        concurrency=concurrency,
    )


def lineage_table(blocks_ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-(block, column) codec-choice lineage rows from a block Dataset."""

    def explode(batch: pa.Table) -> pa.Table:
        rows: dict[str, list] = {
            "block_id": [],
            "column": [],
            "codec": [],
            "src_bytes": [],
            "enc_bytes": [],
            "ms": [],
            "reason": [],
        }
        for bid, lin in zip(
            batch["block_id"].to_pylist(), batch["lineage"].to_pylist()
        ):
            for col, info in json.loads(lin).items():
                rows["block_id"].append(bid)
                rows["column"].append(col)
                rows["codec"].append(info["codec"])
                rows["src_bytes"].append(info["src_bytes"])
                rows["enc_bytes"].append(info["enc_bytes"])
                rows["ms"].append(info["ms"])
                rows["reason"].append(info.get("reason", ""))
        return pa.table(
            {
                "block_id": pa.array(rows["block_id"]),
                "column": pa.array(rows["column"]),
                "codec": pa.array(rows["codec"]),
                "src_bytes": pa.array(rows["src_bytes"], type=pa.int64()),
                "enc_bytes": pa.array(rows["enc_bytes"], type=pa.int64()),
                "ms": pa.array(rows["ms"], type=pa.float64()),
                "reason": pa.array(rows["reason"]),
            }
        )

    return blocks_ds.map_batches(explode, batch_format="pyarrow")
