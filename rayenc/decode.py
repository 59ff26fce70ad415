"""Decode stage: Dataset of encoded block rows -> original columns.

The analog of the reference's columnar read path
(/root/reference/src/bin/parqbench/main.rs:276-333): per block, per
column, a typed decode back into Arrow arrays — except ours is a
distributed ``map_batches`` stage over the block table instead of a
single-threaded loop, and decode must be bit-identical (the round-trip
contract of /root/reference/src/vec_pq_reader.rs:793-882).

Row order is stable within a block and blocks carry
(partition_id, block_seq), so global order is reconstructible
(SURVEY.md §2.5 ordering note).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .blocks import decode_column
from .dispatch import map_stage, slot_stage

# (column, op, value) predicates; op in {"==", ">=", "<=", ">", "<",
# "!=", "in", "prefix", "contains"} ("in" takes a list/tuple/set of
# values; "prefix" takes a string and matches rows whose value starts
# with it — zone-prunable because every p-prefixed string sits in
# [p, succ(p)); "contains" takes a non-empty string and matches rows
# whose value has it as a substring — block-prunable only on tables
# encoded with ngram=True, via the per-block n-gram Bloom filters).
# A filter is a
# CONJUNCTION (list of predicates) or, decode-side, a DISJUNCTION of
# conjunctions (list of lists — DNF: [[a, b], [c]] = (a AND b) OR c).
# Timestamp/date columns compare on their epoch-integer view (the zone
# map stores them as ints; pass ints in predicates).
Predicate = tuple[str, str, Any]

_OPS = {
    "==": pc.equal,
    "=": pc.equal,
    ">=": pc.greater_equal,
    ">": pc.greater,
    "<=": pc.less_equal,
    "<": pc.less,
}
# handled out-of-table (no single compute kernel)
_EXTRA_OPS = {"!=", "in", "prefix", "contains"}


def normalize_dnf(filter) -> list[list[Predicate]]:
    """Normalize a filter to DNF (list of conjunctions). A flat
    conjunction [(col, op, val), ...] becomes a one-disjunct DNF; a
    list-of-lists passes through. Discriminated by the first element's
    first item: a predicate starts with a column NAME, a conjunction
    with another tuple."""
    if not filter:
        return []
    first = filter[0]
    if isinstance(first, (tuple, list)) and first and isinstance(first[0], str):
        return [list(filter)]  # flat conjunction
    return [list(conj) for conj in filter]


def zone_may_match(zone: dict, predicates: list[Predicate]) -> bool:
    """False only when the block's min/max (or, for equality predicates,
    its Bloom filter — rayenc.bloom) PROVE no row can satisfy the
    conjunction; missing stats never prune (safe default)."""
    blooms = zone.get("__bloom__") or {}
    ngrams = zone.get("__ngram__") or {}
    for col, op, val in predicates:
        if col in blooms:
            from .bloom import bloom_may_contain

            if op in ("==", "=") and not bloom_may_contain(blooms[col], val):
                return False
            if op == "in" and not any(
                bloom_may_contain(blooms[col], v) for v in val
            ):
                return False
        if op == "contains" and col in ngrams:
            from .bloom import ngram_bloom_may_contain

            if not ngram_bloom_may_contain(ngrams[col], val):
                return False
        z = zone.get(col)
        if z is None:
            continue
        lo, hi = z.get("min"), z.get("max")
        if lo is None and hi is None:
            return False  # all-null block: comparisons never match
        try:
            if op in ("==", "="):
                if (lo is not None and val < lo) or (hi is not None and val > hi):
                    return False
            elif op == "in":
                if not any(
                    not ((lo is not None and v < lo) or (hi is not None and v > hi))
                    for v in val
                ):
                    return False  # every member provably outside [lo, hi]
            elif op == "!=":
                # only a CONSTANT block equal to val is provably empty —
                # and for float columns only when NO NaN rows hide behind
                # the NaN-skipping bounds (NaN != val is TRUE, so a NaN
                # row matches; legacy zones without the count keep the
                # block: sound, just not pruned)
                if lo is not None and lo == hi == val:
                    is_float = isinstance(lo, float) or isinstance(hi, float)
                    if not is_float or z.get("nan") == 0:
                        return False
            elif op == "prefix":
                # p-prefixed strings lie in [p, succ(p)). Sound under the
                # zone map's truncated bounds: stored lo is a prefix cut
                # (still a lower bound — s >= lo implies s[:k] >= lo[:k]),
                # stored hi is truncated-and-bumped (still an upper bound)
                if hi is not None and isinstance(hi, str) and hi < val:
                    return False
                if (
                    lo is not None
                    and isinstance(lo, str)
                    and lo[: len(val)] > val
                ):
                    return False
            elif op == ">=":
                if hi is not None and hi < val:
                    return False
            elif op == ">":
                if hi is not None and hi <= val:
                    return False
            elif op == "<=":
                if lo is not None and lo > val:
                    return False
            elif op == "<":
                if lo is not None and lo >= val:
                    return False
        except TypeError:
            continue  # incomparable types: don't prune
    return True


def zone_may_match_any(zone: dict, dnf: list[list[Predicate]]) -> bool:
    """DNF zone check: the block survives if ANY disjunct may match."""
    return any(zone_may_match(zone, conj) for conj in dnf)


def zone_must_match(zone: dict, predicates: list[Predicate]) -> bool:
    """True only when the block's stats PROVE every row satisfies the
    conjunction: each predicate column has a zone with null_count == 0
    (a null row fails every comparison) and [min, max] entirely inside
    the predicate's accepted range. Anything unprovable returns False —
    the caller falls back to decoding, so a False here is never wrong,
    only slower."""
    for col, op, val in predicates:
        z = zone.get(col)
        if z is None:
            return False
        lo, hi = z.get("min"), z.get("max")
        if lo is None or hi is None or z.get("null_count", 1) != 0:
            return False
        if (isinstance(lo, float) or isinstance(hi, float)) and z.get("nan") != 0:
            # zone bounds skip NaN (pc.min_max semantics), and a NaN row
            # fails every comparison — a float block proves only when its
            # stored NaN count is zero; legacy zones (no count) never
            # prove, they just decode (False here is never wrong)
            return False
        try:
            if op in ("==", "="):
                if not (lo == hi == val):
                    return False
            elif op == "!=":
                if not (hi < val or lo > val):
                    return False
            elif op == ">=":
                if not lo >= val:
                    return False
            elif op == ">":
                if not lo > val:
                    return False
            elif op == "<=":
                if not hi <= val:
                    return False
            elif op == "<":
                if not hi < val:
                    return False
            elif op == "in":
                if not (lo == hi and lo in val):
                    return False
            elif op == "prefix":
                # both stored bounds starting with p proves every value
                # does: v in [lo, hi] pins v[:len(p)] between lo[:len(p)]
                # and hi[:len(p)], both == p (prefix-cut truncation keeps
                # the first len(p) chars exact whenever startswith holds)
                if not (
                    isinstance(lo, str)
                    and isinstance(hi, str)
                    and lo.startswith(val)
                    and hi.startswith(val)
                ):
                    return False
            else:
                return False
        except TypeError:
            return False  # incomparable types: never prove
    return True


def agg_count(
    blocks: "ray.data.Dataset", filter: list[Predicate] | None = None
) -> int:
    """EXACT filtered row count with aggregate pushdown over the block
    table: blocks whose zones prove NO row matches contribute 0, blocks
    whose zones prove EVERY row matches contribute their stored n_rows —
    neither ships or decodes a blob. Only boundary blocks decode, and
    only their predicate columns (page-pruned on stats='page' encodes).
    On a sorted 100 TB table a range count touches two boundary blocks'
    worth of payload; everything else is metadata arithmetic. Unfiltered,
    it is a pure n_rows sum."""
    if not filter:
        n = blocks.sum("n_rows")  # Ray returns None on an EMPTY dataset
        return int(n) if n is not None else 0
    if blocks.schema() is None:  # empty block table: nothing to count
        return 0
    validate_predicates(blocks, filter)
    dnf = normalize_dnf(filter)
    pred_cols = sorted({c for conj in dnf for (c, _, _) in conj})
    # projection pushdown: only predicate-column blobs + stats travel —
    # non-predicate payload (e.g. a multi-MB content column) never ships
    keep = ["block_id", "zonemap", "n_rows"] + [f"col_{c}" for c in pred_cols]
    blocks = blocks.select_columns(
        [c for c in keep if c in blocks.schema().names]
    )

    def part(batch: pa.Table) -> pa.Table:
        dec = BlockDecoder(columns=pred_cols, filter=dnf)
        names = set(batch.column_names)
        total = 0
        for i in range(len(batch)):
            zone = _zone_at(batch, i)
            n = int(batch["n_rows"][i].as_py()) if "n_rows" in names else 0
            if not zone_may_match_any(zone, dnf):
                continue
            if any(zone_must_match(zone, conj) for conj in dnf):
                total += n
                continue
            # boundary block: decode predicate columns only, count exact
            decoded = dec(batch.slice(i, 1))
            total += len(filter_table_dnf(decoded, dnf))
        return pa.table({"c": pa.array([total], type=pa.int64())})

    return int(blocks.map_batches(part, batch_format="pyarrow").sum("c"))


def agg_min_max(blocks: "ray.data.Dataset", col: str) -> dict:
    """min/max/null_count/n_rows for one column from block ZONES alone —
    zero blobs shipped or decoded (zones store the exact per-block
    min/max, so the fold is exact, not approximate). Values are in zone
    space: temporal columns come back as their int64 physical view (the
    same normalization the filter path compares against). Raises when
    any block lacks a zone for the column (stats='none' encode, nested/
    binary type) — silently decoding there would defeat the contract."""

    def part(batch: pa.Table) -> pa.Table:
        names = set(batch.column_names)
        lo = hi = None
        nulls = rows = 0
        for i in range(len(batch)):
            zone = _zone_at(batch, i)
            z = zone.get(col)
            if z is None:
                raise ValueError(
                    f"agg_min_max: block {batch['block_id'][i].as_py()!r} has "
                    f"no zone for column {col!r} (stats='none' encode or "
                    "unordered type); decode_dataset + an exact aggregate "
                    "is the fallback"
                )
            if z.get("approx"):
                # truncated string bounds (>64-char values): sound for
                # pruning, but fabricated strings for an EXACT aggregate
                raise ValueError(
                    f"agg_min_max: block {batch['block_id'][i].as_py()!r}'s "
                    f"zone for {col!r} has truncated string bounds; "
                    "decode_dataset + an exact aggregate is the fallback"
                )
            rows += int(batch["n_rows"][i].as_py()) if "n_rows" in names else 0
            nulls += int(z.get("null_count", 0))
            zlo, zhi = z.get("min"), z.get("max")
            if zlo is not None:
                lo = zlo if lo is None or zlo < lo else lo
            if zhi is not None:
                hi = zhi if hi is None or zhi > hi else hi
        return pa.table(
            {
                "part": pa.array(
                    [json.dumps({"min": lo, "max": hi, "nulls": nulls, "rows": rows})],
                    type=pa.string(),
                )
            }
        )

    # metadata projection: without it every multi-MB col_* blob ships
    # through the fold tasks just to read a few zone fields per block
    schema = blocks.schema()
    if schema is not None:
        blocks = blocks.select_columns(
            [c for c in ("block_id", "zonemap", "n_rows") if c in schema.names]
        )
    parts = [
        json.loads(r["part"])
        for r in blocks.map_batches(part, batch_format="pyarrow").take_all()
    ]
    lo = hi = None
    for p in parts:
        if p["min"] is not None:
            lo = p["min"] if lo is None or p["min"] < lo else lo
        if p["max"] is not None:
            hi = p["max"] if hi is None or p["max"] > hi else hi
    # all-NaN float blocks store the inf/-inf FOLD IDENTITIES (they prune
    # comparisons soundly); if they survive to here every block was
    # all-NaN and the honest exact answer is "no orderable values"
    if isinstance(lo, float) and isinstance(hi, float) and lo > hi:
        lo = hi = None
    return {
        "min": lo,
        "max": hi,
        "null_count": sum(p["nulls"] for p in parts),
        "n_rows": sum(p["rows"] for p in parts),
    }


def agg_sum(
    blocks: "ray.data.Dataset",
    col: str,
    filter: list[Predicate] | None = None,
) -> int | float | None:
    """EXACT SUM(col) [WHERE filter] with aggregate pushdown: blocks whose
    zones prove EVERY row matches fold their stored per-block sum (zero
    decode), blocks proven out contribute nothing, and only boundary
    blocks decode — and only `col` plus the predicate columns. Unfiltered
    on a numeric column this is pure metadata arithmetic.

    Exactness: integer sums fold in Python ints (no overflow; blocks
    whose worst-case sum could overflow int64 skip the stored sum at
    encode time and take the decode path here). Float sums are exact for
    the blockwise association — like any distributed SUM, the result can
    differ from a row-order fold in the last ulps. Blocks encoded before
    sums existed (or with stats='none') decode `col` — correct, just not
    free; raises only when a needed block lacks BOTH a usable zone sum
    and a decodable numeric column. SQL semantics: nulls skipped, SUM
    over zero rows is None."""
    if blocks.schema() is None:  # empty block table: SUM over zero rows
        return None
    if filter:
        validate_predicates(blocks, filter)
    dnf = normalize_dnf(filter) if filter else None
    pred_cols = sorted({c for conj in dnf for (c, _, _) in conj}) if dnf else []
    need_cols = sorted(set(pred_cols) | {col})
    keep = ["block_id", "zonemap", "n_rows"] + [f"col_{c}" for c in need_cols]
    blocks = blocks.select_columns(
        [c for c in keep if c in blocks.schema().names]
    )

    def part(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        dec = BlockDecoder(columns=need_cols, filter=dnf)
        names = set(batch.column_names)
        total = None  # SQL: SUM over no rows is NULL

        def add(v):
            nonlocal total
            if v is not None:
                total = v if total is None else total + v

        for i in range(len(batch)):
            zone = _zone_at(batch, i)
            if dnf is not None and not zone_may_match_any(zone, dnf):
                continue
            full = dnf is None or any(zone_must_match(zone, conj) for conj in dnf)
            z = zone.get(col)
            if full and z is not None and "sum" in z:
                add(z["sum"])
                continue
            # boundary block, or no stored sum (legacy/overflow/stats off):
            # decode col (+ predicates), filter exact, sum exact
            try:
                decoded = dec(batch.slice(i, 1))
            except Exception as e:
                raise ValueError(
                    f"agg_sum: block {batch['block_id'][i].as_py()!r} has no "
                    f"stored sum for {col!r} and decoding it failed: {e}"
                ) from e
            if dnf is not None:
                decoded = filter_table_dnf(decoded, dnf)
            t = decoded[col].type
            if not (
                pa.types.is_integer(t)
                or pa.types.is_floating(t)
                or pa.types.is_boolean(t)
            ):
                raise ValueError(
                    f"agg_sum: column {col!r} is {t} — SUM is defined for "
                    "numeric/bool columns only"
                )
            if pa.types.is_floating(t):
                s = pc.sum(decoded[col]).as_py()
            else:
                # Python-int fold: pc.sum silently WRAPS int64 — and the
                # blocks on this path are exactly the ones whose stored
                # zone sum was skipped for worst-case overflow risk.
                # Boundary blocks are few by design, so the Python sum is
                # off the hot path.
                vals = decoded[col].drop_null().to_pylist()
                s = sum(vals) if vals else None
            add(s)
        return pa.table({"s": pa.array([json.dumps(total)], type=pa.string())})

    parts = [
        json.loads(r["s"])
        for r in blocks.map_batches(part, batch_format="pyarrow").take_all()
    ]
    total = None
    for p in parts:
        if p is not None:
            total = p if total is None else total + p
    return total


def agg_approx_distinct(blocks: "ray.data.Dataset", col: str) -> float:
    """Approximate distinct (non-null) count for one column from block
    METADATA alone — zero blobs shipped or decoded. Requires the blocks
    to carry per-block HLL registers (encode with hll=True; reserved
    zonemap key "__hll__"): registers merge by elementwise max, so the
    whole-table estimate is exactly the estimate a single-pass HLL over
    the data would give (~±2% at the default b=10), for the price of
    one ~1.4 KB metadata fold per block. Raises when any block lacks
    the sketch (hll=False encode, unsupported type, or a mixed-version
    job dir) — a partial fold would silently under-count.

    The 100 TB shape: each task folds its batch of block rows to ONE
    register row; the driver folds n_tasks rows of 2^b bytes each.
    """
    import base64

    import numpy as np

    def part(batch: pa.Table) -> pa.Table:
        regs = None
        for i in range(len(batch)):
            h = _zone_at(batch, i).get("__hll__", {}).get(col)
            if h is None:
                raise ValueError(
                    f"agg_approx_distinct: block {batch['block_id'][i].as_py()!r} "
                    f"has no HLL sketch for column {col!r} (encode with "
                    "hll=True; stages.sketch.approx_distinct over "
                    "decode_dataset is the fallback)"
                )
            r = np.frombuffer(base64.b64decode(h), dtype=np.uint8)
            regs = r.copy() if regs is None else np.maximum(regs, r)
        return pa.table({"regs": pa.array(
            [regs.tobytes() if regs is not None else b""], type=pa.binary()
        )})

    parts = (
        blocks.select_columns(["block_id", "zonemap"])
        .map_batches(part, batch_format="pyarrow")
        .take_all()
    )
    regs = None
    for p in parts:
        if len(p["regs"]) == 0:
            continue
        r = np.frombuffer(p["regs"], dtype=np.uint8)
        if regs is not None and len(r) != len(regs):
            raise ValueError(
                "agg_approx_distinct: blocks carry HLL sketches of different "
                f"precisions ({len(regs)} vs {len(r)} registers) — mixed "
                "hll_b encodes cannot merge; re-encode or compact to one b"
            )
        regs = r.copy() if regs is None else np.maximum(regs, r)
    if regs is None:
        return 0.0
    from .stages.sketch import hll_estimate

    return hll_estimate(regs)


def _zone_at(batch: pa.Table, i: int) -> dict:
    """Parsed zonemap dict for block row i ({} when the column is absent
    or the cell is null) — the one copy of the idiom every metadata fold
    must apply identically."""
    zm = batch["zonemap"][i].as_py() if "zonemap" in batch.column_names else None
    return json.loads(zm) if zm else {}


def agg_approx_quantiles(
    blocks: "ray.data.Dataset", col: str, qs: list[float]
) -> list[float]:
    """Approximate quantiles for one numeric/temporal column from block
    METADATA alone — zero blobs shipped or decoded. Requires per-block
    KLL sketches (encode with kll=True; reserved zonemap key "__kll__"):
    KLL merges losslessly in the sketch sense, so the whole-table
    estimate carries the same rank-error bound a single-pass sketch
    would (<~1% at the default k=128). Temporal columns answer on their
    epoch-int view (the zone convention). Raises when any block lacks
    the sketch (kll=False encode, non-numeric column, or a mixed-version
    dir) — a partial fold would silently skew the ranks.

    The 100 TB shape: each metadata task folds its batch of block rows
    to ONE merged sketch row; the driver folds n_tasks sketches."""
    from .stages.sketch import KllSketch

    def part(batch: pa.Table) -> pa.Table:
        merged = None
        for i in range(len(batch)):
            s = _zone_at(batch, i).get("__kll__", {}).get(col)
            if s is None:
                raise ValueError(
                    f"agg_approx_quantiles: block "
                    f"{batch['block_id'][i].as_py()!r} has no KLL sketch for "
                    f"column {col!r} (encode with kll=True; "
                    "stages.sketch.approx_quantiles over decode_dataset is "
                    "the fallback)"
                )
            sk = KllSketch.from_json(s)
            if merged is not None and sk.k != merged.k:
                raise ValueError(
                    f"agg_approx_quantiles: blocks carry KLL sketches of "
                    f"different k ({merged.k} vs {sk.k}) — merging would "
                    "silently degrade the rank-error bound; re-encode or "
                    "compact to one kll_k"
                )
            merged = sk if merged is None else merged.merge(sk)
        return pa.table({"sk": pa.array(
            [merged.to_json() if merged is not None else ""], type=pa.string()
        )})

    parts = (
        blocks.select_columns(["block_id", "zonemap"])
        .map_batches(part, batch_format="pyarrow")
        .take_all()
    )
    merged = None
    for p in parts:
        if not p["sk"]:
            continue
        sk = KllSketch.from_json(p["sk"])
        if merged is not None and sk.k != merged.k:
            raise ValueError(
                f"agg_approx_quantiles: blocks carry KLL sketches of "
                f"different k ({merged.k} vs {sk.k}) — mixed kll_k encodes "
                "cannot merge; re-encode or compact to one k"
            )
        merged = sk if merged is None else merged.merge(sk)
    if merged is None:
        return [float("nan")] * len(qs)
    return merged.quantiles(qs)


def agg_topk(
    blocks: "ray.data.Dataset",
    col: str,
    k: int,
    descending: bool = True,
    extra_cols: list[str] | None = None,
    tie_cols: list[str] | None = None,
    filter: list[Predicate] | None = None,
) -> pa.Table:
    """ORDER BY col [DESC] LIMIT k with TOP-K PUSHDOWN over block zones:
    a metadata-only pass derives a threshold the k-th result provably
    meets, and only blocks whose zone range crosses it decode — on a
    cluster_by-encoded table a top-k touches a handful of boundary
    blocks' payload; everything else is zone arithmetic.

    Threshold soundness (descending): every non-null value in a block is
    >= its stored zone min (string zone mins are prefix cuts — still
    lower bounds). Accumulating blocks by zone min descending until their
    non-null rows cover k proves >= k values >= tau = the last min taken,
    so blocks with zone max < tau cannot place. Ascending is symmetric on
    the other bound. Truncated string bounds only widen the candidate
    set, never drop a true result.

    Two-phase shape: phase 1 ships zonemaps only, each metadata task
    pre-folds its batch to <= the blocks covering k rows, the driver
    folds those partials to tau. Phase 2 decodes candidate blocks'
    needed columns, keeps a per-batch partial top-k, and a final
    distributed sort+limit over <= n_batches*k rows returns the k rows.

    Nulls sort last (SQL NULLS LAST: never in the top k while k non-null
    values exist). `tie_cols` (ascending) break ties deterministically —
    without them, rows tied at the k boundary are an arbitrary choice.
    Raises when any block lacks a zone for `col` (stats='none' encode or
    unordered type), like agg_min_max: decode + sort is the fallback.

    With `filter` (conjunction or DNF), the result is ORDER BY col LIMIT
    k over the MATCHING rows: the threshold accumulates only blocks the
    zones prove fully matching (every row passes, so their non-null
    values are guaranteed results — the agg_count/agg_sum proof reused),
    candidates additionally drop blocks proven empty, and the exact DNF
    filter runs after decode. Selective filters weaken the threshold
    (fewer provable blocks) but zone pruning still bounds the decode."""
    if k <= 0:
        raise ValueError(f"agg_topk: k must be positive, got {k}")
    out_cols = [col] + [c for c in (extra_cols or []) if c != col]
    sort_keys = [(col, "descending" if descending else "ascending")] + [
        (c, "ascending") for c in (tie_cols or []) if c != col
    ]
    dnf = normalize_dnf(filter) if filter else None
    pred_cols = sorted({c for conj in dnf for (c, _, _) in conj}) if dnf else []
    need = sorted(set(out_cols) | {c for c, _ in sort_keys} | set(pred_cols))
    names = blocks.schema().names
    missing = [c for c in need if f"col_{c}" not in names]
    if missing:
        # fail fast ON THE DRIVER, before any phase runs in a worker
        raise ValueError(
            f"agg_topk: column(s) {missing} not in the block table "
            f"(have: {sorted(c[4:] for c in names if c.startswith('col_'))})"
        )
    if dnf:
        cols = {c[4:] for c in names if c.startswith("col_")}
        for conj in dnf:
            validate_predicate_shapes(conj, cols, "block table")

    # ---- phase 1: threshold from zonemaps (no blobs ship) ----
    def partial_threshold(batch: pa.Table) -> pa.Table:
        cands: list[tuple] = []
        for i in range(len(batch)):
            zone = _zone_at(batch, i)
            if dnf is not None and not zone_may_match_any(zone, dnf):
                continue  # provably empty under the filter: never decodes
            z = zone.get(col)
            if z is None:
                raise ValueError(
                    f"agg_topk: block {batch['block_id'][i].as_py()!r} has no "
                    f"zone for column {col!r} (stats='none' encode or "
                    "unordered type); decode_dataset + sort is the fallback"
                )
            if dnf is not None and not any(
                zone_must_match(zone, conj) for conj in dnf
            ):
                # only fully-matching blocks give GUARANTEED results —
                # a maybe-matching block cannot tighten the threshold
                continue
            bound = z["min"] if descending else z["max"]
            nc = z.get("null_count")
            if nc is None:
                # a zone without a null count cannot GUARANTEE non-null
                # rows (zone_must_match's safe-default-1 lesson): skip it
                # from the threshold; phase 2 still decodes it
                continue
            nn = int(batch["n_rows"][i].as_py()) - int(nc)
            if isinstance(bound, float):
                # NaN rows sort last (arrow ordering) yet are skipped by
                # the zone bounds — only finite rows are guaranteed >=
                # the bound. Legacy float zones without a NaN count give
                # no guarantee at all.
                nan = z.get("nan")
                if nan is None:
                    continue
                nn -= int(nan)
            if bound is None or nn <= 0:
                continue
            cands.append((bound, nn))
        cands.sort(key=lambda t: t[0], reverse=descending)
        keep, cum = [], 0
        for bound, nn in cands:
            keep.append((bound, nn))
            cum += nn
            if cum >= k:
                break
        return pa.table({"part": pa.array([json.dumps(keep)], type=pa.string())})

    # materialize the METADATA projection once (control-plane rows): the
    # threshold pass must not re-execute a lazy upstream pipeline that
    # phase 2 will run again (take_rows pins for the same reason; here
    # only the tiny zonemap columns pin, never the blobs)
    meta = blocks.select_columns(["block_id", "zonemap", "n_rows"]).materialize()
    parts = meta.map_batches(partial_threshold, batch_format="pyarrow").take_all()
    cands = [t for p in parts for t in json.loads(p["part"])]
    cands.sort(key=lambda t: t[0], reverse=descending)
    tau, cum = None, 0
    for bound, nn in cands:
        tau, cum = bound, cum + nn
        if cum >= k:
            break
    if cum < k:
        tau = None  # fewer than k non-null values exist: decode everything

    # ---- phase 2: decode candidates only, partial then global top-k ----
    def keep(batch: pa.Table) -> pa.Table:
        if "zonemap" not in batch.column_names:
            return batch
        mask = []
        for zm in batch["zonemap"].to_pylist():
            zone = json.loads(zm) if zm else {}
            if dnf is not None and not zone_may_match_any(zone, dnf):
                mask.append(False)  # provably no matching row
                continue
            if tau is None:
                mask.append(True)
                continue
            z = zone.get(col) or {}
            edge = z.get("max") if descending else z.get("min")
            other = z.get("min") if descending else z.get("max")
            if edge is None:
                # no usable bound: ALL-NULL blocks (both bounds None)
                # cannot place, but a block with values and only the
                # needed bound missing (a >64-char string max whose
                # truncated prefix cannot be bumped) MUST decode — its
                # unbounded values may be the top of the table
                mask.append(other is not None)
            else:
                mask.append(edge >= tau if descending else edge <= tau)
        return batch.filter(pa.array(mask, type=pa.bool_()))

    def partial_topk(batch: pa.Table) -> pa.Table:
        if dnf is not None:
            batch = filter_table_dnf(batch, dnf)
        batch = batch.filter(pc.is_valid(batch[col]))
        return batch.sort_by(sort_keys).slice(0, k)

    block_cols = ["block_id", "zonemap", "n_rows"] + [f"col_{c}" for c in need]
    dec = (
        blocks.select_columns(block_cols)
        .map_batches(keep, batch_format="pyarrow")
        # filter= engages sub-block page pruning on stats='page' encodes;
        # the exact DNF still runs in partial_topk (pages are supersets)
        .map_batches(
            BlockDecoder(columns=need, filter=filter), batch_format="pyarrow"
        )
        .map_batches(partial_topk, batch_format="pyarrow")
    )
    top = dec.sort(
        [c for c, _ in sort_keys],
        descending=[d == "descending" for _, d in sort_keys],
    ).limit(k)
    # k rows: final result, driver-sized by contract. Arrow batches keep
    # the decoded schema exactly (from_pylist would re-infer types and
    # could change a timestamp unit)
    batches = list(top.iter_batches(batch_size=None, batch_format="pyarrow"))
    if batches:
        return pa.concat_tables(batches).select(out_cols)
    # legitimate empty result (all-null column): concat_tables([]) would
    # raise — derive the typed empty schema by decoding one block's rows
    # and slicing to zero
    probe_rows = blocks.select_columns(block_cols).take(1)
    if not probe_rows:
        raise ValueError("agg_topk: the block table has no blocks")
    probe = BlockDecoder(columns=need)(pa.Table.from_pylist(probe_rows))
    return probe.slice(0, 0).select(out_cols)


def validate_predicate_shapes(
    predicates: list[Predicate], cols: set[str], where: str
) -> None:
    """Shared driver-side predicate checks (shape, op, column
    membership) for the decode filter and the encode-job filter —
    one implementation so ops/shape rules cannot drift."""
    for p in predicates:
        if not (isinstance(p, (tuple, list)) and len(p) == 3):
            raise ValueError(f"predicate must be (column, op, value), got {p!r}")
        col, op, val = p
        if op not in _OPS and op not in _EXTRA_OPS:
            raise ValueError(
                f"unknown predicate op {op!r}; supported: "
                f"{sorted(_OPS) + sorted(_EXTRA_OPS)}"
            )
        if op == "in" and (
            isinstance(val, (str, bytes)) or not hasattr(val, "__iter__")
        ):
            raise ValueError(
                f"'in' predicate on {col!r} needs a list/tuple/set of "
                f"values, got {type(val).__name__}"
            )
        if op == "prefix" and (not isinstance(val, str) or val == ""):
            raise ValueError(
                f"'prefix' predicate on {col!r} needs a non-empty string, "
                f"got {val!r}"
            )
        if op == "contains" and (not isinstance(val, str) or val == ""):
            raise ValueError(
                f"'contains' predicate on {col!r} needs a non-empty "
                f"string, got {val!r}"
            )
        if cols and col not in cols:
            raise ValueError(
                f"predicate column {col!r} not in {where} (have: {sorted(cols)})"
            )


def validate_predicates(
    blocks: "ray.data.Dataset", predicates: list[Predicate]
) -> None:
    """Fail fast ON THE DRIVER for malformed filters (ADVICE r2): a
    predicate column with no col_* in the block table would silently
    never prune (missing zones) and then KeyError inside a Ray worker;
    an unknown op string would die on _OPS[op] mid-pipeline."""
    names = blocks.schema().names
    cols = {c[4:] for c in names if c.startswith("col_")}
    for conj in normalize_dnf(predicates):
        validate_predicate_shapes(conj, cols, "block table")


def prune_blocks(
    blocks: "ray.data.Dataset", predicates: list[Predicate]
) -> "ray.data.Dataset":
    """Zone-map pruning: drop block rows the predicates prove empty —
    BEFORE any blob leaves the block table (the reference's
    stats-granularity axis applied at our block level). Block rows are
    control-plane-tiny, so the per-row JSON parse is not a hot path."""

    dnf = normalize_dnf(predicates)

    def keep(batch: pa.Table) -> pa.Table:
        if "zonemap" not in batch.column_names:
            return batch
        mask = [
            zone_may_match_any(json.loads(z) if z else {}, dnf)
            for z in batch["zonemap"].to_pylist()
        ]
        return batch.filter(pa.array(mask, type=pa.bool_()))

    return blocks.map_batches(keep, batch_format="pyarrow")


def _conjunction_mask(batch: pa.Table, predicates: list[Predicate]):
    """Kleene AND mask for one (col, op, value) conjunction, or None for
    an empty conjunction (matches everything)."""
    mask = None
    for col, op, val in predicates:
        arr = batch[col]
        t = arr.type
        if (
            pa.types.is_timestamp(t)
            or pa.types.is_date(t)
            or pa.types.is_time(t)
            or pa.types.is_duration(t)
        ):
            # time/duration have no compare kernel against int64 —
            # normalize every temporal via the ONE shared epoch-int view
            # (zone bounds / blooms / KLL use the same helper)
            from .codecs.util import epoch_int_view

            arr = epoch_int_view(arr)
        if op == "in":
            try:  # build the set in the column's type (int32 col, python ints)
                vs = pa.array(list(val), type=arr.type)
            except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
                vs = pa.array(list(val))
            m = pc.is_in(arr, value_set=vs)
        elif op == "!=":
            m = pc.not_equal(arr, val)
        elif op == "prefix":
            if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
                # zones silently skip non-string prefix pruning, so this
                # is the first place the mistake surfaces — name it
                # instead of letting pc.starts_with die on a kernel error
                raise ValueError(
                    f"'prefix' predicate on {col!r} needs a string column, "
                    f"got {t}"
                )
            m = pc.starts_with(arr, pattern=val)
        elif op == "contains":
            if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
                # same first-surfacing rule as 'prefix': name the mistake
                # instead of letting pc.match_substring die mid-pipeline
                raise ValueError(
                    f"'contains' predicate on {col!r} needs a string "
                    f"column, got {t}"
                )
            m = pc.match_substring(arr, pattern=val)
        else:
            m = _OPS[op](arr, val)
        mask = m if mask is None else pc.and_kleene(mask, m)
    return mask


def filter_table(batch: pa.Table, predicates: list[Predicate]) -> pa.Table:
    """Exact (col, op, value) conjunction filter on one Arrow table
    (temporal columns compare on their epoch-int view, like zone maps)."""
    mask = _conjunction_mask(batch, predicates)
    if mask is None:
        return batch
    return batch.filter(pc.fill_null(mask, False))


def dnf_mask(batch: pa.Table, dnf: list[list[Predicate]]):
    """Kleene OR over the conjunction masks; None means match-all (an
    empty DNF or an empty conjunction)."""
    if not dnf:
        return None
    masks = [_conjunction_mask(batch, conj) for conj in dnf]
    if any(m is None for m in masks):  # an empty conjunction matches all
        return None
    out = masks[0]
    for m in masks[1:]:
        out = pc.or_kleene(out, m)
    return out


def filter_table_dnf(batch: pa.Table, dnf: list[list[Predicate]]) -> pa.Table:
    """Exact DNF filter: Kleene OR over the conjunction masks."""
    m = dnf_mask(batch, dnf)
    if m is None:
        return batch
    return batch.filter(pc.fill_null(m, False))


class BlockDecoder:
    """Decode stage: block rows in -> decoded source rows out.
    `decode_dataset` runs it as Ray Data tasks through the shared stage
    dispatch (one instance per worker per read); `take_rows`, the DML
    stages and `verify` call it directly on block tables.

    With `filter` set, blocks whose predicate columns carry PAGE zone
    maps (stats="page" at encode) decode only the pages the predicates
    can match — sub-block pruning via blocks.decode_rows, so a selective
    read of a multi-MB fsst@9 content block touches page bytes, not the
    whole blob (the reference's page-stats level,
    /root/reference/src/bin/js2pq/main.rs:18-26). The exact row filter
    still runs after it, in the same task under decode_dataset (pages
    are supersets)."""

    def __init__(
        self,
        columns: list[str] | None = None,
        with_provenance: bool = False,
        filter: list[Predicate] | None = None,
        fill_missing: "pa.Schema | dict[str, pa.DataType] | None" = None,
    ):
        self.columns = columns
        self.with_provenance = with_provenance
        self.filter = normalize_dnf(filter) if filter else None  # DNF form
        # schema evolution: a union of block tables written across
        # pipeline versions carries null col_* cells for columns a block
        # predates (parquet schema unification null-fills them). With
        # `fill_missing` giving the arrow type, such a column decodes as
        # all-null rows; without it the decoder raises a named error
        # instead of dying on a null blob cell inside a Ray worker.
        if isinstance(fill_missing, pa.Schema):
            fill_missing = {f.name: f.type for f in fill_missing}
        self.fill_missing = fill_missing
        self._cur_partition_seq = 0

    def _page_keep(self, names: list[str], blobs: list):
        """Row indices the page zones allow, or None for full decode.
        DNF evaluation: within a disjunct, per-column page keeps
        INTERSECT (all its predicates must hold); across disjuncts the
        keeps UNION (any may hold). A disjunct whose columns carry no
        page stats allows every row — the whole block decodes."""
        if not self.filter:
            return None
        from .blocks import block_codec, page_prune_indices

        blob_by_name = dict(zip(names, blobs))
        n_rows = None
        union: np.ndarray | None = None
        for conj in self.filter:
            by_col: dict[str, list] = {}
            for col, op, val in conj:
                by_col.setdefault(col, []).append((col, op, val))
            keep = None
            for name, preds in by_col.items():
                blob = blob_by_name.get(name)
                if blob is None:
                    continue
                k = page_prune_indices(blob, preds)
                if k is None:
                    continue
                n_rows = block_codec(blob)["n"]
                keep = (
                    k if keep is None else np.intersect1d(keep, k, assume_unique=True)
                )
            if keep is None:
                return None  # this disjunct may match anywhere: no pruning
            union = keep if union is None else np.union1d(union, keep)
        if union is not None and n_rows is not None and len(union) == n_rows:
            return None  # nothing pruned: take the straight full-decode path
        return union

    def decode_block_row(
        self,
        names: list[str],
        blobs: list,
        block_id: str,
        block_seq: int,
        partition_id: str = "",
        n_rows: int | None = None,
    ) -> pa.Table:
        from .blocks import decode_rows as _decode_rows

        present = [(nm, bl) for nm, bl in zip(names, blobs) if bl is not None]
        # page pruning consults present columns only: a column this block
        # predates has no pages to prune on (its rows are all null here)
        keep = self._page_keep([p[0] for p in present], [p[1] for p in present])
        decoded: dict[str, pa.Array] = {}
        n = None
        for name, blob in present:
            arr = decode_column(blob) if keep is None else _decode_rows(blob, keep)
            decoded[name] = arr
            n = len(arr)
        if n is None:
            # every selected column is missing from this block; `keep` is
            # necessarily None here (page pruning saw no columns), so the
            # stored n_rows is the only source of the block's row count
            n = int(n_rows or 0)
        cols: dict[str, pa.Array] = {}
        for name in names:
            if name in decoded:
                cols[name] = decoded[name]
                continue
            t = (self.fill_missing or {}).get(name)
            if t is None:
                raise ValueError(
                    f"block {block_id} has no column {name!r} (schema "
                    "evolution across encodes); pass fill_missing={name: "
                    "arrow_type} / a schema to decode to nulls, or select "
                    "columns= present in every block"
                )
            cols[name] = pa.nulls(n, type=t)
        if self.with_provenance:
            rib = range(n or 0) if keep is None else keep
            # explicit types: a fully-page-pruned block has n == 0, and an
            # untyped pa.array([]) is null-typed, which breaks
            # concat_tables against non-empty blocks in the same batch
            cols["_block_id"] = pa.array([block_id] * (n or 0), type=pa.string())
            cols["_partition_id"] = pa.array([partition_id] * (n or 0), type=pa.string())
            cols["_partition_seq"] = pa.array(
                [self._cur_partition_seq] * (n or 0), type=pa.int64()
            )
            cols["_block_seq"] = pa.array([block_seq] * (n or 0), type=pa.int64())
            cols["_row_in_block"] = pa.array(rib, type=pa.int64())
            # within-partition block row offset (ordered encodes record it;
            # unordered/legacy blocks carry null). ALWAYS emitted: making
            # the column conditional per block row gave blocks within one
            # batch different schemas, and concat_tables raises on a batch
            # that mixes ordered and legacy blocks (e.g. a union of
            # encode_dataset and encode_dataset_ordered output).
            cols["_row_start"] = pa.array(
                [self._cur_row_start] * (n or 0), type=pa.int64()
            )
        return pa.table(cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        names = [c[4:] for c in batch.column_names if c.startswith("col_")]
        if self.fill_missing:
            # raw Dataset.union of mixed-version block tables can drop a
            # col_* from a batch entirely (no parquet schema unification);
            # fillable columns still decode as nulls. Order must not
            # depend on which columns a given batch happens to carry, so
            # pin it to `columns` (or sorted) under fill_missing.
            names += [c for c in self.fill_missing if c not in names]
            names = (
                [c for c in self.columns if c in names]
                if self.columns
                else sorted(names)
            )
        elif self.columns:
            names = [c for c in names if c in self.columns]
        tables = []
        ids = batch["block_id"].to_pylist()
        seqs = batch["block_seq"].to_pylist() if "block_seq" in batch.column_names else [0] * len(ids)
        pids = (
            batch["partition_id"].to_pylist()
            if "partition_id" in batch.column_names
            else [""] * len(ids)
        )
        pseqs = (
            batch["partition_seq"].to_pylist()
            if "partition_seq" in batch.column_names
            else [0] * len(ids)
        )
        rstarts = (
            batch["row_start"].to_pylist()
            if "row_start" in batch.column_names
            else [None] * len(ids)
        )
        nrows_col = (
            batch["n_rows"].to_pylist()
            if "n_rows" in batch.column_names
            else [None] * len(ids)
        )
        batch_cols = set(batch.column_names)
        for i in range(batch.num_rows):
            # as_buffer(): zero-copy view of the (multi-MB) block blob;
            # a null cell (column absent when this block was encoded)
            # passes None so decode_block_row can null-fill it
            blobs = []
            for name in names:
                key = f"col_{name}"
                cell = batch[key][i] if key in batch_cols else None
                blobs.append(
                    memoryview(cell.as_buffer())
                    if cell is not None and cell.is_valid
                    else None
                )
            self._cur_partition_seq = pseqs[i]
            self._cur_row_start = rstarts[i]
            tables.append(
                self.decode_block_row(
                    names, blobs, ids[i], seqs[i], pids[i], nrows_col[i]
                )
            )
        if not tables:
            # zero block rows in this batch (or no col_* survived the
            # projection): return an empty table rather than letting
            # concat_tables([]) raise
            return pa.table({})
        return pa.concat_tables(tables)


# provenance columns of a with_provenance decode, in output order
_PROVENANCE = (
    "_block_id",
    "_partition_id",
    "_partition_seq",
    "_block_seq",
    "_row_in_block",
    "_row_start",
)


def _decode_task(batch: pa.Table, stage_class: type, ctor_kwargs: dict,
                 op_token: str, project: list[str] | None) -> pa.Table:
    """Ray Data task body of decode_dataset: the read's BlockDecoder
    (built once per worker per read), then the exact row filter (the
    decoder's page pruning returns a superset) and the projection that
    drops filter-only columns."""
    dec = slot_stage(stage_class, ctor_kwargs, op_token)
    out = dec(batch)
    if dec.filter and out.num_columns:
        out = filter_table_dnf(out, dec.filter)
    if project is not None:
        out = out.select([c for c in project if c in out.column_names])
    return out


def decode_dataset(
    blocks: "ray.data.Dataset",
    columns: list[str] | None = None,
    with_provenance: bool = False,
    concurrency: int | tuple[int, int] | None = None,
    filter: list[Predicate] | None = None,
    fill_missing: "pa.Schema | dict[str, pa.DataType] | None" = None,
) -> "ray.data.Dataset":
    """Streaming decode: block rows -> Dataset of original source rows.

    `filter` is a conjunction of (col, op, value) predicates — or a
    DISJUNCTION of conjunctions (list of lists, DNF: [[a, b], [c]] =
    (a AND b) OR c) — applied in three stages: zone-map pruning drops
    whole blocks by min/max + Bloom before their blobs ship (strictly
    fewer blocks decoded — measurable via count_decoded_blocks),
    page-zone pruning inside surviving blocks decodes only matchable
    pages (stats="page" encodes), then the exact row filter runs after
    decode. Ops: ==, !=, <, <=, >, >=, "in" (list of values; Bloom and
    zone pruning both understand it), "prefix" (zone-prunable), and
    "contains" (substring; block-prunable via per-block n-gram Bloom
    filters on tables encoded with ngram=True).

    `fill_missing` enables schema-evolution reads: a union of block
    tables written across pipeline versions (read_blocks([dir_v1,
    dir_v2])) null-fills columns a block predates, using the given
    {column: arrow type} map (or schema) for the null arrays.

    The decode, the exact row filter and the projection run in one Ray
    Data task per batch of blocks, on reused task workers (no actor
    pool). `concurrency` caps the tasks in flight: an int as given, a
    (min, max) pair its upper bound, None no cap (Ray Data sizes it)."""
    if filter:
        validate_predicates(blocks, filter)
        blocks = prune_blocks(blocks, filter)
    decode_cols, project = columns, None
    if columns and filter:
        # filter columns must decode even when projected out of the
        # result — widen the decode set, drop the extras after filtering
        flat = [p for conj in normalize_dnf(filter) for p in conj]
        extra = [c for c, _, _ in flat if c not in columns]
        decode_cols = columns + sorted(set(extra))
        project = list(columns) + (list(_PROVENANCE) if with_provenance else [])
    if decode_cols and blocks.schema() is not None:
        # block-level projection pushdown: only the requested columns'
        # blobs leave the block table (the prune-at-the-read rule applied
        # to our own format; a reader that ships every blob for a
        # 2-column decode would be wrong)
        names = blocks.schema().names
        have = {c[4:] for c in names if c.startswith("col_")}
        filled = set(
            fill_missing.names
            if isinstance(fill_missing, pa.Schema)
            else (fill_missing or {})
        )
        unknown = [c for c in decode_cols if c not in have and c not in filled]
        if unknown:
            # fail LOUDLY like take_rows/agg_topk do — silently dropping
            # a misspelled column returned an empty/narrower dataset
            raise ValueError(
                f"decode_dataset: column(s) {unknown} not in the block "
                f"table (have: {sorted(have)}); pass fill_missing for "
                "columns a block legitimately predates"
            )
        keep = ["block_id"] + [
            c
            for c in ("partition_id", "partition_seq", "block_seq", "n_rows", "row_start")
            if c in names
        ]
        keep += [f"col_{c}" for c in decode_cols]
        blocks = blocks.select_columns([c for c in keep if c in names])
    return map_stage(
        blocks,
        BlockDecoder,
        {
            "columns": decode_cols,
            "with_provenance": with_provenance,
            "filter": filter,
            "fill_missing": fill_missing,
        },
        concurrency=concurrency,
        task=_decode_task,
        task_kwargs={"project": project},
        batch_size=4,  # a few blocks per call; each expands to thousands of rows
        zero_copy_batch=True,
    )


def count_decoded_blocks(
    blocks: "ray.data.Dataset", filter: list[Predicate] | None = None
) -> dict:
    """(total_blocks, decoded_blocks) a filtered decode would touch —
    the prune-effectiveness metric the zone-map oracle asserts on."""
    total = blocks.count()
    kept = prune_blocks(blocks, filter).count() if filter else total
    return {"total_blocks": total, "decoded_blocks": kept}


def explain_decode(
    blocks: "ray.data.Dataset", filter: list[Predicate] | None
) -> dict:
    """Prune-effectiveness report for a filtered decode, computed
    DISTRIBUTED over the block table (the driver sees one summed row):
    how many blocks survive zone+Bloom pruning, how many pages (and
    rows) inside the survivors the page index would actually decode,
    and the blob bytes each stage would ship. Run this before pointing
    a selective decode at a 100 TB block table — a filter that prunes
    nothing is a full-table scan wearing a WHERE clause."""
    if not filter:
        raise ValueError("explain_decode needs a filter to explain")
    validate_predicates(blocks, filter)
    dnf = normalize_dnf(filter)
    pred_cols = sorted({c for conj in dnf for (c, _, _) in conj})
    dec = BlockDecoder(filter=dnf)

    def stats(batch: pa.Table) -> pa.Table:
        from .blocks import block_codec

        names = batch.column_names
        col_names = [c for c in names if c.startswith("col_")]
        # vectorized blob sizes — never copy payload bytes to Python here
        blob_lens = np.zeros(len(batch), dtype=np.int64)
        for c in col_names:
            ln = pc.fill_null(pc.binary_length(batch[c]), 0)
            blob_lens += ln.to_numpy(zero_copy_only=False).astype(np.int64)
        tb = kb = 0  # total / kept blocks
        tbytes = kbytes = 0  # all-column blob bytes total / surviving blocks
        trows = krows = 0  # rows total / page-kept within survivors
        for i in range(len(batch)):
            tb += 1
            row_bytes = int(blob_lens[i])
            tbytes += row_bytes
            zone = _zone_at(batch, i)
            n = int(batch["n_rows"][i].as_py()) if "n_rows" in names else 0
            trows += n
            if not zone_may_match_any(zone, dnf):
                continue
            kb += 1
            kbytes += row_bytes
            pnames, pblobs = [], []
            for c in pred_cols:
                # zero-copy memoryview of the blob (the BlockDecoder
                # idiom) — .as_py() copied every predicate blob to
                # Python bytes just to read page headers
                cell = None
                if f"col_{c}" in names:
                    scalar = batch.column(f"col_{c}")[i]
                    if scalar.is_valid:
                        cell = memoryview(scalar.as_buffer())
                if cell is not None:
                    pnames.append(c)
                    pblobs.append(cell)
            if not n and pblobs:
                n = block_codec(pblobs[0])["n"]
            keep = dec._page_keep(pnames, pblobs)
            krows += n if keep is None else len(keep)
        return pa.table(
            {
                "total_blocks": pa.array([tb], type=pa.int64()),
                "kept_blocks": pa.array([kb], type=pa.int64()),
                "total_blob_bytes": pa.array([tbytes], type=pa.int64()),
                "kept_blob_bytes": pa.array([kbytes], type=pa.int64()),
                "total_rows": pa.array([trows], type=pa.int64()),
                "page_kept_rows": pa.array([krows], type=pa.int64()),
            }
        )

    cols = ["total_blocks", "kept_blocks", "total_blob_bytes",
            "kept_blob_bytes", "total_rows", "page_kept_rows"]
    summed = blocks.map_batches(stats, batch_format="pyarrow").sum(cols)
    out = {c: int(summed[f"sum({c})"]) for c in cols}
    out["block_prune_ratio"] = round(
        1 - out["kept_blocks"] / max(out["total_blocks"], 1), 4
    )
    out["page_row_prune_ratio"] = round(
        1 - out["page_kept_rows"] / max(out["total_rows"], 1), 4
    )
    return out


class RowStartRequired(ValueError):
    """Random access / global row numbers need the within-partition
    row offsets recorded at encode time (`row_start`); these blocks lack
    them. Remediation: encode with any ordered path of this rayenc
    (encode_dataset_ordered / run_encode_job), or backfill a legacy job
    dir IN PLACE with `rayenc.jobs.compact_job(out_root, block_rows)` —
    the backfill is a cheap metadata rewrite (exclusive cumsum of
    n_rows per partition), no blobs are re-encoded. The pre-round-5
    driver-side offset map (take_all of every block's metadata, O(n_blocks)
    on the driver — millions of rows at 100 TB) is retired; it survived
    rounds 3-4 only as a documented fallback (VERDICT r4 #7)."""

    def __init__(self, detail: str):
        super().__init__(
            f"blocks lack usable row_start metadata ({detail}); re-encode "
            "with an ordered path, or backfill the job dir in place with "
            "rayenc.jobs.compact_job(out_root, block_rows) — a metadata-"
            "only rewrite, no re-encode"
        )


class _RowStartUnavailable(Exception):
    """row_start is in the schema but null for some blocks (e.g. a
    pre-row_start job dir resumed with newer code: parquet schema
    unification null-fills the old files). Callers surface this as
    RowStartRequired."""


def _partition_bases(blocks: "ray.data.Dataset") -> tuple[dict, int]:
    """(partition_seq -> global base row, total rows) from a DISTRIBUTED
    per-partition aggregate.

    The groupby shuffles only int64 meta columns and yields
    n_partitions rows — manifest-sized, a few bytes per input shard —
    so the driver never materializes per-BLOCK metadata (VERDICT r3 #6:
    the old take_all of (partition_seq, block_seq, n_rows) was
    O(n_blocks) driver rows — tens of millions at 100 TB / 8k-row
    blocks).

    The same aggregate carries two integrity checks that replace the
    legacy path's per-block total-order guard: a null count of
    row_start (mixed old/new job dirs -> _RowStartUnavailable, surfaced
    as RowStartRequired) and per-partition coverage (sum of block rows must equal
    the partition's row_start span — duplicated blocks from unioned
    encodes, or a filtered blocks dataset, inflate/deflate the sum and
    raise instead of silently mis-addressing rows)."""
    from ray.data.aggregate import Max, Min, Sum

    def _meta(t: pa.Table) -> pa.Table:
        rs = t["row_start"]
        rs64 = pc.fill_null(pc.cast(rs, pa.int64()), 0)
        n64 = pc.cast(t["n_rows"], pa.int64())
        end = pc.add(rs64, n64)
        return pa.table(
            {
                "partition_seq": t["partition_seq"],
                "n_rows": n64,
                "rs_null": pc.cast(pc.is_null(rs), pa.int64()),
                "rs_start": rs64,
                "rs_end": end,
                # telescoping term: end^2 - start^2; for blocks exactly
                # tiling [0, total) these sum to total^2
                "rs_tel": pc.subtract(
                    pc.multiply(end, end), pc.multiply(rs64, rs64)
                ),
            }
        )

    rows = (
        blocks.select_columns(["partition_seq", "n_rows", "row_start"])
        .map_batches(_meta, batch_format="pyarrow")
        .groupby("partition_seq")
        .aggregate(
            Sum("n_rows"), Sum("rs_null"), Min("rs_start"), Max("rs_end"),
            Sum("rs_tel"),
        )
        .take_all()
    )
    if any(int(r["sum(rs_null)"] or 0) > 0 for r in rows):
        raise _RowStartUnavailable()
    rows.sort(key=lambda r: r["partition_seq"])
    bases: dict = {}
    acc = 0
    for r in rows:
        total = int(r["sum(n_rows)"])
        # three necessary tiling conditions over [0, total): row counts
        # sum to the span end, the span starts at 0, and the telescoping
        # sum of end^2 - start^2 equals total^2. The first alone misses
        # COMPENSATING corruption (a missing prefix block plus a
        # duplicated later block of equal size keeps the sum), which the
        # telescoping sum catches (duplicated high spans over-weigh).
        # The squares are compared MODULO 2^64: Arrow's multiply/sum wrap
        # int64 silently, so past ~3e9 rows per partition the raw
        # comparison would spuriously fail on valid data — folding the
        # Python side to the same residue makes the check a modular
        # checksum, sound at any partition size.
        tel = int(r["sum(rs_tel)"]) % (1 << 64)
        want = (total * total) % (1 << 64)
        if (
            total != int(r["max(rs_end)"])
            or int(r["min(rs_start)"]) != 0
            or tel != want
        ):
            raise ValueError(
                "blocks lack a total order (partition "
                f"{int(r['partition_seq'])}: block rows sum to "
                f"{total} but row_start spans "
                f"[{int(r['min(rs_start)'])}, {int(r['max(rs_end)'])}) with "
                f"telescoping checksum {tel} != {want} "
                "— duplicated or missing blocks, e.g. a union of two "
                "encodes or a filtered blocks dataset); re-encode with "
                "encode_dataset_ordered or the resumable job"
            )
        bases[int(r["partition_seq"])] = acc
        acc += total
    return bases, acc


def take_rows(
    blocks: "ray.data.Dataset",
    indices,
    columns: list[str] | None = None,
) -> pa.Table:
    """Random access over the whole BLOCK TABLE: fetch the given global
    source row positions (ordered-block layout: jobs/encode_dataset_ordered)
    and return them in the requested order.

    Blocks must carry ``row_start`` (recorded at encode time by the
    ordered paths): each task locates its own blocks' global spans from
    broadcast per-PARTITION bases — nothing per-block ever reaches the
    driver. Blocks without it raise RowStartRequired (backfill a legacy
    job dir with compact_job; the O(n_blocks) driver offset map is
    retired, VERDICT r4 #7).
    Only touched blocks are decoded, and inside each block
    only the selected rows (blocks.decode_rows partial paths). Result is
    driver-sized by construction (random access means few rows)."""
    import numpy as np

    import ray as _ray

    idx = np.asarray(indices, dtype=np.int64)
    # multi-pass consumer (schema probe + bases groupby + the decode):
    # on a LAZY blocks pipeline each pass would re-run the whole encode;
    # pin it once (no-op when the caller already materialized)
    from ray.data.dataset import MaterializedDataset

    if not isinstance(blocks, MaterializedDataset):
        blocks = blocks.materialize()
    schema = blocks.schema()
    if schema is None:  # empty block table (e.g. everything filtered away)
        if len(idx) == 0:
            return pa.table({})
        raise IndexError("row index out of range: block table is empty")
    if "row_start" not in schema.names:
        raise RowStartRequired("no row_start column in the block schema")
    try:
        bases, total = _partition_bases(blocks)
    except _RowStartUnavailable:
        raise RowStartRequired(
            "row_start is null on some blocks — mixed pre/post-row_start "
            "partitions in one job dir"
        ) from None
    if len(idx) and (idx.min() < 0 or idx.max() >= total):
        raise IndexError(f"row index out of range 0..{total - 1}")
    state = _ray.put((idx, bases))

    resolved: dict = {}  # per-task memo: one object-store fetch per pick
    # task, not one per block row (the closure deserializes once per
    # task, so this dict persists across the batch's locate calls)

    def locate_fast(batch: pa.Table, i: int):
        if "s" not in resolved:
            resolved["s"] = _ray.get(state)
        w_idx, bs = resolved["s"]
        gs = bs[int(batch["partition_seq"][i].as_py())] + int(
            batch["row_start"][i].as_py()
        )
        m = (w_idx >= gs) & (w_idx < gs + int(batch["n_rows"][i].as_py()))
        if not m.any():
            return None
        return w_idx[m] - gs, np.nonzero(m)[0]

    return _finish_take_rows(
        blocks,
        idx,
        columns,
        locate_fast,
        meta_cols=["partition_seq", "row_start", "n_rows"],
    )


def _finish_take_rows(
    blocks: "ray.data.Dataset",
    idx,
    columns: list[str] | None,
    locate,
    meta_cols: list[str],
) -> pa.Table:
    """Shared tail of take_rows: one pick closure for both layouts,
    parameterized by `locate(batch, i) -> (local_indices, positions) |
    None`. Projects the block table to the requested col_* plus
    `meta_cols` BEFORE the map, so unrequested multi-MB blobs never ship
    to the pick tasks (the decode_dataset pruning rule applied here)."""
    import numpy as np

    schema_names = blocks.schema().names
    all_names = [c[4:] for c in schema_names if c.startswith("col_")]
    names = [c for c in all_names if c in columns] if columns else all_names
    if columns:
        missing = sorted(set(columns) - set(all_names))
        if missing:
            raise ValueError(f"columns not in the block table: {missing}")
    if len(idx) == 0:
        # empty selection: decode zero rows of the first block so the
        # caller still gets a correctly-typed empty table
        from .blocks import decode_rows as _dr

        first_rows = blocks.select_columns(
            [f"col_{n}" for n in names]
        ).take(1)
        if not first_rows:
            return pa.table({})  # empty block table: nothing to type
        first = first_rows[0]
        cols = {}
        for name in names:
            cell = first.get(f"col_{name}")
            if cell is None:
                raise ValueError(
                    f"block table's first block has no column {name!r} "
                    "(schema-evolution union); pass columns= present in "
                    "every block"
                )
            cols[name] = _dr(memoryview(cell), np.empty(0, np.int64))
        return pa.table(cols)

    def pick(batch: pa.Table) -> pa.Table:
        from .blocks import decode_rows as _dr

        out = []
        for i in range(batch.num_rows):
            hit = locate(batch, i)
            if hit is None:
                continue
            li, poss = hit
            cols = {
                name: _dr(memoryview(batch[f"col_{name}"][i].as_buffer()), li)
                for name in names
            }
            cols["_pos"] = pa.array(np.asarray(poss, np.int64), type=pa.int64())
            out.append(pa.table(cols))
        if not out:
            return pa.table({})
        return pa.concat_tables(out)

    projected = blocks.select_columns(
        meta_cols + [f"col_{n}" for n in names]
    )
    parts = [
        t
        for t in projected.map_batches(pick, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
        if t.num_rows
    ]
    if not parts:
        raise ValueError("no rows selected")
    res = pa.concat_tables(parts).sort_by("_pos")
    return res.drop_columns(["_pos"])


def attach_global_row_numbers(
    blocks: "ray.data.Dataset",
    columns: list[str] | None = None,
    concurrency: int | tuple[int, int] | None = None,
    rn_col: str = "rn",
    base: int = 1,
) -> "ray.data.Dataset":
    """Decode with a GLOBAL source row number attached — without any
    shuffle or sort: a control-plane pass over the block metadata
    Requires ordered blocks carrying ``row_start`` (recorded at encode
    time by rayenc.jobs.encode_dataset_ordered or the resumable job):
    only per-PARTITION bases are computed — a distributed groupby
    yielding n_partitions rows — so nothing per-block reaches the
    driver (VERDICT r3 #6). Blocks without row_start raise
    RowStartRequired (backfill a legacy job dir with compact_job; the
    O(n_blocks) driver offset map is retired, VERDICT r4 #7)."""
    import numpy as np

    import ray as _ray

    # multi-pass consumer (schema probe + bases groupby + the decode):
    # pin a lazy input once so each pass doesn't re-run the encode
    from ray.data.dataset import MaterializedDataset

    if not isinstance(blocks, MaterializedDataset):
        blocks = blocks.materialize()
    schema = blocks.schema()
    if schema is None or "row_start" not in schema.names:
        raise RowStartRequired("no row_start column in the block schema")
    try:
        bases, _total = _partition_bases(blocks)
    except _RowStartUnavailable:
        raise RowStartRequired(
            "row_start is null on some blocks — mixed pre/post-row_start "
            "partitions in one job dir"
        ) from None
    ref = _ray.put(bases)
    dec = decode_dataset(
        blocks, columns=columns, with_provenance=True, concurrency=concurrency
    )

    def stamp_rs(b: pa.Table) -> pa.Table:
        bs = _ray.get(ref)
        pseq = b["_partition_seq"].to_numpy(zero_copy_only=False).astype(np.int64)
        rstart = b["_row_start"].to_numpy(zero_copy_only=False)
        rib = b["_row_in_block"].to_numpy(zero_copy_only=False)
        pbase = np.empty(len(pseq), dtype=np.int64)
        for pv in np.unique(pseq):
            pbase[pseq == pv] = bs[int(pv)]
        rn = pbase + rstart + rib + base
        b = b.drop_columns([c for c in _PROVENANCE if c in b.column_names])
        return b.append_column(rn_col, pa.array(rn, type=pa.int64()))

    return dec.map_batches(stamp_rs, batch_format="pyarrow")


def decode_ordered(
    blocks: "ray.data.Dataset",
    columns: list[str] | None = None,
    concurrency: int | tuple[int, int] | None = None,
    filter: list[Predicate] | None = None,
) -> "ray.data.Dataset":
    """Decode with GLOBAL source order reconstructed: every row carries
    (_partition_seq, _block_seq, _row_in_block) — a total order over the
    original rows (SURVEY.md §2.5 ordering note) — and the result is
    sorted by it (one shuffle; use plain decode_dataset when order is
    irrelevant). Provenance columns are dropped from the output.

    Requires blocks whose (partition_seq, block_seq) are meaningful —
    i.e. output of the resumable job (rayenc.jobs), which assigns plan
    ordinals. Blocks from the pure-streaming encode_dataset all carry
    seq 0 (Ray's batch placement is not globally ordered), so their
    total order is within-block only."""
    dec = decode_dataset(
        blocks,
        columns=columns,
        with_provenance=True,
        concurrency=concurrency,
        filter=filter,
    )
    ordered = dec.sort(["_partition_seq", "_block_seq", "_row_in_block"])
    return ordered.map_batches(
        lambda t: t.drop_columns([c for c in _PROVENANCE if c in t.column_names]),
        batch_format="pyarrow",
    )
