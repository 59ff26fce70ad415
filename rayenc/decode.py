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
import operator
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .blocks import decode_column
from .dispatch import fold, map_stage, merge_all, slot_stage

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


# what a block's zone proves about a filter: no row, some rows (decode
# to know) or every row matches
ZONE_NONE, ZONE_SOME, ZONE_ALL = 0, 1, 2


def zone_verdict(zone: dict, dnf: list[list[Predicate]] | None) -> int:
    """ZONE_NONE when the zone proves no row can match the DNF, ZONE_ALL
    when it proves every row does (or there is no filter), else
    ZONE_SOME. The one may/must pairing of the zone-only aggregates."""
    if dnf is None:
        return ZONE_ALL
    if not zone_may_match_any(zone, dnf):
        return ZONE_NONE
    if any(zone_must_match(zone, conj) for conj in dnf):
        return ZONE_ALL
    return ZONE_SOME


def zone_keep_mask(batch: pa.Table, dnf: list[list[Predicate]]) -> pa.Array:
    """Block-row mask over a batch of block rows: False where the row's
    zonemap (min/max, Bloom, n-gram) proves no row of the block matches
    the DNF. A missing zonemap keeps the block. The one block-prune rule
    of every block reader; block rows are control-plane-tiny, so the
    per-row JSON parse is not a hot path."""
    zms = (
        batch["zonemap"].to_pylist()
        if "zonemap" in batch.column_names
        else [None] * batch.num_rows
    )
    return pa.array(
        [zone_may_match_any(json.loads(z) if z else {}, dnf) for z in zms],
        type=pa.bool_(),
    )


def _zone_at(batch: pa.Table, i: int) -> dict:
    """Parsed zonemap dict for block row i ({} when the column is absent
    or the cell is null) — the one copy of the idiom every metadata fold
    must apply identically."""
    zm = batch["zonemap"][i].as_py() if "zonemap" in batch.column_names else None
    return json.loads(zm) if zm else {}


def _n_rows(batch: pa.Table, i: int) -> int:
    """Stored row count of block row i (0 when the column is absent)."""
    return int(batch["n_rows"][i].as_py()) if "n_rows" in batch.column_names else 0


def _fold_blocks(blocks: "ray.data.Dataset", cols: list[str] | None,
                 part: Callable, merge: Callable):
    """`dispatch.fold` over block rows, the one block-metadata fold behind
    every zone aggregate: project the block table to `cols` (None keeps
    every column) and fold `part(batch, i, zone)` of each block row
    (None = the block contributes nothing) with `merge`. None when no
    block contributed (or the block table is empty)."""
    schema = blocks.schema()
    if schema is None:
        return None
    if cols is not None:
        blocks = blocks.select_columns([c for c in cols if c in schema.names])
    return fold(blocks, lambda batch: merge_all(
        (part(batch, i, _zone_at(batch, i)) for i in range(batch.num_rows)), merge), merge)


def _filter_plan(blocks: "ray.data.Dataset", filter) -> tuple:
    """(DNF or None, sorted predicate columns) of a reader's filter,
    validated on the driver first (validate_predicates)."""
    if not filter:
        return None, []
    validate_predicates(blocks, filter)
    dnf = normalize_dnf(filter)
    return dnf, sorted({c for conj in dnf for (c, _, _) in conj})


# metadata projection of the zone-only folds: without it every multi-MB
# col_* blob ships through the fold tasks to read a few zone fields
_META = ["block_id", "zonemap", "n_rows"]


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
    if blocks.schema() is None:  # empty block table: nothing to count
        return 0
    dnf, pred_cols = _filter_plan(blocks, filter)
    dec = BlockDecoder(columns=pred_cols, filter=dnf)

    def part(batch: pa.Table, i: int, zone: dict) -> int | None:
        verdict = zone_verdict(zone, dnf)
        if verdict == ZONE_NONE:
            return None
        if verdict == ZONE_ALL:
            return _n_rows(batch, i)
        # boundary block: decode predicate columns only, count exact
        return len(filter_table_dnf(dec(batch.slice(i, 1)), dnf))

    # projection pushdown: only predicate-column blobs + stats travel —
    # non-predicate payload (e.g. a multi-MB content column) never ships
    cols = ["block_id", "n_rows"] + (["zonemap"] if dnf else [])
    return _fold_blocks(
        blocks, cols + [f"col_{c}" for c in pred_cols], part, operator.add
    ) or 0


def agg_min_max(blocks: "ray.data.Dataset", col: str) -> dict:
    """min/max/null_count/n_rows for one column from block ZONES alone —
    zero blobs shipped or decoded (zones store the exact per-block
    min/max, so the fold is exact, not approximate). Values are in zone
    space: temporal columns come back as their int64 physical view (the
    same normalization the filter path compares against). Raises when
    any block lacks a zone for the column (stats='none' encode, nested/
    binary type) — silently decoding there would defeat the contract."""

    def part(batch: pa.Table, i: int, zone: dict) -> tuple:
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
        return (z.get("min"), z.get("max"), int(z.get("null_count", 0)),
                _n_rows(batch, i))

    def merge(a: tuple, b: tuple) -> tuple:
        lo = [v for v in (a[0], b[0]) if v is not None]
        hi = [v for v in (a[1], b[1]) if v is not None]
        return (min(lo, default=None), max(hi, default=None),
                a[2] + b[2], a[3] + b[3])

    lo, hi, nulls, rows = _fold_blocks(blocks, _META, part, merge) or (None, None, 0, 0)
    # all-NaN float blocks store the inf/-inf FOLD IDENTITIES (they prune
    # comparisons soundly); if they survive to here every block was
    # all-NaN and the honest exact answer is "no orderable values"
    if isinstance(lo, float) and isinstance(hi, float) and lo > hi:
        lo = hi = None
    return {"min": lo, "max": hi, "null_count": nulls, "n_rows": rows}


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
    dnf, pred_cols = _filter_plan(blocks, filter)
    need_cols = sorted(set(pred_cols) | {col})
    dec = BlockDecoder(columns=need_cols, filter=dnf)

    def part(batch: pa.Table, i: int, zone: dict) -> int | float | None:
        verdict = zone_verdict(zone, dnf)
        if verdict == ZONE_NONE:
            return None
        z = zone.get(col)
        if verdict == ZONE_ALL and z is not None and "sum" in z:
            return z["sum"]
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
            return pc.sum(decoded[col]).as_py()
        # Python-int fold: pc.sum silently WRAPS int64 — and the blocks
        # on this path are exactly the ones whose stored zone sum was
        # skipped for worst-case overflow risk. Boundary blocks are few
        # by design, so the Python sum is off the hot path.
        vals = decoded[col].drop_null().to_pylist()
        return sum(vals) if vals else None

    return _fold_blocks(
        blocks, _META + [f"col_{c}" for c in need_cols], part, operator.add
    )


def agg_approx_distinct(blocks: "ray.data.Dataset", col: str) -> float:
    """Approximate distinct (non-null) count for one column from block
    METADATA alone — zero blobs shipped or decoded. Requires the blocks
    to carry per-block HLL registers (encode with hll=True; reserved
    zonemap key "__hll__"): registers merge by elementwise max, so the
    whole-table estimate is exactly the estimate a single-pass HLL over
    the data would give (~±2% at the default b=10), for the price of
    one ~1.4 KB metadata fold per block. Raises when any block lacks
    the sketch (hll=False encode, unsupported type, or a mixed-version
    job dir) or when blocks carry sketches of different precisions — a
    partial fold would silently under-count.

    The 100 TB shape: each task folds its batch of block rows to ONE
    register array; merge tasks fold those, and the driver at most
    FOLD_FAN_IN arrays of 2^b bytes each.
    """
    import base64

    def part(batch: pa.Table, i: int, zone: dict) -> np.ndarray:
        h = zone.get("__hll__", {}).get(col)
        if h is None:
            raise ValueError(
                f"agg_approx_distinct: block {batch['block_id'][i].as_py()!r} "
                f"has no HLL sketch for column {col!r} (encode with "
                "hll=True; stages.sketch.approx_distinct over "
                "decode_dataset is the fallback)"
            )
        return np.frombuffer(base64.b64decode(h), dtype=np.uint8)

    def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if len(a) != len(b):
            raise ValueError(
                "agg_approx_distinct: blocks carry HLL sketches of different "
                f"precisions ({len(a)} vs {len(b)} registers) — mixed "
                "hll_b encodes cannot merge; re-encode or compact to one b"
            )
        return np.maximum(a, b)

    regs = _fold_blocks(blocks, ["block_id", "zonemap"], part, merge)
    if regs is None:
        return 0.0
    from .stages.sketch import hll_estimate

    return hll_estimate(regs)


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
    dir) or when blocks carry sketches of different k — a partial fold
    would silently skew the ranks.

    The 100 TB shape: each metadata task folds its batch of block rows
    to ONE merged sketch; merge tasks fold those, and the driver at
    most FOLD_FAN_IN sketches."""
    from .stages.sketch import KllSketch

    def part(batch: pa.Table, i: int, zone: dict) -> KllSketch:
        s = zone.get("__kll__", {}).get(col)
        if s is None:
            raise ValueError(
                f"agg_approx_quantiles: block "
                f"{batch['block_id'][i].as_py()!r} has no KLL sketch for "
                f"column {col!r} (encode with kll=True; "
                "stages.sketch.approx_quantiles over decode_dataset is "
                "the fallback)"
            )
        return KllSketch.from_json(s)

    def merge(a: KllSketch, b: KllSketch) -> KllSketch:
        if a.k != b.k:
            raise ValueError(
                f"agg_approx_quantiles: blocks carry KLL sketches of "
                f"different k ({a.k} vs {b.k}) — merging would silently "
                "degrade the rank-error bound; re-encode or compact to "
                "one kll_k"
            )
        return a.merge(b)

    merged = _fold_blocks(blocks, ["block_id", "zonemap"], part, merge)
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

    Two-phase shape: phase 1 folds zonemaps only (_fold_blocks): each
    block offers its (bound, non-null rows), and the merge keeps the
    fewest blocks, by bound, that cover k rows; tau is the last bound
    kept. Phase 2 decodes candidate blocks' needed columns, keeps a
    per-batch partial top-k, and a final distributed sort+limit over <=
    n_batches*k rows returns the k rows.

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
    need = sorted(set(out_cols) | {c for c, _ in sort_keys})
    schema = blocks.schema()
    if schema is None:  # empty block table: no rows, and no types to give them
        return pa.table({c: pa.nulls(0) for c in out_cols})
    names = schema.names
    missing = [c for c in need if f"col_{c}" not in names]
    if missing:
        # fail fast ON THE DRIVER, before any phase runs in a worker
        raise ValueError(
            f"agg_topk: column(s) {missing} not in the block table "
            f"(have: {sorted(c[4:] for c in names if c.startswith('col_'))})"
        )
    dnf, pred_cols = _filter_plan(blocks, filter)
    need = sorted(set(need) | set(pred_cols))

    # ---- phase 1: threshold from zonemaps (no blobs ship) ----
    def part(batch: pa.Table, i: int, zone: dict) -> list | None:
        verdict = zone_verdict(zone, dnf)
        if verdict == ZONE_NONE:
            return None  # provably empty under the filter: never decodes
        z = zone.get(col)
        if z is None:
            raise ValueError(
                f"agg_topk: block {batch['block_id'][i].as_py()!r} has no "
                f"zone for column {col!r} (stats='none' encode or "
                "unordered type); decode_dataset + sort is the fallback"
            )
        if verdict == ZONE_SOME:
            # only fully-matching blocks give GUARANTEED results —
            # a maybe-matching block cannot tighten the threshold
            return None
        bound = z["min"] if descending else z["max"]
        nc = z.get("null_count")
        if nc is None:
            # a zone without a null count cannot GUARANTEE non-null
            # rows (zone_must_match's safe-default-1 lesson): skip it
            # from the threshold; phase 2 still decodes it
            return None
        nn = _n_rows(batch, i) - int(nc)
        if isinstance(bound, float):
            # NaN rows sort last (arrow ordering) yet are skipped by
            # the zone bounds — only finite rows are guaranteed >=
            # the bound. Legacy float zones without a NaN count give
            # no guarantee at all.
            nan = z.get("nan")
            if nan is None:
                return None
            nn -= int(nan)
        if bound is None or nn <= 0:
            return None
        return [(bound, nn)]

    def cover(a: list, b: list) -> list:
        # the blocks, best bound first, whose non-null rows first cover k
        keep, cum = [], 0
        for bound, nn in sorted(a + b, key=lambda t: t[0], reverse=descending):
            keep.append((bound, nn))
            cum += nn
            if cum >= k:
                break
        return keep

    cands = _fold_blocks(blocks, _META, part, cover) or []
    # fewer than k non-null values exist: no threshold, decode everything
    tau = cands[-1][0] if sum(nn for _, nn in cands) >= k else None

    # ---- phase 2: decode candidates only, partial then global top-k ----
    def may_place(zm: str | None) -> bool:
        z = (json.loads(zm) if zm else {}).get(col) or {}
        edge = z.get("max") if descending else z.get("min")
        if edge is None:
            # no usable bound: ALL-NULL blocks (both bounds None) cannot
            # place, but a block with values and only the needed bound
            # missing (a >64-char string max whose truncated prefix
            # cannot be bumped) MUST decode — its unbounded values may
            # be the top of the table
            return (z.get("min") if descending else z.get("max")) is not None
        return edge >= tau if descending else edge <= tau

    # filter= engages zone and page pruning; decode_blocks runs the exact
    # DNF after the decode (pages are supersets)
    decoder = BlockDecoder(columns=need, filter=filter)

    def partial_topk(batch: pa.Table) -> pa.Table:
        cand = batch
        if tau is not None:
            cand = batch.filter(pa.array(
                [may_place(zm) for zm in batch["zonemap"].to_pylist()],
                type=pa.bool_(),
            ))
        out = decode_blocks(decoder, cand) if cand.num_rows else decoder.empty(batch)
        out = out.filter(pc.is_valid(out[col]))
        return out.sort_by(sort_keys).slice(0, k)

    top = (
        blocks.select_columns(_META + [f"col_{c}" for c in need])
        .map_batches(partial_topk, batch_format="pyarrow")
        .sort(
            [c for c, _ in sort_keys],
            descending=[d == "descending" for _, d in sort_keys],
        )
        .limit(k)
    )
    # k rows: final result, driver-sized by contract. Arrow batches keep
    # the decoded schema exactly (from_pylist would re-infer types and
    # could change a timestamp unit)
    batches = list(top.iter_batches(batch_size=None, batch_format="pyarrow"))
    if batches:
        return pa.concat_tables(batches).select(out_cols)
    # legitimate empty result (all-null column, or no row matches): the
    # sort drops zero-row blocks' schema, so type it from one block row
    empty = _typed_empty(blocks, need)
    if empty is None:
        raise ValueError("agg_topk: the block table has no blocks")
    return empty.select(out_cols)


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
    an unknown op string would die on _OPS[op] mid-pipeline. An empty
    block table (no schema) has no columns to check membership against."""
    schema = blocks.schema()
    cols = ({c[4:] for c in schema.names if c.startswith("col_")}
            if schema is not None else set())
    for conj in normalize_dnf(predicates):
        validate_predicate_shapes(conj, cols, "block table")


def prune_blocks(
    blocks: "ray.data.Dataset", predicates: list[Predicate]
) -> "ray.data.Dataset":
    """Zone-map pruning as its own Ray Data operator: drop the block rows
    the predicates prove empty (zone_keep_mask), the reference's
    stats-granularity axis applied at our block level. decode_dataset
    does not call it: its task prunes each batch itself (decode_blocks),
    so a filtered read runs one execution, and count_decoded_blocks
    folds the same verdict without it (_fold_blocks)."""
    dnf = normalize_dnf(predicates)
    return blocks.map_batches(
        lambda batch: batch.filter(zone_keep_mask(batch, dnf)),
        batch_format="pyarrow",
    )


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


# provenance columns of a with_provenance decode, in output order
_PROVENANCE = {
    "_block_id": pa.string(),
    "_partition_id": pa.string(),
    "_partition_seq": pa.int64(),
    "_block_seq": pa.int64(),
    "_row_in_block": pa.int64(),
    "_row_start": pa.int64(),
}


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
            cols[name] = pa.nulls(n, type=self._fill_type(name, block_id))
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

    def _names(self, batch: pa.Table) -> list[str]:
        """Source columns this decoder gives for `batch`, in output order."""
        names = [c[4:] for c in batch.column_names if c.startswith("col_")]
        if self.fill_missing:
            # raw Dataset.union of mixed-version block tables can drop a
            # col_* from a batch entirely (no parquet schema unification);
            # fillable columns still decode as nulls. Order must not
            # depend on which columns a given batch happens to carry, so
            # pin it to `columns` (or sorted) under fill_missing.
            names += [c for c in self.fill_missing if c not in names]
            return (
                [c for c in self.columns if c in names]
                if self.columns
                else sorted(names)
            )
        if self.columns:
            return [c for c in names if c in self.columns]
        return names

    def _fill_type(self, name: str, block_id: str) -> pa.DataType:
        """Arrow type of a column a block predates, from `fill_missing`."""
        t = (self.fill_missing or {}).get(name)
        if t is None:
            raise ValueError(
                f"block {block_id} has no column {name!r} (schema "
                "evolution across encodes); pass fill_missing={name: "
                "arrow_type} / a schema to decode to nulls, or select "
                "columns= present in every block"
            )
        return t

    def empty(self, batch: pa.Table) -> pa.Table:
        """Zero-row table with the schema this decoder gives `batch`:
        each column typed from the header of its first blob in the batch
        (no payload decodes), a column no block carries from
        `fill_missing`. A batch without block rows has no header to read
        and gives a zero-column table."""
        from .blocks import empty_array

        if not batch.num_rows:
            return pa.table({})
        names = self._names(batch)
        cols: dict[str, pa.Array] = {}
        for name, col in zip(names, _blob_columns(batch, names)):
            blob = next((b for i in range(batch.num_rows)
                         if (b := _blob(col, i)) is not None), None)
            cols[name] = (
                empty_array(blob) if blob is not None
                else pa.nulls(0, self._fill_type(name, batch["block_id"][0].as_py()))
            )
        if self.with_provenance:
            cols.update({c: pa.array([], type=t) for c, t in _PROVENANCE.items()})
        return pa.table(cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        names = self._names(batch)
        blob_cols = _blob_columns(batch, names)

        def meta(col: str, default) -> list:
            if col in batch.column_names:
                return batch[col].to_pylist()
            return [default] * batch.num_rows

        ids = batch["block_id"].to_pylist()
        seqs, pids, pseqs, rstarts, nrows_col = (
            meta(c, d) for c, d in (("block_seq", 0), ("partition_id", ""),
                                    ("partition_seq", 0), ("row_start", None),
                                    ("n_rows", None))
        )
        tables = []
        for i in range(batch.num_rows):
            self._cur_partition_seq = pseqs[i]
            self._cur_row_start = rstarts[i]
            tables.append(self.decode_block_row(
                names, [_blob(c, i) for c in blob_cols], ids[i], seqs[i],
                pids[i], nrows_col[i],
            ))
        if not tables:
            return self.empty(batch)  # zero block rows in this batch
        return pa.concat_tables(tables)


def _blob_columns(batch: pa.Table, names: list[str]) -> list:
    """Each source column's col_* blob column in `batch` (None if absent)."""
    return [batch[f"col_{n}"] if f"col_{n}" in batch.column_names else None
            for n in names]


def _blob(column, i: int) -> memoryview | None:
    """Zero-copy view of block row i's (multi-MB) blob; None for a null
    cell or an absent column (the block predates it)."""
    cell = None if column is None else column[i]
    return memoryview(cell.as_buffer()) if cell is not None and cell.is_valid else None


def decode_blocks(dec: BlockDecoder, batch: pa.Table,
                  project: list[str] | None = None) -> pa.Table:
    """One batch of block rows -> its matching source rows, the body of
    every filtered block reader: zone-prune the block rows by the
    decoder's filter, decode the survivors (page-pruned), run the exact
    row filter (pages are supersets) and the projection that drops
    filter-only columns. When no row survives, the result is a zero-row
    table of the projected schema, typed from the blob headers."""
    if dec.filter:
        kept = batch.filter(zone_keep_mask(batch, dec.filter))
        out = dec(kept) if kept.num_rows else dec.empty(batch)
        if out.num_rows:
            out = filter_table_dnf(out, dec.filter)
    else:
        out = dec(batch)
    if project is not None:
        out = out.select([c for c in project if c in out.column_names])
    return out


def decode_columns(columns: list[str] | None, filter) -> list[str] | None:
    """Decode set of a read: `columns` widened by the filter's columns,
    which must decode for the exact row filter even when projected out
    of the result (the projection drops them after it). None = all."""
    if not (columns and filter):
        return columns
    extra = {c for conj in normalize_dnf(filter) for c, _, _ in conj}
    return list(columns) + sorted(extra - set(columns))


def _decode_task(batch: pa.Table, stage_class: type, ctor_kwargs: dict,
                 op_token: str, project: list[str] | None) -> pa.Table:
    """Ray Data task body of decode_dataset: decode_blocks with the
    read's BlockDecoder, built once per worker per read."""
    return decode_blocks(slot_stage(stage_class, ctor_kwargs, op_token), batch, project)


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
    whole blocks by min/max + Bloom before any of their blobs decode
    (strictly fewer blocks decoded — measurable via
    count_decoded_blocks), page-zone pruning inside surviving blocks
    decodes only matchable pages (stats="page" encodes), then the exact
    row filter runs after decode. Ops: ==, !=, <, <=, >, >=, "in" (list
    of values; Bloom and zone pruning both understand it), "prefix"
    (zone-prunable), and "contains" (substring; block-prunable via
    per-block n-gram Bloom filters on tables encoded with ngram=True).

    `fill_missing` enables schema-evolution reads: a union of block
    tables written across pipeline versions (read_blocks([dir_v1,
    dir_v2])) null-fills columns a block predates, using the given
    {column: arrow type} map (or schema) for the null arrays.

    The zone prune, the decode, the exact row filter and the projection
    run in one Ray Data task per batch of blocks (decode_blocks), on
    reused task workers (no actor pool), so a filtered read is one Ray
    Data execution. A batch with no surviving row yields a zero-row
    table of the projected schema. `concurrency` caps the tasks in
    flight: an int as given, a (min, max) pair its upper bound, None no
    cap (Ray Data sizes it)."""
    if filter:
        validate_predicates(blocks, filter)
    decode_cols, project = decode_columns(columns, filter), None
    if columns and filter:
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
        keep = ["block_id", "partition_id", "partition_seq", "block_seq",
                "n_rows", "row_start"] + (["zonemap"] if filter else [])
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
    the prune-effectiveness metric the zone-map oracle asserts on. One
    zonemap-only fold over the block table."""
    dnf = normalize_dnf(filter) if filter else None

    def part(batch: pa.Table, i: int, zone: dict) -> np.ndarray:
        return np.array([1, zone_verdict(zone, dnf) != ZONE_NONE], dtype=np.int64)

    sums = _fold_blocks(blocks, ["block_id", "zonemap"], part, operator.add)
    total, kept = (0, 0) if sums is None else sums
    return {"total_blocks": int(total), "decoded_blocks": int(kept)}


def explain_decode(
    blocks: "ray.data.Dataset", filter: list[Predicate] | None
) -> dict:
    """Prune-effectiveness report for a filtered decode, computed
    DISTRIBUTED over the block table (the driver merges at most
    FOLD_FAN_IN partials): how many blocks survive zone+Bloom pruning,
    how many pages (and rows) inside the survivors the page index would
    actually decode, and the blob bytes each stage would ship. Run this before
    pointing a selective decode at a 100 TB block table — a filter that
    prunes nothing is a full-table scan wearing a WHERE clause."""
    if not filter:
        raise ValueError("explain_decode needs a filter to explain")
    dnf, pred_cols = _filter_plan(blocks, filter)
    dec = BlockDecoder(filter=dnf)

    def part(batch: pa.Table, i: int, zone: dict) -> np.ndarray:
        from .blocks import block_codec

        # zero-copy blob views: never copy payload bytes to Python here
        nbytes = sum(len(b) for c in batch.column_names if c.startswith("col_")
                     and (b := _blob(batch[c], i)) is not None)
        n = _n_rows(batch, i)
        if zone_verdict(zone, dnf) == ZONE_NONE:
            return np.array([1, 0, nbytes, 0, n, 0], dtype=np.int64)
        present = [(c, b) for c, col in zip(pred_cols, _blob_columns(batch, pred_cols))
                   if (b := _blob(col, i)) is not None]
        pblobs = [b for _, b in present]
        keep = dec._page_keep([c for c, _ in present], pblobs)
        rows = n or (block_codec(pblobs[0])["n"] if pblobs else 0)
        return np.array([1, 1, nbytes, nbytes, n, rows if keep is None else len(keep)],
                        dtype=np.int64)

    cols = ["total_blocks", "kept_blocks", "total_blob_bytes",
            "kept_blob_bytes", "total_rows", "page_kept_rows"]
    sums = _fold_blocks(blocks, None, part, operator.add)
    out = {c: int(v) for c, v in zip(cols, [0] * len(cols) if sums is None else sums)}
    # a table with no blocks (or rows) has nothing pruned
    for key, kept, total in [("block_prune_ratio", "kept_blocks", "total_blocks"),
                             ("page_row_prune_ratio", "page_kept_rows", "total_rows")]:
        out[key] = round(1 - out[kept] / out[total], 4) if out[total] else 0.0
    return out


class RowStartRequired(ValueError):
    """Random access / global row numbers need the within-partition
    row offsets recorded at encode time (`row_start`); these blocks lack
    them — blocks of the unordered `encode_dataset`, or a union of those
    with ordered blocks. Every job dir of this FORMAT_VERSION carries
    them, so the remedy is to re-encode with an ordered path
    (encode_dataset_ordered / run_encode_job); there is no in-place
    backfill. The pre-round-5 driver-side offset map (take_all of every
    block's metadata, O(n_blocks) on the driver — millions of rows at
    100 TB) is retired (VERDICT r4 #7)."""

    def __init__(self, detail: str):
        super().__init__(
            f"blocks lack usable row_start metadata ({detail}); re-encode "
            "with an ordered path (encode_dataset_ordered or run_encode_job)"
        )


def _partition_bases(
    blocks: "ray.data.Dataset",
) -> tuple["ray.data.Dataset", dict, int]:
    """(blocks, partition_seq -> global base row, total rows): the one
    prologue of every global-row-number reader. A lazy `blocks` is
    materialized once and returned pinned, because the caller runs more
    passes over it (schema probe, this fold, its decode) and each would
    re-run the encode. An empty block table has no bases ({}, 0). Blocks
    without `row_start` raise RowStartRequired.

    The bases come from one `dispatch.fold` of per-partition sums in
    exact Python ints: each partial holds one entry per partition_seq,
    so the driver merges manifest-sized partials and never per-BLOCK
    metadata (VERDICT r3 #6: the old take_all of (partition_seq,
    block_seq, n_rows) was O(n_blocks) driver rows).

    The same fold carries two integrity checks in place of a per-block
    total-order guard: a null count of row_start (unordered blocks
    unioned with ordered ones: schema unification null-fills the blocks
    that lack it -> RowStartRequired) and per-partition tiling of
    [0, rows) (duplicated blocks from unioned encodes, or a filtered
    blocks dataset, raise instead of silently mis-addressing rows)."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(blocks, MaterializedDataset):
        blocks = blocks.materialize()
    schema = blocks.schema()
    if schema is None:
        return blocks, {}, 0
    if "row_start" not in schema.names:
        raise RowStartRequired("no row_start column in the block schema")

    # partition_seq -> [rows, null row_starts, min start, max end,
    # sum of end^2 - start^2]
    def add(out: dict, p, y: list) -> None:
        x = out.get(p)
        out[p] = y if x is None else [x[0] + y[0], x[1] + y[1], min(x[2], y[2]),
                                      max(x[3], y[3]), x[4] + y[4]]

    def part(t: pa.Table) -> dict:
        out: dict = {}
        for p, n, rs in zip(*(t[c].to_pylist() for c in ("partition_seq", "n_rows", "row_start"))):
            start = rs or 0
            add(out, p, [n, rs is None, start, start + n, (start + n) ** 2 - start * start])
        return out

    def merge(a: dict, b: dict) -> dict:
        out = dict(a)
        for p, y in b.items():
            add(out, p, y)
        return out

    parts = fold(blocks.select_columns(["partition_seq", "n_rows", "row_start"]), part, merge) or {}
    if any(x[1] for x in parts.values()):
        raise RowStartRequired(
            "row_start is null on some blocks — unordered blocks mixed "
            "with ordered ones"
        )
    bases: dict = {}
    acc = 0
    for p, (total, _, lo, hi, tel) in sorted(parts.items()):
        # three necessary tiling conditions over [0, total): row counts
        # sum to the span end, the span starts at 0, and the telescoping
        # sum of end^2 - start^2 equals total^2. The first alone misses
        # COMPENSATING corruption (a missing prefix block plus a
        # duplicated later block of equal size keeps the sum), which the
        # telescoping sum catches (duplicated high spans over-weigh).
        if total != hi or lo != 0 or tel != total * total:
            raise ValueError(
                f"blocks lack a total order (partition {int(p)}: block rows "
                f"sum to {total} but row_start spans [{lo}, {hi}) with "
                f"telescoping checksum {tel} != {total * total} "
                "— duplicated or missing blocks, e.g. a union of two "
                "encodes or a filtered blocks dataset); re-encode with "
                "encode_dataset_ordered or the resumable job"
            )
        bases[int(p)] = acc
        acc += total
    return blocks, bases, acc


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
    driver. Blocks without it (unordered encode_dataset output) raise
    RowStartRequired: re-encode with an ordered path (the O(n_blocks)
    driver offset map is retired, VERDICT r4 #7).
    Only touched blocks are decoded, and inside each block
    only the selected rows (blocks.decode_rows partial paths). Result is
    driver-sized by construction (random access means few rows)."""
    import numpy as np

    import ray as _ray

    idx = np.asarray(indices, dtype=np.int64)
    blocks, bases, total = _partition_bases(blocks)
    schema = blocks.schema()
    if schema is None:  # empty block table (e.g. everything filtered away)
        if len(idx) == 0:
            return pa.table({})
        raise IndexError("row index out of range: block table is empty")
    if len(idx) and (idx.min() < 0 or idx.max() >= total):
        raise IndexError(f"row index out of range 0..{total - 1}")
    all_names = [c[4:] for c in schema.names if c.startswith("col_")]
    names = [c for c in all_names if c in columns] if columns else all_names
    missing = sorted(set(columns or ()) - set(all_names))
    if missing:
        raise ValueError(f"columns not in the block table: {missing}")
    if len(idx) == 0:
        # empty selection: the caller still gets a correctly-typed table
        empty = _typed_empty(blocks, names)
        return pa.table({}) if empty is None else empty
    state = _ray.put((idx, bases))
    resolved: dict = {}  # per-task memo: one object-store fetch per pick
    # task, not one per block row (the closure deserializes once per
    # task, so this dict persists across the batch's rows)

    def pick(batch: pa.Table) -> pa.Table:
        from .blocks import decode_rows as _dr

        if "s" not in resolved:
            resolved["s"] = _ray.get(state)
        w_idx, bs = resolved["s"]
        out = []
        for i in range(batch.num_rows):
            gs = bs[int(batch["partition_seq"][i].as_py())] + int(
                batch["row_start"][i].as_py()
            )
            m = (w_idx >= gs) & (w_idx < gs + int(batch["n_rows"][i].as_py()))
            if not m.any():
                continue
            cols = {
                name: _dr(memoryview(batch[f"col_{name}"][i].as_buffer()), w_idx[m] - gs)
                for name in names
            }
            cols["_pos"] = pa.array(np.flatnonzero(m), type=pa.int64())
            out.append(pa.table(cols))
        return pa.concat_tables(out) if out else pa.table({})

    # project to the requested col_* BEFORE the map, so unrequested
    # multi-MB blobs never ship to the pick tasks
    projected = blocks.select_columns(
        ["partition_seq", "row_start", "n_rows"] + [f"col_{n}" for n in names]
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


def _typed_empty(blocks: "ray.data.Dataset", names: list[str]) -> pa.Table | None:
    """Zero-row table of source columns `names`, typed from the blob
    headers of the first block row (one limit-1 read, no payload
    decode); None for an empty block table."""
    rows = blocks.select_columns(["block_id"] + [f"col_{n}" for n in names]).take(1)
    if not rows:
        return None
    return BlockDecoder(columns=names).empty(pa.Table.from_pylist(rows))


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
    only per-PARTITION bases are computed — one fold whose partials hold
    an entry per partition — so nothing per-block reaches the driver
    (VERDICT r3 #6). Blocks without row_start (unordered
    encode_dataset output) raise RowStartRequired: re-encode with an
    ordered path (the O(n_blocks) driver offset map is retired, VERDICT
    r4 #7)."""
    import numpy as np

    import ray as _ray

    blocks, bases, _total = _partition_bases(blocks)
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
