"""Column-block container: header + payload serialization, null handling.

One encoded column chunk = one self-describing byte blob:

    MAGIC "RYB2" | header_len u32 LE | header json | validity? | sections...

The header records codec name, row count, arrow type, null count and the
codec's params plus section lengths, so any worker can decode a block
with no out-of-band state (per-block symbol tables etc. live in the
sections — the property that keeps encode tasks restart-safe,
SURVEY.md §2.3 T1). Validity is handled here, NOT in codecs: codecs see
null-free arrays (nulls filled with "" / 0), and the container restores
the bitmap on decode — the explicit-null-bitmap discipline the
reference's lossy FlatBuffers path violates
(/root/reference/src/flatbuffers.rs:14-30) and its empty-vs-null tests
demand (/root/reference/src/vec_pq_reader.rs:673-681).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .codecs import get_codec
from .codecs.base import is_floatlike, is_stringlike
from .codecs.util import type_from_str, type_to_str

_MAGIC = b"RYB2"
# The magic doubles as the on-disk layout version. "RYB1" blobs packed
# bit streams ELEMENT-major; "RYB2" packs them PLANE-major (pack_planes)
# — same section lengths when n%8==0, so decoding an RYB1 blob with the
# RYB2 unpacker would return silently wrong values. Decode therefore
# refuses RYB1 loudly (and manifest.check_format refuses a job dir of any
# other FORMAT_VERSION at every entry point the same way).
_OLD_MAGICS = {b"RYB1"}


def _fill_value(t: pa.DataType):
    if pa.types.is_fixed_size_binary(t):
        return b"\x00" * t.byte_width
    if is_stringlike(t):
        return b"" if pa.types.is_binary(t) or pa.types.is_large_binary(t) else ""
    if is_floatlike(t):
        return 0.0
    if pa.types.is_boolean(t):
        return False
    return 0


def prepare_array(arr: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, np.ndarray | None, int]:
    """Combine chunks; split off the validity bitmap; fill nulls.

    Returns (null-free single-chunk array, validity bool array or None,
    null_count)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    null_count = arr.null_count
    if null_count == 0:
        # ensure offset-0 buffers for zero-copy views
        if arr.offset != 0:
            arr = pa.concat_arrays([arr])
        return arr, None, 0
    validity = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    t = arr.type
    if pa.types.is_timestamp(t) or pa.types.is_date32(t):
        iview = arr.view(pa.int64() if pa.types.is_timestamp(t) else pa.int32())
        filled = pc.fill_null(iview, 0).view(t)
    else:
        filled = pc.fill_null(arr, _fill_value(t))
    if filled.offset != 0:
        filled = pa.concat_arrays([filled])
    return filled, validity, null_count


def restore_nulls(decoded: pa.Array, validity: np.ndarray) -> pa.Array:
    mask = pa.array(validity, type=pa.bool_())
    return pc.if_else(mask, decoded, pa.nulls(len(decoded), decoded.type))


def _is_list(t: pa.DataType) -> bool:
    return (
        pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t)
    )


DEFAULT_PAGE_ROWS = 2048


def encode_column(
    arr: pa.Array | pa.ChunkedArray,
    codec_name: str,
    level: int = 3,
    page_rows: int | None = None,
    page_zones: bool = False,
    page_blooms: bool | None = None,
) -> bytes:
    """Encode one column chunk into a self-describing block blob.

    List columns (list / large_list / fixed_size_list — the reference's
    nested payloads, /root/reference/src/schema.rs:13-34) are encoded as
    per-row lengths (frame-of-reference packed) + a recursively encoded
    child block of the flattened values; `codec_name` names the CHILD
    codec. Null list vs empty list is preserved via the validity bitmap
    (def-level 0 vs 1 in the reference,
    /root/reference/src/vec_pq_reader.rs:176-195).

    `page_rows` splits the column into independently-decodable sub-block
    PAGES (the reference's third stats-granularity level,
    /root/reference/src/bin/js2pq/main.rs:18-26,85-89): random access
    (decode_rows/take_rows) and page-zone-pruned filtered decode then
    touch page bytes instead of whole multi-MB blocks — the random-access
    cost cliff a monolithic fsst@9 content block otherwise has.
    `page_zones` adds per-page min/max/null stats for pruning."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if page_rows and len(arr) > page_rows:
        if page_blooms is None:
            page_blooms = page_zones
        return _encode_paged(
            arr, codec_name, level, page_rows, page_zones, page_blooms
        )
    if _is_list(arr.type):
        return _encode_list(arr, codec_name, level)
    if pa.types.is_struct(arr.type):
        return _encode_struct(arr, codec_name, level)
    if pa.types.is_map(arr.type):
        return _encode_map(arr, codec_name, level)
    if codec_name == "auto":
        # leaf reached through a composite's "auto": run the selector here
        from .selector import select_codec

        codec_name = select_codec(arr, level=level).codec
    if "@" in codec_name:
        # "fsst@9": codec at an explicit zstd level (selector level trials)
        codec_name, lvl = codec_name.split("@", 1)
        level = int(lvl)
    filled, validity, null_count = prepare_array(arr)
    if pa.types.is_decimal(arr.type):
        # zero-copy view of the 16/32-byte decimal words as
        # fixed_size_binary: codecs see bytes, the header keeps the
        # decimal type string for bit-identical reconstruction (the
        # reference's schema converter stops at primitives+struct,
        # /root/reference/src/schema.rs:87-108; decimals are our ask)
        w = arr.type.byte_width
        filled = pa.Array.from_buffers(
            pa.binary(w), len(filled), [None, filled.buffers()[1]]
        )
    codec = get_codec(codec_name)
    params, sections = codec.encode(filled, level)
    vbuf = (
        np.packbits(validity.astype(np.uint8), bitorder="little").tobytes()
        if null_count
        else b""
    )
    header = {
        "codec": codec_name,
        "n": len(filled),
        "type": type_to_str(arr.type),
        "null_count": int(null_count),
        "params": params,
        "sections": {k: len(v) for k, v in sections.items()},
    }
    hjson = json.dumps(header, separators=(",", ":")).encode()
    parts = [_MAGIC, len(hjson).to_bytes(4, "little"), hjson, vbuf]
    parts.extend(sections.values())
    return b"".join(parts)


def _encode_paged(
    arr: pa.Array,
    codec_name: str,
    level: int,
    page_rows: int,
    page_zones: bool,
    page_blooms: bool = True,
) -> bytes:
    """Split a column into pages of `page_rows`, each a full recursive
    RYB2 blob (own validity, own symbol tables — independently
    decodable); the wrapper header carries per-page row counts and
    optional per-page zone maps."""
    n = len(arr)
    page_blobs: list[bytes] = []
    rows: list[int] = []
    zones: list[dict | None] | None = [] if page_zones else None
    blooms: list[str | None] | None = [] if (page_zones and page_blooms) else None
    for start in range(0, n, page_rows):
        page = arr.slice(start, page_rows)
        page_blobs.append(encode_column(page, codec_name, level))
        rows.append(len(page))
        if zones is not None:
            from .encode import column_zone  # lazy: avoids import cycle

            zones.append(column_zone(page))
        if blooms is not None:
            from .bloom import bloom_build  # per-page equality pruning

            blooms.append(bloom_build(page))
    params: dict = {"rows": rows, "child_codec": codec_name}
    if zones is not None:
        params["zones"] = zones
    if blooms is not None and any(b is not None for b in blooms):
        params["blooms"] = blooms
    header = {
        "codec": "paged",
        "n": n,
        "type": "paged",
        "null_count": 0,  # validity lives inside each page blob
        "params": params,
        "sections": {f"p{i}": len(b) for i, b in enumerate(page_blobs)},
    }
    hjson = json.dumps(header, separators=(",", ":")).encode()
    return b"".join([_MAGIC, len(hjson).to_bytes(4, "little"), hjson, *page_blobs])


def _page_starts(params: dict) -> np.ndarray:
    rows = np.asarray(params["rows"], dtype=np.int64)
    starts = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(rows, out=starts[1:])
    return starts


def _decode_paged_rows(header: dict, sections: dict, indices: np.ndarray) -> pa.Array:
    """Selected rows of a paged block: decode only the touched pages,
    and within each only the selected positions; reassemble in the
    requested order (duplicates preserved)."""
    starts = _page_starts(header["params"])
    page_of = np.searchsorted(starts, indices, side="right") - 1
    parts: list[pa.Array] = []
    pos_parts: list[np.ndarray] = []
    for p in np.unique(page_of):
        mask = page_of == p
        local = indices[mask] - starts[p]
        parts.append(decode_rows(sections[f"p{int(p)}"], local))
        pos_parts.append(np.flatnonzero(mask))
    if not parts:
        # typed empty result: zero rows of the first page
        return decode_rows(sections["p0"], np.empty(0, dtype=np.int64))
    combined = pa.concat_arrays([p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p for p in parts])
    positions = np.concatenate(pos_parts)
    perm = np.argsort(positions, kind="stable")
    return combined.take(pa.array(perm, type=pa.int64()))


def page_stats(blob: bytes | memoryview, indices=None) -> dict:
    """Page-granularity accounting for a block blob: total payload bytes
    vs the bytes a decode_rows(indices) call actually touches — the
    prune-effectiveness metric the page-index tests assert on. Unpaged
    blobs touch everything by construction."""
    header, _, sections = _parse_block(blob)
    if header["codec"] != "paged":
        total = sum(header["sections"].values())
        return {"n_pages": 1, "total_bytes": total, "touched_bytes": total}
    sizes = {int(k[1:]): v for k, v in header["sections"].items()}
    total = sum(sizes.values())
    if indices is None:
        return {"n_pages": len(sizes), "total_bytes": total, "touched_bytes": total}
    starts = _page_starts(header["params"])
    idx = np.asarray(indices, dtype=np.int64)
    pages = np.unique(np.searchsorted(starts, idx, side="right") - 1)
    touched = int(sum(sizes[int(p)] for p in pages))
    return {"n_pages": len(sizes), "total_bytes": total, "touched_bytes": touched}


def page_prune_indices(blob: bytes | memoryview, predicates) -> np.ndarray | None:
    """Row indices of the pages a predicate conjunction can possibly
    match, using per-page zone maps and (for equality predicates)
    per-page Bloom filters (page_zones=True at encode). Returns None
    when the blob is unpaged or carries no page stats (meaning: no
    sub-block pruning available, decode everything)."""
    from .bloom import bloom_may_contain  # lazy: avoids import cycle
    from .decode import zone_may_match

    header, _, _ = _parse_block(blob)
    if header["codec"] != "paged":
        return None
    zones = header["params"].get("zones")
    blooms = header["params"].get("blooms")
    if not zones and not blooms:
        return None
    n_pages = len(header["params"]["rows"])
    starts = _page_starts(header["params"])
    col = "__self__"
    preds = [(col, op, val) for (_, op, val) in predicates]
    keep: list[np.ndarray] = []
    for p in range(n_pages):
        z = zones[p] if zones else None
        zmap = {col: z} if z is not None else {}
        ok = zone_may_match(zmap, preds)
        if ok and blooms and blooms[p] is not None:
            ok = all(
                bloom_may_contain(blooms[p], val)
                if op in ("==", "=")
                else any(bloom_may_contain(blooms[p], v) for v in val)
                for (_, op, val) in predicates
                if op in ("==", "=", "in")
            )
        if ok:
            keep.append(np.arange(starts[p], starts[p + 1], dtype=np.int64))
    if not keep:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(keep)


def _parse_block(blob: bytes | memoryview) -> tuple[dict, np.ndarray | None, dict]:
    """Split a blob into (header, validity bool array or None, sections)."""
    blob = memoryview(blob)
    if bytes(blob[:4]) != _MAGIC:
        if bytes(blob[:4]) in _OLD_MAGICS:
            raise ValueError(
                "RYB1 block from an older rayenc (element-major bit "
                "packing); this build reads RYB2 (plane-major) — re-encode "
                "the source data"
            )
        raise ValueError("not a RYB2 block")
    hlen = int.from_bytes(blob[4:8], "little")
    header = json.loads(bytes(blob[8 : 8 + hlen]))
    n = header["n"]
    pos = 8 + hlen
    validity = None
    if header["null_count"]:
        vlen = (n + 7) // 8
        vbits = np.frombuffer(blob[pos : pos + vlen], dtype=np.uint8)
        validity = np.unpackbits(vbits, count=n, bitorder="little").astype(bool)
        pos += vlen
    # zero-copy memoryview slices: a page-pruned decode_rows must not
    # memcpy every untouched page's section just to pick one page (every
    # consumer — zstd, unpack_bits_z, recursive decode_column — takes any
    # buffer object)
    sections: dict[str, memoryview] = {}
    for name, length in header["sections"].items():
        sections[name] = blob[pos : pos + length]
        pos += length
    return header, validity, sections


def decode_column(blob: bytes | memoryview) -> pa.Array:
    """Decode a block blob back to the original arrow array (bit-identical)."""
    header, validity, sections = _parse_block(blob)
    n = header["n"]
    if header["codec"] == "paged":
        parts = [
            decode_column(sections[f"p{i}"])
            for i in range(len(header["params"]["rows"]))
        ]
        return pa.concat_arrays(
            [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p for p in parts]
        )
    if header["codec"] == "list":
        return _decode_list(header, validity, sections)
    if header["codec"] == "struct":
        return _decode_struct(header, validity, sections)
    typ = type_from_str(header["type"])
    codec = get_codec(header["codec"])
    if pa.types.is_decimal(typ):
        fsb = codec.decode(header["params"], sections, n, pa.binary(typ.byte_width))
        if fsb.offset != 0:
            fsb = pa.concat_arrays([fsb])
        vbuf = (
            pa.py_buffer(
                np.packbits(validity.astype(np.uint8), bitorder="little").tobytes()
            )
            if validity is not None
            else None
        )
        return pa.Array.from_buffers(typ, n, [vbuf, fsb.buffers()[1]])
    decoded = codec.decode(header["params"], sections, n, typ)
    if validity is not None:
        decoded = restore_nulls(decoded, validity)
    return decoded


def decode_rows(blob: bytes | memoryview, indices) -> pa.Array:
    """Random-access decode: only the requested row positions, in the
    given order (FSST's headline property, VLDB 2020 §1; the reference's
    selective typed reads, /root/reference/src/bin/parqbench/main.rs:276-333).

    Codecs with cheap partial paths (dict, fsst) expand only the selected
    rows' payloads; others fall back to full decode + take. Nested
    blocks recurse with remapped child indices."""
    indices = np.asarray(indices, dtype=np.int64)
    header, validity, sections = _parse_block(blob)
    n = header["n"]
    if np.any((indices < 0) | (indices >= n)):
        raise IndexError(f"row index out of range for block of {n} rows")
    codec_name = header["codec"]
    if codec_name == "paged":
        return _decode_paged_rows(header, sections, indices)
    sub_validity = validity[indices] if validity is not None else None
    if codec_name == "struct":
        names = header["params"]["fields"]
        children = [decode_rows(sections[f"f{i}"], indices) for i in range(len(names))]
        mask = pa.array(~sub_validity) if sub_validity is not None else None
        return pa.StructArray.from_arrays(children, names, mask=mask)
    if codec_name == "list":
        return _decode_list_rows(header, validity, sections, indices)
    typ = type_from_str(header["type"])
    codec = get_codec(codec_name)
    if pa.types.is_decimal(typ):
        fsb = codec.decode_rows(
            header["params"], sections, n, pa.binary(typ.byte_width), indices
        )
        if fsb.offset != 0:
            fsb = pa.concat_arrays([fsb])
        vbuf = (
            pa.py_buffer(
                np.packbits(sub_validity.astype(np.uint8), bitorder="little").tobytes()
            )
            if sub_validity is not None
            else None
        )
        return pa.Array.from_buffers(typ, len(indices), [vbuf, fsb.buffers()[1]])
    decoded = codec.decode_rows(header["params"], sections, n, typ, indices)
    if sub_validity is not None:
        decoded = restore_nulls(decoded, sub_validity)
    return decoded


def empty_array(blob: bytes | memoryview) -> pa.Array:
    """Zero-row array of a block's column type, named by the header
    (a paged blob asks its first page). Only a type the header cannot
    name (nested, dictionary) comes from decode_rows with no rows."""
    header, _, sections = _parse_block(blob)
    if header["codec"] == "paged" and "p0" in sections:
        return empty_array(sections["p0"])
    try:
        return pa.array([], type=type_from_str(header["type"]))
    except ValueError:
        return decode_rows(blob, np.empty(0, dtype=np.int64))


def _decode_list_rows(
    header: dict, validity: np.ndarray | None, sections: dict, indices: np.ndarray
) -> pa.Array:
    """Selected rows of a list/fixed_size_list/map block: decode the
    (cheap, int) lengths fully, map row indices to child value ranges,
    recurse into the child blob with the expanded positions."""
    from .codecs.util import decode_lengths

    n = header["n"]
    params = header["params"]
    kind = header["type"]
    k = len(indices)
    if kind == "fixed_size_list":
        size = params["list_size"]
        if validity is None:
            lengths = np.full(n, size, dtype=np.int64)
        else:
            lengths = np.where(validity, size, 0).astype(np.int64)
    else:
        lengths = decode_lengths(params["lmeta"], sections["lengths"], n)
    child_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=child_off[1:])
    sel_lens = lengths[indices]
    total = int(sel_lens.sum())
    if total:
        base = np.repeat(child_off[indices], sel_lens)
        out_start = np.zeros(k, dtype=np.int64)
        np.cumsum(sel_lens[:-1], out=out_start[1:])
        within = np.arange(total, dtype=np.int64) - np.repeat(out_start, sel_lens)
        child_idx = base + within
        child = decode_rows(sections["child"], child_idx)
    else:
        child = decode_rows(sections["child"], np.empty(0, dtype=np.int64)).slice(0, 0)
    sub_validity = validity[indices] if validity is not None else None
    vbuf = (
        pa.py_buffer(
            np.packbits(sub_validity.astype(np.uint8), bitorder="little").tobytes()
        )
        if sub_validity is not None
        else None
    )
    field = pa.field(params["child_field"], child.type)
    if kind == "fixed_size_list":
        size = params["list_size"]
        typ = pa.list_(field, size)
        if sub_validity is None:
            dense = child
        else:
            dense = _scatter_child(child, sub_validity, k, size)
        return pa.Array.from_buffers(typ, k, [vbuf], children=[dense])
    offsets = np.zeros(k + 1, dtype=np.int64 if kind == "large_list" else np.int32)
    np.cumsum(sel_lens, out=offsets[1:])
    if kind == "map":
        mt = params["map_type"]
        kt, it = type_from_str(mt["key"]), type_from_str(mt["item"])
        typ = pa.map_(kt, it, keys_sorted=mt["keys_sorted"])
        entries_t = pa.struct([pa.field("key", kt, nullable=False), pa.field("value", it)])
        if child.type != entries_t:
            child = pa.Array.from_buffers(
                entries_t, len(child), [None], children=[child.field(0), child.field(1)]
            )
    else:
        typ = pa.large_list(field) if kind == "large_list" else pa.list_(field)
    return pa.Array.from_buffers(
        typ, k, [vbuf, pa.py_buffer(offsets.tobytes())], children=[child]
    )


def _encode_list(arr: pa.Array, child_codec: str, level: int = 3) -> bytes:
    from .codecs.util import encode_lengths

    t = arr.type
    n = len(arr)
    null_count = arr.null_count
    validity = None
    if null_count:
        validity = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    lengths = pc.list_value_length(arr)
    lengths = pc.fill_null(lengths, 0).to_numpy(zero_copy_only=False).astype(np.int64)
    if null_count:
        lengths = np.where(validity, lengths, 0)
    child = pc.list_flatten(arr)  # values of non-null lists only
    child_blob = encode_column(child, child_codec, level)
    lmeta, lbuf = encode_lengths(lengths, level)
    kind = (
        "fixed_size_list"
        if pa.types.is_fixed_size_list(t)
        else ("large_list" if pa.types.is_large_list(t) else "list")
    )
    header = {
        "codec": "list",
        "n": n,
        "type": kind,
        "null_count": int(null_count),
        "params": {
            "lmeta": lmeta,
            "child_field": t.value_field.name,
            "list_size": t.list_size if pa.types.is_fixed_size_list(t) else 0,
            "child_len": len(child),
        },
        "sections": {"lengths": len(lbuf), "child": len(child_blob)},
    }
    hjson = json.dumps(header, separators=(",", ":")).encode()
    vbuf = (
        np.packbits(validity.astype(np.uint8), bitorder="little").tobytes()
        if null_count
        else b""
    )
    return b"".join(
        [_MAGIC, len(hjson).to_bytes(4, "little"), hjson, vbuf, lbuf, child_blob]
    )


def _decode_list(header: dict, validity: np.ndarray | None, sections: dict) -> pa.Array:
    from .codecs.util import decode_lengths

    n = header["n"]
    params = header["params"]
    child = decode_column(sections["child"])
    lengths = decode_lengths(params["lmeta"], sections["lengths"], n)
    field = pa.field(params["child_field"], child.type)
    vbuf = None
    if validity is not None:
        vbuf = pa.py_buffer(
            np.packbits(validity.astype(np.uint8), bitorder="little").tobytes()
        )
    if header["type"] == "fixed_size_list":
        size = params["list_size"]
        typ = pa.list_(field, size)
        # scatter valid rows' values into a dense child of n*size slots
        if validity is None:
            full = child
        else:
            full = _scatter_child(child, validity, n, size)
        return pa.Array.from_buffers(typ, n, [vbuf], children=[full])
    large = header["type"] == "large_list"
    off_dtype = np.int64 if large else np.int32
    offsets = np.zeros(n + 1, dtype=off_dtype)
    np.cumsum(lengths, out=offsets[1:])
    if header["type"] == "map":
        mt = params["map_type"]
        kt, it = type_from_str(mt["key"]), type_from_str(mt["item"])
        typ = pa.map_(kt, it, keys_sorted=mt["keys_sorted"])
        # the generic struct decode yields nullable fields; the map type
        # demands its exact entries type (key non-null) — rebuild the
        # child around the same buffers so scalar access doesn't trip
        # Arrow's type check
        entries_t = pa.struct([pa.field("key", kt, nullable=False), pa.field("value", it)])
        if child.type != entries_t:
            child = pa.Array.from_buffers(
                entries_t, len(child), [None], children=[child.field(0), child.field(1)]
            )
    else:
        typ = pa.large_list(field) if large else pa.list_(field)
    return pa.Array.from_buffers(
        typ, n, [vbuf, pa.py_buffer(offsets.tobytes())], children=[child]
    )


def _encode_struct(arr: pa.Array, child_codec: str, level: int = 3) -> bytes:
    """Struct columns: one recursively encoded child block per field +
    the struct-level validity bitmap (the reference's struct conversion,
    /root/reference/src/schema.rs:100-107, generalized to arbitrary
    nesting). `child_codec` applies to every field, falling back to
    plain per field; "auto" runs the selector per field (children are
    self-describing blobs, so heterogeneous choices are free)."""
    t = arr.type
    n = len(arr)
    null_count = arr.null_count
    validity = (
        pc.is_valid(arr).to_numpy(zero_copy_only=False) if null_count else None
    )
    names = [t.field(i).name for i in range(t.num_fields)]
    # "struct:{json}" carries a per-field codec map — the cacheable form
    # the selector emits so composite columns don't re-trial every block
    spec: dict | None = None
    if child_codec.startswith("struct:"):
        spec = json.loads(child_codec[len("struct:") :])
    blobs: list[bytes] = []
    for i, name in enumerate(names):
        child = arr.field(i)
        cc = spec.get(name, "plain") if spec is not None else child_codec
        if cc == "auto":
            from .selector import encode_column_auto

            blob, _ = encode_column_auto(child, level)
        else:
            try:
                blob = encode_column(child, cc, level)
            except Exception:
                blob = encode_column(child, "plain", level)
        blobs.append(blob)
    header = {
        "codec": "struct",
        "n": n,
        "type": "struct",
        "null_count": int(null_count),
        "params": {"fields": names},
        "sections": {f"f{i}": len(b) for i, b in enumerate(blobs)},
    }
    hjson = json.dumps(header, separators=(",", ":")).encode()
    vbuf = (
        np.packbits(validity.astype(np.uint8), bitorder="little").tobytes()
        if null_count
        else b""
    )
    return b"".join([_MAGIC, len(hjson).to_bytes(4, "little"), hjson, vbuf, *blobs])


def _decode_struct(header: dict, validity: np.ndarray | None, sections: dict) -> pa.Array:
    names = header["params"]["fields"]
    children = [decode_column(sections[f"f{i}"]) for i in range(len(names))]
    mask = pa.array(~validity) if validity is not None else None
    return pa.StructArray.from_arrays(children, names, mask=mask)


def _encode_map(arr: pa.Array, child_codec: str, level: int = 3) -> bytes:
    """Map columns ride the list machinery: cast to list<struct<key,value>>
    (zero-copy layout change), encode as a list block whose header says
    "map"; decode rebuilds the list then reinterprets its buffers as a
    MapArray (same physical layout)."""
    t = arr.type
    lt = pa.list_(
        pa.field(
            "entries",
            pa.struct(
                [
                    pa.field("key", t.key_type, nullable=False),
                    pa.field("value", t.item_type),
                ]
            ),
        )
    )
    blob = _encode_list(arr.cast(lt), child_codec, level)
    # rewrite the header kind to "map" + remember the exact map type
    blob_v = memoryview(blob)
    hlen = int.from_bytes(blob_v[4:8], "little")
    header = json.loads(bytes(blob_v[8 : 8 + hlen]))
    header["type"] = "map"
    header["params"]["map_type"] = {
        "key": type_to_str(t.key_type),
        "item": type_to_str(t.item_type),
        "keys_sorted": bool(t.keys_sorted),
    }
    hjson = json.dumps(header, separators=(",", ":")).encode()
    return b"".join(
        [_MAGIC, len(hjson).to_bytes(4, "little"), hjson, bytes(blob_v[8 + hlen :])]
    )


def _scatter_child(child: pa.Array, validity: np.ndarray, n: int, size: int) -> pa.Array:
    """Place the packed valid-row values into an n*size child (null rows
    get zero/empty filler that sits under the list-level null bitmap)."""
    if len(child) == 0:
        # all rows null: pc.take on an empty child would raise; the whole
        # dense child is filler sitting under the list-level null bitmap
        return pa.nulls(n * size, child.type)
    positions = np.flatnonzero(np.repeat(validity, size))
    take_idx = np.full(n * size, -1, dtype=np.int64)
    take_idx[positions] = np.arange(len(child))
    # a masked (null) index makes take emit null at that slot — works for
    # EVERY child type (struct/map scalars have no zero filler), and the
    # filler slots sit under the list-level null bitmap anyway
    idx = pa.array(take_idx, mask=take_idx < 0)
    return pc.take(child, idx)


def block_codec(blob: bytes | memoryview) -> dict:
    """Read just the header of a block blob (codec name, params, sizes)."""
    blob = memoryview(blob)
    hlen = int.from_bytes(blob[4:8], "little")
    return json.loads(bytes(blob[8 : 8 + hlen]))
