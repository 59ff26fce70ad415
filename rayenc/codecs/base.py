"""Codec interface — the engine's deliberate extension seam.

The reference's only abstraction seam is the ``ColumnsBuilder`` trait
(/root/reference/src/columns_builder.rs:12-21); our analog is ``Codec``:
a pure ``encode(array) -> (params, sections)`` / ``decode -> array`` pair
with zero Ray dependencies, so codecs are unit-testable in isolation and
an encode worker just holds a registry (SURVEY.md §2.3 T1).

Contract:
- ``encode`` receives a NULL-FREE, single-chunk pyarrow array (the block
  container in rayenc.blocks handles validity bitmaps); it returns a
  JSON-serializable ``params`` dict plus named byte ``sections``.
- ``decode(params, sections, n, typ)`` must reproduce the array
  bit-identically (the reference's round-trip discipline,
  /root/reference/src/vec_pq_reader.rs:793-882).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
import pyarrow as pa


def is_stringlike(t: pa.DataType) -> bool:
    return (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    )


def is_intlike(t: pa.DataType) -> bool:
    return (
        pa.types.is_integer(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_date(t)
        or pa.types.is_time(t)
        or pa.types.is_duration(t)
    )


def is_floatlike(t: pa.DataType) -> bool:
    return pa.types.is_floating(t)


def _int_storage(t: pa.DataType) -> pa.DataType | None:
    """Physical integer type a temporal type views as (None = already
    integer). Covers every is_intlike temporal: timestamp/date64/time64/
    duration are 8-byte, date32/time32 are 4-byte."""
    if pa.types.is_timestamp(t) or pa.types.is_date64(t):
        return pa.int64()
    if pa.types.is_time64(t) or pa.types.is_duration(t):
        return pa.int64()
    if pa.types.is_date32(t) or pa.types.is_time32(t):
        return pa.int32()
    return None


def int_view(arr: pa.Array) -> np.ndarray:
    """Zero-copy int64/int32/... numpy view of a null-free int-like array."""
    st = _int_storage(arr.type)
    if st is not None:
        arr = arr.view(st)
    return arr.to_numpy(zero_copy_only=True)


def int_array_from(values: np.ndarray, typ: pa.DataType) -> pa.Array:
    """Rebuild an int-like arrow array (incl. temporal types) from int64 numpy."""
    st = _int_storage(typ)
    if st is not None:
        np_dtype = np.int64 if st == pa.int64() else np.int32
        return pa.array(values.astype(np_dtype), type=st).view(typ)
    return pa.array(values.astype(typ.to_pandas_dtype()), type=typ)


class Codec(ABC):
    """A per-column lightweight compression scheme."""

    name: str = "?"

    @abstractmethod
    def supports(self, t: pa.DataType) -> bool: ...

    @abstractmethod
    def encode(self, arr: pa.Array, level: int = 3) -> tuple[dict, dict[str, bytes]]: ...

    @abstractmethod
    def decode(
        self, params: dict, sections: dict[str, bytes], n: int, typ: pa.DataType
    ) -> pa.Array: ...

    def decode_rows(
        self,
        params: dict,
        sections: dict[str, bytes],
        n: int,
        typ: pa.DataType,
        indices: np.ndarray,
    ) -> pa.Array:
        """Random-access decode of selected positions, in the given
        order. Default: full decode + take; codecs with cheap partial
        paths (dict, fsst) override to expand only the selected rows."""
        full = self.decode(params, sections, n, typ)
        return full.take(pa.array(np.asarray(indices, dtype=np.int64)))
