"""Incremental exact dedup ACROSS ingestion runs: a sharded claim index.

Everything else in this repo is a Dataset transform; this is the one
place raw Ray actors are the right tool (the brief's "shared mutable
index" carve-out): "has this key appeared in any prior batch of any
prior RUN?" is shared mutable state. A groupby answers it only if every
prior run's keys are re-shuffled together with the increment — O(total
history) per increment. The index answers it in O(increment): a
long-running ingestion deduping each day's crawl against months of
accepted documents pays for the day, not the months.

Shape
-----
``n_shards`` Ray actors, each owning the keys whose fingerprint lands in
its hash slice. ``filter_new()`` stays a normal stage run as Ray Data
tasks (``dispatch.map_stage``): it fingerprints its batch (two-seed xxhash — a 128-bit key;
64-bit alone birthday-collides around 10^10 rows), routes fingerprints
to shards, and keeps exactly the rows whose fingerprint was CLAIMED by
this call. Actors process messages serially, so a claim is atomic
first-writer-wins per shard — exactly-once per key with zero locks.

Scale math (100 TB / 10^10 docs): 16 B/key in consolidated sorted numpy
storage -> 160 GB total -> 512 shards ~ 320 MB/shard. Claims are
vectorized searchsorted (O(m log n) per batch); inserts go to a sorted
pending buffer merged into the store at CONSOLIDATE_AT keys, so insert
cost amortizes instead of re-sorting the store per call.

Determinism: the surviving KEY SET for a given input union is exact and
deterministic; WHICH duplicate row carries each key follows task
completion order, like any streaming first-wins dedup (dedup_exact is
the single-run deterministic alternative). Null keys hash to one fixed
fingerprint and so collapse to a single surviving row.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..dispatch import map_stage

from .hashing import hash_array_128

PAIR = np.dtype([("hi", "<u8"), ("lo", "<u8")])
CONSOLIDATE_AT = 1_000_000


class IndexShard:
    """One shard's key store: big consolidated sorted array + small
    sorted pending buffer (both structured (hi, lo) uint64 pairs)."""

    def __init__(self) -> None:
        self._store = np.empty(0, PAIR)
        self._pending = np.empty(0, PAIR)

    @staticmethod
    def _hits(sorted_arr: np.ndarray, k: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(sorted_arr, k)
        hit = pos < len(sorted_arr)
        if hit.any():
            hit[hit] = sorted_arr[pos[hit]] == k[hit]
        return hit

    def claim(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Bool mask: True where the key was NEW and is now claimed.
        Within-call duplicates: only the first occurrence claims."""
        k = np.empty(len(hi), PAIR)
        k["hi"], k["lo"] = hi, lo
        new = np.ones(len(k), dtype=bool)
        for arr in (self._store, self._pending):
            if len(arr):
                new &= ~self._hits(arr, k)
        _, first = np.unique(k, return_index=True)
        is_first = np.zeros(len(k), dtype=bool)
        is_first[first] = True
        new &= is_first
        if new.any():
            # mergesort exploits the two runs' existing order
            self._pending = np.sort(
                np.concatenate([self._pending, k[new]]), kind="stable"
            )
            if len(self._pending) >= CONSOLIDATE_AT:
                self._store = np.sort(
                    np.concatenate([self._store, self._pending]), kind="stable"
                )
                self._pending = np.empty(0, PAIR)
        return new

    def size(self) -> int:
        return int(len(self._store) + len(self._pending))

    def dump(self) -> tuple[bytes, bytes]:
        all_k = np.sort(np.concatenate([self._store, self._pending]), kind="stable")
        return all_k["hi"].tobytes(), all_k["lo"].tobytes()

    def restore(self, hi: bytes, lo: bytes) -> int:
        k = np.empty(len(hi) // 8, PAIR)
        k["hi"] = np.frombuffer(hi, dtype="<u8")
        k["lo"] = np.frombuffer(lo, dtype="<u8")
        self._store = np.sort(k, kind="stable")
        self._pending = np.empty(0, PAIR)
        return len(self._store)


class _ClaimFilter:
    """Stage: fingerprint the key column, claim per shard, keep only
    first-seen rows. The shard actor handles ride the constructor."""

    def __init__(self, shards: list, key_col: str):
        self.shards = shards
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        hi, lo = hash_array_128(batch[self.key_col])
        shard_of = (hi % np.uint64(len(self.shards))).astype(np.int64)
        keep = np.zeros(len(hi), dtype=bool)
        futures, slots = [], []
        for s in range(len(self.shards)):
            idx = np.nonzero(shard_of == s)[0]
            if len(idx):
                futures.append(self.shards[s].claim.remote(hi[idx], lo[idx]))
                slots.append(idx)
        for idx, mask in zip(slots, ray.get(futures)):
            keep[idx] = mask
        return batch.filter(pa.array(keep))


def _claim_task(batch: pa.Table, stage_class: type, ctor_kwargs: dict,
                op_token: str) -> pa.Table:
    """Ray Data task body of `filter_new`: a claim filter per batch (it
    holds only the shard handles), never kept in the worker's stage
    slot, so no worker keeps the index's actors alive after the call."""
    return stage_class(**ctor_kwargs)(batch)


class DedupIndex:
    """Driver-side handle over the shard actors.

    >>> idx = DedupIndex(n_shards=8)
    >>> fresh = idx.filter_new(ds_day1, "content")   # a Dataset stage
    >>> fresh.write_parquet(...)                      # consume as usual
    >>> idx.persist("/data/dedup_index")              # survive restarts
    ... # next run / next driver:
    >>> idx = DedupIndex.load("/data/dedup_index")
    >>> idx.filter_new(ds_day2, "content")            # drops day-1 repeats
    """

    def __init__(self, n_shards: int = 8, num_cpus: float = 0.25):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        # light CPU reservation: shards spend most time idle between
        # claim bursts; a full CPU each would starve the filter stage
        cls = ray.remote(IndexShard)
        self.shards = [
            cls.options(num_cpus=num_cpus).remote() for _ in range(n_shards)
        ]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def filter_new(
        self,
        ds: "ray.data.Dataset",
        key_col: str,
        concurrency: int | tuple[int, int] | None = None,
        batch_size: int | None = 8192,
    ) -> "ray.data.Dataset":
        """Dataset stage keeping only rows whose key is NEW to the index
        (this run or any persisted prior run). Claims mutate the index
        as the stage streams — consume the result exactly once."""
        return map_stage(ds, _ClaimFilter, {"shards": self.shards, "key_col": key_col},
                         concurrency=concurrency, task=_claim_task,
                         batch_size=batch_size, zero_copy_batch=True)

    def size(self) -> int:
        """Total keys claimed so far (all shards)."""
        return sum(ray.get([s.size.remote() for s in self.shards]))

    def persist(self, path: str) -> dict:
        """Write every shard to parquet + a commit marker (index.json,
        written LAST — a torn persist is invisible to load())."""
        p = Path(path)
        p.mkdir(parents=True, exist_ok=True)
        dumps = ray.get([s.dump.remote() for s in self.shards])
        total = 0
        for i, (hi, lo) in enumerate(dumps):
            t = pa.table(
                {
                    "hi": pa.array(np.frombuffer(hi, dtype="<u8")),
                    "lo": pa.array(np.frombuffer(lo, dtype="<u8")),
                }
            )
            total += t.num_rows
            # attempt-unique staging names: two concurrent persists to
            # the same path must not interleave on one tmp file (each
            # publish stays last-wins whole-file via os.replace)
            tmp = p / f".shard_{i:05d}.{os.getpid()}.tmp"
            pq.write_table(t, tmp, compression="zstd")
            os.replace(tmp, p / f"shard_{i:05d}.parquet")
        marker = {"format": 1, "n_shards": self.n_shards, "keys": total}
        tmp = p / f".index.json.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(marker))
        os.replace(tmp, p / "index.json")
        return marker

    @classmethod
    def load(cls, path: str, num_cpus: float = 0.25) -> "DedupIndex":
        """Restore a persisted index (same shard count — the hash routing
        is shard-count-dependent, so n_shards is part of the format)."""
        p = Path(path)
        marker_file = p / "index.json"
        if not marker_file.exists():
            raise FileNotFoundError(
                f"{path} has no index.json — not a persisted DedupIndex "
                "(or an interrupted persist; re-persist from a live index)"
            )
        marker = json.loads(marker_file.read_text())
        idx = cls(n_shards=int(marker["n_shards"]), num_cpus=num_cpus)
        loads = []
        for i, shard in enumerate(idx.shards):
            t = pq.read_table(p / f"shard_{i:05d}.parquet")
            hi = t["hi"].to_numpy().astype("<u8").tobytes()
            lo = t["lo"].to_numpy().astype("<u8").tobytes()
            loads.append(shard.restore.remote(hi, lo))
        ray.get(loads)
        return idx
