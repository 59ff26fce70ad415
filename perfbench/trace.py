"""Span recording for the traced run, installed from outside rayenc.

Each public function of a rayenc layer is replaced by a wrapper that
records one span per call. A function is replaced under every name its
callers look it up by: ``rayenc.decode`` calls ``decode_column`` through
its own module global, so patching ``rayenc.blocks`` alone would miss
those calls. One wrapper object serves all the names of one function, so
cloudpickle still pickles a reference to it by module and name when Ray
ships a closure that uses it.

The benchmark's main process installs the wrappers itself (``Recorder``
and ``install``). Ray workers install them from ``worker_setup``, which
Ray runs through
``runtime_env={"worker_process_setup_hook": "perfbench.trace.worker_setup"}``.
A worker appends its spans to ``spans-<pid>.jsonl`` in the trace
directory whenever its outermost traced call returns, because Ray may
kill an actor process without running ``atexit``.

Tracing is on while the flag file ``tracing-on`` exists in the trace
directory; the check is made once per outermost call, so the main
process can switch every process between traced and untraced cycles.

A span is a dict: ``n`` name, ``k`` key (the codec, for codec calls),
``s``/``e`` start and end in CLOCK_MONOTONIC nanoseconds (one clock for
all processes of a host), ``id``, ``p`` parent id in the same process,
``pid`` and ``b`` bytes handled (source bytes in, decoded bytes out).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

TRACE_DIR_ENV = "RAYENC_BENCH_TRACE_DIR"
FLAG_NAME = "tracing-on"

# (object path, span name, kind). kind "jobs_only" traces a call only when
# it comes from rayenc.jobs; "gen" times each step of a generator.
TARGETS = [
    ("rayenc.jobs:plan_partitions", "jobs.plan_partitions", "plain"),
    ("rayenc.jobs:iter_blocks", "jobs.iter_blocks", "gen"),
    ("pyarrow.parquet:ParquetFile.read_row_group", "jobs.read_row_group", "jobs_only"),
    ("pyarrow.parquet:write_table", "jobs.write_table", "jobs_only"),
    ("os:replace", "jobs.replace", "jobs_only"),
    ("rayenc.jobs:PartitionEncoder.__init__", "jobs.PartitionEncoder.__init__", "plain"),
    ("rayenc.jobs:PartitionEncoder.__call__", "jobs.PartitionEncoder.__call__", "plain"),
    ("rayenc.jobs:PartitionDeleter.__init__", "jobs.PartitionDeleter.__init__", "plain"),
    ("rayenc.jobs:PartitionDeleter.__call__", "jobs.PartitionDeleter.__call__", "plain"),
    ("rayenc.jobs:PartitionUpdater.__init__", "jobs.PartitionUpdater.__init__", "plain"),
    ("rayenc.jobs:PartitionUpdater.__call__", "jobs.PartitionUpdater.__call__", "plain"),
    ("rayenc.jobs:PartitionUpdater._transform", "jobs.PartitionUpdater._transform", "plain"),
    ("rayenc.manifest:Manifest.commit", "manifest.commit", "plain"),
    ("rayenc.encode:BlockEncoder.encode_table", "encode.encode_table", "plain"),
    ("rayenc.encode:column_zone", "encode.column_zone", "plain"),
    ("rayenc.bloom:bloom_build", "bloom.bloom_build", "plain"),
    ("rayenc.rowhash:chain_hash", "rowhash.chain_hash", "plain"),
    ("rayenc.selector:encode_column_auto", "selector.encode_column_auto", "src_bytes"),
    ("rayenc.blocks:encode_column", "blocks.encode_column", "encode"),
    ("rayenc.blocks:decode_column", "blocks.decode_column", "decode"),
    ("rayenc.blocks:decode_rows", "blocks.decode_rows", "decode"),
    ("rayenc.decode:BlockDecoder.__call__", "decode.BlockDecoder.__call__", "plain"),
    ("rayenc.decode:prune_blocks", "decode.prune_blocks", "plain"),
    ("rayenc.decode:zone_may_match_any", "decode.zone_may_match_any", "plain"),
    ("rayenc.decode:dnf_mask", "decode.dnf_mask", "plain"),
    ("rayenc.decode:filter_table", "decode.filter_table", "plain"),
    ("rayenc.verify:verify_blocks", "verify.verify_blocks", "plain"),
]

# modules whose globals may hold a reference to a traced function
RAYENC_MODULES = (
    "rayenc", "rayenc.blocks", "rayenc.bloom", "rayenc.decode", "rayenc.encode",
    "rayenc.jobs", "rayenc.manifest", "rayenc.rowhash", "rayenc.selector",
    "rayenc.verify",
)


class Recorder:
    """Per-process span store. ``flush_each_call`` makes every outermost
    traced call append its spans to the trace directory (workers); the
    main process keeps its spans in memory and writes them when the run
    ends."""

    def __init__(self, trace_dir: str, flush_each_call: bool):
        self.trace_dir = trace_dir
        self.flag = os.path.join(trace_dir, FLAG_NAME)
        self.flush_each_call = flush_each_call
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def set_enabled(self, on: bool) -> None:
        if on:
            with open(self.flag, "w"):
                pass
        elif os.path.exists(self.flag):
            os.remove(self.flag)

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, fn, args, kwargs, key=None, nbytes: int = 0,
             out_bytes: bool = False):
        st = self._stack()
        on = st[-1][1] if st else os.path.exists(self.flag)
        if not on:
            st.append((None, False))
            try:
                return fn(*args, **kwargs)
            finally:
                st.pop()
        sid = f"{self.pid}-{next(self._ids)}"
        parent = st[-1][0] if st else None
        st.append((sid, True))
        t0 = time.monotonic_ns()
        try:
            out = fn(*args, **kwargs)
            if out_bytes:
                nbytes = int(getattr(out, "nbytes", 0))
            return out
        finally:
            t1 = time.monotonic_ns()
            st.pop()
            span = {"n": name, "k": key, "s": t0, "e": t1, "id": sid,
                    "p": parent, "pid": self.pid, "b": nbytes}
            with self._lock:
                self.spans.append(span)
            if not st and self.flush_each_call:
                self.flush()

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if spans:
            path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
            with open(path, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))


def _resolve(path: str):
    """'module:attr.sub' -> (owner object, attribute name, value)."""
    mod_name, attr = path.split(":")
    owner = importlib.import_module(mod_name)
    *outer, last = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, last, getattr(owner, last)


def _codec_key(name: str) -> str:
    """'fsst@9' -> 'fsst' (codec family; the level rides in the name)."""
    return str(name).split("@", 1)[0]


_DONE = object()  # end of a traced generator


def _wrapper(rec: Recorder, fn, name: str, kind: str):
    if kind == "gen":
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            step = functools.partial(next, it, _DONE)
            while True:
                item = rec.call(name, step, (), {})
                if item is _DONE:
                    return
                yield item
        return gen_wrapper

    if kind == "jobs_only":
        @functools.wraps(fn)
        def jobs_wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != "rayenc.jobs":
                return fn(*args, **kwargs)
            return rec.call(name, fn, args, kwargs)
        return jobs_wrapper

    if kind == "encode":
        @functools.wraps(fn)
        def encode_wrapper(arr, codec_name, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            span = "selector.encode_column" if caller == "rayenc.selector" else name
            return rec.call(span, fn, (arr, codec_name) + args, kwargs,
                            key=_codec_key(codec_name), nbytes=int(arr.nbytes))
        return encode_wrapper

    if kind == "decode":
        from rayenc.blocks import block_codec

        @functools.wraps(fn)
        def decode_wrapper(blob, *args, **kwargs):
            try:
                key = _codec_key(block_codec(blob)["codec"])
            except (ValueError, KeyError, TypeError):
                key = None
            return rec.call(name, fn, (blob,) + args, kwargs, key=key,
                            out_bytes=True)
        return decode_wrapper

    if kind == "src_bytes":
        @functools.wraps(fn)
        def bytes_wrapper(arr, *args, **kwargs):
            return rec.call(name, fn, (arr,) + args, kwargs,
                            nbytes=int(arr.nbytes))
        return bytes_wrapper

    @functools.wraps(fn)
    def plain_wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)
    return plain_wrapper


def install(rec: Recorder) -> None:
    """Replace every target under every name that refers to it. Calling
    it twice in one process is a no-op for already wrapped targets."""
    modules = [importlib.import_module(m) for m in RAYENC_MODULES]
    for path, name, kind in TARGETS:
        owner, attr, fn = _resolve(path)
        if getattr(fn, "__perfbench_wrapped__", False):
            continue
        w = _wrapper(rec, fn, name, kind)
        w.__perfbench_wrapped__ = True
        setattr(owner, attr, w)
        if isinstance(owner, type):
            continue
        for mod in modules:
            for k, v in list(vars(mod).items()):
                if v is fn:
                    setattr(mod, k, w)


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: install the wrappers in a
    worker when the main process passed a trace directory."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if trace_dir:
        install(Recorder(trace_dir, flush_each_call=True))


def load_spans(trace_dir: str) -> list[dict]:
    spans: list[dict] = []
    for fname in sorted(os.listdir(trace_dir)):
        if fname.startswith("spans-") and fname.endswith(".jsonl"):
            with open(os.path.join(trace_dir, fname)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans
