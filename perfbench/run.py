"""rayenc benchmark: ingest and scan workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {ingest,scan} --seed N \
        --seconds S --trace {0,1} [--cpus 4]

The run generates a multi-file corpus with ``rayenc.corpus.gen_corpus``
from ``--seed``, starts a local Ray with ``--cpus`` logical CPUs, runs
the workload's operation cycle through rayenc's public API for
``--seconds`` seconds, checks every output, and prints one JSON result
as the last line of stdout (``perfbench/README.md`` defines every
metric). With ``--trace 1`` the run alternates untraced and traced cycles
and reports per-layer metrics folded from the spans instead.

All state lives in ``.bench_work/`` at the checkout root and is wiped at
the start of each run, so every run repeats the same set-up work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import sys
import threading
import time
from collections import defaultdict
from functools import partial
from pathlib import Path
from statistics import fmean, median

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import fold as folding  # noqa: E402
from perfbench import trace as tracing  # noqa: E402

WORKLOADS = ("ingest", "scan")
COLUMNS = folding.COLUMNS
SHARDS = 4  # input files; each is one partition, twice the default encode pool
SHARD_ROWS = 2500
ROW_GROUP_ROWS = 1000
OP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # set-up and every operation must finish inside this wall
OBJECT_STORE_BYTES = 512 << 20
# Unix socket paths are limited to 107 bytes; Ray puts its sockets 61
# characters below its temp dir.
MAX_RAY_TEMP_DIR = 45
UPDATE_FILTER = [("lang", "==", "go")]
SCRUB = {"content": [(r"[0-9]+", "N")]}
READ_COLUMNS = ["repo", "path", "content"]
DECODES_PER_CYCLE = 2
VERIFIES_PER_CYCLE = 2
READS_PER_CYCLE = 3  # one each of repo ==, path prefix, commit in
# Decode actors of scan's calls. The default pool autoscales between 1
# and default_pool_size() actors, and whether it grows during a call made
# the wall of a selective read spread 0.9-4.4 s within one run (standard
# deviation 0.5-0.9 s); pinned, it spread 0.12-0.18 s.
READ_CONCURRENCY = 1
DECODE_CONCURRENCY = 2
ACTOR_CLASSES = ("PartitionEncoder", "PartitionUpdater", "PartitionDeleter", "BlockDecoder")


class CpuStarvationError(Exception):
    """Fewer than two logical CPUs. ``rayenc.encode.default_pool_size()``
    gives the decode actor pool ``max(1, ...)`` CPUs, so with one CPU the
    actor holds it and the ReadParquet task feeding it never runs: the
    decode hangs instead of failing."""


class OpFailed(Exception):
    """An operation raised, timed out, or failed its correctness gate."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cpus", type=int, default=4, help="Ray logical CPUs (2-4)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def throughput(mb_per_call: float, walls: list[float]) -> float:
    """MB/s over all of a run's calls, not a median: the wall of a Ray
    Data call takes one of two values (its actor pool does or does not
    get going at once), and the median of a few such samples jumps
    between them where their mean moves with the mix."""
    return mb_per_call * len(walls) / sum(walls)


def tail(xs):
    """Highest order statistic with at least ten samples above it, and
    its percentile (the smallest sample when there are fewer than 11)."""
    v = sorted(xs)
    i = max(0, len(v) - 11)
    return v[i], 100.0 * (i + 1) / len(v)


def canon(table, columns=COLUMNS):
    """Row-order-free form of a table: its columns sorted by all of them."""
    t = table.select(list(columns)).combine_chunks()
    return t.sort_by([(c, "ascending") for c in columns])


def same_rows(a, b, columns=COLUMNS) -> bool:
    return a.num_rows == b.num_rows and canon(a, columns).equals(canon(b, columns))


def read_job(job_dir: Path):
    """Decode a job dir in this process with rayenc's BlockDecoder."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import rayenc

    files = sorted((job_dir / "blocks").glob("*.parquet"))
    blocks = pa.concat_tables([pq.read_table(f) for f in files])
    return rayenc.BlockDecoder()(blocks).select(list(COLUMNS))


def content_bytes(table) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(pc.binary_length(table["content"])).as_py())


# --------------------------------------------------------------------------
# process accounting


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            kids[ppid].append(int(d))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return ""


def _private_rss_kb(pid: int) -> int:
    """RssAnon + RssFile: resident memory without shared-memory pages, so
    the object store is not counted once per process that maps it."""
    total = 0
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(("RssAnon:", "RssFile:")):
                    total += int(line.split()[1])
    except OSError:
        return 0
    return total


class ProcSampler:
    """Samples, every ``interval`` seconds, the summed private RSS of this
    process and its Ray worker processes, and the most actors of each
    rayenc actor class alive at once (from the process titles Ray sets)."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.pid = os.getpid()
        self.peak_kb = 0
        self.actor_peak: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()  # the main thread samples once at the end
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def sample(self) -> None:
        total = _private_rss_kb(self.pid)
        alive: dict[str, int] = defaultdict(int)
        for pid in descendants(self.pid):
            cmd = _cmdline(pid)
            if cmd.startswith("ray::") or "default_worker.py" in cmd:
                total += _private_rss_kb(pid)
                for cls in ACTOR_CLASSES:
                    if cls in cmd:
                        alive[cls] += 1
        with self._lock:
            self.peak_kb = max(self.peak_kb, total)
            for cls, n in alive.items():
                self.actor_peak[cls] = max(self.actor_peak[cls], n)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()


def stop_descendants(timeout: float = 10.0) -> list[int]:
    """TERM, then KILL, every process this one started; wait until each
    has exited. Returns the pids that had to be signalled."""
    me = os.getpid()
    pids = descendants(me)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout / 2
        while time.monotonic() < deadline:
            try:
                while os.waitpid(-1, os.WNOHANG)[0] > 0:
                    pass
            except ChildProcessError:
                pass
            if not descendants(me):
                return pids
            time.sleep(0.1)
    return pids


def ray_temp_dir(work: Path) -> str:
    """Ray's temp dir inside the checkout. When the checkout path is too
    long for Ray's socket paths, a short link under /tmp points to it."""
    d = work / "ray"
    d.mkdir(parents=True, exist_ok=True)
    if len(str(d)) <= MAX_RAY_TEMP_DIR:
        return str(d)
    link = Path("/tmp") / ("rayenc-bench-" + hashlib.sha256(str(d).encode()).hexdigest()[:10])
    if link.is_symlink() or link.exists():
        link.unlink()
    link.symlink_to(d)
    return str(link)


def host_facts(cpus: int) -> dict:
    from bench import vm_fault_probe

    return {
        "os_cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "ray_num_cpus": cpus,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "vm_fault_probe": vm_fault_probe(),
    }


# --------------------------------------------------------------------------
# the run


class Run:
    """One benchmark run: Ray session, inputs, watchdog, op accounting,
    and (with tracing) the span recorder and traced-cycle bookkeeping."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.error: str | None = None
        self.trace_dir = work / "trace"
        self.rec: tracing.Recorder | None = None
        self.traced = False  # the current cycle is traced
        # summed operation walls of each untraced (False) and traced cycle
        self.cycle_walls: dict[bool, list[float]] = {False: [], True: []}
        self.cycle_op_wall = 0.0
        self.checks: list = []  # (kind, check) waiting for run_checks
        self.ray_link: str | None = None
        self.size_ratios: list[float] = []  # encoded / reference bytes per encode

    # -- infrastructure ---------------------------------------------------

    def start_ray(self) -> None:
        import ray

        env = {"PYTHONPATH": str(ROOT), "TMPDIR": os.environ["TMPDIR"]}
        runtime_env = {"env_vars": env}
        if self.args.trace:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            env[tracing.TRACE_DIR_ENV] = str(self.trace_dir)
            runtime_env["worker_process_setup_hook"] = "perfbench.trace.worker_setup"
        temp_dir = ray_temp_dir(self.work)
        if temp_dir != str(self.work / "ray"):
            self.ray_link = temp_dir
        ray.init(
            num_cpus=self.args.cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=OBJECT_STORE_BYTES,
            _temp_dir=temp_dir,
            runtime_env=runtime_env,
            # Ray otherwise starts spare workers ahead of demand, and whether a
            # read finds one made scan's cycle_s spread 0.24 over ten seeds
            # against 0.05 over five without prestart.
            _system_config={"enable_worker_prestart": False},
        )
        import logging

        import ray.data

        logging.getLogger("ray.data").setLevel(logging.WARNING)
        ray.data.DataContext.get_current().enable_progress_bars = False
        if self.args.trace:
            self.rec = tracing.Recorder(str(self.trace_dir), flush_each_call=False)
            tracing.install(self.rec)

    def warm_up(self) -> None:
        """Check through a first Ray Data pipeline that workers import
        rayenc from this checkout (a worker that cannot import it makes Ray
        restart the encode actors forever), then build rayenc's native
        kernels by a small in-process encode and decode."""
        import ray.data

        import rayenc
        from rayenc.corpus import gen_corpus

        def where(batch: dict) -> dict:
            import rayenc as r

            return {"file": [r.__file__] * len(batch["id"])}

        # the first Ray Data execution of a session also starts Ray Data's
        # own actors, which would otherwise land in the first measured op
        files = {row["file"] for row in ray.data.range(1).map_batches(where).take_all()}
        want = str(ROOT / "rayenc" / "__init__.py")
        if files != {want}:
            raise RuntimeError(f"Ray workers import rayenc from {files}, not {want}")
        small = gen_corpus(200, seed=0)
        enc = rayenc.BlockEncoder().encode_table(small)
        if not same_rows(rayenc.BlockDecoder()(enc), small):
            raise RuntimeError("warm-up encode/decode round trip differs")

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.start)

    def guarded(self, kind: str, fn, *args):
        """Run ``fn`` in a thread the run waits on for at most OP_TIMEOUT_S
        (and never past RUN_BUDGET_S). Returns (wall seconds, result); a
        raise or a timeout raises OpFailed. A timed-out thread is left
        behind; shutdown stops Ray under it."""
        timeout = max(0.0, min(OP_TIMEOUT_S, self.remaining()))
        box: dict = {}

        def body():
            t0 = time.perf_counter()
            try:
                box["out"] = fn(*args)
            except Exception as e:  # reported as a failed operation
                box["err"] = e
            box["wall"] = time.perf_counter() - t0

        th = threading.Thread(target=body, daemon=True, name=kind)
        th.start()
        th.join(timeout)
        if th.is_alive():
            raise OpFailed(f"{kind}: no result within the {timeout:.0f}s watchdog")
        if "err" in box:
            e = box["err"]
            raise OpFailed(f"{kind}: {type(e).__name__}: {e}") from e
        return box["wall"], box["out"]

    def op(self, kind: str, fn, *args):
        """One measured operation, traced in a traced cycle."""
        self.attempted += 1
        try:
            if self.traced:
                self.rec.set_enabled(True)
                wall, out = self.guarded(kind, self.rec.call, "op." + kind, fn, args, {})
            else:
                wall, out = self.guarded(kind, fn, *args)
        except OpFailed:
            self.failed += 1
            raise
        finally:
            if self.traced:
                self.rec.set_enabled(False)
        self.cycle_op_wall += wall
        return wall, out

    def check_later(self, kind: str, check) -> None:
        """Queue a correctness check of an operation's output: ``check()``
        returns None when the output is right, else what is wrong. Checks
        wait so that operations run back to back: during a pause Ray
        retires idle workers, and whether the next operation finds one
        decides whether its wall is about 1.2 s or 2.3 s."""
        self.checks.append((kind, check))

    def run_checks(self) -> None:
        """A failed correctness check counts as a failed operation."""
        checks, self.checks = self.checks, []
        for kind, check in checks:
            problem = check()
            if problem:
                self.failed += 1
                raise OpFailed(f"{kind}: correctness gate failed: {problem}")

    def shutdown(self) -> list[int]:
        import ray

        th = threading.Thread(target=ray.shutdown, daemon=True)
        th.start()
        th.join(10)
        stray = stop_descendants()
        if self.ray_link:
            Path(self.ray_link).unlink(missing_ok=True)
        return stray

    # -- inputs -------------------------------------------------------------

    def make_inputs(self) -> None:
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        import rayenc
        from rayenc.corpus import gen_corpus

        self.in_dir = self.work / "input"
        self.in_dir.mkdir(parents=True)
        shards = []
        for i in range(SHARDS):
            t = gen_corpus(SHARD_ROWS, seed=self.args.seed * SHARDS + i)
            pq.write_table(t, self.in_dir / f"part-{i:02d}.parquet",
                           row_group_size=ROW_GROUP_ROWS)
            shards.append(t)
        self.source = pa.concat_tables(shards).combine_chunks()
        self.content_mb = content_bytes(self.source) / 1e6
        rng = np.random.default_rng(self.args.seed)
        repos, counts = np.unique(self.source["repo"].to_numpy(zero_copy_only=False),
                                  return_counts=True)
        small = [str(r) for r, c in zip(repos, counts) if c < 0.1 * self.source.num_rows]
        paths = self.source["path"].to_pylist()
        commits = sorted(set(self.source["commit"].to_pylist()))
        self.filters = []
        for _ in range(2):
            self.filters += [
                [("repo", "==", str(rng.choice(small)))],
                # one module directory, across every repo that has it
                [("path", "prefix", paths[int(rng.integers(len(paths)))][:14])],
                [("commit", "in", [str(c) for c in rng.choice(commits, 2, replace=False)])],
            ]
        self.delete_commit = str(rng.choice(commits))
        self.ref_bytes = rayenc.reference_parquet_bytes(self.source)

    def encode_into(self, out: Path) -> dict:
        import rayenc

        summary = rayenc.run_encode_job(str(self.in_dir), str(out))
        self.size_ratios.append(summary["encoded_bytes"] / self.ref_bytes)
        return summary


# --------------------------------------------------------------------------
# workloads. Each cycle() runs its operations (measured, under the
# watchdog) and their correctness gates (unmeasured).


class Ingest:
    """Each cycle encodes the 4 files into a fresh dir with run_encode_job
    (4 partitions, 2 encode actors at 4 CPUs), keeps an unmeasured copy
    of the result for its gate, then maintains the dir: an update_rows
    scrub of content digits on lang == "go" that rewrites every
    partition, a delete_rows of one commit value, and fsck_job. Every
    dir is checked after the loop. The first update of a session runs
    about a second slower; every run has one, so the mean keeps it."""

    min_cycles = 3

    def __init__(self, run: Run):
        self.run = run
        self.walls: list[float] = []
        self.update_walls: list[float] = []
        self.delete_walls: list[float] = []
        self.fsck_walls: list[float] = []
        self.dml = [0, 0]  # partitions rewritten, partitions total (traced)
        self.n = 0

    def setup(self) -> None:
        import pyarrow.compute as pc

        run = self.run
        src = run.source
        col, _, val = UPDATE_FILTER[0]
        mask = pc.equal(src[col], val)
        scrubbed = src["content"]
        for pattern, repl in SCRUB["content"]:
            scrubbed = pc.replace_substring_regex(scrubbed, pattern=pattern,
                                                  replacement=repl)
        new = src.set_column(src.column_names.index("content"), "content",
                             pc.if_else(mask, scrubbed, src["content"]))
        gone = pc.equal(new["commit"], run.delete_commit)
        self.rows_updated = int(pc.sum(mask).as_py())
        self.rows_deleted = int(pc.sum(gone).as_py())
        self.expected = new.filter(pc.invert(gone))

    @property
    def main_walls(self) -> list[float]:
        return self.walls

    def cycle(self) -> None:
        import rayenc

        run = self.run
        out = run.work / "ingest" / f"job{self.n}"
        encoded = run.work / "ingest" / f"encoded{self.n}"
        self.n += 1
        wall, summary = run.op("encode", run.encode_into, out)
        shutil.copytree(out, encoded)  # about 0.05 s
        job = str(out)
        wall_u, up = run.op("update", rayenc.update_rows, job, UPDATE_FILTER, None, SCRUB)
        wall_d, de = run.op("delete", rayenc.delete_rows, job,
                            [("commit", "==", run.delete_commit)])
        wall_f, fs = run.op("fsck", rayenc.fsck_job, job)
        run.check_later("encode", partial(self._check_encode, encoded, summary))
        run.check_later("dml", partial(self._check_dml, out, up, de, fs))
        if run.traced:
            for s in (up, de):
                self.dml[0] += s["partitions_rewritten"]
                self.dml[1] += s["partitions_total"]
        self.walls.append(wall)
        self.update_walls.append(wall_u)
        self.delete_walls.append(wall_d)
        self.fsck_walls.append(wall_f)
        self.job_dir = encoded
        self.partitions = summary["partitions_total"]

    def _check_encode(self, out: Path, summary: dict) -> str | None:
        import ray.data as rd

        import rayenc

        src = self.run.source
        if summary["rows"] != src.num_rows or summary["partitions_encoded"] != SHARDS:
            return f"summary {summary}"
        if not same_rows(read_job(out), src):
            return "decoded rows differ from the source"
        v = rayenc.verify_blocks(rd.read_parquet(str(out / "blocks")))
        if not (v["ok"] and v["rows"] == src.num_rows):
            return f"verify_blocks {v}"
        return None

    def _check_dml(self, out: Path, up: dict, de: dict, fs: dict) -> str | None:
        if (up["rows_updated"] != self.rows_updated
                or up["partitions_rewritten"] != up["partitions_total"]):
            return f"update summary {up}"
        if (de["rows_deleted"] != self.rows_deleted
                or de["partitions_rewritten"] >= de["partitions_total"]):
            return f"delete summary {de}"
        if not fs["ok"]:
            return f"fsck errors {fs.get('errors')}"
        if not same_rows(read_job(out), self.expected):
            return "rows after update + delete differ from pyarrow's on the source"
        return None

    def op_metrics(self) -> dict:
        return {"encode_mbps": throughput(self.run.content_mb, self.walls),
                "update_s": median(self.update_walls),
                "delete_s": median(self.delete_walls)}


class Scan:
    """One encode in set-up; each cycle is two full decodes, two
    verify_blocks and three selective reads (repo ==, path prefix,
    commit in), each cycle taking the next of two values per kind."""

    min_cycles = 3

    def __init__(self, run: Run):
        self.run = run
        self.decode_walls: list[float] = []
        self.verify_walls: list[float] = []
        self.read_walls: list[float] = []
        self.next_read = 0
        self.traced_reads: list = []  # filters of the traced selective reads
        self.raydata = {"read": 0.0, "map": 0.0}

    def setup(self) -> None:
        import pyarrow as pa
        import pyarrow.compute as pc

        run = self.run
        self.job_dir = run.work / "scan" / "job"
        summary = run.encode_into(self.job_dir)
        self.partitions = summary["partitions_total"]
        self.blocks_dir = str(self.job_dir / "blocks")
        self.expected = []
        for f in run.filters:
            col, op, val = f[0]
            if op == "==":
                mask = pc.equal(run.source[col], val)
            elif op == "prefix":
                mask = pc.starts_with(run.source[col], pattern=val)
            else:
                mask = pc.is_in(run.source[col], value_set=pa.array(val, pa.string()))
            self.expected.append(run.source.filter(mask).select(READ_COLUMNS))

    @property
    def main_walls(self) -> list[float]:
        return self.decode_walls

    def _decode(self, filter=None):
        import pyarrow as pa
        import ray.data as rd

        import rayenc

        ds = rayenc.decode_dataset(
            rd.read_parquet(self.blocks_dir),
            columns=READ_COLUMNS if filter else None, filter=filter,
            concurrency=READ_CONCURRENCY if filter else DECODE_CONCURRENCY)
        parts = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
        return pa.concat_tables(parts) if parts else None, ds

    def _stats(self, ds) -> None:
        if not self.run.traced:
            return
        summary = ds._get_stats_summary()
        todo = [summary]
        while todo:
            s = todo.pop()
            todo.extend(s.parents)
            for o in s.operators_stats:
                wall = (o.wall_time or {}).get("sum", 0.0)
                if "ReadParquet" in o.operator_name:
                    self.raydata["read"] += wall
                elif "MapBatches" in o.operator_name:
                    self.raydata["map"] += wall

    def cycle(self) -> None:
        import ray.data as rd

        import rayenc

        run = self.run
        for _ in range(DECODES_PER_CYCLE):
            wall, (table, ds) = run.op("decode", self._decode)
            run.check_later("decode", partial(self._check_decode, table))
            self._stats(ds)
            self.decode_walls.append(wall)
        for _ in range(VERIFIES_PER_CYCLE):
            wall, v = run.op("verify", lambda: rayenc.verify_blocks(rd.read_parquet(self.blocks_dir)))
            run.check_later("verify", partial(self._check_verify, v))
            self.verify_walls.append(wall)
        for _ in range(READS_PER_CYCLE):
            i = self.next_read
            self.next_read = (i + 1) % len(run.filters)
            wall, (table, ds) = run.op("filtered_read", self._decode, run.filters[i])
            run.check_later("filtered_read", partial(self._check_read, table, i))
            self._stats(ds)
            if run.traced:
                self.traced_reads.append(run.filters[i])
            self.read_walls.append(wall)

    def _check_decode(self, table) -> str | None:
        if table is not None and same_rows(table, self.run.source):
            return None
        return "full decode differs from the source"

    def _check_verify(self, v: dict) -> str | None:
        return None if v["ok"] and v["rows"] == self.run.source.num_rows else f"verify_blocks {v}"

    def _check_read(self, table, i: int) -> str | None:
        want = self.expected[i]
        got = table.select(READ_COLUMNS) if table is not None else want.slice(0, 0)
        if same_rows(got, want, READ_COLUMNS):
            return None
        return f"rows for {self.run.filters[i]} differ from pyarrow's filter of the source"

    def blocks_kept_frac(self) -> float:
        """Blocks a traced selective read decodes over blocks in the dir,
        by count_decoded_blocks after the loop."""
        import ray.data as rd

        import rayenc

        kept = total = 0
        for f in self.traced_reads:
            c = rayenc.count_decoded_blocks(rd.read_parquet(self.blocks_dir), f)
            kept += c["decoded_blocks"]
            total += c["total_blocks"]
        return kept / total if total else 0.0

    def op_metrics(self) -> dict:
        mb = self.run.content_mb
        value, pct = tail(self.read_walls)
        return {
            "decode_mbps": throughput(mb, self.decode_walls),
            "verify_mbps": median([mb / w for w in self.verify_walls]),
            # a mean, like throughput(): a selective read takes about 1.2 s
            # or about 2.3 s
            "filtered_read_mean_s": fmean(self.read_walls),
            "filtered_read_p50_s": median(self.read_walls),
            "filtered_read_tail_s": value,
            "filtered_read_tail_percentile": pct,
            "filtered_read_samples": len(self.read_walls),
        }


def column_ratios(job_dir: Path) -> dict[str, float]:
    """enc_bytes / src_bytes per column from the job's manifest lineage."""
    import rayenc

    src: dict[str, int] = defaultdict(int)
    enc: dict[str, int] = defaultdict(int)
    for e in rayenc.Manifest(str(job_dir)).entries():
        for col, info in e.get("columns", {}).items():
            src[col] += info["src_bytes"]
            enc[col] += info["enc_bytes"]
    return {c: enc[c] / src[c] for c in src if src[c]}


def layer_metrics(run: Run, wl) -> dict:
    cycles = len(run.cycle_walls[True])
    run.rec.flush()
    totals = folding.fold(tracing.load_spans(str(run.trace_dir)), os.getpid())
    out = {}
    for name, (unit, _) in folding.PER_LAYER.items():
        v = totals.get(name, 0.0)
        if unit in ("s", "count") and name in totals:
            v /= cycles
        out[name] = (v, unit)
    if isinstance(wl, Ingest) and wl.dml[1]:
        out["jobs.dml_rewrite_frac"] = (wl.dml[0] / wl.dml[1], "ratio")
    if isinstance(wl, Scan):
        out["decode.blocks_kept_frac"] = (wl.blocks_kept_frac(), "ratio")
        out["raydata.read_s"] = (wl.raydata["read"] / cycles, "s")
        out["raydata.map_s"] = (wl.raydata["map"] / cycles, "s")
    for col, r in column_ratios(wl.job_dir).items():
        if f"blocks.ratio.{col}" in out:
            out[f"blocks.ratio.{col}"] = (r, "ratio")
    plain = median(run.cycle_walls[False])
    over = median(run.cycle_walls[True]) - plain
    out["trace.overhead_s"] = (over, "s")
    out["trace.overhead_frac"] = (over / plain, "ratio")
    return out


def execute(args, work: Path, sampler: ProcSampler, details: dict) -> dict:
    run = Run(args, work)
    wl = {"ingest": Ingest, "scan": Scan}[args.workload](run)
    try:
        phases = {}
        t0 = time.perf_counter()
        try:  # a set-up step that fails is a failed operation
            # ray.init stays on the main thread: Ray ties the lifetime of
            # the processes it starts to the thread that started them
            try:
                run.start_ray()
            except Exception as e:
                raise OpFailed(f"setup.ray_start: {type(e).__name__}: {e}") from e
            phases["ray_start"] = time.perf_counter() - t0
            for name, step in (("warm_up", run.warm_up), ("inputs", run.make_inputs),
                               ("workload", wl.setup)):
                phases[name], _ = run.guarded("setup." + name, step)
        except OpFailed:
            run.attempted += 1
            run.failed += 1
            raise
        setup_s = time.perf_counter() - t0
        details["setup_phases_s"] = phases

        # the traced run's first cycle only warms up (the first cycle of a
        # session can run slower); then traced and untraced cycles alternate
        measure_t0 = time.monotonic()
        n = 0
        while True:
            elapsed = time.monotonic() - measure_t0
            want = wl.min_cycles if not args.trace else 3
            if n >= want and elapsed >= args.seconds:
                break
            if args.trace:
                run.traced = n % 2 == 1
            ops_before = run.attempted
            run.cycle_op_wall = 0.0
            wl.cycle()
            if n or not args.trace:
                run.cycle_walls[run.traced].append(run.cycle_op_wall)
            details.setdefault("ops_per_cycle", run.attempted - ops_before)
            n += 1
        run.traced = False
        details["cycles"] = n
        run.run_checks()
        if args.trace:
            metrics = layer_metrics(run, wl)
        else:
            # the same five metrics on every workload; the workload decides
            # which operations fill a cycle and which one is its main one
            metrics = {
                "setup_s": (setup_s, "s"),
                "cycle_s": (fmean(run.cycle_walls[False]), "s"),
                "main_op_mbps": (throughput(run.content_mb, wl.main_walls), "MB/s"),
                "size_vs_ref": (median(run.size_ratios), "ratio"),
            }
            details["op_metrics"] = wl.op_metrics()
    except OpFailed as e:
        run.error = str(e)
        metrics = {}
    finally:
        sampler.sample()
        details["stray_processes_stopped"] = len(run.shutdown())
    if not args.trace and not run.error:
        metrics["peak_rss_mb"] = (sampler.peak_kb / 1024, "MB")
    details["partitions"] = getattr(wl, "partitions", None)
    details["samples_s"] = {k: v for k, v in vars(wl).items()
                            if k.endswith("walls") and isinstance(v, list)}
    details["actor_pool_peak"] = dict(sampler.actor_peak)
    details["ops_failed_frac"] = run.failed / max(1, run.attempted)
    details["error"] = run.error
    return {
        "correct": run.error is None and run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "rayenc" / "__init__.py").is_file():
        print(f"perfbench: no rayenc package in {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.cpus < 2:
        e = CpuStarvationError(
            f"--cpus {args.cpus}: rayenc needs at least 2 logical CPUs; with 1, "
            "default_pool_size() gives the decode actor the only CPU and the "
            "read task never runs")
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so the finally blocks stop Ray
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    details: dict = {"workload": args.workload, "seed": args.seed,
                     "host": host_facts(args.cpus)}
    sampler = ProcSampler()
    sampler.start()
    try:
        result = execute(args, work, sampler, details)
    finally:
        sampler.stop()
    print(json.dumps(details), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
