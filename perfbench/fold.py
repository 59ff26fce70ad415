"""Fold recorded spans into per-layer metrics.

A span's self time is its duration minus the union of its child spans'
intervals, each clipped to the parent. Worker spans have no parent in
their own process; ``link_orphans`` gives each the innermost span of the
main process that was open when it started (an operation span, or a
traced main-process call such as ``verify_blocks``). The self time of an
operation span is then the part of its wall that no traced call covers:
actor start, scheduling and transfer, reported as ``raydata.untraced_s``.
"""

from __future__ import annotations

from collections import defaultdict

CODECS = ("plain", "dict", "rle", "foref", "bitpack", "bss", "alp", "fsst", "fc")
COLUMNS = ("repo", "path", "commit", "lang", "content")

ACTOR_CALLS = ("jobs.PartitionEncoder.__call__", "jobs.PartitionDeleter.__call__",
               "jobs.PartitionUpdater.__call__")
DML_CALLS = ACTOR_CALLS[1:]
ACTOR_INITS = ("jobs.PartitionEncoder.__init__", "jobs.PartitionDeleter.__init__",
               "jobs.PartitionUpdater.__init__")
ENCODE_SPANS = ("blocks.encode_column", "selector.encode_column")
DECODE_SPANS = ("blocks.decode_column", "blocks.decode_rows")

# metric -> span names whose self times it sums
SELF_TIME = {
    "jobs.plan_s": ("jobs.plan_partitions",),
    "jobs.partition_self_s": ("jobs.PartitionEncoder.__call__",),
    "jobs.read_s": ("jobs.read_row_group",),
    "jobs.split_s": ("jobs.iter_blocks",),
    "jobs.publish_s": ("jobs.write_table", "jobs.replace"),
    "jobs.actor_init_s": ACTOR_INITS,
    "jobs.dml_self_s": DML_CALLS,
    "jobs.dml_transform_s": ("jobs.PartitionUpdater._transform",),
    "manifest.commit_s": ("manifest.commit",),
    "encode.table_self_s": ("encode.encode_table",),
    "encode.zone_s": ("encode.column_zone",),
    "bloom.build_s": ("bloom.bloom_build",),
    "rowhash.chain_hash_s": ("rowhash.chain_hash",),
    "selector.self_s": ("selector.encode_column_auto",),
    "decode.decoder_self_s": ("decode.BlockDecoder.__call__",),
    "decode.prune_s": ("decode.prune_blocks", "decode.zone_may_match_any"),
    "decode.row_filter_s": ("decode.dnf_mask", "decode.filter_table"),
    "verify.self_s": ("verify.verify_blocks",),
}
# metric -> span names it counts
COUNTS = {
    "manifest.commits": ("manifest.commit",),
    "encode.blocks": ("encode.encode_table",),
    "selector.trials": ("selector.encode_column",),
}

# Every per-layer metric the traced run reports: (unit, better). Metrics
# in "s" and "count" are totals per traced cycle; the rest are ratios.
PER_LAYER: dict[str, tuple[str, str]] = {
    "jobs.plan_s": ("s", "lower"),
    "jobs.partition_self_s": ("s", "lower"),
    "jobs.read_s": ("s", "lower"),
    "jobs.split_s": ("s", "lower"),
    "jobs.publish_s": ("s", "lower"),
    "jobs.actor_init_s": ("s", "lower"),
    "jobs.pool_busy_frac": ("ratio", "higher"),
    "jobs.dml_self_s": ("s", "lower"),
    "jobs.dml_transform_s": ("s", "lower"),
    "jobs.dml_rewrite_frac": ("ratio", "lower"),
    "jobs.dml_blocks_decoded": ("count", "lower"),
    "manifest.commit_s": ("s", "lower"),
    "manifest.commits": ("count", "lower"),
    "encode.table_self_s": ("s", "lower"),
    "encode.blocks": ("count", "lower"),
    "encode.zone_s": ("s", "lower"),
    "bloom.build_s": ("s", "lower"),
    "rowhash.chain_hash_s": ("s", "lower"),
    "selector.self_s": ("s", "lower"),
    "selector.trial_encode_s": ("s", "lower"),
    "selector.trials": ("count", "lower"),
    "selector.trial_waste": ("ratio", "lower"),
    **{f"blocks.encode_s.{c}": ("s", "lower") for c in CODECS},
    **{f"blocks.encode_mbps.{c}": ("MB/s", "higher") for c in CODECS},
    **{f"blocks.decode_s.{c}": ("s", "lower") for c in CODECS},
    **{f"blocks.decode_mbps.{c}": ("MB/s", "higher") for c in CODECS},
    **{f"blocks.ratio.{c}": ("ratio", "lower") for c in COLUMNS},
    "decode.decoder_self_s": ("s", "lower"),
    "decode.prune_s": ("s", "lower"),
    "decode.blocks_kept_frac": ("ratio", "lower"),
    "decode.row_filter_s": ("s", "lower"),
    "verify.self_s": ("s", "lower"),
    "raydata.read_s": ("s", "lower"),
    "raydata.map_s": ("s", "lower"),
    "raydata.untraced_s": ("s", "lower"),
    "trace.self_over_wall": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def link_orphans(spans: list[dict], main_pid: int) -> list[dict]:
    """Copies of ``spans`` in which every parentless worker span has the
    innermost main-process span that contains its start as parent."""
    out = [dict(s) for s in spans]
    mains = sorted((s for s in out if s["pid"] == main_pid),
                     key=lambda s: s["e"] - s["s"])
    for s in out:
        if s["p"] is None and s["pid"] != main_pid:
            for d in mains:
                if d["s"] <= s["s"] <= d["e"]:
                    s["p"] = d["id"]
                    break
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> self time in seconds (``s``/``e`` are nanoseconds)."""
    kids: dict[str, list] = defaultdict(list)
    for s in spans:
        if s["p"] is not None:
            kids[s["p"]].append((s["s"], s["e"]))
    out = {}
    for s in spans:
        clipped = [(max(a, s["s"]), min(b, s["e"])) for a, b in kids[s["id"]]]
        covered = union_length([(a, b) for a, b in clipped if b > a])
        out[s["id"]] = (s["e"] - s["s"] - covered) / 1e9
    return out


def _roots(spans: list[dict]) -> dict[str, dict]:
    """Span id -> its outermost ancestor (the operation span)."""
    by_id = {s["id"]: s for s in spans}
    memo: dict[str, dict] = {}
    for s in spans:
        path = []
        cur = s
        while cur["id"] not in memo:
            path.append(cur)
            if cur["p"] is None or cur["p"] not in by_id:
                memo[cur["id"]] = cur
                break
            cur = by_id[cur["p"]]
        top = memo[cur["id"]]
        for c in path:
            memo[c["id"]] = top
    return memo


def _under(spans: list[dict], names: tuple) -> set[str]:
    """Ids of spans that have an ancestor (or are) one of ``names``."""
    by_id = {s["id"]: s for s in spans}
    out = set()
    for s in spans:
        cur = s
        while cur is not None:
            if cur["n"] in names:
                out.add(s["id"])
                break
            cur = by_id.get(cur["p"]) if cur["p"] is not None else None
    return out


def fold(spans: list[dict], main_pid: int) -> dict[str, float]:
    """Per-layer totals over every operation span (names starting with
    ``op.``) in ``spans``. Spans outside any operation are ignored."""
    spans = link_orphans(spans, main_pid)
    roots = _roots(spans)
    spans = [s for s in spans if roots[s["id"]]["n"].startswith("op.")]
    selfs = self_times(spans)
    m: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        m[metric] = sum(selfs[s["id"]] for s in spans if s["n"] in names)
    for metric, names in COUNTS.items():
        m[metric] = float(sum(1 for s in spans if s["n"] in names))

    def dur(s):
        return (s["e"] - s["s"]) / 1e9

    trials = [s for s in spans if s["n"] == "selector.encode_column"]
    m["selector.trial_encode_s"] = sum(dur(s) for s in trials)
    auto_b = sum(s["b"] for s in spans if s["n"] == "selector.encode_column_auto")
    final_b = auto_b + sum(s["b"] for s in spans if s["n"] == "blocks.encode_column")
    m["selector.trial_waste"] = (
        (sum(s["b"] for s in trials) - auto_b) / final_b if final_b else 0.0
    )
    for prefix, names in (("encode", ENCODE_SPANS), ("decode", DECODE_SPANS)):
        for c in CODECS:
            mine = [s for s in spans if s["n"] in names and s["k"] == c]
            secs = sum(selfs[s["id"]] for s in mine)
            m[f"blocks.{prefix}_s.{c}"] = secs
            m[f"blocks.{prefix}_mbps.{c}"] = (
                sum(s["b"] for s in mine) / 1e6 / secs if secs > 0 else 0.0
            )

    ops = [s for s in spans if s["p"] is None]
    m["raydata.untraced_s"] = sum(selfs[s["id"]] for s in ops)
    wall = sum(dur(s) for s in ops)
    m["trace.self_over_wall"] = sum(selfs.values()) / wall if wall else 0.0

    # pool busy fraction: actor-call time over (op wall x actors started)
    busy = capacity = 0.0
    for op in ops:
        mine = [s for s in spans if roots[s["id"]] is op]
        calls = [s for s in mine if s["n"] in ACTOR_CALLS]
        if calls:
            actors = {s["pid"] for s in mine if s["n"] in ACTOR_INITS + ACTOR_CALLS}
            busy += sum(dur(s) for s in calls)
            capacity += dur(op) * len(actors)
    m["jobs.pool_busy_frac"] = busy / capacity if capacity else 0.0

    in_dml = _under(spans, DML_CALLS)
    m["jobs.dml_blocks_decoded"] = float(
        sum(1 for s in spans if s["n"] in DECODE_SPANS and s["id"] in in_dml)
    )
    return m
