"""CLI — the Ray-Data restatement of the reference's two binaries.

- ``encode`` / ``decode`` / ``verify`` / ``gen``: the js2pq-equivalent
  lifecycle (/root/reference/src/bin/js2pq/main.rs:46-131), resumable via
  the manifest job.
- ``bench-read``: the parqbench equivalent
  (/root/reference/src/bin/parqbench/main.rs:216-262): iterate a block
  table row-by-row vs columnar, folding every value into an anti-DCE
  "touch" counter (:58-169) and reporting avg ms/iteration.

Owns its Ray session (library code never does): guarded ray.init,
shutdown at exit. Under ``ray job submit`` (``RAY_ADDRESS`` set to the
cluster) it attaches to that cluster; otherwise (unset or ``local``) it
starts a local one with num_cpus from RAY_GRAFT_CPUS (default: the CPUs
this process may run on).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time


def _init_ray() -> None:
    import ray

    from rayenc.dispatch import local_ray_cpus

    if not ray.is_initialized():
        address = os.environ.get("RAY_ADDRESS") or "local"
        if address != "local":
            # a submitted job: attach to its cluster, whose CPUs are fixed
            ray.init(address=address, logging_level="ERROR")
        else:
            ray.init(
                address="local",
                num_cpus=local_ray_cpus(),
                include_dashboard=False,
                logging_level="ERROR",
            )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False


def _job_blocks(args: argparse.Namespace):
    """The block table of the job dir ``args.blocks``, read lazily as a
    Ray Data dataset (starts Ray if needed)."""
    _init_ray()
    import ray.data as rd

    return rd.read_parquet(os.path.join(args.blocks, "blocks"))


def cmd_gen(args: argparse.Namespace) -> int:
    from rayenc.corpus import write_corpus

    path = write_corpus(args.out, args.rows, seed=args.seed)
    print(json.dumps({"written": path, "rows": args.rows}))
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    _init_ray()
    from rayenc.jobs import run_encode_job

    summary = run_encode_job(
        args.input,
        args.out,
        columns=args.columns.split(",") if args.columns else None,
        block_rows=args.block_rows,
        level=args.level,
        hash_column=args.hash_column or None,
        stats=args.stats,
        page_rows=args.page_rows,
        decode_weight=args.decode_weight,
        enc_cap=args.enc_cap,
        filter=_parse_filters(args.filter),
        hll=args.hll,
        hll_b=args.hll_b,
        kll=args.kll,
        kll_k=args.kll_k,
        ngram=args.ngram,
        ngram_n=args.ngram_n,
        archive=args.archive,
        cluster_by=args.cluster_by.split(",") if args.cluster_by else None,
        cluster_mode=args.cluster_mode,
        append=args.append,
    )
    print(json.dumps(summary))
    return 0


def cmd_manifest(args: argparse.Namespace) -> int:
    from rayenc.manifest import Manifest

    print(json.dumps(Manifest(args.out).summary()))
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Pin (or list) snapshot versions of an encode-job dir — read-as-of
    for append-mode ingestion (rayenc.jobs.read_blocks_at)."""
    from rayenc.manifest import Manifest

    m = Manifest(args.out)
    if args.list:
        print(json.dumps([m.snapshot_record(v) for v in m.snapshot_versions()]))
        return 0
    print(json.dumps(m.snapshot(note=args.note)))
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    """Copy-on-write DELETE of rows matching --filter from a committed
    encode-job dir (rayenc.jobs.delete_rows): zone maps bound the
    rewrite to the partitions/blocks that hold matches."""
    _init_ray()
    from rayenc.jobs import delete_rows

    filt = _parse_filters(args.filter)
    if not filt:
        raise SystemExit("delete: at least one --filter col:op:value is required")
    print(json.dumps(delete_rows(args.out, filt)))
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    """Copy-on-write UPDATE of rows matching --filter in a committed
    encode-job dir (rayenc.jobs.update_rows): --set assigns constants,
    --scrub applies regex rewrites — the in-place PII-redaction path."""
    _init_ray()
    from rayenc.jobs import update_rows

    filt = _parse_filters(args.filter)
    if not filt:
        raise SystemExit("update: at least one --filter col:op:value is required")
    set_values = {}
    for s in args.set or []:
        col, _, val = s.partition("=")
        if not _ or not col:
            raise SystemExit(f"update: --set expects COL=VALUE, got {s!r}")
        set_values[col] = val
    scrub = _parse_scrub(args.scrub)
    print(
        json.dumps(
            update_rows(
                args.out, filt, set_values=set_values or None, scrub=scrub or None
            )
        )
    )
    return 0


def _parse_scrub(specs: list[str] | None) -> dict[str, list]:
    """--scrub COL:REGEX=REPL -> {col: [(regex, repl), ...]}. REGEX ends
    at the first '=' with no backslash before it, so REPL may contain
    '='; a literal '=' in REGEX is written '\\=' (RE2 reads it as '=')."""
    scrub: dict[str, list] = {}
    for s in specs or []:
        col, colon, rest = s.partition(":")
        eq = re.search(r"(?<!\\)=", rest)
        if not colon or not col or eq is None or eq.start() == 0:
            raise SystemExit(f"update: --scrub expects COL:REGEX=REPL, got {s!r}")
        scrub.setdefault(col, []).append((rest[: eq.start()], rest[eq.end():]))
    return scrub


def cmd_enrich(args: argparse.Namespace) -> int:
    """ALTER TABLE ADD COLUMN over a committed encode-job dir: compute a
    registered enricher (lang_id/quality_score/n_tokens/...) from one
    decoded column and append it as a new encoded, zone-mapped column."""
    _init_ray()
    from rayenc.jobs import enrich_many

    columns = {args.column: args.enricher}
    for s in args.also or []:
        col, _, en = s.partition("=")
        if not _ or not col or not en:
            raise SystemExit(f"enrich: --also expects COL=ENRICHER, got {s!r}")
        columns[col] = en
    print(
        json.dumps(
            enrich_many(args.out, columns, input_column=args.input_column)
        )
    )
    return 0


def cmd_js2pq(args: argparse.Namespace) -> int:
    _init_ray()
    import pyarrow as pa

    from rayenc.histograms import (
        read_histograms,
        write_flatbuffers_parquet,
        write_opaque_parquet,
        write_policy_parquet,
    )

    ds = read_histograms(args.inputs, hexify=args.hexify_tag_columns)
    table = pa.concat_tables(
        ds.iter_batches(batch_size=None, batch_format="pyarrow"),
        promote_options="default",
    )
    if args.layout == "opaque":
        write_opaque_parquet(table, args.out)
    elif args.layout == "flatbuffers":
        write_flatbuffers_parquet(table, args.out)
    else:
        write_policy_parquet(table, args.out)
    print(
        json.dumps({"written": args.out, "rows": table.num_rows, "layout": args.layout})
    )
    return 0


def cmd_layout(args: argparse.Namespace) -> int:
    _init_ray()
    import ray.data as rd

    from rayenc.partition import salted_partition

    ds = rd.read_parquet(args.input)
    out = salted_partition(ds, target_rows=args.target_rows, use_shuffle_counts=True)
    out.write_parquet(args.out)
    print(json.dumps({"layout_to": args.out, "rows": out.count()}))
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Structural consistency check: manifest <-> blocks-file cross-audit
    (metadata-only; --deep adds the distributed sha256 chain verify).
    Ray is needed for --deep and for dirs with >8 partitions (the
    metadata checks fan out); init unconditionally — cheap and simple."""
    _init_ray()
    from rayenc.jobs import fsck_job

    report = fsck_job(args.root, deep=args.deep)
    print(json.dumps(report))
    return 0 if report["ok"] else 1


def cmd_vacuum(args: argparse.Namespace) -> int:
    """Sweep stale staging files from a job/export dir (no Ray session:
    a driver-side walk over staging names only, never data)."""
    from rayenc.jobs import vacuum_job

    print(json.dumps(vacuum_job(args.root, max_age_s=args.max_age)))
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Re-block an encoded block table at a new block size (decode ->
    re-encode, streaming) — the maintenance op for ingestion roots full
    of under-sized commit blocks (rayenc.encode.compact_blocks). With
    --in-place, rewrite the job dir itself partition-by-partition with
    manifest re-commits (rayenc.jobs.compact_job): atomic per partition,
    idempotent, resume gates untouched."""
    _init_ray()
    if args.in_place:
        from rayenc.jobs import compact_job

        print(json.dumps(compact_job(args.blocks, args.block_rows)))
        return 0
    if not args.out:
        raise SystemExit("compact: pass an output dir, or --in-place")

    from rayenc.encode import compact_blocks, write_blocks
    from rayenc.verify import verify_blocks

    blocks = _job_blocks(args)
    before = blocks.count()
    out = compact_blocks(
        blocks,
        block_rows=args.block_rows,
        level=args.level,
        hash_column=args.hash_column or None,
    ).materialize()
    # same root layout as the encode job (<root>/blocks/) so decode /
    # verify / take-rows / a further compact can read the output
    write_blocks(out, os.path.join(args.out, "blocks"))
    v = verify_blocks(out, hash_column=args.hash_column) if args.hash_column else None
    print(
        json.dumps(
            {
                "blocks_before": before,
                "blocks_after": out.count(),
                "rows": sum(r["n_rows"] for r in out.select_columns(["n_rows"]).take_all()),
                "verify": v,
                "out": args.out,
            }
        )
    )
    return 0


def _parse_filters(specs: list[str] | None):
    """--filter col:op:value (value parsed as int/float when it looks
    numeric, else string; 'prefix'/'contains' values stay strings by
    definition — a dated prefix like 2024 must not coerce to an int)."""
    if not specs:
        return None
    out = []
    for s in specs:
        col, op, raw = s.split(":", 2)
        if op in ("prefix", "contains"):
            out.append((col, op, raw))
            continue
        try:
            val = int(raw)
        except ValueError:
            try:
                val = float(raw)
            except ValueError:
                val = raw
        out.append((col, op, val))
    return out


def cmd_decode(args: argparse.Namespace) -> int:
    from rayenc.decode import decode_dataset, decode_ordered, count_decoded_blocks

    blocks = _job_blocks(args)
    filters = _parse_filters(args.filter)
    columns = args.columns.split(",") if args.columns else None
    stats = count_decoded_blocks(blocks, filters) if filters else None
    if args.ordered:
        out = decode_ordered(blocks, columns=columns, filter=filters)
    else:
        out = decode_dataset(blocks, columns=columns, filter=filters)
    # count from THIS RUN's written footers — out.count() would re-execute
    # the whole decode pipeline a second time (lazy Dataset, no cache),
    # and summing the whole dir would include stale files from prior runs
    # (Ray's write_parquet appends uuid-named files, never clears)
    pre = set(os.listdir(args.out)) if os.path.isdir(args.out) else set()
    out.write_parquet(args.out)
    import pyarrow.parquet as pq

    rows = sum(
        pq.read_metadata(os.path.join(args.out, f)).num_rows
        for f in os.listdir(args.out)
        if f.endswith(".parquet") and f not in pre
    )
    msg = {"decoded_to": args.out, "rows": rows, "ordered": bool(args.ordered)}
    if stats:
        msg["zone_pruning"] = stats
    print(json.dumps(msg))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Resumable decode-export: committed block partitions -> one
    atomically-published parquet of ORIGINAL rows per partition
    (rayenc.jobs.run_export_job). Rerun skips published partitions;
    filter/columns changes onto a half-finished dir are refused."""
    _init_ray()
    from rayenc.jobs import run_export_job

    summary = run_export_job(
        args.blocks,
        args.out,
        columns=args.columns.split(",") if args.columns else None,
        filter=_parse_filters(args.filter),
        ordered=not args.unordered,
        partition_by=args.partition_by.split(",") if args.partition_by else None,
    )
    print(json.dumps(summary))
    return 0


def cmd_agg(args: argparse.Namespace) -> int:
    """Metadata-pushdown aggregates over a committed block table: count/
    sum answer from zones (boundary blocks decode predicate columns
    only), min-max/distinct are zones/HLL-only, topk decodes only blocks
    the zone threshold can't prove out. One JSON line out."""
    from rayenc.decode import (agg_approx_distinct, agg_approx_quantiles,
                               agg_count, agg_min_max, agg_sum, agg_topk)

    blocks = _job_blocks(args)
    filt = _parse_filters(args.filter)
    op = args.op
    if op in ("sum", "min-max", "distinct", "topk", "quantiles") and not args.col:
        raise SystemExit(f"agg {op} requires --col")
    if op == "count":
        out = {"count": agg_count(blocks, filt)}
    elif op == "sum":
        out = {"sum": agg_sum(blocks, args.col, filt)}
    elif op == "min-max":
        if filt:
            raise SystemExit("agg min-max is zones-only; it takes no --filter")
        out = agg_min_max(blocks, args.col)
    elif op == "distinct":
        if filt:
            raise SystemExit("agg distinct is HLL-metadata-only; no --filter")
        out = {"approx_distinct": agg_approx_distinct(blocks, args.col)}
    elif op == "quantiles":
        if filt:
            raise SystemExit("agg quantiles is KLL-metadata-only; no --filter")
        import math

        qs = [float(x) for x in args.q.split(",")]
        est = agg_approx_quantiles(blocks, args.col, qs)
        # NaN (all-null column) must not break the one-JSON-line contract:
        # json.dumps would emit a bare NaN token no strict parser accepts
        est = [None if not math.isfinite(v) else v for v in est]
        out = {"quantiles": dict(zip(map(str, qs), est))}
    else:  # topk
        t = agg_topk(
            blocks,
            args.col,
            args.k,
            descending=not args.asc,
            extra_cols=args.extra.split(",") if args.extra else None,
            tie_cols=args.tie.split(",") if args.tie else None,
            filter=filt,
        )
        out = {"topk": t.to_pylist()}
    print(json.dumps({"op": op, "col": args.col, **out}, default=str))
    return 0


def cmd_take_rows(args: argparse.Namespace) -> int:
    from rayenc.decode import take_rows

    blocks = _job_blocks(args)
    idx = [int(x) for x in args.indices.split(",")]
    t = take_rows(
        blocks, idx, columns=args.columns.split(",") if args.columns else None
    )
    for row in t.to_pylist():
        print(json.dumps(row, default=str))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from rayenc.verify import verify_blocks

    blocks = _job_blocks(args)
    # --hash-column "" means "no chain column" (same convention as
    # encode/compact): verify structure + zones only
    v = verify_blocks(
        blocks, hash_column=args.hash_column or None, check_zones=args.check_zones
    )
    print(json.dumps(v))
    return 0 if v["ok"] else 1


from rayenc.touch import _touch_column, _touch_value


def cmd_bench_read(args: argparse.Namespace) -> int:
    _init_ray()
    import ray.data as rd

    results = {}
    for mode in ("columnar", "row-by-row"):
        total = 0.0
        counter = 0
        for _ in range(args.iterations):
            ds = rd.read_parquet(args.input)
            t0 = time.perf_counter()
            counter = 0
            if mode == "columnar":
                for batch in ds.iter_batches(batch_size=10_000, batch_format="pyarrow"):
                    for col in batch.columns:
                        counter += _touch_column(col)
            else:
                for row in ds.iter_rows():
                    for v in row.values():
                        counter += _touch_value(v)
            total += time.perf_counter() - t0
        results[mode] = {
            "avg_ms": round(total / args.iterations * 1000, 2),
            "counter": counter,
        }
    print(json.dumps({"iterations": args.iterations, **results}))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(prog="rayenc")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="write a deterministic synthetic corpus")
    g.add_argument("out")
    g.add_argument("--rows", type=int, default=10_000)
    g.add_argument("--seed", type=int, default=42)
    g.set_defaults(fn=cmd_gen)

    e = sub.add_parser("encode", help="resumable encode job (input parquet -> block table + manifest)")
    e.add_argument("input")
    e.add_argument("out")
    e.add_argument("--block-rows", type=int, default=8000)
    e.add_argument("--level", type=int, default=3)
    e.add_argument("--hash-column", default="content")
    e.add_argument("--columns", default=None, help="comma-separated column pruning")
    e.add_argument(
        "--stats",
        choices=["none", "block", "page"],
        default="block",
        help="statistics granularity (the reference's none/chunk/page axis); "
        "page = paged sub-block layout with per-page zone maps",
    )
    e.add_argument(
        "--page-rows",
        type=int,
        default=None,
        help="rows per sub-block page (implies paged layout; default 2048 when --stats page)",
    )
    e.add_argument(
        "--decode-weight",
        type=float,
        default=0.0,
        help="decode-cost guard: size-win demanded per decode-speed doubling "
        "(0 = pure size ranking; 0.1 is a sensible decode-optimized value)",
    )
    e.add_argument(
        "--enc-cap",
        type=float,
        default=None,
        help="encode-cost gate: drop candidates whose NOMINAL encode cost "
        "class (selector._ENC_COST, a static multiple of the zstd-3 "
        "backstop; e.g. plain@12=13, fsst@9=9, unlisted codecs=1) exceeds "
        "CAP before ranking — static on purpose, measured trial speeds "
        "invert under pool contention (the flagship bench runs 10; "
        "None = no gate)",
    )
    e.add_argument(
        "--filter",
        action="append",
        metavar="COL:OP:VALUE",
        help="encode only matching rows (row-group stats pruned at plan time; repeatable)",
    )
    e.add_argument(
        "--hll",
        action="store_true",
        help="per-block HLL distinct sketches in the zonemap (enables "
        "agg_approx_distinct over metadata alone; ~1.4 KB/column/block)",
    )
    e.add_argument(
        "--hll-b",
        type=int,
        default=10,
        help="HLL precision: 2^b uint8 registers per column per block",
    )
    e.add_argument(
        "--kll",
        action="store_true",
        help="per-block KLL quantile sketches in the zonemap (numeric/temporal "
        "columns; enables agg quantiles from metadata alone)",
    )
    e.add_argument(
        "--kll-k",
        type=int,
        default=128,
        help="KLL sketch size parameter (rank error ~1/k)",
    )
    e.add_argument(
        "--ngram",
        action="store_true",
        help="per-block n-gram Bloom filters on string columns (enables "
        "'contains' substring pruning; up to 256 KiB/column/block)",
    )
    e.add_argument(
        "--ngram-n",
        type=int,
        default=3,
        help="n-gram width in bytes for --ngram filters",
    )
    e.add_argument(
        "--archive",
        action="store_true",
        help="cold-storage tier: selector also trials plain@16/@19 on "
        "bulk text (~-30%% payload at ~15x encode cost; decode unchanged)",
    )
    e.add_argument(
        "--cluster-by",
        default=None,
        metavar="COL[,COL...]",
        help="sort each partition by these columns before blocking: tight "
        "disjoint zones on the key (range scans prune at block level); "
        "decode order becomes clustered, not source, order",
    )
    e.add_argument(
        "--cluster-mode",
        default="lex",
        choices=("lex", "zorder"),
        help="within-partition order for --cluster-by: 'lex' = "
        "lexicographic sort (tight zones on the FIRST key); 'zorder' = "
        "Morton curve over quantile ranks (bounded per-block zones on "
        "EVERY cluster key; needs >= 2 columns)",
    )
    e.add_argument(
        "--append",
        action="store_true",
        help="incremental ingestion: accept a GROWN input list (recorded "
        "inputs must be a prefix — name increments to sort last); only "
        "the new files encode",
    )
    e.set_defaults(fn=cmd_encode)

    sn = sub.add_parser(
        "snapshot",
        help="pin or list read-as-of snapshot versions of an encode job dir",
    )
    sn.add_argument("out", help="encode job output root")
    sn.add_argument("--note", default=None, help="free-form note stored in the snapshot")
    sn.add_argument("--list", action="store_true", help="list versions instead of creating one")
    sn.set_defaults(fn=cmd_snapshot)

    dl = sub.add_parser(
        "delete",
        help="copy-on-write delete of rows matching --filter (zone-bounded partition rewrites)",
    )
    dl.add_argument("out", help="encode job output root")
    dl.add_argument(
        "--filter", action="append", metavar="COL:OP:VALUE",
        help="conjunction predicate, repeatable (same syntax as encode --filter)",
    )
    dl.set_defaults(fn=cmd_delete)

    up = sub.add_parser(
        "update",
        help="copy-on-write update of rows matching --filter (constant --set and/or regex --scrub)",
    )
    up.add_argument("out", help="encode job output root")
    up.add_argument(
        "--filter", action="append", metavar="COL:OP:VALUE",
        help="conjunction predicate, repeatable (same syntax as encode --filter)",
    )
    up.add_argument(
        "--set", action="append", metavar="COL=VALUE",
        help="assign a constant to COL on matching rows (repeatable; value parsed as string)",
    )
    up.add_argument(
        "--scrub", action="append", metavar="COL:REGEX=REPL",
        help="regex rewrite on COL for matching rows (repeatable; applied in "
        "order). REGEX ends at the first unescaped '=', so REPL may contain "
        "'='; write a literal '=' in REGEX as '\\='",
    )
    up.set_defaults(fn=cmd_update)

    en = sub.add_parser(
        "enrich",
        help="append a derived encoded column (lang_id/quality_score/n_tokens/...) to a committed job dir",
    )
    en.add_argument("out", help="encode job output root")
    en.add_argument("column", help="name of the new column")
    en.add_argument(
        "enricher",
        help="registered enricher: lang_id quality_score stopword_ratio n_tokens "
             "n_chars fingerprint sha256_hex dup_line_frac top2gram_char_frac "
             "dup5gram_char_frac",
    )
    en.add_argument("--input-column", default="content", help="decoded input column")
    en.add_argument(
        "--also", action="append", metavar="COL=ENRICHER",
        help="additional derived columns, computed in the same decode pass (repeatable)",
    )
    en.set_defaults(fn=cmd_enrich)

    m = sub.add_parser("manifest", help="print the manifest summary of an encode job")
    m.add_argument("out", help="encode job output root")
    m.set_defaults(fn=cmd_manifest)

    lay = sub.add_parser(
        "layout",
        help="rewrite a corpus with the salted-repo locality layout (opt-in shuffle before encode)",
    )
    lay.add_argument("input")
    lay.add_argument("out")
    lay.add_argument("--target-rows", type=int, default=100_000)
    lay.set_defaults(fn=cmd_layout)

    js = sub.add_parser(
        "js2pq",
        help="reference-parity: histogram JSON[.gz] files -> pivoted parquet with per-column policy",
    )
    js.add_argument("inputs", nargs="+")
    js.add_argument("out")
    js.add_argument("--hexify-tag-columns", action="store_true")
    js.add_argument(
        "--layout",
        choices=["shredded", "opaque", "flatbuffers"],
        default="shredded",
        help="shredded = typed columns (default); opaque = lossless msgpack "
        "record column; flatbuffers = the reference's ACTUAL binary_data "
        "wire layout (lossy like the reference: null elements dropped)",
    )
    js.set_defaults(fn=cmd_js2pq)

    d = sub.add_parser("decode", help="decode a block table back to parquet")
    d.add_argument("blocks", help="encode job output root")
    d.add_argument("out")
    d.add_argument(
        "--ordered",
        action="store_true",
        help="reconstruct global source order (one extra sort shuffle)",
    )
    d.add_argument(
        "--filter",
        action="append",
        metavar="COL:OP:VALUE",
        help="zone-map-pruned predicate (repeatable conjunction), e.g. doc_id:<:100",
    )
    d.add_argument("--columns", default=None, help="comma-separated projection")
    d.set_defaults(fn=cmd_decode)

    tr = sub.add_parser(
        "take-rows", help="random-access decode of specific global row positions"
    )
    tr.add_argument("blocks", help="encode job output root (ordered blocks)")
    tr.add_argument("indices", help="comma-separated global row positions")
    tr.add_argument("--columns", default=None)
    tr.set_defaults(fn=cmd_take_rows)

    ex = sub.add_parser(
        "export",
        help="resumable decode-export: blocks -> one parquet of original rows per partition (atomic publish, rerun skips finished)",
    )
    ex.add_argument("blocks", help="encode job output root")
    ex.add_argument("out", help="export output dir")
    ex.add_argument("--columns", default=None, help="comma-separated projection")
    ex.add_argument(
        "--filter",
        action="append",
        metavar="COL:OP:VALUE",
        help="zone/page-pruned + exact row filter (repeatable; conjunction)",
    )
    ex.add_argument(
        "--unordered",
        action="store_true",
        help="skip the per-partition block_seq sort (faster; row order unspecified)",
    )
    ex.add_argument(
        "--partition-by",
        default=None,
        metavar="COL[,COL...]",
        help="hive-style output layout: one col=value/ directory per "
        "distinct key combination (resume token: per-partition _done marker)",
    )
    ex.set_defaults(fn=cmd_export)

    ag = sub.add_parser(
        "agg",
        help="metadata-pushdown aggregates over a block table: "
        "count/sum/min-max/distinct/topk from zones+HLL, boundary-only decode",
    )
    ag.add_argument("blocks", help="encode job output root")
    ag.add_argument(
        "op", choices=["count", "sum", "min-max", "distinct", "topk", "quantiles"]
    )
    ag.add_argument("--col", default=None, help="column (all ops except count)")
    ag.add_argument(
        "--filter",
        action="append",
        metavar="COL:OP:VALUE",
        help="predicate conjunction (count/sum/topk)",
    )
    ag.add_argument("--k", type=int, default=10, help="topk: result size")
    ag.add_argument("--q", default="0.5,0.9,0.99",
                    help="quantiles: comma-separated ranks in [0,1]")
    ag.add_argument("--asc", action="store_true", help="topk: smallest first")
    ag.add_argument("--extra", default=None, help="topk: extra output columns")
    ag.add_argument("--tie", default=None, help="topk: tie-break columns")
    ag.set_defaults(fn=cmd_agg)

    cp = sub.add_parser(
        "compact",
        help="re-block an encoded block table at a new block size (streaming decode->encode)",
    )
    cp.add_argument("blocks", help="encode job output root")
    cp.add_argument(
        "out", nargs="?", default=None,
        help="output dir for the compacted block table (omit with --in-place)",
    )
    cp.add_argument("--block-rows", type=int, default=8000)
    cp.add_argument("--level", type=int, default=3)
    cp.add_argument("--hash-column", default="content")
    cp.add_argument(
        "--in-place", action="store_true",
        help="rewrite the job dir itself (per-partition atomic swap + manifest re-commit)",
    )
    cp.set_defaults(fn=cmd_compact)

    vac = sub.add_parser(
        "vacuum",
        help="remove stale staging files (_*.tmp) left by crashed attempts in a job/export dir",
    )
    vac.add_argument("root", help="job or export output root")
    vac.add_argument(
        "--max-age", type=float, default=3600.0,
        help="only remove staging files older than this many seconds (default 1h)",
    )
    vac.set_defaults(fn=cmd_vacuum)

    fs = sub.add_parser(
        "fsck",
        help="manifest <-> blocks-file consistency audit of a job dir (--deep adds sha256 verify)",
    )
    fs.add_argument("root", help="encode job output root")
    fs.add_argument(
        "--deep", action="store_true",
        help="also run the distributed per-row sha256 chain verify",
    )
    fs.set_defaults(fn=cmd_fsck)

    v = sub.add_parser("verify", help="verify sha256 chains of a block table")
    v.add_argument(
        "--check-zones",
        action="store_true",
        help="paranoid stats audit: re-derive every stored zone from the "
        "decoded columns and probe each bloom filter with its own values "
        "(catches silent-row-loss metadata corruption the hash cannot see)",
    )
    v.add_argument("blocks", help="encode job output root")
    v.add_argument("--hash-column", default="content")
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench-read", help="row-by-row vs columnar read benchmark (parqbench parity)")
    b.add_argument("input")
    b.add_argument("--iterations", type=int, default=3)
    b.set_defaults(fn=cmd_bench_read)

    args = p.parse_args()
    try:
        return args.fn(args)
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
