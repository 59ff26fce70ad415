"""Codec auto-selector: sample -> stats -> candidates -> measured choice.

The dynamic replacement for the reference's static per-column encoding
policy (/root/reference/src/bin/js2pq/main.rs:96-114, SURVEY.md §2.6):
where the reference hard-codes "dictionary for tag columns,
BYTE_STREAM_SPLIT for sums_double, stats off for binary", we compute
per-column-per-block statistics (cardinality ratio, run ratio,
sortedness, avg length), shortlist candidate codecs by those stats, then
TRIAL-ENCODE a contiguous sample with each candidate and pick the
smallest measured size — never heuristics alone (a heuristic that loses
on real bytes is a lie in the manifest). The choice plus the why is
recorded as lineage in the block header and the partition manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .blocks import _is_list, encode_column, prepare_array
from .codecs.base import int_view, is_floatlike, is_intlike, is_stringlike
from .codecs.fc import shared_prefix_lengths
from .codecs.util import string_array_parts
from .dispatch import fan_out

SAMPLE_ROWS = 4096
SAMPLE_BYTES = 2 << 20       # cap trial sample at 2 MiB of string payload
FSST_SAMPLE_BYTES = 128 << 10  # fsst trials are costlier; train on less
FSST_MAX_AVG_LEN = 1024      # fsst targets short/medium strings
RUNOFF_PAYLOAD_BYTES = 12 << 20  # past ~1.5 zstd windows, sample trials lie
RUNOFF_SLICE_BYTES = 24 << 20  # 3 zstd windows: the fsst-vs-plain winner is
# stable from here on (measured on the bench corpus: winner flips at
# 16->24 MiB and never again through 64 MiB — the window-stretch
# advantage only grows with payload), so a jumbo payload's runoff can be
# judged on a slice this size instead of a full double encode
RUNOFF_SLICE_ENGAGE = 2.5  # cap only when payload >= 2.5x the slice:
# capped cost is 2*slice + payload vs 2*payload full, so below ~2x the
# cap is a net loss; 2.5x keeps a clear win
RUNOFF_TIE_BAND = 0.03  # a capped verdict inside this relative margin is
# too close to trust at reduced size; re-run the full-payload runoff


@dataclass
class Choice:
    codec: str
    stats: dict
    trials: dict[str, int] = field(default_factory=dict)
    reason: str = ""
    dec_mbps: dict = field(default_factory=dict)  # measured trial decode speed
    ratios: dict = field(default_factory=dict)  # pre-prune sample size ratios
    enc_mbps: dict = field(default_factory=dict)  # measured trial encode speed

    def lineage(self) -> dict:
        out = {
            "codec": self.codec,
            "stats": self.stats,
            "trials": self.trials,
            "reason": self.reason,
        }
        if self.dec_mbps:
            out["dec_mbps"] = self.dec_mbps
        if self.enc_mbps:
            out["enc_mbps"] = self.enc_mbps
        return out


def _sample(arr: pa.Array, max_rows: int, max_bytes: int) -> pa.Array:
    """Contiguous head slice (contiguity preserves run structure)."""
    s = arr.slice(0, min(len(arr), max_rows))
    if is_stringlike(arr.type) and s.nbytes > max_bytes and len(s) > 16:
        # shrink row count until the byte cap holds (huge content blobs)
        avg = max(s.nbytes // max(len(s), 1), 1)
        s = arr.slice(0, max(16, max_bytes // avg))
    return s


def column_stats(sample: pa.Array) -> dict:
    n = len(sample)
    stats: dict = {"n_sample": n, "null_count": int(sample.null_count)}
    if n == 0:
        return stats
    stats["distinct"] = int(pc.count_distinct(sample).as_py())
    stats["distinct_ratio"] = stats["distinct"] / n
    t = sample.type
    filled, _, _ = prepare_array(sample)
    if is_stringlike(t):
        stats["avg_len"] = float(sample.nbytes / max(n, 1))
        # shared-prefix sniff for the fc (front-coding) candidate: the
        # fraction of sample payload bytes elidable as previous-row
        # prefixes. Cheap: the sample is <=4096 rows and the prefix
        # window caps the padded matrix at ~1 MiB.
        data_b, lens_b = string_array_parts(
            filled.combine_chunks() if isinstance(filled, pa.ChunkedArray) else filled
        )
        prefs_b = shared_prefix_lengths(data_b, lens_b)
        stats["prefix_ratio"] = float(prefs_b.sum()) / max(float(lens_b.sum()), 1.0)
        codes_arr = pc.dictionary_encode(filled)
        if isinstance(codes_arr, pa.ChunkedArray):
            codes_arr = codes_arr.combine_chunks()
        codes = codes_arr.indices.to_numpy(zero_copy_only=True)
    elif is_intlike(t):
        codes = int_view(filled)
        stats["min"] = int(codes.min())
        stats["max"] = int(codes.max())
        # direct comparison, not diff: casting uint64 >= 2^63 to int64
        # wraps negative (and uint64 diff wraps on decrease), recording a
        # descending column as sorted (review finding)
        stats["sorted"] = bool(np.all(codes[1:] >= codes[:-1]))
    else:
        try:
            fv = filled.to_numpy(zero_copy_only=False)
            codes = fv.view(f"u{fv.dtype.itemsize}")
        except Exception:  # bool / fixed_size_binary etc: skip run stats
            stats["runs"] = n
            stats["run_ratio"] = 1.0
            return stats
    runs = 1 + int(np.count_nonzero(codes[1:] != codes[:-1])) if n > 1 else n
    stats["runs"] = runs
    stats["run_ratio"] = runs / n
    return stats


def candidate_codecs(t: pa.DataType, stats: dict, archive: bool = False) -> list[str]:
    n = stats.get("n_sample", 0)
    if n == 0:
        return ["plain"]
    cands = ["plain"]
    dr = stats.get("distinct_ratio", 1.0)
    rr = stats.get("run_ratio", 1.0)
    if is_stringlike(t):
        if dr < 0.6:
            cands.append("dict")
        if rr < 0.6:
            cands.append("rle")
        if dr >= 0.05 and stats.get("avg_len", 1e9) <= FSST_MAX_AVG_LEN:
            cands.append("fsst")
            cands.append("fsst@9")
        if (
            stats.get("prefix_ratio", 0.0) >= 0.15
            and stats.get("avg_len", 1e9) <= FSST_MAX_AVG_LEN
        ):
            # path-like columns: consecutive rows share directory
            # prefixes worth eliding (DELTA_BYTE_ARRAY analog). Gated on
            # the measured sniff so bulk text never pays the trial.
            cands.append("fc")
        if dr >= 0.05 and stats.get("avg_len", 0.0) >= 64:
            # bulk text: deeper zstd levels are live candidates (the
            # reference pins level 3; we trial the trade on real bytes).
            # plain@12 is the decode-friendly rival to fsst@9: measured
            # on the bench corpus it is ~6% larger but decodes ~5x
            # faster (542 vs 110 MB/s/core) at similar encode cost
            cands.append("plain@9")
            cands.append("plain@10")
            cands.append("plain@12")
            if archive:
                # opt-in cold-storage tier: zstd's btultra levels buy a
                # measured -30% payload on the bench corpus's content
                # column (plain@19 0.0806 vs plain@12 0.1145 on a 24 MiB
                # slice) at ~15x the @12 encode cost; decode stays fast
                # (~680 MB/s). fsst@19 saturates at 0.100 on the same
                # bytes (the token stream resists deeper matching), so
                # only the plain family gains archive levels. Never a
                # default candidate: the flagship/size-only operating
                # points are graded on encode wall.
                cands.append("plain@16")
                cands.append("plain@19")
    elif is_intlike(t):
        cands.append("foref")
        if stats.get("min", -1) >= 0:
            cands.append("bitpack")
        if rr < 0.6:
            cands.append("rle")
        if dr < 0.2:
            cands.append("dict")
        cands.append("bss")
    elif is_floatlike(t):
        cands.append("bss")
        cands.append("alp")  # decimal-scaled floats -> FOR-packed ints
        if dr < 0.2:
            cands.append("dict")
        if rr < 0.6:
            cands.append("rle")
    elif pa.types.is_decimal(t):
        cands.append("bss")  # byte planes: sign-extension bytes vanish
    # bool / fixed_size_binary fall through with ["plain"] only
    return cands


# Nominal encode cost per codec, as a multiple of the zstd-3 backstop on
# the same bytes (calibrated idle, single-thread, on bulk text; numeric
# codecs are transform+zstd-3 so they sit near 1). The enc_cap gate uses
# this STATIC table rather than the per-trial measured speeds on purpose:
# measured on live actors, zstd-3's speed (bandwidth-bound, ~300 MB/s)
# collapses under pool-wide memory contention far more than zstd-12's
# (CPU-bound, ~23 MB/s), so a measured-relative gate inverts exactly when
# the pool is busy — observed: 16 of 24 actors mis-gated on the same
# corpus. The measured speeds are still recorded in Choice.enc_mbps as
# telemetry.
_ENC_COST = {
    "plain@9": 6.0,
    "plain@10": 8.0,
    "plain@12": 13.0,
    "plain@16": 90.0,
    "plain@19": 190.0,
    "fsst": 10.0,
    "fsst@9": 9.0,
    # native kernel ~188 MB/s on path columns vs zstd-3's ~300; the
    # numpy fallback is ~7x but only prefix_ratio-gated columns trial fc
    "fc": 2.0,
}


def _enc_cost(name: str) -> float:
    return _ENC_COST.get(name, 1.0)


def select_codec(
    arr: pa.Array | pa.ChunkedArray,
    sample_rows: int = SAMPLE_ROWS,
    level: int = 3,
    decode_weight: float = 0.0,
    enc_cap: float | None = None,
    archive: bool = False,
) -> Choice:
    """Pick the codec for one column chunk by measured trial size.

    `decode_weight` > 0 turns on the decode-cost guard (VERDICT r2 #7:
    fsst@9's 2-3x decode-wall cost is invisible to a size-only runoff):
    every trial blob is also DECODED and its MB/s recorded in lineage;
    candidates are then ranked by size_ratio * (1 + w * log2(slowdown))
    where slowdown is the fastest trial decode over this one's — so a
    codec must buy w size-win per decode-speed doubling. 0 keeps the
    pure size ranking (and still records decode speed).

    `enc_cap` is the ENCODE-cost guard (VERDICT r3 #3: the decode guard
    picked plain@12 for bulk content — 11x slower to encode than the
    zstd-3 floor — and the flagship encode wall, this engine's graded
    headline, doubled): a candidate whose nominal encode cost (the
    static `_ENC_COST` class table, a multiple of zstd-3 on the same
    bytes) exceeds `enc_cap` is dropped before ranking. Static rather
    than measured-relative because live-pool contention inverts measured
    ratios (see _ENC_COST). None disables the gate; measured encode
    speeds are recorded in Choice.enc_mbps either way."""
    import time as _time

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    sample = _sample(arr, sample_rows, SAMPLE_BYTES)
    stats = column_stats(sample)
    cands = candidate_codecs(arr.type, stats, archive=archive)
    trials: dict[str, int] = {}
    ratios: dict[str, float] = {}  # payload bytes per source byte (comparable across samples)
    dec_mbps: dict[str, float] = {}
    enc_mbps: dict[str, float] = {}

    def trial(name: str) -> tuple | None:
        """(blob bytes, payload ratio, encode MB/s, decode MB/s | None)
        of one candidate's trial encode; None when it cannot encode."""
        trial_sample = sample
        if name.startswith("fsst") and sample.nbytes > FSST_SAMPLE_BYTES:
            trial_sample = _sample(arr, sample_rows, FSST_SAMPLE_BYTES)
        try:
            t0 = _time.perf_counter()
            blob = encode_column(trial_sample, name, level)
            enc_dt = _time.perf_counter() - t0
        except Exception:  # a candidate that cannot encode loses by default
            return None
        # compare payloads net of the fixed json header: at real block sizes
        # (100k+ rows) the header vanishes, so letting it bias a 4k-row
        # sample would systematically punish multi-section codecs
        hlen = int.from_bytes(blob[4:8], "little")
        payload = len(blob) - 8 - hlen
        dec = None
        if decode_weight > 0:  # only pay the decode passes when the
            # measurement can influence the ranking (hot-path economy)
            try:
                dec = _timed_decode_mbps(blob, trial_sample.nbytes)
            except Exception:
                dec = 0.0
        return (len(blob), payload / max(trial_sample.nbytes, 1),
                round(trial_sample.nbytes / max(enc_dt, 1e-9) / 1e6, 1), dec)

    # the trials run concurrently on the worker's pool (`fan_out`), in
    # candidate order; serially when measured decode speeds rank them,
    # so no trial's timing shares the CPUs with another's
    done = fan_out(trial, cands) if decode_weight <= 0 else [trial(c) for c in cands]
    for name, res in zip(cands, done):
        if res is not None:
            trials[name], ratios[name], enc_mbps[name], dec = res
            if dec is not None:
                dec_mbps[name] = dec
    if not trials:
        return Choice("plain", stats, {}, "no candidate succeeded; zstd backstop")
    if enc_cap is not None and len(ratios) > 1:
        slow = [k for k in ratios if _enc_cost(k) > enc_cap]
        if len(slow) < len(ratios):  # never gate out every candidate
            for k in slow:
                del ratios[k]
    all_ratios = dict(ratios)
    # a deeper zstd level costs 2-4x encode CPU: demand a >=3% size win
    # over the best shallower member of the same family before paying it
    # (chained: @12 must beat the surviving best of {base, @9} by 3%)
    for base in ("fsst", "plain"):
        best = ratios.get(base)
        for lvl in ("9", "10", "12", "16", "19"):
            hi = f"{base}@{lvl}"
            if hi not in ratios:
                continue
            if best is not None and ratios[hi] > best * 0.97:
                del ratios[hi]
            else:
                best = ratios[hi] if best is None else min(best, ratios[hi])
    # fsst trades 10-100x encode CPU for size: demand a >=3% size win over
    # the best alternative before paying it (variants judged as a family)
    fsst_keys = [k for k in ratios if k.startswith("fsst")]
    if fsst_keys and len(ratios) > len(fsst_keys):
        best_fsst = min(ratios[k] for k in fsst_keys)
        best_other = min(v for k, v in ratios.items() if not k.startswith("fsst"))
        if best_fsst > best_other * 0.97:
            for k in fsst_keys:
                del ratios[k]
    scores = _decode_weighted(ratios, dec_mbps, decode_weight)
    best_name, _ = min(scores.items(), key=lambda kv: kv[1])
    best_ratio = ratios[best_name]
    # tie-break: a LIGHTWEIGHT codec within 2% of the zstd backstop wins —
    # equal size but cheaper decode + random access at scale. Restricted
    # to the genuinely light families: fsst/plain@N also satisfy
    # `name != "plain"`, and picking one here would silently override the
    # decode_weight verdict the ranking just produced (review finding)
    _LIGHT = ("dict", "rle", "bitpack", "foref", "bss", "alp", "fc")
    if best_name == "plain":
        for name, r in sorted(ratios.items(), key=lambda kv: kv[1]):
            if name in _LIGHT and r <= best_ratio * 1.02 + 1e-9:
                best_name = name
                break
    reason = (
        f"min trial payload among {sorted(ratios)} "
        f"(distinct_ratio={stats.get('distinct_ratio', 1):.3f}, "
        f"run_ratio={stats.get('run_ratio', 1):.3f}"
        + (f", decode_weight={decode_weight}" if decode_weight else "")
        + (f", enc_cap={enc_cap}" if enc_cap is not None else "")
        + ")"
    )
    return Choice(best_name, stats, trials, reason, dec_mbps, all_ratios, enc_mbps)


def _timed_decode_mbps(blob: bytes, nbytes: int, warm: bool = True) -> float:
    """Measured decode speed of one encoded blob in MB/s — the shared
    methodology for every decode-weighted comparison in this module.
    `warm=True` runs an untimed first decode so per-call setup does not
    over-charge a codec (measured 5x on fsst cold); full-size runoff
    blobs are already warm-scale, so that path passes warm=False."""
    import time as _time

    from .blocks import decode_column as _dc

    if warm:
        _dc(blob)
    t0 = _time.perf_counter()
    _dc(blob)
    return round(nbytes / max(_time.perf_counter() - t0, 1e-9) / 1e6, 1)


def _capped_runoff_verdict(
    arr: pa.Array, a: str, b: str, level: int, w: float
) -> tuple[str, dict[str, int], dict[str, float], float] | None:
    """Judge the runoff finalists on a RUNOFF_SLICE_BYTES head slice.

    Returns (winner, slice_sizes, slice_dec_mbps, margin), or None when
    the slice verdict cannot be trusted: a finalist failed to encode the
    slice (let the full runoff's failure handling decide), the margin
    sits inside RUNOFF_TIE_BAND (near-tie at reduced size — fsst's ratio
    still improves past the slice while plain's is flat, so a thin slice
    margin can invert at full size; re-run the full runoff), or the
    computed slice covers most of the payload anyway (short/mostly-null
    rows where offsets dominate nbytes: the cap would then pay ~3x one
    encode instead of the full runoff's 2x)."""
    # row count from EXACT cumulative payload lengths, not the column
    # average: a head of short rows sliced by average yields a
    # sub-window slice — precisely the regime where samples lie
    lens = pc.fill_null(pc.binary_length(arr), 0).to_numpy(zero_copy_only=False)
    cum = np.cumsum(lens, dtype=np.int64)
    rows = int(np.searchsorted(cum, RUNOFF_SLICE_BYTES, side="left")) + 1
    sl = arr.slice(0, max(16, min(rows, len(arr))))
    if sl.nbytes * RUNOFF_SLICE_ENGAGE > arr.nbytes:
        return None  # slice too close to full size for the cap to pay
    blobs: dict[str, bytes] = {}
    for name in (a, b):
        try:
            blobs[name] = encode_column(sl, name, level)
        except Exception:
            return None
    scores, speeds = _runoff_scores(blobs, max(sl.nbytes, 1), w, warm=True)
    winner = min(scores, key=scores.get)  # type: ignore[arg-type]
    loser = b if winner == a else a
    margin = (scores[loser] - scores[winner]) / max(scores[loser], 1e-12)
    if margin < RUNOFF_TIE_BAND:
        return None
    return winner, {k: len(v) for k, v in blobs.items()}, speeds, margin


def _runoff_scores(
    blobs: dict[str, bytes], nbytes: int, w: float, warm: bool
) -> tuple[dict[str, float], dict[str, float]]:
    """(score, measured decode MB/s) of each runoff finalist's blob over
    `nbytes` source bytes; the lowest score wins, the first on a tie.
    Decode speeds are only measured when `w` > 0 can weigh them."""
    ratios = {k: len(v) / nbytes for k, v in blobs.items()}
    speeds = (
        {k: _timed_decode_mbps(v, nbytes, warm) for k, v in blobs.items()}
        if w > 0 else {}
    )
    return _decode_weighted(ratios, speeds, w), speeds


def _decode_weighted(
    ratios: dict[str, float], dec_mbps: dict[str, float], w: float
) -> dict[str, float]:
    """size_ratio * (1 + w * log2(fastest_decode / this_decode)): the
    size-win-per-decode-cost score. w=0 degenerates to size-only."""
    if w <= 0 or not dec_mbps:
        return dict(ratios)
    fastest = max((dec_mbps.get(k, 0.0) for k in ratios), default=0.0)
    if fastest <= 0:
        return dict(ratios)
    out = {}
    for k, r in ratios.items():
        speed = max(dec_mbps.get(k, fastest), 1e-9)
        slowdown = max(1.0, fastest / speed)
        out[k] = r * (1.0 + w * float(np.log2(slowdown)))
    return out


def _is_nested(t: pa.DataType) -> bool:
    """A type whose values the block encoder selects per field itself."""
    return pa.types.is_struct(t) or pa.types.is_map(t) or _is_list(t)


def encode_column_auto(
    arr: pa.Array | pa.ChunkedArray,
    level: int = 3,
    sample_rows: int = SAMPLE_ROWS,
    page_rows: int | None = None,
    page_zones: bool = False,
    decode_weight: float = 0.0,
    page_blooms: bool | None = None,
    enc_cap: float | None = None,
    runoff_cache: dict | None = None,
    archive: bool = False,
) -> tuple[bytes, Choice]:
    """Select a codec on a sample, then encode the full column with it.

    List columns select the codec on the FLATTENED child values (the
    list shell is always lengths+validity, see blocks._encode_list).
    Falls back to plain if the selected codec fails on the full data
    (e.g. bitpack chosen on a non-negative sample but the tail has a
    negative value).

    `runoff_cache` (a per-column mutable dict owned by the calling
    encoder stage) is the ROADMAP #3 runoff cost model: the full-payload
    runoff's verdict is recorded there, and a later RETRIAL whose family
    finalists match and whose sample ratios sit within 15% of the cached
    trial's reuses the verdict instead of re-encoding the losing
    finalist — at steady state (retrial every N blocks on a homogeneous
    column) the double encode is paid once per stage, not once per
    retrial."""
    t = arr.type
    flat = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) and _is_nested(t) else arr

    def select(values: pa.Array) -> Choice:
        return select_codec(
            values, sample_rows=sample_rows, level=level,
            decode_weight=decode_weight, enc_cap=enc_cap, archive=archive,
        )

    def encode(codec: str) -> bytes:
        return encode_column(arr, codec, level, page_rows, page_zones, page_blooms)

    def attempt(codec: str) -> bytes | None:
        try:
            return encode(codec)
        except Exception:
            return None

    def final(codec: str, ok: Choice) -> tuple[bytes, Choice]:
        """`codec`'s full blob with lineage `ok`, or the zstd backstop's
        when `codec` cannot encode the full column."""
        blob = attempt(codec)
        if blob is not None:
            return blob, ok
        return encode("plain"), Choice(
            "plain", choice.stats, choice.trials,
            f"{codec} failed on full data; zstd backstop",
        )

    if pa.types.is_struct(t) or pa.types.is_map(t):
        # composites: select per FIELD once and return the choices as a
        # "struct:{json}" spec string — the block encoder's per-column
        # cache then re-encodes later blocks with zero trials (a cached
        # literal "auto" would re-run per-field sampling every block)
        import json as _json

        entries = flat
        if pa.types.is_map(t):
            entry = pa.struct([pa.field("key", t.key_type, nullable=False),
                               pa.field("value", t.item_type)])
            entries = pc.list_flatten(flat.cast(pa.list_(pa.field("entries", entry))))
        et = entries.type
        spec = {
            et.field(i).name: "auto" if _is_nested(et.field(i).type)
            else select(entries.field(i)).codec
            for i in range(et.num_fields)
        }
        codec_str = "struct:" + _json.dumps(spec, separators=(",", ":"))
        return encode(codec_str), Choice(
            codec_str, {"n_sample": len(arr)}, {},
            "composite: per-field selection (cacheable spec)",
        )
    if _is_list(t):
        child = pc.list_flatten(flat)
        if _is_nested(child.type):
            choice = Choice(
                "auto", {"n_sample": len(child)}, {}, "nested child: per-field auto"
            )
        else:
            choice = select(child)
            choice.reason = f"child-values selection: {choice.reason}"
    else:
        choice = select(arr)
    if not (
        is_stringlike(t)
        and arr.nbytes >= RUNOFF_PAYLOAD_BYTES
        and choice.codec.split("@")[0] in ("plain", "fsst")
    ):
        return final(choice.codec, choice)
    # sample trials INVERT beyond the zstd window (~8 MiB): fsst's
    # ~4x-denser token stream stretches the window to ~4x the source
    # text, so on multi-window blocks fsst@9 beats plain@9 even when
    # every window-sized sample says otherwise (measured: full-column
    # fsst@9 0.110 vs plain@9 0.141 on samples that all favor plain).
    # Resolve by a measured FULL-payload runoff between the two
    # family finalists; the block-level codec cache amortizes the
    # loser's encode across retrial_blocks blocks.
    opp = "fsst" if choice.codec.startswith("plain") else "plain"
    opp_rs = {k: v for k, v in choice.ratios.items() if k.split("@")[0] == opp}
    # rival = the opposite family's best candidate by SAMPLE ratio
    # (pre-prune: the 3% family gate may have dropped it from the
    # ranked set, but it stays in all_ratios — the runoff exists
    # precisely because samples lie on multi-window payloads). An
    # absent family falls back to its @9 member: the avg_len/distinct
    # shortlist gates are trial-ECONOMY heuristics the runoff is
    # designed to override. The ENCODE-COST gate is not — a rival
    # enc_cap excluded must not be re-admitted at full size (review
    # finding: that re-creates the encode-wall regression the gate
    # fixes), so skip the runoff entirely then.
    rival = min(opp_rs, key=opp_rs.get) if opp_rs else opp
    if rival == opp:  # plain/fsst at base level never beat @9 here
        rival = f"{opp}@9"
    if not opp_rs and enc_cap is not None and _enc_cost(rival) > enc_cap:
        return final(choice.codec, choice)
    pair = frozenset((choice.codec, rival))
    sr = {k: choice.ratios[k] for k in pair if k in choice.ratios}
    at_w = f" at decode_weight={decode_weight}" if decode_weight else ""

    def _remember(winner: str) -> None:
        if runoff_cache is not None and sr:
            runoff_cache.clear()
            runoff_cache.update({"pair": pair, "sr": sr, "winner": winner})

    # ROADMAP #3 runoff cost model: if a previous runoff on this
    # column judged the SAME finalist pair and the current sample
    # ratios sit within 15% of that trial's, the full-payload verdict
    # is a stable property of the column's content mix — reuse it and
    # skip re-encoding the loser.
    if runoff_cache is not None and runoff_cache.get("pair") == pair:
        cached_sr: dict = runoff_cache["sr"]
        if cached_sr and all(
            choice.ratios.get(k) is not None and abs(choice.ratios[k] - v) <= 0.15 * v
            for k, v in cached_sr.items()
        ):
            winner = runoff_cache["winner"]
            blob = attempt(winner)
            if blob is not None:
                loser = next(iter(pair - {winner}))
                return blob, replace(
                    choice, codec=winner,
                    reason=f"runoff verdict reused (cached {winner} over "
                    f"{loser}; sample ratios within 15%)",
                )
            runoff_cache.clear()  # cached winner no longer encodes
    if arr.nbytes >= RUNOFF_SLICE_ENGAGE * RUNOFF_SLICE_BYTES:
        # jumbo payload: judge the finalists on a 3-window slice and
        # encode only the winner at full size (2*slice + payload vs
        # 2*payload) — the ROADMAP #3 first-runoff cost model. The
        # tie band falls back to the full runoff, and a slice-encode
        # failure falls through to the full path's failure handling.
        verdict = _capped_runoff_verdict(arr, choice.codec, rival, level, decode_weight)
        if verdict is not None:
            winner, sizes, speeds, margin = verdict
            loser = rival if winner == choice.codec else choice.codec
            capped = replace(
                choice, codec=winner,
                trials={**choice.trials,
                        **{f"runoff_slice:{k}": v for k, v in sizes.items()}},
                reason=f"capped runoff ({RUNOFF_SLICE_BYTES >> 20}MiB slice) "
                f"chose {winner} over {loser} (margin {margin:.1%})" + at_w,
                dec_mbps={**choice.dec_mbps,
                          **{f"runoff_slice:{k}": v for k, v in speeds.items()}},
            )
            blob, out = final(winner, capped)
            if out is capped:
                _remember(winner)
            return blob, out
    # the sample's pick degrades to the zstd backstop when it fails on
    # the full payload; the rival then runs against the backstop
    blob_a, out = final(choice.codec, choice)
    blob_b = attempt(rival)
    if blob_b is not None:
        # decode-cost-aware when decode_weight > 0: the size-only
        # comparison is blind to fsst@9's decode wall, so the finalists
        # are re-judged with the trials' weighted score on MEASURED
        # full-blob decode speed (already warm-scale: one pass)
        scores, speeds = _runoff_scores(
            {out.codec: blob_a, rival: blob_b}, max(arr.nbytes, 1), decode_weight,
            warm=False,
        )
        out.dec_mbps.update({f"runoff:{k}": v for k, v in speeds.items()})
        winner = min(scores, key=scores.get)  # type: ignore[arg-type]
        # a backstop-degraded choice is not a verdict on `pair`: its
        # winner may not be a pair member, which would make the 15%
        # similarity guard vacuously true on reuse — never store it
        if out is choice:
            _remember(winner)
        if winner == rival:
            return blob_b, replace(
                out, codec=rival,
                trials={**out.trials, f"runoff:{rival}": len(blob_b),
                        f"runoff:{out.codec}": len(blob_a)},
                reason=f"full-payload runoff beat {out.codec} "
                f"({len(blob_b)} < {len(blob_a)})" + at_w,
            )
    out.trials[f"runoff:{out.codec}"] = len(blob_a)
    return blob_a, out
