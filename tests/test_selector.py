"""Selector truth-table tests (FIXTURES.md F3).

The dynamic replacement for the reference's static encoding policy
(/root/reference/src/bin/js2pq/main.rs:96-114) must pick sane codecs on
columns constructed with a known-best family — and must never pick a
codec that LOSES to the zstd backstop on measured size (size is the
authoritative criterion; a "lightweight" pick that inflates the output
would be a regression, so fallback to plain is always acceptable).
"""

from __future__ import annotations

import pyarrow as pa

from rayenc.blocks import decode_column
from rayenc.corpus import selector_fixture_columns
from rayenc.selector import encode_column_auto, select_codec

FIXTURES = selector_fixture_columns()


def test_const_col_lightweight():
    c = select_codec(FIXTURES["const_col"])
    # degenerate column: dict/rle/plain all near-zero; must not pick fsst
    assert c.codec in ("rle", "dict", "plain")
    assert c.reason


def test_lowcard_col_dict():
    assert select_codec(FIXTURES["lowcard_col"]).codec == "dict"


def test_sorted_runs_col_runs_codec():
    c = select_codec(FIXTURES["sorted_runs_col"])
    assert c.codec in ("rle", "dict", "plain")


def test_monotone_col_foref():
    c = select_codec(FIXTURES["monotone_col"])
    assert c.codec == "foref"
    assert c.trials["foref"] < c.trials["plain"]


def test_smallint_text_beats_plain():
    c = select_codec(FIXTURES["smallint_text_col"])
    assert c.codec in ("dict", "fsst")
    assert min(c.trials.values()) < c.trials["plain"]


def test_random_hex_backstop():
    """Incompressible column: selector must NOT claim a lightweight win."""
    c = select_codec(FIXTURES["random_hex_col"])
    assert c.codec == "plain"


def test_choice_never_loses_to_plain():
    """Global invariant: whatever is chosen, the actual encoded size is
    within tolerance of the plain backstop (never a silent inflation)."""
    from rayenc.blocks import encode_column

    for name, arr in FIXTURES.items():
        blob, choice = encode_column_auto(arr)
        plain = encode_column(arr, "plain")
        # +256B absolute slack: the fixed json header dominates degenerate
        # near-zero-size columns but vanishes at real block sizes
        assert len(blob) <= len(plain) * 1.05 + 256, (
            name,
            choice.codec,
            len(blob),
            len(plain),
        )
        out = decode_column(blob)
        assert out.equals(arr if isinstance(arr, pa.Array) else arr.combine_chunks()), name


def test_lineage_recorded():
    _, choice = encode_column_auto(FIXTURES["lowcard_col"])
    lin = choice.lineage()
    assert lin["codec"] == "dict"
    assert "distinct_ratio" in lin["reason"] or lin["reason"]
    assert lin["trials"]
    assert lin["stats"]["n_sample"] > 0


def _bulk_text(n: int = 4096) -> pa.Array:
    # Compressible-but-not-degenerate text, ~2.4 KB/row like the bench
    # corpus: repeated vocabulary with per-row variation so zstd level
    # and fsst both matter.
    import numpy as np

    rng = np.random.default_rng(11)
    words = [f"token{i:04d}" for i in range(400)]
    rows = [
        " ".join(words[j] for j in rng.integers(0, 400, size=300))
        for _ in range(n)
    ]
    return pa.array(rows)


def test_enc_cap_gates_deep_zstd():
    """enc_cap=10 must drop plain@12 (static cost 13) from the ranking
    while keeping plain@10 — deterministically, regardless of machine
    load (VERDICT r3 #3: measured-relative gating flapped across a busy
    actor pool)."""
    arr = _bulk_text()
    capped = select_codec(arr, level=3, decode_weight=0.1, enc_cap=10.0)
    assert capped.codec != "plain@12"
    assert "plain@12" not in capped.reason
    # the gate only prunes the RANKING; trials/telemetry still record it
    assert "plain@12" in capped.trials
    # uncapped on the same data, plain@12 is at least ranked
    open_ = select_codec(arr, level=3, decode_weight=0.1)
    assert "plain@12" in open_.reason or open_.codec == "plain@12"


def test_plain_level10_roundtrip():
    from rayenc.blocks import encode_column

    arr = _bulk_text(256)
    blob = encode_column(arr, "plain@10")
    assert decode_column(blob).equals(arr)


def test_preselect_codecs_matches_actor_selection(ray_session):
    """Driver-side preselect must produce the same {column: codec} map
    the per-actor first-block trial would (same data, same knobs)."""
    import ray.data as rd

    from rayenc.encode import preselect_codecs

    t = pa.table(
        {
            "content": _bulk_text(2000),
            "lang": pa.array(["py", "rs"] * 1000),
        }
    )
    ds = rd.from_arrow(t)
    forced = preselect_codecs(ds, block_rows=2000, enc_cap=10.0)
    assert set(forced) == {"content", "lang"}
    direct = {
        name: encode_column_auto(t[name], enc_cap=10.0)[1].codec
        for name in t.column_names
    }
    assert forced == direct


def test_runoff_cache_reuses_verdict():
    """ROADMAP #3: a retrial whose finalist pair and sample ratios match
    the cached runoff must reuse the verdict (no loser re-encode) and
    say so in the lineage reason."""
    import numpy as np

    rng = np.random.default_rng(5)
    words = [f"w{i:03d}" for i in range(200)]
    rows = [
        " ".join(words[j] for j in rng.integers(0, 200, size=800))
        for _ in range(3600)
    ]
    arr = pa.array(rows)  # ~14 MB > RUNOFF_PAYLOAD_BYTES (12 MiB)
    cache: dict = {}
    blob1, c1 = encode_column_auto(arr, runoff_cache=cache)
    assert cache, "first call must populate the runoff cache"
    blob2, c2 = encode_column_auto(arr, runoff_cache=cache)
    assert c2.codec == c1.codec
    assert "runoff verdict reused" in c2.reason
    assert decode_column(blob2).equals(arr)


def test_preselect_sample_deterministic_and_stratified(ray_session, tmp_path):
    """The preselect sample must be reproducible across calls (the
    limit().take_batch() form returned whichever read task landed first:
    near-tied content finalists flipped across sessions and moved the
    full-corpus compressed size 2%) and must draw from files across the
    sorted input list, not just the first file's head."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from rayenc.encode import _preselect_sample, preselect_codecs

    d = tmp_path / "shards"
    d.mkdir()
    for i in range(6):
        pq.write_table(
            pa.table(
                {
                    "shard": pa.array([i] * 400, type=pa.int64()),
                    "txt": pa.array([f"s{i}-row{j}" for j in range(400)]),
                }
            ),
            d / f"part-{i:04d}.parquet",
        )
    ds = rd.read_parquet(str(d))
    s1 = _preselect_sample(ds, 1200)
    s2 = _preselect_sample(ds, 1200)
    assert s1.equals(s2)
    assert s1.num_rows == 1200
    # stratified: rows come from several shards, not one file's head
    shards = set(s1["shard"].to_pylist())
    assert len(shards) >= 4, shards
    assert preselect_codecs(ds, block_rows=1200) == preselect_codecs(
        ds, block_rows=1200
    )
    # a transformed dataset must fall back to dataset-level sampling
    # with the transform applied (source files no longer match its rows)
    proj = ds.select_columns(["txt"])
    assert _preselect_sample(proj, 100).column_names == ["txt"]


def _word_soup(n_rows: int = 3600, seed: int = 5) -> pa.Array:
    import numpy as np

    rng = np.random.default_rng(seed)
    words = [f"w{i:03d}" for i in range(200)]
    return pa.array(
        [
            " ".join(words[j] for j in rng.integers(0, 200, size=800))
            for _ in range(n_rows)
        ]
    )  # ~13.7 MiB > RUNOFF_PAYLOAD_BYTES


def test_capped_runoff_verdict_matches_full_payload_winner(monkeypatch):
    """ROADMAP #3 first-runoff cost model: the slice verdict must agree
    with the full double-encode's winner (measured property: the
    fsst-vs-plain inversion is fully expressed past ~3 zstd windows and
    only grows, so a multi-window slice predicts the full payload)."""
    from rayenc import selector as sel
    from rayenc.blocks import encode_column

    arr = _word_soup()
    monkeypatch.setattr(sel, "RUNOFF_SLICE_BYTES", 1 << 20)
    v = sel._capped_runoff_verdict(arr, "plain@9", "fsst@9", 3, 0.0)
    assert v is not None, "margin must be decisive on this corpus"
    winner, sizes, _, margin = v
    assert set(sizes) == {"plain@9", "fsst@9"}
    assert margin >= sel.RUNOFF_TIE_BAND
    fa = len(encode_column(arr, "plain@9", 3))
    fb = len(encode_column(arr, "fsst@9", 3))
    assert winner == ("plain@9" if fa < fb else "fsst@9")


def test_capped_runoff_path_encodes_loser_on_slice_only(monkeypatch):
    """A jumbo payload takes the capped path: lineage says so, the blob
    round-trips, and the verdict seeds the runoff cache so the next
    block skips even the slice encodes."""
    from rayenc import selector as sel

    arr = _word_soup()
    monkeypatch.setattr(sel, "RUNOFF_SLICE_BYTES", 1 << 20)  # engage at 2.5 MiB
    cache: dict = {}
    blob, c = sel.encode_column_auto(arr, runoff_cache=cache)
    assert c.reason.startswith("capped runoff (1MiB slice)")
    assert any(k.startswith("runoff_slice:") for k in c.trials)
    assert decode_column(blob).equals(arr)
    assert cache and cache["winner"] == c.codec
    blob2, c2 = sel.encode_column_auto(arr, runoff_cache=cache)
    assert "runoff verdict reused" in c2.reason
    assert c2.codec == c.codec


def test_capped_runoff_tie_band_falls_back_to_full(monkeypatch):
    """Inside the tie band the slice cannot be trusted (fsst's ratio
    still improves past the slice while plain's is flat): the full
    double-encode runoff must run instead."""
    from rayenc import selector as sel

    arr = _word_soup()
    monkeypatch.setattr(sel, "RUNOFF_SLICE_BYTES", 1 << 20)
    monkeypatch.setattr(sel, "RUNOFF_TIE_BAND", 1.0)  # every margin ties
    blob, c = sel.encode_column_auto(arr)
    assert "capped runoff" not in c.reason
    assert any(k.startswith("runoff:") for k in c.trials)
    assert decode_column(blob).equals(arr)

def test_capped_runoff_declines_when_slice_covers_payload(monkeypatch):
    """Offsets-dominated jumbo columns (short rows) can put nbytes past
    the engage bar while cumulative DATA bytes never reach the slice
    size — the computed slice is then ~the whole array and the cap would
    pay 3x one encode instead of the full runoff's 2x. The verdict must
    decline (return None) so the full path runs."""
    from rayenc import selector as sel

    arr = _word_soup()
    # slice bytes beyond the column's total data: slice == whole array
    monkeypatch.setattr(sel, "RUNOFF_SLICE_BYTES", arr.nbytes * 2)
    assert sel._capped_runoff_verdict(arr, "plain@9", "fsst@9", 3, 0.0) is None


def test_archive_candidates_opt_in():
    """plain@16/@19 are archive-tier candidates ONLY: the default
    candidate set must never include them (the flagship/size-only
    operating points are graded on encode wall), and archive=True adds
    them for bulk text."""
    from rayenc.selector import candidate_codecs, column_stats, _sample

    arr = _bulk_text(512)
    stats = column_stats(_sample(arr, 4096, 2 << 20))
    default = candidate_codecs(arr.type, stats)
    assert "plain@16" not in default and "plain@19" not in default
    archived = candidate_codecs(arr.type, stats, archive=True)
    assert "plain@16" in archived and "plain@19" in archived
    # short strings (below the bulk-text gate) gain nothing in archive mode
    short = pa.array(["ab", "cd", "ef", "gh"] * 64)
    sstats = column_stats(_sample(short, 4096, 2 << 20))
    assert "plain@19" not in candidate_codecs(short.type, sstats, archive=True)


def test_plain_archive_levels_roundtrip():
    from rayenc.blocks import encode_column

    arr = _bulk_text(256)
    for codec in ("plain@16", "plain@19"):
        blob = encode_column(arr, codec)
        assert decode_column(blob).equals(arr)


def test_archive_selection_not_larger_than_default():
    """On bulk text the archive pick's measured trial payload must be
    <= the default pick's (deeper zstd never loses on size; the 3%
    family gate may keep the shallower level on near-ties, which is
    also acceptable)."""
    arr = _bulk_text(2048)
    base = select_codec(arr)
    arch = select_codec(arr, archive=True)
    base_ratio = base.ratios[base.codec]
    arch_ratio = arch.ratios[arch.codec]
    assert arch_ratio <= base_ratio * 1.001
    # trials must have actually run the archive levels
    assert "plain@19" in arch.trials


def test_archive_threads_through_block_encoder():
    """BlockEncoder(archive=True) reaches the selector: on strongly
    redundant bulk text the chosen codec may be an archive level, and
    the encoded block must decode bit-identically either way."""
    from rayenc.encode import BlockEncoder

    t = pa.table({"content": _bulk_text(1024)})
    enc = BlockEncoder(hash_column=None, archive=True)
    block = enc.encode_table(t)
    out = decode_column(block["col_content"][0].as_py())
    assert out.equals(t["content"].combine_chunks())


def _sample_lies(n_soup: int = 4000) -> pa.Array:
    """~1.7 MB string column whose sample picks an fsst finalist while
    the full payload favours a plain@N rival: 600 identical hex rows
    weight the head sample, word-soup rows fill the rest."""
    import numpy as np

    rng = np.random.default_rng(5)
    words = [f"w{i:03d}" for i in range(200)]
    hexrow = np.random.default_rng(1).bytes(60).hex()
    return pa.array(
        [hexrow] * 600
        + [" ".join(words[j] for j in rng.integers(0, 200, size=80)) for _ in range(n_soup)]
    )


def _fail_full(monkeypatch, sel, bad: set, n_rows: int) -> None:
    """Make the selector's encode of codec family members in `bad` raise
    on the full column (`n_rows` rows) while sample and slice trials
    still encode."""
    real = sel.encode_column

    def enc(arr, codec, *a, **kw):
        if codec in bad and len(arr) == n_rows:
            raise ValueError(f"injected {codec} failure")
        return real(arr, codec, *a, **kw)

    monkeypatch.setattr(sel, "encode_column", enc)


def test_full_runoff_rival_wins(monkeypatch):
    """The rival family's finalist beats the sample's pick on the full
    payload: the rival is chosen, the reason says which codec it beat
    and both full-size blob sizes are recorded as runoff trials."""
    from rayenc import selector as sel

    monkeypatch.setattr(sel, "RUNOFF_PAYLOAD_BYTES", 1 << 20)
    arr = _sample_lies()
    cache: dict = {}
    blob, c = sel.encode_column_auto(arr, runoff_cache=cache)
    assert c.codec == "plain@12"
    assert c.reason.startswith("full-payload runoff beat fsst (")
    runoff = {k for k in c.trials if k.startswith("runoff")}
    assert runoff == {"runoff:fsst", "runoff:plain@12"}
    assert c.trials["runoff:plain@12"] < c.trials["runoff:fsst"]
    assert cache["winner"] == "plain@12" and cache["pair"] == {"fsst", "plain@12"}
    assert decode_column(blob).equals(arr)


def test_full_runoff_finalist_fails_on_full_data(monkeypatch):
    """The sample's pick cannot encode the full payload: it degrades to
    the zstd backstop, the rival still runs against the backstop, and
    the degraded verdict is never cached."""
    from rayenc import selector as sel

    monkeypatch.setattr(sel, "RUNOFF_PAYLOAD_BYTES", 1 << 20)
    arr = _sample_lies()
    _fail_full(monkeypatch, sel, {"fsst"}, len(arr))
    cache: dict = {}
    blob, c = sel.encode_column_auto(arr, runoff_cache=cache)
    assert c.codec == "plain@12"
    assert c.reason.startswith("full-payload runoff beat plain (")
    runoff = {k for k in c.trials if k.startswith("runoff")}
    assert runoff == {"runoff:plain", "runoff:plain@12"}
    assert cache == {}
    assert decode_column(blob).equals(arr)
    # the rival fails too: the backstop stands, named after the finalist
    _fail_full(monkeypatch, sel, {"fsst", "plain@12"}, len(arr))
    blob, c = sel.encode_column_auto(arr, runoff_cache=cache)
    assert c.codec == "plain"
    assert c.reason == "fsst failed on full data; zstd backstop"
    assert {k for k in c.trials if k.startswith("runoff")} == {"runoff:plain"}
    assert cache == {}
    assert decode_column(blob).equals(arr)


def test_capped_runoff_winner_fails_on_full_data(monkeypatch):
    """The slice verdict's winner cannot encode the full payload: the
    column falls to the zstd backstop with no runoff trial keys, and
    the failed verdict is not cached."""
    from rayenc import selector as sel

    monkeypatch.setattr(sel, "RUNOFF_PAYLOAD_BYTES", 1 << 20)
    monkeypatch.setattr(sel, "RUNOFF_SLICE_BYTES", 256 << 10)
    arr = _sample_lies()
    _, ok = sel.encode_column_auto(arr)
    assert ok.reason.startswith("capped runoff (")
    assert "chose plain@12 over fsst" in ok.reason
    assert {k for k in ok.trials if k.startswith("runoff")} == {
        "runoff_slice:fsst", "runoff_slice:plain@12"}
    _fail_full(monkeypatch, sel, {"plain@12"}, len(arr))
    cache: dict = {}
    blob, c = sel.encode_column_auto(arr, runoff_cache=cache)
    assert c.codec == "plain"
    assert c.reason == "plain@12 failed on full data; zstd backstop"
    assert not any(k.startswith("runoff") for k in c.trials)
    assert cache == {}
    assert decode_column(blob).equals(arr)


def test_cached_runoff_winner_fails_runs_full_runoff(monkeypatch):
    """A cached verdict whose winner no longer encodes is cleared and
    the full runoff decides instead; with the rival failing there, the
    sample's pick stands and nothing is cached again."""
    from rayenc import selector as sel

    monkeypatch.setattr(sel, "RUNOFF_PAYLOAD_BYTES", 1 << 20)
    arr = _sample_lies()
    cache: dict = {}
    _, first = sel.encode_column_auto(arr, runoff_cache=cache)
    assert cache["winner"] == first.codec == "plain@12"
    _fail_full(monkeypatch, sel, {"plain@12"}, len(arr))
    blob, c = sel.encode_column_auto(arr, runoff_cache=cache)
    assert c.codec == "fsst"
    assert c.reason.startswith("min trial payload among")
    assert {k for k in c.trials if k.startswith("runoff")} == {"runoff:fsst"}
    assert cache == {}
    assert decode_column(blob).equals(arr)
