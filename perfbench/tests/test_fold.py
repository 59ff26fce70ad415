"""Span fold: self time, cross-process parenting and per-layer totals on
hand-built spans (times in nanoseconds, as the recorder writes them).

Run with ``python -m pytest perfbench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import fold, trace
from perfbench.run import tail

S = 1_000_000_000  # one second in ns
MAIN = 1


def span(sid, name, start, end, parent=None, pid=MAIN, key=None, nbytes=0):
    return {"n": name, "k": key, "s": start * S, "e": end * S, "id": sid,
            "p": parent, "pid": pid, "b": nbytes}


def test_union_length():
    assert fold.union_length([]) == 0
    assert fold.union_length([(0, 2), (5, 7)]) == 4
    assert fold.union_length([(0, 4), (2, 6)]) == 6
    assert fold.union_length([(0, 10), (2, 3), (4, 5)]) == 10
    assert fold.union_length([(5, 7), (0, 2), (6, 9)]) == 6


def test_self_time_nested():
    spans = [span("a", "p", 0, 10), span("b", "c", 2, 5, "a"),
             span("c", "g", 3, 4, "b")]
    st = fold.self_times(spans)
    assert st == pytest.approx({"a": 7.0, "b": 2.0, "c": 1.0})
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_siblings():
    spans = [span("a", "p", 0, 10), span("b", "c", 1, 3, "a"),
             span("c", "c", 5, 8, "a")]
    assert fold.self_times(spans)["a"] == pytest.approx(5.0)


def test_self_time_overlapping_children_use_the_union():
    spans = [span("a", "p", 0, 10), span("b", "c", 1, 4, "a"),
             span("c", "c", 2, 6, "a")]
    assert fold.self_times(spans)["a"] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span("a", "p", 0, 10), span("b", "c", 8, 12, "a")]
    assert fold.self_times(spans)["a"] == pytest.approx(8.0)


def test_link_orphans_picks_the_innermost_open_main_span():
    spans = [
        span("op", "op.verify", 0, 100),
        span("v", "verify.verify_blocks", 10, 50, "op"),
        span("w1", "rowhash.chain_hash", 20, 30, pid=7),
        span("w2", "blocks.decode_column", 60, 70, pid=7),
        span("w3", "blocks.decode_column", 21, 22, "w1", pid=7),
    ]
    linked = {s["id"]: s["p"] for s in fold.link_orphans(spans, MAIN)}
    assert linked == {"op": None, "v": "op", "w1": "v", "w2": "op", "w3": "w1"}
    assert spans[2]["p"] is None  # inputs are not modified


def test_untraced_is_the_op_wall_minus_the_union_of_all_spans():
    spans = [
        span("op", "op.encode", 0, 10),
        span("x", "encode.encode_table", 1, 4, pid=7),
        span("y", "encode.encode_table", 3, 6, pid=8),
        span("z", "bloom.bloom_build", 2, 3, "x", pid=7),
    ]
    m = fold.fold(spans, MAIN)
    assert m["raydata.untraced_s"] == pytest.approx(5.0)
    assert m["encode.table_self_s"] == pytest.approx(5.0)
    assert m["bloom.build_s"] == pytest.approx(1.0)
    assert m["encode.blocks"] == 2
    # two actors in parallel: self times cover more than the wall
    assert m["trace.self_over_wall"] == pytest.approx(11 / 10)


def test_spans_outside_operations_are_ignored():
    spans = [span("op", "op.decode", 0, 10),
             span("x", "blocks.decode_column", 20, 25, pid=7, key="fsst", nbytes=10**6)]
    m = fold.fold(spans, MAIN)
    assert m["blocks.decode_s.fsst"] == 0
    assert m["raydata.untraced_s"] == pytest.approx(10.0)


def test_pool_busy_fraction_counts_started_actors():
    spans = [
        span("op", "op.encode", 0, 10),
        span("i1", "jobs.PartitionEncoder.__init__", 0.5, 1, pid=7),
        span("i2", "jobs.PartitionEncoder.__init__", 0.5, 1, pid=8),
        span("c1", "jobs.PartitionEncoder.__call__", 1, 5, pid=7),
        span("c2", "jobs.PartitionEncoder.__call__", 2, 4, pid=8),
    ]
    assert fold.fold(spans, MAIN)["jobs.pool_busy_frac"] == pytest.approx(0.3)


def test_codec_times_rates_and_selector_waste():
    spans = [
        span("op", "op.encode", 0, 10),
        span("t", "encode.encode_table", 0, 6, pid=7),
        span("a", "selector.encode_column_auto", 0, 4, "t", pid=7, nbytes=100),
        span("t1", "selector.encode_column", 0, 1, "a", pid=7, key="fsst", nbytes=40),
        span("t2", "selector.encode_column", 1, 2, "a", pid=7, key="plain", nbytes=60),
        span("f", "selector.encode_column", 2, 4, "a", pid=7, key="fsst", nbytes=100),
        span("c", "blocks.encode_column", 4, 5, "t", pid=7, key="dict", nbytes=2 * 10**6),
    ]
    m = fold.fold(spans, MAIN)
    assert m["selector.trials"] == 3
    assert m["selector.trial_encode_s"] == pytest.approx(4.0)
    assert m["selector.self_s"] == pytest.approx(0.0)
    assert m["selector.trial_waste"] == pytest.approx(100 / (100 + 2 * 10**6))
    assert m["blocks.encode_s.fsst"] == pytest.approx(3.0)
    assert m["blocks.encode_mbps.dict"] == pytest.approx(2.0)
    assert m["encode.table_self_s"] == pytest.approx(1.0)


def test_dml_blocks_decoded_counts_decodes_under_dml_actors_only():
    spans = [
        span("op", "op.update", 0, 10),
        span("u", "jobs.PartitionUpdater.__call__", 1, 9, pid=7),
        span("d", "decode.BlockDecoder.__call__", 2, 3, "u", pid=7),
        span("c1", "blocks.decode_column", 2, 2.5, "d", pid=7, key="dict"),
        span("c2", "blocks.decode_column", 2.5, 3, "d", pid=7, key="fsst"),
        span("c3", "blocks.decode_column", 4, 5, pid=8, key="fsst"),
    ]
    m = fold.fold(spans, MAIN)
    assert m["jobs.dml_blocks_decoded"] == 2
    assert m["decode.decoder_self_s"] == pytest.approx(0.0)


def test_recorder_nests_spans_and_flushes_at_the_outermost_call(tmp_path):
    rec = trace.Recorder(str(tmp_path), flush_each_call=True)

    def inner(x):
        return x + 1

    def outer(x):
        return rec.call("inner", inner, (x,), {}) * 2

    assert rec.call("outer", outer, (1,), {}) == 4  # tracing off: no spans
    assert trace.load_spans(str(tmp_path)) == []
    rec.set_enabled(True)
    assert rec.call("outer", outer, (1,), {}) == 4
    rec.set_enabled(False)
    spans = {s["n"]: s for s in trace.load_spans(str(tmp_path))}
    assert set(spans) == {"inner", "outer"}
    assert spans["inner"]["p"] == spans["outer"]["id"]
    assert spans["outer"]["s"] <= spans["inner"]["s"] <= spans["inner"]["e"] <= spans["outer"]["e"]
    assert rec.spans == []


def test_tail_keeps_ten_samples_above_it():
    xs = list(range(1, 21))  # 20 samples
    assert tail(xs) == (10, 50.0)
    assert tail(list(range(1, 12))) == (1, 100 / 11)


def test_benchmark_json_lists_every_per_layer_metric():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert listed == fold.PER_LAYER
    assert {w["name"] for w in doc["workloads"]} == {"ingest", "scan"}
    assert "setup_s" in {m["name"] for m in doc["end_to_end"]}
