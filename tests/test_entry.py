"""Driver-contract smoke tests: entry() and queries() behave as the
driver expects (Ray pre-initialised, no ray.init inside)."""

from __future__ import annotations

import pyarrow as pa
import pytest


def test_entry_runs_and_returns_rows(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    # Dataset or DataFrame accepted; must have rows and a stable schema
    if hasattr(res, "count"):
        assert res.count() == 500
        assert set(res.schema().names) == {"doc_id", "text", "lang", "source", "n_chars"}
    else:
        assert len(res) == 500


def test_queries_have_oracle_subset(ray_session):
    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()
    assert set(oracles) <= set(qs), "oracle without query"
    assert len(qs) >= 20
    assert len(oracles) >= 12


def test_sample_queries_at_sf0001(ray_session):
    import __ray_entry__ as e

    qs = e.queries()
    sf = "/root/testdata/sf0.001"
    for name in ["selector_stats_by_lang", "topk_longest_docs", "events_asof_join"]:
        res = qs[name](sf)
        t = res if isinstance(res, pa.Table) else pa.table(res.to_pandas() if hasattr(res, "to_pandas") else res)
        assert t.num_rows > 0, name


def test_touch_counter_paths_agree(ray_session):
    """bench-read parity: vectorized columnar fold == per-row fold."""
    from rayenc.__main__ import _touch_column, _touch_value

    t = pa.table(
        {
            "s": pa.array(["añ", None, "", "abc"]),
            "i": pa.array([1, -2, None, 10], type=pa.int64()),
            "f": pa.array([1.9, -2.7, None, 0.0], type=pa.float64()),
            "l": pa.array([[1, 2], None, [], [5]], type=pa.list_(pa.int64())),
        }
    )
    for name in t.column_names:
        col = t[name].combine_chunks()
        vec = _touch_column(col)
        row = sum(_touch_value(v) for v in col.to_pylist())
        assert vec == row, (name, vec, row)


def test_new_query_surface_sf0001(ray_session):
    """Regression safety for the late-round query additions."""
    import __ray_entry__ as e

    qs = e.queries()
    sf = "/root/testdata/sf0.001"
    for name, min_rows in [
        ("order_lineitem_join", 3),
        ("user_sessions", 10),
        ("pattern_scan", 1),
        ("stratified_sample", 1),
        ("topk_docs_per_lang", 5),
        ("code_token_stats", 100),
        ("events_windowed", 10),
        ("events_props_stats", 3),
        ("orders_by_region", 3),
        ("histogram_ingest", 3),
    ]:
        res = qs[name](sf)
        df = res.to_pandas() if hasattr(res, "to_pandas") else res
        assert len(df) >= min_rows, (name, len(df))


def test_touch_paths_agree_on_nonfinite_floats():
    """inf/NaN must fold identically (to 0) on the row and columnar
    paths — int(inf) raised on the row path while the columnar fold
    silently skipped non-finite values."""
    import pyarrow as pa

    from rayenc.touch import _touch_column, _touch_value

    col = pa.array([1.5, float("inf"), float("-inf"), float("nan"), None, -2.7])
    rowsum = sum(_touch_value(v) for v in col.to_pylist())
    assert rowsum == _touch_column(col) == 1 + 1 - 2


def test_cli_attaches_to_a_submitted_jobs_cluster(monkeypatch):
    """`python -m rayenc` run by `ray job submit` (which sets
    RAY_ADDRESS to the cluster) attaches to that cluster without
    claiming CPUs; run alone (RAY_ADDRESS unset or "local") it starts a
    local Ray with RAY_GRAFT_CPUS CPUs."""
    import ray

    from rayenc.__main__ import _init_ray

    calls: list[dict] = []
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    monkeypatch.setattr(ray, "init", lambda **kw: calls.append(kw))
    monkeypatch.setenv("RAY_ADDRESS", "10.0.0.7:6379")
    _init_ray()
    monkeypatch.setenv("RAY_GRAFT_CPUS", "3")
    monkeypatch.setenv("RAY_ADDRESS", "local")
    _init_ray()
    monkeypatch.delenv("RAY_ADDRESS")
    _init_ray()
    assert calls[0]["address"] == "10.0.0.7:6379" and "num_cpus" not in calls[0]
    assert [(c["address"], c["num_cpus"]) for c in calls[1:]] == [("local", 3)] * 2
