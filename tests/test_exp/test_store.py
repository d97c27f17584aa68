"""Result artifacts and the regression-compare gate."""

import json

import pytest

from repro.exp.store import (
    RESULT_SCHEMA,
    ResultStore,
    compare_results,
    load_result,
)


def artifact(series, higher_is_better=True, experiment="fig06"):
    return {
        "schema": RESULT_SCHEMA,
        "experiment": experiment,
        "metric": {"name": "speedup", "unit": "x",
                   "higher_is_better": higher_is_better},
        "series": series,
    }


def test_write_emits_results_and_bench_artifacts(tmp_path):
    store = ResultStore(results_dir=tmp_path / "results",
                        bench_dir=tmp_path)
    paths = store.write(
        "fig06", {"series": {"T=2": {"65536": 1.5}}, "sizes": [65536]},
        profile="fast", fingerprint="fp",
        metric={"name": "speedup", "unit": "x", "higher_is_better": True},
        stats={"executed": 1}, elapsed=0.5)
    assert [p.name for p in paths] == ["fig06.json", "BENCH_fig06.json"]

    full = load_result(tmp_path / "results" / "fig06.json")
    bench = load_result(tmp_path / "BENCH_fig06.json")
    for doc in (full, bench):
        assert doc["schema"] == RESULT_SCHEMA
        assert doc["experiment"] == "fig06"
        assert doc["profile"] == "fast"
        assert doc["code_fingerprint"] == "fp"
        assert doc["series"] == {"T=2": {"65536": 1.5}}
        assert doc["run"] == {"executed": 1}
        assert doc["elapsed_s"] == 0.5
    # Extra payload keys ride only in the full artifact.
    assert full["extra"] == {"sizes": [65536]}
    assert "extra" not in bench


def test_load_result_rejects_foreign_schema(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"schema": "other/v1"}), encoding="utf-8")
    with pytest.raises(ValueError, match="repro-bench/v1"):
        load_result(path)


def test_self_compare_is_clean():
    doc = artifact({"T=2": {"65536": 1.5, "262144": 2.0}})
    report = compare_results(doc, doc)
    assert report.ok
    assert report.unchanged == 2
    assert not report.regressions and not report.improvements
    assert "OK" in report.format()


def test_regression_direction_higher_is_better():
    old = artifact({"T=2": {"65536": 2.0}})
    worse = artifact({"T=2": {"65536": 1.0}})
    better = artifact({"T=2": {"65536": 4.0}})
    assert not compare_results(worse, old).ok
    report = compare_results(better, old)
    assert report.ok and len(report.improvements) == 1


def test_regression_direction_lower_is_better():
    old = artifact({"time": {"65536": 1.0}}, higher_is_better=False)
    slower = artifact({"time": {"65536": 2.0}}, higher_is_better=False)
    faster = artifact({"time": {"65536": 0.5}}, higher_is_better=False)
    assert not compare_results(slower, old).ok
    assert compare_results(faster, old).ok


def test_threshold_boundary_inclusive():
    old = artifact({"T=2": {"65536": 1.0}})
    at_threshold = artifact({"T=2": {"65536": 0.9}})
    past_threshold = artifact({"T=2": {"65536": 0.89}})
    assert compare_results(at_threshold, old, threshold=0.10).ok
    report = compare_results(past_threshold, old, threshold=0.10)
    assert len(report.regressions) == 1
    assert report.regressions[0].change == pytest.approx(-0.11)
    assert "REGRESSION" in report.format()
    assert "FAIL" in report.format()


def test_missing_series_and_keys_fail():
    old = artifact({"T=2": {"65536": 1.0, "262144": 2.0},
                    "T=8": {"65536": 1.0}})
    new = artifact({"T=2": {"65536": 1.0}})
    report = compare_results(new, old)
    assert not report.ok
    assert "T=8" in report.missing
    assert "T=2 @ 262144" in report.missing


def test_new_coverage_is_not_a_regression():
    old = artifact({"T=2": {"65536": 1.0}})
    new = artifact({"T=2": {"65536": 1.0, "262144": 2.0},
                    "T=8": {"65536": 1.0}})
    assert compare_results(new, old).ok


def test_new_coverage_is_listed_as_not_in_baseline():
    old = artifact({"T=2": {"65536": 1.0}})
    new = artifact({"T=2": {"65536": 1.0, "262144": 2.0},
                    "T=8": {"65536": 1.0}})
    report = compare_results(new, old)
    assert report.ok
    assert report.new_only == ["T=8", "T=2 @ 262144"]
    text = report.format()
    assert "T=8 (not in baseline)" in text
    assert "T=2 @ 262144 (not in baseline)" in text
    assert text.endswith("OK")
    assert compare_results(old, old).new_only == []


def test_scalar_series_values_compare():
    old = artifact({"early fraction": 0.5})
    worse = artifact({"early fraction": 0.2})
    assert compare_results(old, old).ok
    assert not compare_results(worse, old).ok
