"""The committed speed records, ``BENCH_*.json`` at the root of the
repository, stay readable, and a record's claim names a metric and a
workload that ``BENCHMARK.json`` declares: an end-to-end metric, since only
those are compared between a change and its parent. A claim marked met
meets the rule it records."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _declared():
    """The end-to-end metric names and the workload names of the benchmark."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {metric["name"] for metric in benchmark["end_to_end"]},
        {workload["name"] for workload in benchmark["workloads"]},
    )


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_parses_and_claims_a_declared_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    if "claim" in record:
        metrics, workloads = _declared()
        assert record["claim"]["metric"] in metrics
        assert record["claim"]["workload"] in workloads



def _claim(path):
    return json.loads(path.read_text(encoding="utf-8")).get("claim", {})


MET = [path for path in RECORDS if _claim(path).get("met")]


@pytest.mark.parametrize("path", MET, ids=[path.name for path in MET])
def test_a_met_claim_meets_its_own_rule(path):
    """A claim marked met was won on at least nine pairs in ten and, where
    it records both medians, moved the median by more than the parent's
    interquartile range."""
    claim = _claim(path)
    assert claim["change_wins"] >= 0.9 * claim["pairs"]
    parent, change = claim.get("median_parent"), claim.get("median_change_s")
    if parent is not None and change is not None:
        assert abs(change - parent) > claim["parent_iqr"]
