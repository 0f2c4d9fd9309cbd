"""The benchmark trajectory file: its keys, from a canned run.py result.
No benchmark runs here and no timing is checked."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_point.py"

RESULT_LINE = json.dumps({
    "correct": True, "attempted": 120, "failed": 0,
    "metrics": {name: {"value": 0.01, "unit": "s"}
                for name in ("setup_s", "edit_s", "recalc_s", "report_s")}
    | {"peak_rss_mb": {"value": 30.0, "unit": "MB"}},
    "reference_ms": 6.15,
})
FIRST_WITH_DIRTY_AND_REFERENCE = 21  # BENCH_19 and BENCH_20 were written without them


def _tool():
    spec = importlib.util.spec_from_file_location("bench_point", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_keys(data, dirty_and_reference=True):
    keys = ["commit", "cpus", "python", "seconds", "seed", "workloads"]
    entry_keys = ["attempted", "correct", "failed", "metrics"]
    if dirty_and_reference:
        keys, entry_keys = keys + ["dirty"], entry_keys + ["reference_ms"]
    assert sorted(data) == sorted(keys)
    assert sorted(data["workloads"]) == ["grid", "ledger", "modules"]
    for entry in data["workloads"].values():
        assert sorted(entry) == sorted(entry_keys)
        assert sorted(entry["metrics"]) == ["edit_s", "peak_rss_mb", "recalc_s",
                                            "report_s", "setup_s"]


def test_point_keys():
    tool = _tool()
    data = tool.point("0" * 40, True, {w: json.loads(RESULT_LINE) for w in tool.WORKLOADS})
    _check_keys(data)
    assert data["dirty"] is True
    assert {e["reference_ms"] for e in data["workloads"].values()} == {6.15}
    assert json.loads(json.dumps(data)) == data


def test_committed_points_have_the_keys():
    for path in TOOL.parents[1].glob("BENCH_*.json"):
        number = int(path.stem.split("_")[1])
        _check_keys(json.loads(path.read_text(encoding="utf-8")),
                    dirty_and_reference=number >= FIRST_WITH_DIRTY_AND_REFERENCE)


def test_usage_without_a_number():
    assert _tool().main([]) == 2
