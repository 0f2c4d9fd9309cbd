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
})


def _tool():
    spec = importlib.util.spec_from_file_location("bench_point", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_keys(data):
    assert sorted(data) == ["commit", "cpus", "python", "seconds", "seed", "workloads"]
    assert sorted(data["workloads"]) == ["grid", "ledger", "modules"]
    for entry in data["workloads"].values():
        assert sorted(entry) == ["attempted", "correct", "failed", "metrics"]
        assert sorted(entry["metrics"]) == ["edit_s", "peak_rss_mb", "recalc_s",
                                            "report_s", "setup_s"]


def test_point_keys():
    tool = _tool()
    data = tool.point("0" * 40, {w: json.loads(RESULT_LINE) for w in tool.WORKLOADS})
    _check_keys(data)
    assert json.loads(json.dumps(data)) == data


def test_committed_points_have_the_keys():
    for path in TOOL.parents[1].glob("BENCH_*.json"):
        _check_keys(json.loads(path.read_text(encoding="utf-8")))


def test_usage_without_a_number():
    assert _tool().main([]) == 2
