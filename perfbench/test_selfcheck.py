"""Self-check of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_selfcheck.py

Runs both workloads end to end, untraced and traced, at ``--size tiny``
(``users_per_group`` 30, 2 folds) and asserts that every metric BENCHMARK.json
names is emitted with its unit. It also checks BENCHMARK.json against the
limits the benchmark file format sets, and the tracer's bookkeeping.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import PER_LAYER, WORKLOADS  # noqa: E402
from workloads import SIZES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout, check=False)


def test_benchmark_json_matches_format_and_catalog():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][1] == "perfbench/run.py" and SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [
        w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher") and 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    # Every per-layer metric has its layer -> stage -> workload entry in the catalog.
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for name, size in SIZES["full"].items():
        recorded = WORKLOADS[name]["size"]
        assert recorded["users_per_group"] == size["users_per_group"]
        assert recorded.get("outer_folds", size.get("folds")) == size.get("folds")


@pytest.mark.parametrize("workload", ["portfolio_gt", "selector_cv"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                "--size", "tiny")
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    printed = "\n".join(lines[:-1])
    assert "metric error_rate 0 fraction" in printed
    if trace == "0":
        stages = {"portfolio_gt": ("groundtruth_s", "features_s"),
                  "selector_cv": ("evaluate_s", "importance_s")}[workload]
        for name in stages + ("setup_s", "peak_rss_mb"):
            assert re.search(rf"^metric {name}\b.* (s|MB)$", printed, re.M), name
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("--workload", "portfolio_gt", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_children_and_parents_are_recorded():
    from tracing import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    ids = {s[0]: s for s in tracer.spans}
    assert [s[1] for s in tracer.spans] == [None, 0, 0]
    outer = ids[0][4] - ids[0][3]
    inner = sum(s[4] - s[3] for s in tracer.spans[1:])
    totals = tracer.self_times()
    assert totals["inner"] == pytest.approx(inner)
    assert totals["outer"] == pytest.approx(outer - inner)


def test_missing_hook_target_is_reported_not_fatal(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    gone = ("recselect.experiment", "no_such_callable", tracing._span("x"), ["experiment.hpo_s"])
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + [gone])
    import recselect.experiment as experiment

    original = experiment.fit_gbdt
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    try:
        assert experiment.fit_gbdt is not original
        assert tracer.missing == {"experiment.hpo_s"}
        assert "experiment.hpo_s" not in tracing.layer_metrics(tracer)
    finally:
        hooks.restore()
    assert experiment.fit_gbdt is original


def test_hook_on_a_changed_signature_runs_the_call_untraced(monkeypatch):
    import types

    import tracing

    module = types.ModuleType("renamed_module")
    module.train = lambda algorithm, matrix: (algorithm, matrix)  # parameter renamed
    monkeypatch.setitem(sys.modules, "renamed_module", module)
    hook = ("renamed_module", "train",
            tracing._span(lambda a: f"recommenders.{a['algorithm_id']}.train"), ["renamed.train_s"])
    monkeypatch.setattr(tracing, "HOOKS", [hook])
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    try:
        assert module.train("ease", 1) == ("ease", 1)
    finally:
        hooks.restore()
    assert tracer.spans == [] and tracer.missing == {"renamed.train_s"}
