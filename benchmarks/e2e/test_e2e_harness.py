"""The harness's own tests: ``python -m pytest benchmarks/e2e -q``.

Everything that runs a workload uses ``--smoke`` (64-server fleets).
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import compare  # noqa: E402
import metrics  # noqa: E402
import run as runner  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- span arithmetic ------------------------------------------------------------


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("netsim.probe", lambda: _spin(0.004))

    def middle_body():
        _spin(0.002)
        leaf()
        leaf()

    middle = tracer.wrap("netsim.probe_many", middle_body)

    def top_body():
        _spin(0.001)
        middle()

    top = tracer.wrap("autopilot.run_for", top_body)
    top()
    tracer.cut("measured", "step-0")
    top()
    tracer.cut("measured", "step-1")

    totals = tracer.totals("measured")
    assert totals["netsim.probe"]["calls"] == 4
    assert totals["netsim.probe"]["self_s"] == pytest.approx(0.016, rel=0.2)
    assert totals["netsim.probe_many"]["self_s"] == pytest.approx(0.004, rel=0.3)
    assert totals["autopilot.run_for"]["self_s"] == pytest.approx(0.002, rel=0.5)
    # A parent's total covers its children; self times add up to the wall.
    assert totals["netsim.probe_many"]["total_s"] == pytest.approx(
        totals["netsim.probe_many"]["self_s"] + totals["netsim.probe"]["total_s"]
    )
    root_total = totals[tracing.ROOT]["total_s"]
    assert sum(entry["self_s"] for entry in totals.values()) == pytest.approx(root_total)
    # Rows carry their parent and their step.
    rows = list(tracer.rows())
    assert {(row[1], row[2], row[3]) for row in rows if row[2] == "netsim.probe"} == {
        ("step-0", "netsim.probe", "netsim.probe_many"),
        ("step-1", "netsim.probe", "netsim.probe_many"),
    }
    assert tracer.by_parent("netsim.probe", "netsim.probe_many")["calls"] == 4
    assert tracer.by_parent("netsim.probe", "autopilot.run_for")["calls"] == 0


def test_generator_spans_time_the_producer_not_the_consumer():
    tracer = tracing.Tracer()

    def produce():
        for _ in range(3):
            _spin(0.002)
            yield "row"

    scan = tracer.wrap_generator("cosmos.scan", produce, units=lambda item: 1)

    def consume():
        for _row in scan():
            _spin(0.003)

    tracer.wrap("dsa.job_10min", consume)()
    tracer.cut("measured", "step-0")
    totals = tracer.totals()
    assert totals["cosmos.scan"]["calls"] == 1
    assert totals["cosmos.scan"]["units"] == 3
    assert totals["cosmos.scan"]["self_s"] == pytest.approx(0.006, rel=0.3)
    assert totals["dsa.job_10min"]["self_s"] == pytest.approx(0.009, rel=0.3)


def test_units_and_exceptions():
    tracer = tracing.Tracer()
    counted = tracer.wrap("netsim.probe_many", lambda n: list(range(n)), units=len)
    counted(5)
    counted(7)

    def boom():
        raise ValueError("x")

    failing = tracer.wrap("netsim.probe", boom)
    with pytest.raises(ValueError):
        failing()
    tracer.cut("measured", "s")
    totals = tracer.totals()
    assert totals["netsim.probe_many"]["units"] == 12
    assert totals["netsim.probe"]["calls"] == 1  # the span closed despite the raise
    assert len(tracer._open) == 1 and len(tracer._child_s) == 1


# -- wrapping and restoring -----------------------------------------------------


def _originals():
    found = []
    for _name, target, _flavour, _units in tracing.SPAN_MAP + (
        (None, tracing.BYTES_HOOK[1], None, None),
    ):
        owner, attr = tracing._resolve(target)
        found.append((owner, attr, vars(owner)[attr]))
    return found


def test_every_wrapped_attribute_is_restored_after_a_traced_run(capsys):
    from repro.netsim.fabric import Fabric

    before = _originals()
    original = Fabric.run_class_plan
    assert worker.main(["--workload", "class-4k-steady", "--smoke", "--trace", "1"]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["per_layer"]["netsim.run_class_plan.calls"] > 0
    assert Fabric.run_class_plan is original
    for (owner, attr, raw), (_o, _a, now) in zip(before, _originals()):
        assert now is raw, f"{owner.__name__}.{attr} was not restored"


def test_install_replaces_and_uninstall_restores_in_reverse():
    before = _originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr, raw), (_o, _a, now) in zip(before, _originals()):
            assert now is not raw, f"{owner.__name__}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for (_owner, _attr, raw), (_o, _a, now) in zip(before, _originals()):
        assert now is raw
    assert tracer.span_cost_s > 0


# -- names, limits and BENCHMARK.json -------------------------------------------


def test_names_units_and_limits():
    workloads = list(WORKLOADS)
    end_to_end = [name for name, *_ in metrics.END_TO_END]
    per_layer = [name for name, *_ in metrics.PER_LAYER]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    every = workloads + end_to_end + per_layer
    assert len(set(every)) == len(every)
    for name in every:
        assert NAME.fullmatch(name), name
    for _name, unit, better, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")
    for _name, _unit, _better, bound in metrics.END_TO_END:
        assert 0 < bound <= 0.25
    assert ("setup_s", "s", "lower") == metrics.END_TO_END[0][:3]
    assert metrics.END_TO_END[0][3] == max(bound for *_, bound in metrics.END_TO_END)
    for cls in WORKLOADS.values():
        assert 0 < len(cls.why) <= 200 and "\n" not in cls.why


def test_benchmark_json_lists_exactly_these_names():
    spec = runner.load_benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (cls.name, cls.why) for cls in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER
    )
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


# -- the driver's protocol, determinism ------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_protocol_prints_exactly_the_listed_metrics(trace, capsys):
    spec = runner.load_benchmark_json()
    code = runner.main(
        ["--workload", "broker-1k-mixed", "--seed", "4", "--seconds", "1",
         "--trace", str(trace), "--smoke"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_runs_repeat_exactly_under_one_seed(name):
    first = runner.spawn(name, seed=1, seconds=1, trace=0, smoke=True)
    second = runner.spawn(name, seed=1, seconds=1, trace=1, smoke=True)
    other = runner.spawn(name, seed=2, seconds=1, trace=0, smoke=True)
    for record in (first, second, other):
        assert record["correct"], [c for c in record["checks"] if not c["ok"]]
    assert first["sim"] == second["sim"]  # tracing changes no simulated count
    assert first["ops_attempted"] == second["ops_attempted"]
    assert other["sim"]["probes"] > 0
    assert other["sim"]["rng_state"] != first["sim"]["rng_state"]
    if name == "broker-1k-mixed":  # the seed also feeds the request generator
        assert other["sim"]["injected"] != first["sim"]["injected"]
    assert second["trace_self_sum_s"] == pytest.approx(
        second["raw"]["measured_wall_s"], rel=0.02
    )


# -- compare ----------------------------------------------------------------------


def _results(step_ms: float, spread: float = 0.01, probes: int = 10) -> dict:
    return {
        "seed": 1, "seconds": 10, "smoke": False,
        "workloads": {
            "w": {
                "end_to_end": {
                    "step_ms_p50": {
                        "median": step_ms, "spread": spread, "unit": "ms",
                        "better": "lower", "bound": 0.10,
                    },
                    "probes_per_s": {
                        "median": 1000.0 / step_ms, "spread": spread, "unit": "probes/s",
                        "better": "higher", "bound": 0.10,
                    },
                },
                "sim": {"probes": probes},
                "ops_attempted": 10, "ops_failed": 0,
            }
        },
    }


def test_compare_verdicts():
    rows, mismatches = compare.compare(_results(100.0), _results(105.0))
    assert [row["verdict"] for row in rows] == ["ok", "ok"] and not mismatches
    rows, _ = compare.compare(_results(100.0), _results(120.0))
    assert [row["verdict"] for row in rows] == ["worse", "worse"]
    rows, _ = compare.compare(_results(100.0), _results(80.0))  # better is never worse
    assert [row["verdict"] for row in rows] == ["ok", "ok"]
    rows, _ = compare.compare(_results(100.0, spread=0.3), _results(101.0))
    assert [row["verdict"] for row in rows] == ["unresolved", "unresolved"]
    _, mismatches = compare.compare(_results(100.0), _results(100.0, probes=11))
    assert mismatches
