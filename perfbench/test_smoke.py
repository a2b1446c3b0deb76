"""Smoke tests for the benchmark itself, at a scale that takes seconds.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import oracle  # noqa: E402
from layers import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, OpStream, generate_dataset  # noqa: E402

SMALL = ["--students", "200", "--seconds", "1", "--seed", "3"]


def declared(kind: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_main(capsys, *args):
    code = harness.main(list(args) + SMALL)
    out = capsys.readouterr().out.strip().splitlines()
    return code, out[:-1], json.loads(out[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(capsys, workload, trace):
    code, report, result = run_main(capsys, "--workload", workload, "--trace", str(trace))
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in report)
        assert isinstance(result["metrics"][name]["value"], float)
    if not trace:
        assert any("n=" in line for line in report)  # percentiles carry sample counts


def test_corrupted_expected_point_read_fails(capsys, monkeypatch):
    real = oracle.Shadow.point_row

    def corrupted(self, key):
        rows = real(self, key)
        return [dict(row, tot_credits=row["tot_credits"] + 1) for row in rows]

    monkeypatch.setattr(oracle.Shadow, "point_row", corrupted)
    code, report, result = run_main(capsys, "--workload", "embedded-point")
    assert code != 0 and not result["correct"] and result["failed"] > 0
    assert any(line.startswith("FAILED") for line in report)


def test_corrupted_analytics_oracle_fails(capsys, monkeypatch):
    real = oracle.AnalyticsOracle.expected

    def corrupted(self, template, literals):
        return real(self, template, literals)[1:]

    monkeypatch.setattr(oracle.AnalyticsOracle, "expected", corrupted)
    code, _report, result = run_main(capsys, "--workload", "analytics")
    assert code != 0 and not result["correct"]


def test_lost_acknowledged_write_fails_recovery_check(tmp_path):
    bench = harness.set_up(WORKLOADS["rest-oltp"], 3, 200, tmp_path, 0)
    harness.run_phase(bench, 0.5)
    assert bench.failed == 0
    key = next(iter(bench.shadow.students))
    bench.shadow.students[key]["tot_credits"] += 1000  # a write the database never saw
    harness.crash_and_recover(bench, tmp_path)
    bench.close()
    # reads in the tail before the crash may see the corruption too
    assert any(failure.startswith("recovery:") for failure in bench.failures)


def _ops(workload: str, seed: int, count: int):
    spec = WORKLOADS[workload]
    stream = OpStream(spec, generate_dataset(200, seed), seed)
    ops = stream.warmup()
    it = iter(stream)
    ops.extend(next(it) for _ in range(count))
    return ops


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_operation_stream(workload):
    assert _ops(workload, 5, 600) == _ops(workload, 5, 600)
    assert _ops(workload, 5, 600) != _ops(workload, 6, 600)


def test_block_mix_is_exact():
    spec = WORKLOADS["rest-oltp"]
    ops = _ops("rest-oltp", 2, 1000)[-1000:]
    kinds = [op[0] for op in ops if op[0] != "checkpoint"][:900]
    assert kinds.count("get") == 9 * spec.mix["get"]
    assert kinds.count("related") + kinds.count("hop") == 9 * spec.mix["traverse"]


def test_crash_tail_is_one_whole_block():
    spec = WORKLOADS["rest-oltp"]
    stream = OpStream(spec, generate_dataset(200, 2), 2)
    stream.warmup()
    head = [next(stream) for _ in range(37)]
    rest = stream.rest_of_block()
    assert len([op for op in head + rest if op[0] != "checkpoint"]) == 100
    block = [op for op in stream.next_block() if op[0] != "checkpoint"]
    kinds = [op[0] for op in block]
    assert len(block) == 100 and kinds.count("delete") == spec.mix["delete"]
    assert kinds.count("related") + kinds.count("hop") == spec.mix["traverse"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_time_never_exceeds_wall_time(tmp_path, workload):
    bench = harness.set_up(WORKLOADS[workload], 4, 200, tmp_path, 0)
    recorder = SpanRecorder()

    def mark(index):
        recorder.op_index = index

    with recorder:
        phase = harness.run_phase(bench, 1.0, before_op=mark)
    bench.close()
    assert bench.failed == 0 and phase.ops > 0 and recorder.spans
    own = recorder._self_ns()
    for (name, _parent, start, end, _op), self_ns in zip(recorder.spans, own):
        assert 0 <= self_ns <= end - start, name
    by_op = recorder.self_ns_by_op()
    for index, wall in enumerate(phase.all_ns):
        assert by_op.get(index, 0) <= wall
    metrics = recorder.layer_metrics(phase.ops)
    for span in {record[0] for record in recorder.spans}:
        assert metrics[f"{span}.self_us_per_op"] <= metrics[f"{span}.us_per_op"] + 1e-9


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
