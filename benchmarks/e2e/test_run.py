"""Self-test of the end-to-end benchmark at tiny scale (under a minute).

    python -m pytest benchmarks/e2e/test_run.py -q

Pins its own rows (scale 0.05, two scenes) in a temporary file, then
checks the printed metrics, the probes, the single-run JSON contract,
the failure path and the rows against the reference kernel.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads(bench.SPEC.read_text())
TINY = ["--scale", "0.05", "--scenes", "flight,goblet", "--iterations", "5"]


def invoke(*args, expected):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *TINY,
         "--expected", str(expected), *args],
        capture_output=True, text=True, timeout=120)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def pins(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "expected.json"
    proc = invoke("--pin", "--seed", "0", expected=path)
    assert proc.returncode == 0, proc.stderr
    return path


@pytest.fixture(scope="module")
def rounds(pins, tmp_path_factory):
    work = tmp_path_factory.mktemp("rounds")
    proc = invoke("--repeats", "1", "--out", str(work / "rounds.json"),
                  "--chrome-trace", str(work / "trace.json"), expected=pins)
    assert proc.returncode == 0, proc.stderr
    return (proc.stdout, json.loads((work / "rounds.json").read_text()),
            json.loads((work / "trace.json").read_text()))


def test_every_metric_is_printed_with_its_unit(rounds):
    stdout, _, _ = rounds
    rows = [line.split() for line in stdout.splitlines()]
    for workload in bench.WORKLOADS:
        for item in SPEC["end_to_end"]:
            assert any(row[:2] == [workload, item["name"]]
                       and row[-1] == item["unit"] for row in rows), \
                (workload, item["name"])
    width = len(bench.WORKLOADS)
    for item in SPEC["per_layer"]:
        assert any(row[:1] == [item["name"]] and len(row) == width + 2
                   and row[-1] == item["unit"] for row in rows), item["name"]
    assert any(row[:2] == ["all", "fail_rate"] for row in rows)


def test_every_mapped_probe_fires(rounds):
    _, results, _ = rounds
    assert set(results["layers"]) == set(bench.WORKLOADS)
    for workload, layers in results["layers"].items():
        silent = [name for name, calls in layers["probe_calls"].items()
                  if not calls]
        assert not silent, (workload, silent)
        assert set(layers["probe_calls"]) == \
            set(bench.EXPECTED_PROBES[workload])


def test_chrome_trace_has_one_pid_per_process(rounds):
    _, _, trace = rounds
    names = {event["args"]["name"] for event in trace["traceEvents"]
             if event["ph"] == "M"}
    pipelined = [name for name in names if name.startswith("cold_pipelined")]
    assert len(pipelined) >= 3  # the child and its two pool workers
    spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert spans and all(event["dur"] >= 0 for event in spans)


@pytest.mark.parametrize("workload,trace", [("cold_pipelined", "1"),
                                            ("warm_grid", "0")])
def test_single_run_prints_the_contract_line(pins, workload, trace):
    proc = invoke("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", trace, expected=pins)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == \
        {item["name"]: item["unit"] for item in wanted}


def test_digest_mismatch_fails_the_run(pins, tmp_path):
    broken = json.loads(pins.read_text())
    broken["frames"]["0"]["grid"] = "0" * 64
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    proc = invoke("--workload", "cold_serial", "--seed", "0", "--seconds",
                  "1", expected=path)
    assert proc.returncode != 0
    result = last_json(proc)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_pinned_rows_equal_reference_kernel_rows(pins, tmp_path):
    settings = bench.Settings(bench.parse_args(
        [*TINY, "--expected", str(pins)]))
    runner = bench.Bench(settings, tmp_path)
    out = runner.spawn({"mode": "digest", "run": {"kernel": "reference"},
                        "store": str(runner._fresh("store")),
                        **settings.grid("cold_serial", 0)})
    assert out is not None, runner.errors
    assert out["digest"] == json.loads(pins.read_text())["frames"]["0"]["grid"]
