"""The benchmark's own checks, on its cycle-length-8 variant (480 classes,
178 simple); they take seconds.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

K8 = run.EXPECTED[8]


def bench(*args, cwd=run.ROOT, script=run.__file__):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def deadline() -> float:
    return time.monotonic() + 120


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        m[:3] for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        m[:3] for m in run.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--length", "8")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def write_listing(path) -> None:
    record, _ = run.run_child(8, deadline(), "listing", str(path))
    assert record["total"] == K8.total
    assert run.listing_error(str(path), K8) is None


def test_gate_trips_on_a_corrupted_listing_line(tmp_path):
    path = tmp_path / "k8.txt"
    write_listing(path)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[5].split()
    cells[3], cells[4] = cells[4], cells[3]  # no longer a knight cycle
    lines[5] = " ".join(cells) + "\n"
    path.write_text("".join(lines))

    argv = run.WORKLOADS["check-k12"](8, "", str(path))
    record, stdout = run.run_child(8, deadline(), "cli", *argv)
    assert run.command_error(argv, record["rc"], stdout, K8) == "exit code 1"
    assert "sha256" in run.listing_error(str(path), K8)


def test_gate_trips_on_a_wrong_digest(tmp_path):
    path = tmp_path / "k8.txt"
    write_listing(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]  # same bytes, other order
    path.write_text("".join(lines))

    argv = run.WORKLOADS["list-dfs-k12-j2"](8, str(path), "")
    error = run.command_error(argv, 0, f"wrote 480 cycles to {path}\n", K8)
    assert error is not None and "sha256" in error


@pytest.mark.parametrize("stdout", [
    "k=8 total=479 simple=178 elapsed=0.01\n",
    "k=8 total=480 simple=177 elapsed=0.01\n",
    "",
])
def test_gate_trips_on_a_wrong_count(stdout):
    argv = run.WORKLOADS["count-mitm-k12"](8, "", "")
    assert run.command_error(argv, 0, stdout, K8) is not None
    assert run.command_error(argv, 0, "k=8 total=480 simple=178 elapsed=0.01\n", K8) is None


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, exit != 0."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "count-mitm-k12", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
