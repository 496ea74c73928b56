"""Smoke test of the benchmark itself, at 2 % of the operations per round.

Run explicitly — it is outside tier-1's ``testpaths``::

    python3 -m pytest -q bench/test_bench_smoke.py

It drives ``bench/run.py`` the way the driver does and checks the contract
(every metric of ``BENCHMARK.json`` present, finite, with its unit), that
the exact counts repeat bit for bit, and that the expected zeros are zero.
"""

import json
import math
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SINGLE_THREADED = [name for name in WORKLOADS if "shared" not in name]


def run(workload: str, trace: int, seed: int = 7) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--scale", "0.02"],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=120,
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {(w, t): run(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_present_finite_with_unit(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalogue = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in catalogue}
    for metric in catalogue:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"]), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", SINGLE_THREADED)
def test_exact_counts_repeat(results, workload):
    again = {trace: run(workload, trace) for trace in (0, 1)}
    for trace, names in (
        (0, ["stored_bytes_per_op"]),
        (1, ["core.client.rpcs_per_op", "kvstore.lsm.ops_per_client_op",
             "kvstore.lsm.wal_bytes_per_op", "net.codec.framed_bytes_per_rpc"]),
    ):
        for name in names:
            first = results[workload, trace]["metrics"][name]["value"]
            assert again[trace]["metrics"][name]["value"] == first, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_expected_zeros(results, workload):
    metrics = results[workload, 1]["metrics"]
    for name in ("rpc.transport.retries", "rpc.transport.failed_rpcs",
                 "rpc.health.breaker_trips", "storage.integrity.verify_failures"):
        assert metrics[name]["value"] == 0, name
    if workload.endswith("_paper"):
        for name in ("storage.integrity.checksum_us_per_mib",
                     "storage.integrity.checksummed_bytes_per_user_byte",
                     "rpc.transport.self_us_per_rpc", "qos.window.wait_us_per_rpc",
                     "qos.pool.wait_us_p50"):
            assert metrics[name]["value"] == 0, name
    if workload.startswith("mdtest"):
        for name in ("storage.localfs.chunk_ops_per_op", "net.client.bulk_bytes_per_op"):
            assert metrics[name]["value"] == 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is no ``src/``: the
    run must fail without printing a result."""
    target = tmp_path / "bench"
    target.mkdir()
    for name in os.listdir(BENCH_DIR):
        path = os.path.join(BENCH_DIR, name)
        if os.path.isfile(path):
            (target / name).write_bytes(open(path, "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "rb").read()
    )
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
