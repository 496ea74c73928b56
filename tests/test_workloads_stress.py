"""Stress driver: whole-stack fuzzing with a shadow-model oracle."""

import pytest

from repro.core import FSConfig, GekkoFSCluster
from repro.workloads.stress import DEFAULT_MIX, StressSpec, run_stress


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            StressSpec(operations=0)
        with pytest.raises(ValueError):
            StressSpec(max_io_bytes=0)
        with pytest.raises(ValueError):
            StressSpec(max_file_bytes=10, max_io_bytes=20)
        with pytest.raises(ValueError):
            StressSpec(clients=0)
        with pytest.raises(ValueError):
            StressSpec(mix={"chmod": 1})
        with pytest.raises(ValueError):
            StressSpec(mix={"create": 0})
        with pytest.raises(ValueError):
            StressSpec(workdir="relative")


class TestRuns:
    def test_default_mix_stays_consistent(self, cluster):
        result = run_stress(cluster, StressSpec(operations=400, seed=11))
        assert result.total_operations <= 400
        assert result.bytes_verified > 0
        assert result.executed["create"] > 0

    def test_small_chunks_exercise_striping(self):
        config = FSConfig(chunk_size=64)
        with GekkoFSCluster(num_nodes=3, config=config) as fs:
            result = run_stress(fs, StressSpec(operations=300, seed=5))
            assert result.bytes_verified > 0

    def test_deterministic_given_seed(self, cluster):
        a = run_stress(cluster, StressSpec(operations=150, seed=3))
        with GekkoFSCluster(num_nodes=4) as fresh:
            b = run_stress(fresh, StressSpec(operations=150, seed=3))
        assert a.executed == b.executed
        assert a.live_files_at_end == b.live_files_at_end

    def test_different_seeds_differ(self, cluster):
        a = run_stress(cluster, StressSpec(operations=200, seed=1))
        with GekkoFSCluster(num_nodes=4) as fresh:
            b = run_stress(fresh, StressSpec(operations=200, seed=2))
        assert a.executed != b.executed or a.live_files_at_end != b.live_files_at_end

    def test_write_heavy_mix(self, cluster):
        spec = StressSpec(
            operations=200, seed=9, mix={"create": 1, "write": 10, "read": 5}
        )
        result = run_stress(cluster, spec)
        assert result.executed["write"] > result.executed["create"]
        assert result.executed["unlink"] == 0

    def test_with_data_cache_enabled(self):
        """The §V read cache must survive the full churn mix."""
        config = FSConfig(
            chunk_size=256, data_cache_enabled=True, data_cache_bytes=8 * 1024
        )
        with GekkoFSCluster(num_nodes=4, config=config) as fs:
            # One client: the chunk cache guarantees read-your-writes but
            # not cross-client freshness (documented §V trade-off), so the
            # strong-consistency oracle only applies single-client.
            run_stress(fs, StressSpec(operations=400, seed=21, clients=1))

    def test_with_size_cache_enabled(self):
        config = FSConfig(size_cache_enabled=True, size_cache_flush_every=8)
        with GekkoFSCluster(num_nodes=4, config=config) as fs:
            run_stress(fs, StressSpec(operations=300, seed=13, clients=1))

    def test_on_disk_backends(self, tmp_path):
        config = FSConfig(
            chunk_size=512,
            kv_dir=str(tmp_path / "kv"),
            data_dir=str(tmp_path / "data"),
        )
        with GekkoFSCluster(num_nodes=2, config=config) as fs:
            result = run_stress(fs, StressSpec(operations=200, seed=17))
            assert result.bytes_verified > 0

    def test_stress_then_resize_then_stress(self):
        """Churn, grow the deployment, churn again: migration must leave a
        state the oracle still accepts."""
        with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=128)) as fs:
            run_stress(fs, StressSpec(operations=150, seed=30, workdir="/phase1"))
            fs.resize_live(5)
            # The second phase churns a fresh directory while phase 1's
            # migrated files must still verify untouched.
            run_stress(fs, StressSpec(operations=150, seed=31, workdir="/phase2"))
