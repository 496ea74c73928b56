"""Long end-to-end scenarios chaining every major subsystem."""

import os

import pytest

from repro.core import FSConfig, GekkoFSCluster, RendezvousDistributor
from repro.core.fsck import check
from repro.core.staging import stage_in, stage_out
from repro.telemetry import TracedClient
from repro.workloads.ior import IorSpec, run_ior
from repro.workloads.mdtest import MdtestSpec, run_mdtest


class TestFullJobLifecycle:
    """stage-in → metadata churn → bulk I/O → fsck → resize → stage-out."""

    def test_whole_pipeline(self, tmp_path):
        # PFS-side inputs.
        inputs = tmp_path / "pfs_in"
        (inputs / "params").mkdir(parents=True)
        (inputs / "params" / "run.cfg").write_bytes(b"steps=100\n")
        (inputs / "seed.bin").write_bytes(os.urandom(300_000))

        config = FSConfig(chunk_size=64 * 1024)
        with GekkoFSCluster(
            num_nodes=3, config=config, distributor=RendezvousDistributor(3)
        ) as fs:
            # Prologue: stage in.
            report = stage_in(fs, str(inputs), "/gkfs/in")
            assert report.files == 2

            # Phase 1: metadata-heavy work (mdtest-like).
            md = run_mdtest(fs, MdtestSpec(procs=3, files_per_proc=30, workdir="/meta"))
            assert md.ops_per_second["create"] > 0

            # Phase 2: bulk I/O (IOR-like, verified).
            ior = run_ior(
                fs,
                IorSpec(procs=3, transfer_size=32 * 1024, block_size=256 * 1024,
                        reorder_tasks=True),
            )
            assert ior.verify_errors == 0

            # The job's own product derives from the staged input.
            client = fs.client(1)
            seed = client.read_bytes("/gkfs/in/seed.bin")
            client.write_bytes("/gkfs/out_product.bin", seed[:1000][::-1])

            # Mid-campaign health check, then grow the deployment.
            assert check(fs).clean
            fs.resize_live(5, distributor_factory=RendezvousDistributor)
            assert check(fs).clean
            fresh = fs.client(4)
            assert fresh.read_bytes("/gkfs/out_product.bin") == seed[:1000][::-1]

            # Epilogue: stage out the product next to the inputs copy.
            out_dir = tmp_path / "pfs_out"
            client = fs.client(1)
            client.mkdir("/gkfs/results")
            client.copy("/gkfs/out_product.bin", "/gkfs/results/product.bin")
            stage_out(fs, "/gkfs/results", str(out_dir))
            assert (out_dir / "product.bin").read_bytes() == seed[:1000][::-1]

    def test_traced_workload_reports_every_op(self, cluster):
        tracer_client = TracedClient(cluster.client(0))
        tracer_client.mkdir("/gkfs/traced_run")
        for i in range(10):
            tracer_client.write_bytes(f"/gkfs/traced_run/f{i}", b"z" * 128)
        for i in range(10):
            assert tracer_client.read_bytes(f"/gkfs/traced_run/f{i}") == b"z" * 128
        report = tracer_client.tracer.report()
        for op in ("write_bytes", "read_bytes", "mkdir"):
            assert op in report
        assert tracer_client.tracer.histogram("write_bytes").count == 10
        assert tracer_client.tracer.histogram("read_bytes").count == 10


class TestConvenienceHelpers:
    def test_read_write_bytes_roundtrip(self, client):
        assert client.write_bytes("/gkfs/conv", b"abc" * 1000) == 3000
        assert client.read_bytes("/gkfs/conv") == b"abc" * 1000

    def test_write_bytes_truncates(self, client):
        client.write_bytes("/gkfs/c2", b"long original value")
        client.write_bytes("/gkfs/c2", b"x")
        assert client.read_bytes("/gkfs/c2") == b"x"

    def test_read_bytes_missing(self, client):
        from repro.common.errors import NotFoundError

        with pytest.raises(NotFoundError):
            client.read_bytes("/gkfs/nope")

    def test_read_bytes_on_dir(self, client):
        from repro.common.errors import IsADirectoryError_

        client.mkdir("/gkfs/cd")
        with pytest.raises(IsADirectoryError_):
            client.read_bytes("/gkfs/cd")

    def test_empty_file(self, client):
        client.write_bytes("/gkfs/ce", b"")
        assert client.read_bytes("/gkfs/ce") == b""
