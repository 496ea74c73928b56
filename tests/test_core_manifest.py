"""Deployment manifest: serialisation and campaign restart."""

import dataclasses
import os

import pytest

from repro.core import (
    FSConfig,
    GekkoFSCluster,
    GuidedDistributor,
    RendezvousDistributor,
)
from repro.core.manifest import DeploymentManifest


class TestSerialisation:
    def test_json_roundtrip(self):
        manifest = DeploymentManifest(
            num_nodes=8,
            config=FSConfig(chunk_size=4096, size_cache_enabled=True),
            distributor_name="rendezvous",
        )
        restored = DeploymentManifest.from_json(manifest.to_json())
        assert restored == manifest

    def test_guided_overrides_roundtrip(self):
        manifest = DeploymentManifest(
            num_nodes=4,
            config=FSConfig(),
            distributor_name="guided",
            guided_overrides={"/hot": 2},
        )
        restored = DeploymentManifest.from_json(manifest.to_json())
        dist = restored.build_distributor()
        assert isinstance(dist, GuidedDistributor)
        assert dist.locate_metadata("/hot") == 2

    def test_unknown_distributor_rejected(self):
        with pytest.raises(ValueError):
            DeploymentManifest(num_nodes=2, config=FSConfig(), distributor_name="magic")

    def test_bad_node_count_rejected(self):
        with pytest.raises(ValueError):
            DeploymentManifest(num_nodes=0, config=FSConfig())

    def test_unknown_version_rejected(self):
        manifest = DeploymentManifest(num_nodes=2, config=FSConfig())
        text = manifest.to_json().replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError):
            DeploymentManifest.from_json(text)

    def test_retired_or_unknown_config_key_is_named(self):
        retired = [
            "maintain_atime",
            # knobs nothing ever set, now constants beside their one consumer
            "rpc_backoff_base",
            "rpc_backoff_max",
            "breaker_cooldown",
            "qos_default_weight",
            "metrics_window_capacity",
            "flight_recorder_capacity",
            "migration_weight",
            "migration_verify",
            # the preload library always forwards what is not under the mount
            "passthrough_enabled",
        ]
        blank = DeploymentManifest(num_nodes=2, config=FSConfig()).to_json()
        for key in retired:
            text = blank.replace('"chunk_size":', f'"{key}": 1, "chunk_size":')
            with pytest.raises(ValueError, match=key):
                DeploymentManifest.from_json(text)

    def test_config_has_no_knob_nothing_sets(self):
        assert len(dataclasses.fields(FSConfig)) == 43

    def test_save_load_file(self, tmp_path):
        manifest = DeploymentManifest(num_nodes=3, config=FSConfig(chunk_size=1024))
        path = str(tmp_path / "gkfs_hosts.json")
        manifest.save(path)
        assert DeploymentManifest.load(path) == manifest
        assert not os.path.exists(path + ".tmp")  # atomic rename cleaned up


class TestDescribeAndRebuild:
    def test_describe_running_cluster(self):
        with GekkoFSCluster(
            num_nodes=4, distributor=RendezvousDistributor(4)
        ) as fs:
            manifest = fs.manifest()
            assert manifest.num_nodes == 4
            assert manifest.distributor_name == "rendezvous"
            assert manifest.config == fs.config

    def test_from_manifest_builds_equivalent_cluster(self):
        manifest = DeploymentManifest(
            num_nodes=3, config=FSConfig(chunk_size=512), distributor_name="rendezvous"
        )
        with GekkoFSCluster.from_manifest(manifest) as fs:
            assert fs.num_nodes == 3
            assert fs.config.chunk_size == 512
            assert isinstance(fs.distributor, RendezvousDistributor)

    def test_campaign_restart_resolves_retained_data(self, tmp_path):
        """Job 1 writes and saves the manifest; job 2 reconstructs from it
        and finds every byte — the campaign lifecycle of §I."""
        config = FSConfig(
            chunk_size=1024,
            kv_dir=str(tmp_path / "kv"),
            data_dir=str(tmp_path / "data"),
        )
        manifest_path = str(tmp_path / "hosts.json")
        fs = GekkoFSCluster(num_nodes=3, config=config)
        client = fs.client(0)
        fd = client.creat("/gkfs/campaign.out")
        client.write(fd, b"job one artefact" * 100)
        client.close(fd)
        fs.manifest().save(manifest_path)
        fs.shutdown(wipe=False)

        restored = GekkoFSCluster.from_manifest(DeploymentManifest.load(manifest_path))
        try:
            client = restored.client(0)
            fd = client.open("/gkfs/campaign.out")
            assert client.read(fd, 16) == b"job one artefact"
            client.close(fd)
        finally:
            restored.shutdown()

    def test_mismatched_placement_would_lose_data(self, tmp_path):
        """Negative control: restarting with a different distributor makes
        retained paths unreachable — why the manifest records placement."""
        from repro.common.errors import NotFoundError
        from repro.core import SimpleHashDistributor

        config = FSConfig(kv_dir=str(tmp_path / "kv"))
        fs = GekkoFSCluster(num_nodes=4, distributor=RendezvousDistributor(4), config=config)
        client = fs.client(0)
        # Find a path whose rendezvous and modulo owners differ.
        victim = next(
            f"/gkfs/f{i}"
            for i in range(100)
            if RendezvousDistributor(4).locate_metadata(f"/f{i}")
            != SimpleHashDistributor(4).locate_metadata(f"/f{i}")
        )
        client.close(client.creat(victim))
        fs.shutdown(wipe=False)

        wrong = GekkoFSCluster(num_nodes=4, distributor=SimpleHashDistributor(4), config=config)
        try:
            with pytest.raises(NotFoundError):
                wrong.client(0).stat(victim)
        finally:
            wrong.shutdown()
