#!/usr/bin/env python
"""An elastic campaign: manifest persistence, resize, fsck, telemetry.

GekkoFS targets jobs *and longer campaigns* (§I).  This example walks the
campaign lifecycle end to end:

  job 1  — deploy on 2 nodes with retained storage, produce data, save
           the deployment manifest (the hosts-file role);
  job 2  — reconstruct the deployment from the manifest, *grow it to 5
           nodes* (migrating only ~1/n of the data thanks to rendezvous
           placement), verify integrity with fsck, and run the analysis
           phase under a tracing client that reports latency percentiles.

Run:  python examples/elastic_campaign.py
"""

import os
import shutil
import tempfile

from repro.core import FSConfig, GekkoFSCluster, RendezvousDistributor
from repro.core.fsck import check
from repro.core.manifest import DeploymentManifest
from repro.common.units import format_size
from repro.telemetry import TracedClient

FILES = 24
FILE_BYTES = 16 * 1024


def job_one(state_dir: str, manifest_path: str) -> None:
    print("=== job 1: produce on 2 nodes, retain state ===")
    config = FSConfig(
        chunk_size=4096,
        kv_dir=os.path.join(state_dir, "kv"),
        data_dir=os.path.join(state_dir, "data"),
    )
    fs = GekkoFSCluster(num_nodes=2, config=config, distributor=RendezvousDistributor(2))
    client = fs.client(0)
    client.mkdir("/gkfs/results")
    for i in range(FILES):
        fd = client.open(f"/gkfs/results/part{i:03d}.dat", os.O_CREAT | os.O_WRONLY)
        client.write(fd, bytes([i]) * FILE_BYTES)
        client.close(fd)
    print(f"wrote {FILES} partitions, {format_size(fs.used_bytes())} across 2 daemons")
    fs.manifest().save(manifest_path)
    fs.shutdown(wipe=False)  # campaign mode: node-local state retained
    print(f"manifest saved to {manifest_path}; daemons stopped, state kept\n")


def job_two(manifest_path: str) -> None:
    print("=== job 2: restart from manifest, grow to 5 nodes, analyse ===")
    manifest = DeploymentManifest.load(manifest_path)
    fs = GekkoFSCluster.from_manifest(manifest)
    try:
        report = fs.resize_live(5, distributor_factory=RendezvousDistributor)
        print(report)
        print(
            f"rendezvous placement moved only "
            f"{report.chunks_moved_fraction:.0%} of chunks (modulo would move most)"
        )

        health = check(fs)
        print(health)
        assert health.clean, "campaign state failed fsck!"

        client = TracedClient(fs.client(4))  # a brand-new node
        total = 0
        for name, md in client.listdir_plus("/gkfs/results"):
            fd = client.open(f"/gkfs/results/{name}")
            data = client.read(fd, md.size)
            client.close(fd)
            total += len(data)
        print(f"analysis phase read {format_size(total)} from {FILES} partitions\n")
        print(client.tracer.report(title="analysis-phase operation latencies"))
    finally:
        fs.shutdown()  # campaign over: wipe everything
        print("\ncampaign complete; all temporary state wiped")


def main() -> None:
    state_dir = tempfile.mkdtemp(prefix="gkfs_campaign_")
    try:
        manifest_path = os.path.join(state_dir, "gkfs_hosts.json")
        job_one(state_dir, manifest_path)
        job_two(manifest_path)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
