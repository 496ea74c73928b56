"""Deployment manifest — the hosts-file equivalent.

At start-up the real GekkoFS writes a hosts file that every client reads
to learn the daemon endpoints and deployment parameters; for campaign use
(§I) the same description must survive across jobs.  The manifest
captures everything a later job needs to reconstruct a *compatible*
deployment over retained node-local state: node count, chunk size, mount
prefix, cache settings, storage directories, and the placement policy
(including guided overrides — placement MUST match or retained data
becomes unreachable).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Optional

from repro.core.config import FSConfig
from repro.core.distributor import (
    Distributor,
    FilePerNodeDistributor,
    GuidedDistributor,
    RendezvousDistributor,
    SimpleHashDistributor,
)

__all__ = ["DeploymentManifest"]

MANIFEST_VERSION = 1

_DISTRIBUTOR_NAMES = {
    SimpleHashDistributor: "simple_hash",
    FilePerNodeDistributor: "file_per_node",
    RendezvousDistributor: "rendezvous",
    GuidedDistributor: "guided",
}
_DISTRIBUTOR_TYPES = {name: cls for cls, name in _DISTRIBUTOR_NAMES.items()}


@dataclass(frozen=True)
class DeploymentManifest:
    """Serialisable description of one GekkoFS deployment."""

    num_nodes: int
    config: FSConfig
    distributor_name: str = "simple_hash"
    guided_overrides: Optional[dict[str, int]] = None
    version: int = MANIFEST_VERSION

    def __post_init__(self):
        if self.num_nodes <= 0:
            raise ValueError(f"num_nodes must be > 0, got {self.num_nodes}")
        if self.distributor_name not in _DISTRIBUTOR_TYPES:
            raise ValueError(
                f"unknown distributor {self.distributor_name!r}; "
                f"known: {sorted(_DISTRIBUTOR_TYPES)}"
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def describe(cls, cluster) -> "DeploymentManifest":
        """Capture a running cluster's deployment description."""
        dist = cluster.distributor
        name = _DISTRIBUTOR_NAMES.get(type(dist))
        if name is None:
            raise ValueError(
                f"distributor {type(dist).__name__} is not manifest-serialisable"
            )
        overrides = None
        if isinstance(dist, GuidedDistributor):
            overrides = dict(dist._overrides)
        return cls(
            num_nodes=cluster.num_nodes,
            config=cluster.config,
            distributor_name=name,
            guided_overrides=overrides,
        )

    def build_distributor(self) -> Distributor:
        """Instantiate the placement policy this manifest describes."""
        cls = _DISTRIBUTOR_TYPES[self.distributor_name]
        if cls is GuidedDistributor:
            return GuidedDistributor(self.num_nodes, overrides=self.guided_overrides or {})
        return cls(self.num_nodes)

    # -- serialisation ---------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "num_nodes": self.num_nodes,
            "distributor": self.distributor_name,
            "guided_overrides": self.guided_overrides,
            "config": dataclasses.asdict(self.config),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DeploymentManifest":
        payload = json.loads(text)
        version = payload.get("version")
        if version != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {version!r}")
        return cls(
            num_nodes=payload["num_nodes"],
            config=FSConfig.from_dict(payload["config"]),
            distributor_name=payload["distributor"],
            guided_overrides=payload.get("guided_overrides"),
            version=version,
        )

    def save(self, path: str) -> None:
        """Write atomically (write-then-rename): a torn manifest would
        silently misplace every path of a retained campaign."""
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "DeploymentManifest":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
