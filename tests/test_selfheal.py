"""Self-healing control plane: detection, repair, resync, and satellites.

The ISSUE-10 battery: phi-accrual grading with second-vantage partition
disambiguation (pure partitions never condemn), the supervisor's
restart-first escalation ladder with flap damping and cooldowns, the
client dirty-replica ledger feeding seq-arbitrated resyncs, wire-level
redundancy repair over real sockets, a SIGKILL inside a migration write
freeze (the gate must unpark and the repair must not race the aborted
epoch), plus the satellites: the per-call stall watchdog, negative
(ENOENT) metadata caching, and push-mode SLO alert sinks.
"""

import os
import threading
import time
from types import SimpleNamespace

import pytest

from repro.common.errors import NotFoundError
from repro.core import FSConfig, GekkoFSCluster, RendezvousDistributor
from repro.core.chunking import fetch_chunk
from repro.core.client import ClientStats
from repro.core.datapath import DataPath
from repro.core.metadata import record_head
from repro.faults import splice_faults
from repro.core.resize import live_migrate
from repro.metacache import ClientMetaCache
from repro.models import selfheal as twin
from repro.net.cluster import LocalSocketCluster, ProcessCluster
from repro.selfheal import (
    CONDEMNED,
    HEALTHY,
    SUSPECT,
    PhiAccrualDetector,
    RepairReport,
    Supervisor,
    WireRepairer,
)
from repro.storage.integrity import chunk_checksum
from repro.telemetry.slo import SLO, BurnRateRule, SloEngine


# -- shared fakes -------------------------------------------------------------


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class FakeNet:
    """A ping-only network: daemons in ``down`` refuse every call."""

    def __init__(self):
        self.down = set()

    def call(self, address, handler, *args, **kwargs):
        if address in self.down:
            raise ConnectionError(f"daemon {address} is down")
        return {"min_epoch": 0}


class FakeDeployment:
    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.network = FakeNet()
        self.health = None


class FakeDetector:
    """Just enough detector surface for supervisor unit tests."""

    def __init__(self):
        self.listeners = []
        self.cleared = []
        self.condemned = set()
        self.partitions_detected = 0

    def add_listener(self, fn):
        self.listeners.append(fn)

    def poll(self):
        return []

    def clear(self, address):
        self.cleared.append(address)
        self.condemned.discard(address)

    def state(self, address):
        return CONDEMNED if address in self.condemned else HEALTHY

    def fire(self, address, new=CONDEMNED, evidence=None):
        for fn in self.listeners:
            fn(address, HEALTHY, new, evidence or {})


class FakeRepairer:
    def __init__(self):
        self.passes = 0
        self.resyncs = []
        self.resync_status = "resynced"

    def repair(self):
        self.passes += 1
        return SimpleNamespace(as_dict=lambda: {"chunks_restored": 0})

    def resync_chunk(self, rel, cid, stale, attempts=3, exclude=()):
        self.resyncs.append((rel, cid, stale, tuple(sorted(exclude))))
        return self.resync_status


class FakeCluster:
    def __init__(self, num_nodes=4):
        self.num_nodes = num_nodes
        self.view = SimpleNamespace(epoch=0)
        self.config = SimpleNamespace(flight_recorder_dir=None)
        self.dead = set()
        self.restarts = []
        self.replaces = []
        self.kills = []

    def daemon_alive(self, address):
        return address not in self.dead

    def restart_daemon(self, address, recover=True):
        self.restarts.append(address)
        self.dead.discard(address)

    def replace_daemon(self, address):
        self.replaces.append(address)
        self.dead.discard(address)
        return RepairReport()

    def crash_daemon(self, address):
        self.kills.append(address)
        self.dead.add(address)


class FakeLedgerClient:
    """A client whose data path is itself: the ledger and its drain."""

    def __init__(self, marks=None):
        self.data = self
        self.dirty_replicas = dict(marks or {})

    def drain_dirty_replicas(self):
        drained = list(self.dirty_replicas.items())
        self.dirty_replicas = {}
        return drained


def _supervisor(cluster=None, detector=None, **kwargs):
    cluster = cluster or FakeCluster()
    detector = detector or FakeDetector()
    kwargs.setdefault("repairer", FakeRepairer())
    sup = Supervisor(cluster, detector, **kwargs)
    return cluster, detector, sup


def populate(cluster, files=12, file_bytes=600, prefix="/gkfs/data"):
    client = cluster.client(0)
    if not client.exists(prefix):
        client.mkdir(prefix)
    contents = {}
    for i in range(files):
        path = f"{prefix}/f{i:03d}"
        payload = bytes([(i + 1) & 0xFF]) * file_bytes
        fd = client.open(path, os.O_CREAT | os.O_WRONLY)
        client.write(fd, payload)
        client.close(fd)
        contents[path] = payload
    return contents


def verify(cluster, contents):
    client = cluster.client(0)
    for path, payload in contents.items():
        fd = client.open(path)
        assert client.read(fd, len(payload) + 1) == payload, path
        client.close(fd)


# -- the analytic twin --------------------------------------------------------


class TestAnalyticTwin:
    def test_phi_is_monotonic_in_silence(self):
        levels = [twin.phi(t, 0.1, 0.05) for t in (0.1, 0.2, 0.4, 0.8)]
        assert levels == sorted(levels)
        assert levels[-1] > levels[0]

    def test_phi_at_mean_silence(self):
        # Half of healthy gaps exceed the mean: phi = -log10(0.5).
        assert twin.phi(0.1, 0.1, 0.05) == pytest.approx(0.30103, rel=1e-3)

    def test_detection_time_inverts_phi(self):
        for threshold in (1.0, 4.0, 8.0):
            t = twin.detection_time(threshold, 0.1, 0.05)
            assert twin.phi(t, 0.1, 0.05) == pytest.approx(threshold, rel=1e-3)

    def test_deep_silence_saturates_instead_of_overflowing(self):
        assert twin.phi(1e6, 0.1, 0.05) == 320.0

    def test_false_positive_rate(self):
        # phi 8 at 4 probes/s: one healthy crossing per 2.5e7 seconds.
        rate = twin.false_positive_rate(8.0, 0.25)
        assert rate == pytest.approx(4e-8, rel=1e-6)

    def test_mttr_composition(self):
        total = twin.mttr(8.0, 0.1, 0.05, 0.25, 0.5, 2**20, 2**26)
        parts = (
            twin.detection_time(8.0, 0.1, 0.05)
            + 0.25
            + twin.repair_time(0.5, 2**20, 2**26)
        )
        assert total == pytest.approx(parts)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (twin.phi, (-1.0, 0.1, 0.05)),
            (twin.phi, (1.0, 0.0, 0.05)),
            (twin.phi, (1.0, 0.1, 0.0)),
            (twin.detection_time, (0.0, 0.1, 0.05)),
            (twin.false_positive_rate, (8.0, 0.0)),
            (twin.repair_time, (-1.0, 0, 1.0)),
            (twin.repair_time, (0.0, -1, 1.0)),
            (twin.repair_time, (0.0, 0, 0.0)),
        ],
    )
    def test_validation(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)


# -- the detector -------------------------------------------------------------


def _warmed(num_nodes=2, polls=10, gap=0.1, probe=None, **kwargs):
    """A detector with healthy gap history for every daemon."""
    dep = FakeDeployment(num_nodes)
    clock = FakeClock()
    det = PhiAccrualDetector(
        dep,
        independent_probe=probe or (lambda a: False),
        clock=clock,
        **kwargs,
    )
    for _ in range(polls):
        det.poll()
        clock.advance(gap)
    return dep, clock, det


class TestPhiAccrualDetector:
    def test_constructor_validation(self):
        dep = FakeDeployment(1)
        with pytest.raises(ValueError):
            PhiAccrualDetector(dep, suspect_phi=0.0)
        with pytest.raises(ValueError):
            PhiAccrualDetector(dep, suspect_phi=3.0, condemn_phi=2.0)
        with pytest.raises(ValueError):
            PhiAccrualDetector(dep, fallback_failures=1)

    def test_healthy_cluster_stays_healthy(self):
        dep, clock, det = _warmed()
        assert det.state(0) == HEALTHY
        assert det.state(1) == HEALTHY
        assert det.partitions_detected == 0
        track = det.track(0)
        assert len(track.gaps) >= 3
        assert all(g == pytest.approx(0.1) for g in track.gaps)

    def test_gap_stats_floor_the_std_and_need_three_gaps(self):
        _dep, _clock, det = _warmed(polls=3)
        assert det.gap_stats(0) is None  # two gaps: no usable history
        _dep, _clock, det = _warmed(min_std=0.05)
        mean, std = det.gap_stats(0)
        assert mean == pytest.approx(0.1) and std == 0.05  # regular: floored

    def test_crash_walks_healthy_suspect_condemned(self):
        dep, clock, det = _warmed()
        dep.network.down.add(1)
        clock.advance(0.15)  # ~2.5 std of silence: suspicious, not damning
        transitions = det.poll()
        assert [(a, o, n) for a, o, n, _ in transitions] == [
            (1, HEALTHY, SUSPECT)
        ]
        clock.advance(1.0)  # phi far past 8: condemnable, probe dead too
        transitions = det.poll()
        assert [(a, o, n) for a, o, n, _ in transitions] == [
            (1, SUSPECT, CONDEMNED)
        ]
        assert transitions[0][3]["classification"] == "crash"
        assert det.state(1) == CONDEMNED
        assert det.state(0) == HEALTHY

    def test_condemned_is_sticky_until_cleared(self):
        dep, clock, det = _warmed()
        dep.network.down.add(1)
        clock.advance(2.0)
        det.poll()
        assert det.state(1) == CONDEMNED
        # Even a revived daemon stays condemned until the supervisor
        # clears it — repair owns the transition back.
        dep.network.down.discard(1)
        clock.advance(0.1)
        det.poll()
        assert det.state(1) == CONDEMNED
        det.clear(1)
        assert det.state(1) == HEALTHY
        det.poll()
        assert det.state(1) == HEALTHY

    def test_partition_never_condemns(self):
        """The primary vantage screams, the fresh-socket probe answers:
        classification partition, held at suspect indefinitely."""
        dep, clock, det = _warmed(probe=lambda a: True)
        dep.network.down.add(0)  # client-side fault: primary path only
        clock.advance(2.0)
        transitions = det.poll()
        assert det.state(0) == SUSPECT
        assert transitions[0][3]["classification"] == "partition"
        assert det.partitions_detected == 1
        for _ in range(20):  # no amount of silence upgrades a partition
            clock.advance(1.0)
            det.poll()
        assert det.state(0) == SUSPECT
        assert det.partitions_detected == 1  # counted once per episode

    def test_partition_heals_back_to_healthy(self):
        dep, clock, det = _warmed(probe=lambda a: True)
        dep.network.down.add(0)
        clock.advance(2.0)
        det.poll()
        assert det.state(0) == SUSPECT
        dep.network.down.discard(0)
        clock.advance(0.1)
        transitions = det.poll()
        assert det.state(0) == HEALTHY
        assert (0, SUSPECT, HEALTHY) in [
            (a, o, n) for a, o, n, _ in transitions
        ]

    def test_tracker_veto_blocks_condemnation(self):
        """With a breaker present but all-clear, real traffic disagrees
        with the prober: the condemnation is uncorroborated."""
        dep, clock, det = _warmed()
        dep.health = SimpleNamespace(
            snapshot=lambda: {
                1: {"state": "closed", "consecutive_failures": 0}
            }
        )
        dep.network.down.add(1)
        clock.advance(2.0)
        transitions = det.poll()
        assert det.state(1) == SUSPECT
        assert transitions[0][3]["classification"] == "uncorroborated"

    def test_fallback_streak_grading_without_history(self):
        """A fresh track has no gaps: grade on the failure streak."""
        dep = FakeDeployment(1)
        clock = FakeClock()
        det = PhiAccrualDetector(
            dep, independent_probe=lambda a: False, clock=clock
        )
        dep.network.down.add(0)
        det.poll()
        assert det.state(0) == HEALTHY  # one miss proves nothing
        det.poll()
        assert det.state(0) == SUSPECT
        for _ in range(det.fallback_failures - 2):
            det.poll()
        assert det.state(0) == CONDEMNED

    def test_listener_hears_every_transition(self):
        heard = []
        dep, clock, det = _warmed()
        det.add_listener(lambda a, o, n, e: heard.append((a, o, n)))
        dep.network.down.add(1)
        clock.advance(2.0)
        det.poll()
        assert heard == [(1, HEALTHY, CONDEMNED)]


# -- the supervisor ladder ----------------------------------------------------


class TestSupervisorLadder:
    def test_validation(self):
        with pytest.raises(ValueError):
            _supervisor(max_restarts=-1)

    def test_restart_comes_first(self):
        clock = FakeClock()
        cluster, det, sup = _supervisor(clock=clock)
        cluster.dead.add(2)
        entry = sup.repair(2)
        assert entry["event"] == "repair_complete"
        assert entry["action"] == "restart"
        assert cluster.restarts == [2]
        assert cluster.replaces == []
        assert det.cleared == [2]
        assert sup.repairer.passes == 1
        assert sup.metrics.counter("selfheal.restarts") == 1

    def test_hung_daemon_is_force_killed_before_respawn(self):
        """A SIGSTOPped daemon is alive-but-dead: the ladder must kill
        it first, because respawn requires death."""
        clock = FakeClock()
        cluster, det, sup = _supervisor(clock=clock)
        assert cluster.daemon_alive(1)
        entry = sup.repair(1)
        assert entry["event"] == "repair_complete"
        assert cluster.kills == [1]
        assert cluster.restarts == [1]

    def test_flap_damping_escalates_to_replace(self):
        clock = FakeClock()
        cluster, det, sup = _supervisor(
            max_restarts=1, flap_window=60.0, backoff_base=0.25, clock=clock
        )
        cluster.dead.add(0)
        assert sup.repair(0)["action"] == "restart"
        clock.advance(5.0)  # past the cooldown, inside the flap window
        cluster.dead.add(0)
        entry = sup.repair(0)
        assert entry["action"] == "replace"
        assert cluster.replaces == [0]

    def test_quiet_flapper_outside_window_keeps_restarting(self):
        clock = FakeClock()
        cluster, det, sup = _supervisor(
            max_restarts=1, flap_window=10.0, clock=clock
        )
        cluster.dead.add(0)
        assert sup.repair(0)["action"] == "restart"
        clock.advance(30.0)  # the first condemnation aged out
        cluster.dead.add(0)
        assert sup.repair(0)["action"] == "restart"

    def test_cooldown_defers_back_to_back_repairs(self):
        clock = FakeClock()
        cluster, det, sup = _supervisor(backoff_base=1.0, clock=clock)
        cluster.dead.add(3)
        sup.repair(3)
        cluster.dead.add(3)
        entry = sup.repair(3)  # clock unchanged: still cooling down
        assert entry["event"] == "repair_deferred"
        assert cluster.restarts == [3]
        assert sup.metrics.counter("selfheal.deferred") == 1

    def test_condemn_transition_queues_and_step_drains(self):
        cluster, det, sup = _supervisor()
        cluster.dead.add(1)
        det.fire(1)
        assert sup.pending_repairs() == 1
        assert sup.busy
        det.fire(1)  # duplicate condemnations do not double-queue
        assert sup.pending_repairs() == 1
        assert sup.step() == 1
        assert sup.pending_repairs() == 0
        assert not sup.busy
        assert [e["address"] for e in sup.repairs()] == [1]

    def test_step_keeps_deferred_repair_pending_until_cooldown(self):
        """A condemnation landing inside a cooldown must not be dropped:
        the detector never re-emits for an already-CONDEMNED track, so
        the pending queue is the only retry path."""
        clock = FakeClock()
        cluster, det, sup = _supervisor(backoff_base=1.0, clock=clock)
        cluster.dead.add(2)
        sup.repair(2)  # succeeds, starts the 1s cooldown
        cluster.dead.add(2)  # dies again immediately
        det.fire(2)
        assert sup.step() == 0  # still cooling down: deferred
        assert sup.pending_repairs() == 1  # NOT dropped
        assert sup.busy
        clock.advance(5.0)
        assert sup.step() == 1
        assert sup.pending_repairs() == 0
        assert cluster.restarts == [2, 2]
        assert cluster.dead == set()

    def test_step_requeues_failed_repair_for_retry(self):
        clock = FakeClock()
        cluster, det, sup = _supervisor(backoff_base=0.5, clock=clock)
        real_restart = cluster.restart_daemon
        attempts = []

        def flaky(address, recover=True):
            attempts.append(address)
            if len(attempts) == 1:
                raise RuntimeError("respawn refused")
            real_restart(address)

        cluster.restart_daemon = flaky
        cluster.dead.add(1)
        det.fire(1)
        assert sup.step() == 0  # the rung raised
        assert sup.pending_repairs() == 1  # held for retry
        clock.advance(5.0)  # past the cooldown the attempt charged
        assert sup.step() == 1
        assert sup.pending_repairs() == 0
        assert cluster.dead == set()
        assert attempts == [1, 1]

    def test_repair_failure_is_journaled_not_raised(self):
        cluster, det, sup = _supervisor()

        def broken(address, recover=True):
            raise RuntimeError("respawn refused")

        cluster.dead.add(2)
        cluster.restart_daemon = broken
        entry = sup.repair(2)
        assert entry["event"] == "repair_failed"
        assert "respawn refused" in entry["error"]
        assert sup.metrics.counter("selfheal.repairs_failed") == 1
        assert det.cleared == []  # an unrepaired daemon stays condemned

    def test_slo_alert_sink_journals_but_never_condemns(self):
        cluster, det, sup = _supervisor()
        sup.on_slo_alert({"slo": "meta", "severity": "page"})
        assert sup.metrics.counter("selfheal.slo_alerts") == 1
        assert sup.pending_repairs() == 0  # advisory only

    def test_report_shape(self):
        cluster, det, sup = _supervisor()
        cluster.dead.add(1)
        det.fire(1)
        sup.step()
        report = sup.report()
        assert len(report["repairs"]) == 1
        assert report["failures"] == []
        assert report["condemned"] == 1
        assert report["restarts"] == 1
        assert report["partitions_detected"] == 0


# -- dirty-replica ledger and resync arbitration ------------------------------


def _bare_data_path():
    """A client data-path shell carrying only the dirty-ledger state."""
    data = object.__new__(DataPath)
    data.stats = ClientStats()
    data.dirty_replicas = {}
    data._dirty_seq = 0
    return data


class TestDirtyLedger:
    def test_marks_round_trip_with_sequence(self):
        data = _bare_data_path()
        seq1 = data._next_dirty_seq()
        data._note_dirty_replica("/f", 0, 2, seq1)
        seq2 = data._next_dirty_seq()
        data._note_dirty_replica("/f", 1, 3, seq2)
        assert seq2 > seq1
        drained = dict(data.drain_dirty_replicas())
        assert drained == {("/f", 0, 2): seq1, ("/f", 1, 3): seq2}
        assert data.dirty_replicas == {}
        assert data.stats.dirty_marks == 2

    def test_remark_keeps_latest_sequence(self):
        data = _bare_data_path()
        data._note_dirty_replica("/f", 0, 2, data._next_dirty_seq())
        later = data._next_dirty_seq()
        data._note_dirty_replica("/f", 0, 2, later)
        assert data.drain_dirty_replicas() == [(("/f", 0, 2), later)]

    def test_capacity_overflow_evicts_oldest(self):
        data = _bare_data_path()
        data._DIRTY_CAPACITY = 2
        for chunk in range(3):
            data._note_dirty_replica(
                "/f", chunk, 1, data._next_dirty_seq()
            )
        assert data.stats.dirty_overflow == 1
        keys = {k for k, _ in data.drain_dirty_replicas()}
        assert keys == {("/f", 1, 1), ("/f", 2, 1)}  # chunk 0 evicted

    def test_capacity_eviction_survives_concurrent_drain(self):
        """The supervisor thread may empty the ledger between the
        capacity check and the eviction pop; losing that race must not
        raise in the write path.  Capacity 0 over an empty ledger is
        exactly the post-drain shape the check mistakes for full."""
        data = _bare_data_path()
        data._DIRTY_CAPACITY = 0
        seq = data._next_dirty_seq()
        data._note_dirty_replica("/f", 0, 1, seq)  # must not raise
        assert data.dirty_replicas == {("/f", 0, 1): seq}
        assert data.stats.dirty_overflow == 0  # nothing was evicted


class TestResyncArbitration:
    def test_marks_never_superseded_across_targets(self):
        """Two legs of the same chunk marked at different writes: BOTH
        are dirty — writes can span part of a chunk, so the leg that
        took the later write may still be missing the earlier write's
        bytes.  Neither dirty leg may source the other's resync."""
        cluster, det, sup = _supervisor()
        sup.register_client(
            FakeLedgerClient({("/f", 0, 1): 1, ("/f", 0, 2): 2})
        )
        sup._resync_dirty()
        assert sorted(sup.repairer.resyncs) == [
            ("/f", 0, 1, (2,)),
            ("/f", 0, 2, (1,)),
        ]
        assert sup.metrics.counter("selfheal.resyncs.resynced") == 2
        assert sup.resync_pending() == 0

    def test_sibling_legs_of_one_write_exclude_each_other(self):
        """Replication 3: both legs one write lost share a seq; neither
        may be a resync source for the other."""
        cluster, det, sup = _supervisor()
        sup.register_client(
            FakeLedgerClient({("/f", 0, 1): 7, ("/f", 0, 2): 7})
        )
        sup._resync_dirty()
        assert sorted(sup.repairer.resyncs) == [
            ("/f", 0, 1, (2,)),
            ("/f", 0, 2, (1,)),
        ]

    def test_dead_target_holds_without_charging_attempts(self):
        """A mark on a dead daemon waits for the repair ladder; it burns
        no attempts and survives in the backlog."""
        cluster, det, sup = _supervisor()
        cluster.dead.add(1)
        sup.register_client(FakeLedgerClient({("/f", 0, 1): 1}))
        sup._resync_dirty()
        assert sup.repairer.resyncs == []
        assert sup.resync_pending() == 1
        assert sup._resync_backlog[("/f", 0, 1)]["attempts"] == 0
        cluster.dead.discard(1)  # the ladder brought it back
        sup._resync_dirty()
        assert sup.repairer.resyncs == [("/f", 0, 1, ())]
        assert sup.resync_pending() == 0
        assert any(e["event"] == "resync" for e in sup.journal)

    def test_condemned_target_also_holds(self):
        cluster, det, sup = _supervisor()
        det.condemned.add(1)
        sup.register_client(FakeLedgerClient({("/f", 0, 1): 1}))
        sup._resync_dirty()
        assert sup.repairer.resyncs == []
        assert sup.resync_pending() == 1

    def test_unreachable_requeues_then_abandons_at_cap(self):
        cluster, det, sup = _supervisor()
        sup.repairer.resync_status = "unreachable"
        sup.register_client(FakeLedgerClient({("/f", 0, 1): 1}))
        for round_ in range(Supervisor.RESYNC_ATTEMPTS - 1):
            sup._resync_dirty()
            assert sup._resync_backlog[("/f", 0, 1)]["attempts"] == round_ + 1
        sup._resync_dirty()  # the capping attempt
        assert sup.resync_pending() == 0
        assert any(
            e["event"] == "resync_abandoned" for e in sup.journal
        )
        assert sup.metrics.counter("selfheal.resyncs.abandoned") == 1

    def test_step_drains_ledgers(self):
        cluster, det, sup = _supervisor()
        ledger = FakeLedgerClient({("/f", 3, 2): 9})
        sup.register_client(ledger)
        sup.step()
        assert ledger.dirty_replicas == {}
        assert sup.repairer.resyncs == [("/f", 3, 2, ())]


# -- wire repair over real sockets --------------------------------------------


def _divergent_payload(payload: bytes) -> bytes:
    return bytes(b ^ 0xFF for b in payload)


class TestWireRepairOverSockets:
    CFG = dict(chunk_size=256, replication=2, integrity_enabled=True)

    def test_resync_pushes_authoritative_copy(self):
        with LocalSocketCluster(3, config=FSConfig(**self.CFG)) as cluster:
            client = cluster.client(0)
            payload = bytes(range(256)) * 2  # two full chunks
            fd = client.open("/gkfs/r", os.O_CREAT | os.O_WRONLY)
            client.write(fd, payload)
            client.close(fd)
            repairer = WireRepairer(cluster.deployment)
            owners = repairer._chunk_owners("/r", 0)
            stale, source = owners[1], owners[0]
            bad = _divergent_payload(payload[:256])
            crc = chunk_checksum(
                bad, 0, cluster.config.integrity_algorithm
            )
            cluster.deployment.network.call(
                stale, "gkfs_replace_chunk", "/r", 0, bad, crc
            )
            digest = lambda owner: cluster.deployment.network.call(
                owner, "gkfs_chunk_digest", "/r", 0
            )["digest"]
            assert digest(stale) != digest(source)
            assert repairer.resync_chunk("/r", 0, stale) == "resynced"
            assert digest(stale) == digest(source)
            fd = client.open("/gkfs/r")
            assert client.read(fd, len(payload) + 1) == payload
            client.close(fd)

    def test_resync_converged_and_gone(self):
        with LocalSocketCluster(3, config=FSConfig(**self.CFG)) as cluster:
            client = cluster.client(0)
            fd = client.open("/gkfs/c", os.O_CREAT | os.O_WRONLY)
            client.write(fd, b"x" * 256)
            client.close(fd)
            repairer = WireRepairer(cluster.deployment)
            stale = repairer._chunk_owners("/c", 0)[1]
            assert repairer.resync_chunk("/c", 0, stale) == "converged"
            # A path nobody holds has no healthy copy to push: daemons
            # report empty digests (not ENOENT) for unknown chunks, so
            # the mark settles as no-source and the supervisor's attempt
            # cap eventually abandons it.
            assert repairer.resync_chunk("/nope", 0, stale) == "no-source"

    def test_restore_cas_guard_skips_copy_taken_by_foreground_write(self):
        """A foreground write landing on a restore target between the
        digest snapshot and the replace must survive: the target's guard
        sees the copy changed and refuses the replace instead of rolling
        the acked write back with the stale source payload."""
        from repro.selfheal import RepairReport

        with LocalSocketCluster(3, config=FSConfig(**self.CFG)) as cluster:
            client = cluster.client(0)
            payload = bytes(range(256))
            fd = client.open("/gkfs/w", os.O_CREAT | os.O_WRONLY)
            client.write(fd, payload)
            client.close(fd)
            repairer = WireRepairer(cluster.deployment)
            lagging = repairer._chunk_owners("/w", 0)[1]
            algo = cluster.config.integrity_algorithm
            # The lagging replica holds a shorter prefix — the shape a
            # restore targets.
            short = payload[:128]
            cluster.deployment.network.call(
                lagging, "gkfs_replace_chunk", "/w", 0, short,
                chunk_checksum(short, 0, algo),
            )
            fresh = _divergent_payload(payload)
            clean_call = repairer._call

            def racing_call(target, handler, *args, **kwargs):
                reply = clean_call(target, handler, *args, **kwargs)
                if handler == "gkfs_read_chunks":
                    # The race: a foreground write lands on the lagging
                    # copy after the snapshot, before the replace.
                    clean_call(lagging, "gkfs_replace_chunk", "/w", 0, fresh,
                               chunk_checksum(fresh, 0, algo))
                return reply

            repairer._call = racing_call
            report = RepairReport()
            repairer._ensure_chunk("/w", 0, report)
            assert report.chunks_skipped_racing == 1
            assert report.chunks_restored == 0
            echo = cluster.deployment.network.call(
                lagging, "gkfs_chunk_digest", "/w", 0
            )
            assert echo["digest"] == chunk_checksum(fresh, 0, algo)

    def test_restore_source_mangled_on_the_way_is_refused(self):
        """The payload a restore starts from is re-checked against the
        source's own block digests on receipt; one flipped byte between
        the source daemon and the repairer stops the restore."""
        from repro.common.errors import IntegrityError

        with LocalSocketCluster(3, config=FSConfig(**self.CFG)) as cluster:
            client = cluster.client(0)
            fd = client.open("/gkfs/m", os.O_CREAT | os.O_WRONLY)
            client.write(fd, bytes(range(256)))
            client.close(fd)
            repairer = WireRepairer(cluster.deployment)
            source = repairer._chunk_owners("/m", 0)[0]
            fetch = lambda: fetch_chunk(repairer._call, source, "/m", 0, cluster.config)
            assert fetch() == bytes(range(256))
            clean_call = repairer._call

            def mangling_call(target, handler, *args, **kwargs):
                reply = clean_call(target, handler, *args, **kwargs)
                if handler == "gkfs_read_chunks":  # (n, runs, digests, payload)
                    data = bytearray(reply[3])
                    data[100] ^= 0xFF
                    reply = (*reply[:3], bytes(data))
                return reply

            repairer._call = mangling_call
            with pytest.raises(IntegrityError):
                fetch()

    def test_a_source_mangled_on_the_way_leaves_the_copy_for_the_next_pass(self):
        """A restore whose payload fails its proofs installs nothing and
        does not end the pass; the next pass restores the copy."""
        from repro.selfheal import RepairReport

        with LocalSocketCluster(3, config=FSConfig(**self.CFG)) as cluster:
            client = cluster.client(0)
            fd = client.open("/gkfs/m", os.O_CREAT | os.O_WRONLY)
            client.write(fd, bytes(range(256)))
            client.close(fd)
            repairer = WireRepairer(cluster.deployment)
            lagging = repairer._chunk_owners("/m", 0)[1]
            cluster.deployment.network.call(lagging, "gkfs_replace_chunk", "/m", 0, b"", None)
            clean_call = repairer._call

            def mangling_call(target, handler, *args, **kwargs):
                reply = clean_call(target, handler, *args, **kwargs)
                if handler == "gkfs_read_chunks":  # (n, runs, digests, payload)
                    reply = (*reply[:3], bytes(reversed(reply[3])))
                return reply

            repairer._call = mangling_call
            report = RepairReport()
            repairer._ensure_chunk("/m", 0, report)
            assert report.chunks_restored == 0
            assert clean_call(lagging, "gkfs_chunk_digest", "/m", 0)["length"] == 0
            repairer._call = clean_call
            repairer._ensure_chunk("/m", 0, report)
            assert report.chunks_restored == 1

    def test_repair_rebuilds_blank_replacement(self):
        """Crash, respawn blank, repair: every record and chunk the dead
        daemon owed comes back from the surviving replicas."""
        with LocalSocketCluster(3, config=FSConfig(**self.CFG)) as cluster:
            contents = populate(cluster, files=8, file_bytes=600)
            victim = 1
            cluster.crash_daemon(victim)
            cluster.restart_daemon(victim, recover=False)  # in-memory stores: blank
            report = WireRepairer(cluster.deployment).repair()
            assert report.paths_seen >= len(contents)
            assert report.records_restored > 0
            assert report.chunks_restored > 0
            verify(cluster, contents)
            # A second pass finds nothing left to heal.
            again = WireRepairer(cluster.deployment).repair()
            assert again.chunks_restored == 0
            assert again.records_restored == 0


    def test_repair_restores_the_largest_record_and_its_last_chunk(self):
        """The lowest-address owner missed the last size update (4096 of
        8192), so its copy is the first the walk sees: the repair must
        still restore 8192 everywhere and check chunk 1, which the blank
        owner is missing."""
        config = FSConfig(chunk_size=4096, replication=3)
        with LocalSocketCluster(4, config=config) as cluster:
            client = cluster.client(0)
            fd = client.open("/gkfs/w", os.O_CREAT | os.O_WRONLY)
            client.pwrite(fd, b"w" * 8192, 0)
            client.close(fd)
            net = cluster.deployment.network
            repairer = WireRepairer(cluster.deployment)
            meta_owners = repairer._meta_owners("/w")
            stale = min(meta_owners)
            net.call(stale, "gkfs_truncate_metadata", "/w", 4096)
            victim = next(
                o for o in repairer._chunk_owners("/w", 1) if o != stale
            )
            cluster.crash_daemon(victim)
            cluster.restart_daemon(victim, recover=False)  # in-memory stores: blank
            report = repairer.repair()
            assert report.chunks_checked == 2
            for owner in meta_owners:
                assert record_head(net.call(owner, "gkfs_stat", "/w"))[1] == 8192
            digest = net.call(victim, "gkfs_chunk_digest", "/w", 1)
            assert digest["length"] == 4096
            assert client.stat("/gkfs/w").size == 8192

    def test_only_transport_failures_count_as_unreachable(self):
        """A programming error inside one repair call propagates; it is
        not reported as an unreachable daemon."""
        config = FSConfig(chunk_size=256, replication=2)
        with GekkoFSCluster(3, config=config) as fs:
            populate(fs, files=2)

            class BrokenOnce:
                fired = False

                def call(self, target, handler, *args, **kwargs):
                    if handler == "gkfs_stat" and not self.fired:
                        self.fired = True
                        raise TypeError("a bug, not an outage")
                    return fs.network.call(target, handler, *args, **kwargs)

            deployment = SimpleNamespace(
                network=BrokenOnce(),
                config=fs.config,
                num_nodes=fs.num_nodes,
                view=fs.view,
            )
            with pytest.raises(TypeError):
                WireRepairer(deployment).repair()

    def test_restore_dropped_by_the_fabric_lists_the_owner(self):
        """A restart's restore RPC lost on the wire does not abort the
        recovery: the owner is listed unreachable and the next pass (or
        restart) retries."""
        config = FSConfig(chunk_size=256, replication=2)
        with GekkoFSCluster(4, config=config) as fs:
            populate(fs, files=4)
            faults = splice_faults(fs.network)
            victim = 1
            fs.crash_daemon(victim)
            fs.restart_daemon(victim, recover=False)  # in-memory: blank
            faults.arm(lambda r: r.handler == "gkfs_replace_chunk")
            report = WireRepairer(fs).repair()
            assert faults.fired == 1
            assert victim in report.unreachable
            assert report.chunks_restored > 0
            again = WireRepairer(fs).repair()
            assert again.chunks_restored == 1
            assert again.unreachable == []


# -- one restore path ---------------------------------------------------------


class TestOneRestorePath:
    def test_restart_replace_and_supervisor_all_repair_on_the_wire(
        self, monkeypatch
    ):
        calls = []

        def counting(self):
            calls.append(self)
            return RepairReport()

        monkeypatch.setattr(WireRepairer, "repair", counting)
        with GekkoFSCluster(4, config=FSConfig(replication=2)) as fs:
            fs.crash_daemon(1)
            fs.restart_daemon(1, recover=True)
            assert len(calls) == 1
            fs.crash_daemon(2)
            fs.replace_daemon(2)
            assert len(calls) == 2
        cluster = FakeCluster()
        cluster.dead.add(3)
        sup = Supervisor(cluster, FakeDetector(), clock=FakeClock())
        assert sup.repair(3)["event"] == "repair_complete"
        assert len(calls) == 3


class TestFlatNamespaceRepair:
    """A file may exist under a parent that was never created (§III-A);
    the repairer lists records flat, so it restores that file's replica
    set like any other."""

    def _lose_primary_record(self, deployment, rel):
        repairer = WireRepairer(deployment)
        owners = repairer._meta_owners(rel)
        deployment.network.call(owners[0], "gkfs_remove_metadata", rel, False)
        return repairer, owners

    def _held_on(self, deployment, rel):
        held = []
        for address in range(deployment.num_nodes):
            try:
                deployment.network.call(address, "gkfs_stat", rel)
            except NotFoundError:
                continue
            held.append(address)
        return held

    def _check(self, deployment, client):
        client.write_bytes("/gkfs/soak/f002", b"s" * 1000)  # no mkdir
        repairer, owners = self._lose_primary_record(deployment, "/soak/f002")
        assert self._held_on(deployment, "/soak/f002") == owners[1:]
        report = repairer.repair()
        assert report.records_restored == 1
        assert self._held_on(deployment, "/soak/f002") == sorted(owners)
        assert client.read_bytes("/gkfs/soak/f002") == b"s" * 1000

    def test_in_process(self):
        with GekkoFSCluster(4, config=FSConfig(replication=2)) as fs:
            self._check(fs, fs.client(0))

    def test_over_sockets(self):
        with LocalSocketCluster(4, config=FSConfig(replication=2)) as cluster:
            self._check(cluster.deployment, cluster.client(0))


# -- SIGKILL inside a migration write freeze (satellite 4) --------------------


class TestFreezeCrashDuringMigration:
    def test_crash_in_freeze_unparks_gate_and_repairs_cleanly(
        self, monkeypatch
    ):
        """Kill a daemon after the write freeze engages, with delta work
        destined for it: the migration aborts, the mutation gate
        unparks, the bumped epoch is not reused, and a supervisor repair
        completes without racing the aborted change."""
        cfg = FSConfig(chunk_size=256, replication=2)
        with LocalSocketCluster(4, config=cfg) as fs:
            contents = populate(fs, files=10, file_bytes=600)
            old_dist = fs.view.distributor
            new_dist = RendezvousDistributor(4)

            def owners(dist, rel):
                meta = dist.locate_metadata(rel)
                chunk = dist.locate_chunk(rel, 0)
                return {(meta + k) % 4 for k in range(2)} | {
                    (chunk + k) % 4 for k in range(2)
                }

            # A path whose *new* owner set gains a daemon: the frozen
            # delta pass must contact that daemon — our victim.
            fresh_rel = victim = None
            for i in range(256):
                gained = owners(new_dist, f"/fresh{i}") - owners(
                    old_dist, f"/fresh{i}"
                )
                if gained:
                    fresh_rel, victim = f"/fresh{i}", min(gained)
                    break
            assert fresh_rel is not None
            # A path the victim serves no role for under the *old*
            # placement: its writer must sail through after the abort.
            parked_rel = next(
                f"/parked{i}"
                for i in range(256)
                if victim not in owners(old_dist, f"/parked{i}")
            )

            writer = fs.client(0)
            parked_done = threading.Event()
            parked_errors = []

            def parked_writer():
                try:
                    client = fs.client(1)
                    fd = client.open(
                        "/gkfs" + parked_rel, os.O_CREAT | os.O_WRONLY
                    )
                    client.write(fd, b"late" * 64)
                    client.close(fd)
                except Exception as exc:  # pragma: no cover - fatal
                    parked_errors.append(exc)
                finally:
                    parked_done.set()

            original_freeze = fs.view.freeze_writes
            thread = threading.Thread(target=parked_writer)

            def hooked_freeze():
                # Dirty a path the victim must receive, then freeze,
                # then kill the victim and park a writer at the gate.
                fd = writer.open(
                    "/gkfs" + fresh_rel, os.O_CREAT | os.O_WRONLY
                )
                writer.write(fd, bytes(range(256)))
                writer.close(fd)
                original_freeze()
                fs.crash_daemon(victim)
                thread.start()

            monkeypatch.setattr(fs.view, "freeze_writes", hooked_freeze)
            epoch_before = fs.view.epoch
            with pytest.raises(Exception):
                live_migrate(fs, new_dist, grace=0.05)
            # Abort left the old placement authoritative, the gate open,
            # and the epoch consumed (never reused).
            assert fs.view.state == "stable"
            assert fs.view._writable.is_set()
            assert fs.view.epoch == epoch_before + 1
            assert fs.view.distributor is old_dist
            # The parked writer sailed through once the gate lifted.
            assert parked_done.wait(timeout=10.0)
            thread.join(timeout=10.0)
            assert not parked_errors, f"parked writer: {parked_errors[0]!r}"
            # Hands-free repair of the victim must not race the aborted
            # epoch: restart, epoch-stamped redundancy restore, no
            # StaleEpochError, everything acked still readable.
            sup = Supervisor(fs, FakeDetector())
            entry = sup.repair(victim)
            assert entry["event"] == "repair_complete", entry
            assert not [
                e for e in sup.journal if e["event"] == "repair_failed"
            ]
            acked = dict(contents)
            acked["/gkfs" + fresh_rel] = bytes(range(256))
            acked["/gkfs" + parked_rel] = b"late" * 64
            verify(fs, acked)


# -- the per-call stall watchdog (satellite 3) --------------------------------


class TestStallWatchdog:
    def test_sigstop_turns_into_timeout_with_breaker_evidence(self):
        """A SIGSTOPped daemon keeps its sockets open: without the
        watchdog the call would hang forever.  With ``rpc_call_timeout``
        it fails fast, counts as a stall, and feeds the breaker."""
        cfg = FSConfig(
            rpc_call_timeout=0.5, breaker_enabled=True, rpc_retries=0
        )
        with ProcessCluster(2, config=cfg) as cluster:
            cluster.deployment.network.call(0, "gkfs_ping")  # warm channel
            cluster.suspend_daemon(0)
            try:
                started = time.monotonic()
                with pytest.raises(Exception):
                    cluster.deployment.network.call(0, "gkfs_ping")
                assert time.monotonic() - started < 5.0  # no silent hang
                assert cluster.deployment.socket_transport.stalled_calls >= 1
                health = cluster.deployment.health.snapshot()[0]
                assert (
                    health["consecutive_failures"] > 0
                    or health["state"] != "closed"
                )
            finally:
                cluster.resume_daemon(0)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    cluster.deployment.network.call(0, "gkfs_ping")
                    break
                except Exception:
                    time.sleep(0.2)
            else:
                pytest.fail("daemon never recovered after SIGCONT")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FSConfig(rpc_call_timeout=0.0)


# -- negative (ENOENT) metadata caching (satellite 2) -------------------------


class TestNegativeCaching:
    def test_lease_lifecycle(self):
        clock = FakeClock()
        cache = ClientMetaCache(ttl=1.0, capacity=8, clock=clock)
        assert not cache.lookup_negative("/x")
        cache.put_negative("/x")
        assert cache.lookup_negative("/x")
        assert cache.stats.negative_puts == 1
        assert cache.stats.negative_hits == 1
        clock.advance(1.5)  # lease expired: the path may exist by now
        assert not cache.lookup_negative("/x")
        assert cache.stats.expirations == 1

    def test_invalidation_on_create(self):
        clock = FakeClock()
        cache = ClientMetaCache(ttl=10.0, capacity=8, clock=clock)
        cache.put_negative("/x")
        cache.put_attr("/x", b"record", version=1)
        assert not cache.lookup_negative("/x")  # create killed the ENOENT
        entry, fresh = cache.lookup_attr("/x")
        assert fresh and entry.record == b"record"

    def test_positive_falls_when_owner_says_enoent(self):
        clock = FakeClock()
        cache = ClientMetaCache(ttl=10.0, capacity=8, clock=clock)
        cache.put_attr("/x", b"record", version=1)
        cache.put_negative("/x")
        entry, fresh = cache.lookup_attr("/x")
        assert entry is None

    def test_invalidate_attr_drops_both(self):
        clock = FakeClock()
        cache = ClientMetaCache(ttl=10.0, capacity=8, clock=clock)
        cache.put_negative("/x")
        cache.invalidate_attr("/x")
        assert not cache.lookup_negative("/x")
        assert cache.stats.negative_hits == 0

    def test_client_answers_repeat_enoent_from_cache(self):
        cfg = FSConfig(metacache_enabled=True, metacache_ttl=30.0)
        with LocalSocketCluster(2, config=cfg) as cluster:
            client = cluster.client(0)
            with pytest.raises(NotFoundError):
                client.stat("/gkfs/nope")
            assert client.meta.leases.stats.negative_puts >= 1
            with pytest.raises(NotFoundError):
                client.stat("/gkfs/nope")
            assert client.meta.leases.stats.negative_hits >= 1
            # Creating the path must bust the cached ENOENT immediately.
            fd = client.open("/gkfs/nope", os.O_CREAT | os.O_WRONLY)
            client.write(fd, b"alive")
            client.close(fd)
            assert client.stat("/gkfs/nope").size == 5


# -- push-mode SLO alert sinks (satellite 1) ----------------------------------


def _burning_window(errors: int, calls: int) -> dict:
    return {
        "start": 0.0,
        "end": 1.0,
        "counters": {"rpc.errors.gkfs_stat": errors} if errors else {},
        "gauges": {},
        "gauge_deltas": {"rpc.calls.gkfs_stat": calls},
        "histograms": {},
    }


class TestSloAlertSinks:
    def _engine(self):
        return SloEngine(
            slos=[
                SLO(
                    name="rpc-errors",
                    objective=0.999,
                    kind="error",
                    source="rpc.errors.*",
                    total="rpc.calls.*",
                )
            ],
            rules=[BurnRateRule(short=1, long=1, burn=10.0, severity="page")],
        )

    def test_sinks_hear_every_alert(self):
        engine = self._engine()
        heard = []
        engine.add_sink(heard.append)
        report = engine.evaluate_and_emit(
            {"windows": [_burning_window(errors=5, calls=10)]}
        )
        assert report["alerts"]
        assert [a["slo"] for a in heard] == ["rpc-errors"]
        assert heard[0]["severity"] == "page"

    def test_quiet_windows_push_nothing(self):
        engine = self._engine()
        heard = []
        engine.add_sink(heard.append)
        engine.evaluate_and_emit(
            {"windows": [_burning_window(errors=0, calls=1000)]}
        )
        assert heard == []

    def test_raising_sink_never_breaks_delivery(self):
        engine = self._engine()
        heard = []

        def hostile(alert):
            raise RuntimeError("sink crashed")

        engine.add_sink(hostile)
        engine.add_sink(heard.append)
        report = engine.evaluate_and_emit(
            {"windows": [_burning_window(errors=5, calls=10)]}
        )
        assert report["alerts"] and heard  # the good sink still heard it

    def test_remove_sink_and_type_check(self):
        engine = self._engine()
        heard = []
        engine.add_sink(heard.append)
        engine.remove_sink(heard.append)  # bound-method identity differs
        engine.remove_sink(heard.append)  # unknown sinks are ignored
        with pytest.raises(TypeError):
            engine.add_sink("not callable")

    def test_supervisor_rides_the_sink(self):
        engine = self._engine()
        cluster, det, sup = _supervisor()
        engine.add_sink(sup.on_slo_alert)
        engine.evaluate_and_emit(
            {"windows": [_burning_window(errors=5, calls=10)]}
        )
        assert sup.metrics.counter("selfheal.slo_alerts") == 1
        assert any(e["event"] == "slo_alert" for e in sup.journal)


# -- the chaos soak, in miniature ---------------------------------------------


class TestSoakSmoke:
    def test_short_seeded_soak_holds_every_invariant(self, tmp_path):
        """Three seconds of seeded chaos over a real process cluster:
        every acked byte verified, zero false condemnations, and the
        full supervisor journal archived in the report."""
        from repro.faults.soak import SoakHarness

        harness = SoakHarness(
            workdir=str(tmp_path),
            seed=101,
            duration=3.0,
            num_nodes=4,
            fault_interval=1.0,
            files=6,
        )
        report = harness.run()
        assert report.passed, report.violations
        assert report.seed == 101
        assert report.ops > 0
        assert report.availability > 0.5
        assert report.false_condemnations == []
        payload = report.as_dict()
        assert payload["passed"] is True
        assert "journal" in payload["supervisor"]
        assert payload["bytes_verified"] > 0
        # The report's faults are the controller's log, lethal ones included.
        logged = [(e.action, e.target) for e in harness.chaos.log]
        assert [(f["kind"], f["target"]) for f in report.faults] == logged
        lethal = [f for f in report.faults if f["kind"] in ("crash", "hang")]
        assert all((f["kind"], f["target"]) in logged for f in lethal)
