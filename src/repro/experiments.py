"""Executable experiment registry — DESIGN.md's index as code.

Every reproduced artefact (figure panel, in-text claim, ablation) is
registered here with a runner that returns structured results and a
``holds`` flag stating whether the paper's shape survives in this run.
The benchmark harness gives each experiment its own printed bench; this
registry is the programmatic interface (used by ``python -m repro
experiments`` and by downstream users comparing against their own
numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.units import GiB, KiB, MiB
from repro.models import GekkoFSModel, LustreModel, aggregated_ssd_peak

__all__ = ["Experiment", "REGISTRY", "run_experiment", "run_all"]


@dataclass(frozen=True)
class Experiment:
    """One registry entry.

    :ivar exp_id: DESIGN.md identifier (FIG2a, T-META, ABL-CHUNK, ...).
    :ivar title: one-line description.
    :ivar paper_statement: what the paper reports.
    :ivar runner: produces ``{"holds": bool, ...metrics...}``.
    """

    exp_id: str
    title: str
    paper_statement: str
    runner: Callable[[], dict]


def chaos_seed(seed: Optional[int] = None) -> int:
    """``seed`` if given, else ``$CHAOS_SEED`` (CI pins it), else 101."""
    if seed is not None:
        return seed
    import os

    return int(os.environ.get("CHAOS_SEED", "101"))


def _fig2(op: str, anchor: float, factor: float) -> dict:
    gekko, lustre = GekkoFSModel(), LustreModel()
    measured = gekko.metadata_throughput(512, op)
    baseline = lustre.metadata_throughput(512, op, single_dir=False)
    scaling = [gekko.metadata_throughput(n, op) for n in (1, 8, 64, 512)]
    return {
        "measured_512": measured,
        "factor_512": measured / baseline,
        "holds": (
            abs(measured - anchor) / anchor < 0.06
            and abs(measured / baseline - factor) / factor < 0.06
            and all(b > a for a, b in zip(scaling, scaling[1:]))
        ),
    }


def _fig3(write: bool, anchor: float, efficiency: float) -> dict:
    model = GekkoFSModel()
    measured = model.data_throughput(512, 64 * MiB, write=write)
    eff = measured / aggregated_ssd_peak(512, write=write)
    return {
        "measured_512": measured,
        "efficiency": eff,
        "holds": abs(measured - anchor) / anchor < 0.06 and abs(eff - efficiency) < 0.03,
    }


def _t_data() -> dict:
    model = GekkoFSModel()
    w_iops = model.data_iops(512, 8 * KiB, write=True)
    r_iops = model.data_iops(512, 8 * KiB, write=False)
    latency = model.data_latency(512, 8 * KiB, write=True)
    return {
        "write_iops": w_iops,
        "read_iops": r_iops,
        "latency_8k": latency,
        "holds": w_iops > 13e6 and r_iops > 22e6 and latency <= 700e-6,
    }


def _t_rand() -> dict:
    model = GekkoFSModel()
    w = 1 - model.data_throughput(512, 8 * KiB, write=True, random=True) / model.data_throughput(
        512, 8 * KiB, write=True
    )
    r = 1 - model.data_throughput(512, 8 * KiB, write=False, random=True) / model.data_throughput(
        512, 8 * KiB, write=False
    )
    chunk_gap = 1 - model.data_throughput(
        512, 512 * KiB, write=True, random=True
    ) / model.data_throughput(512, 512 * KiB, write=True)
    return {
        "write_penalty_8k": w,
        "read_penalty_8k": r,
        "chunk_size_gap": chunk_gap,
        "holds": abs(w - 0.33) < 0.05 and abs(r - 0.60) < 0.05 and chunk_gap < 0.06,
    }


def _t_shared() -> dict:
    model = GekkoFSModel()
    ceiling = model.data_iops(512, 8 * KiB, write=True, shared_file=True)
    cached = model.data_throughput(512, 8 * KiB, write=True, shared_file=True, size_cache=True)
    fpp = model.data_throughput(512, 8 * KiB, write=True)
    return {
        "ceiling_ops": ceiling,
        "cached_vs_fpp": cached / fpp,
        "holds": abs(ceiling - 150e3) / 150e3 < 0.06 and cached / fpp > 0.99,
    }


def _t_start() -> dict:
    model = GekkoFSModel()
    t = model.startup_time(512)
    return {"startup_512": t, "holds": t < 20.0}


def _t_ldata() -> dict:
    lustre = LustreModel()
    return {
        "saturation_nodes": lustre.data_saturation_nodes(),
        "partition_peak": lustre.data_throughput(512),
        "holds": lustre.data_saturation_nodes() <= 10
        and abs(lustre.data_throughput(512) - 12 * GiB) / (12 * GiB) < 0.01,
    }


def _ext_balance() -> dict:
    """Measure the §III even-striping claim from live per-daemon metrics.

    A shared-file IOR-style write across many chunks, with the
    observability plane on; the cluster metrics broadcast then yields
    per-daemon chunk-write counts.  Holds when (a) the counts sum to the
    workload's expected chunk total (no chunk lost or double-counted)
    and (b) the distribution is near-even: max/mean skew <= 2 and Gini
    <= 0.3 — a hot daemon would fail both.
    """
    import os as _os

    from repro.analysis.loadmap import balance_report
    from repro.core.cluster import GekkoFSCluster
    from repro.core.config import FSConfig

    nodes = 4
    chunk = 4 * KiB
    chunks_total = 256  # >> nodes, so the law of large numbers applies
    payload = b"b" * chunk

    with GekkoFSCluster(nodes, FSConfig(chunk_size=chunk, telemetry_enabled=True)) as cluster:
        client = cluster.client()
        fd = client.open("/gkfs/shared", _os.O_CREAT | _os.O_WRONLY)
        for i in range(chunks_total):  # chunk-aligned: one write op per chunk
            client.pwrite(fd, payload, i * chunk)
        client.close(fd)
        metrics = cluster.metrics()

    writes = {
        address: snap["gauges"]["storage.write_ops"]
        for address, snap in metrics["per_daemon"].items()
    }
    stats = {s.metric: s for s in balance_report(metrics)}
    chunk_stat = stats["chunk writes"]
    return {
        "chunk_writes_per_daemon": writes,
        "chunk_writes_total": chunk_stat.total,
        "expected_chunks": chunks_total,
        "skew": chunk_stat.skew,
        "gini": chunk_stat.gini,
        "holds": (
            chunk_stat.total == chunks_total
            and chunk_stat.skew <= 2.0
            and chunk_stat.gini <= 0.3
        ),
    }


def _ext_avail() -> dict:
    """IOR-style throughput before/during/after killing 1 of 4 daemons.

    Extension measurement — the paper has no fault-tolerance story (§I),
    so there is no paper number to match; the claim under test is the
    repo's own: with replication 2 the workload completes *correctly*
    while a daemon is down, and recovery restores a clean deployment.
    """
    import time

    from repro.core.cluster import GekkoFSCluster
    from repro.core.config import FSConfig
    from repro.faults import ChaosController

    model = GekkoFSModel()
    block = 64 * KiB
    files, blocks_per_file = 6, 4
    payload = bytes(range(256)) * (block // 256)

    def ior_round(cluster, tag: str) -> float:
        client = cluster.client()
        started = time.perf_counter()
        import os as _os

        for f in range(files):
            fd = client.open(f"/gkfs/{tag}/f{f}", _os.O_CREAT | _os.O_WRONLY)
            for b in range(blocks_per_file):
                client.pwrite(fd, payload, b * block)
            client.close(fd)
        for f in range(files):
            fd = client.open(f"/gkfs/{tag}/f{f}", _os.O_RDONLY)
            for b in range(blocks_per_file):
                if client.pread(fd, block, b * block) != payload:
                    raise AssertionError(f"corrupt read in phase {tag}")
            client.close(fd)
        elapsed = time.perf_counter() - started
        return files * blocks_per_file * block * 2 / elapsed

    with GekkoFSCluster(4, FSConfig(replication=2, degraded_mode=True)) as cluster:
        chaos = ChaosController(cluster, seed=11)
        healthy = ior_round(cluster, "healthy")
        chaos.crash(1)
        degraded = ior_round(cluster, "degraded")
        report = chaos.restart(1)
        recovered = ior_round(cluster, "recovered")

    return {
        "healthy_bytes_per_s": healthy,
        "degraded_bytes_per_s": degraded,
        "recovered_bytes_per_s": recovered,
        "records_resynced": report.records_resynced,
        "model_availability": model.availability(4, 1, replication=2),
        "holds": report.fsck.clean
        and model.availability(4, 1, replication=2) == 1.0,
    }


def _ext_overload() -> dict:
    """Fair shares and the saturation plateau under the QoS plane.

    Extension measurement (the paper's daemons are strictly FIFO, §III-C
    has dedicated streams but no scheduler) testing the two headline QoS
    claims on a live single-daemon deployment:

    * **Fairness** — one victim client keeping 4 RPCs in flight competes
      with 8 greedy clients keeping 64 each.  Under plain FIFO service a
      client's share is its share of the queue (4/516 ≈ 0.8% — starved);
      under weighted-fair queueing every backlogged client gets an equal
      share regardless of queue depth.  Holds when the victim's measured
      share is >= 0.5x its fair share with WFQ and < 0.2x without.
    * **No congestion collapse** — sync drivers saturate the daemon at T
      and 2T concurrency; accepted throughput at 2x must stay within
      15% of peak in at least one interleaved measurement pair — the
      M/M/c/K plateau from :func:`repro.models.queueing.mmck_metrics`
      (whose finite buffer converts excess offered load into bounded
      pushback instead of unbounded queue growth).  Collapse, if real,
      reproduces in every pair; scheduler noise on a loaded or
      single-core host only ever lowers individual windows, hence the
      best-pair gate and the 15% margin.

    The shares come from :func:`overload_pump` (also behind ``repro
    overload``), whose self-refilling pumps keep every client backlogged.
    """
    import threading
    import time

    from repro.common.errors import AgainError
    from repro.core.cluster import GekkoFSCluster
    from repro.core.config import FSConfig
    from repro.models.queueing import weighted_fair_shares

    GREEDY, GREEDY_DEPTH, VICTIM_DEPTH = 8, 64, 4
    WARMUP, WINDOW = 0.1, 0.4

    def victim_share_ratio(wfq: bool) -> float:
        """Victim's measured share relative to an equal split (1.0 = fair)."""
        deltas = overload_pump(
            [VICTIM_DEPTH] + [GREEDY_DEPTH] * GREEDY,
            wfq=wfq,
            warmup=WARMUP,
            window=WINDOW,
        )["ops"]
        fair = sum(deltas) / len(deltas)
        return deltas[0] / fair if fair else 0.0

    def accepted_rate(drivers: int) -> float:
        """Ops/s completed by ``drivers`` sync clients on one meta worker."""
        done = [0] * drivers
        stop = threading.Event()
        with GekkoFSCluster(
            1,
            FSConfig(
                qos_enabled=True,
                qos_meta_workers=1,
                qos_queue_limit=64,
                qos_throttle_retries=64,
            ),
        ) as cluster:
            ports = [cluster.client().network for _ in range(drivers)]

            def drive(index: int, port) -> None:
                while not stop.is_set():
                    try:
                        port.call(0, "gkfs_statfs")
                    except AgainError:
                        continue  # retries exhausted this round; keep offering
                    done[index] += 1

            threads = [
                threading.Thread(target=drive, args=(i, port), daemon=True)
                for i, port in enumerate(ports)
            ]
            for t in threads:
                t.start()
            # Double the fairness window: an accepted-*rate* window is
            # absolute (not a ratio like the shares above), so scheduler
            # noise on a loaded host needs more averaging time.
            time.sleep(2 * WINDOW)
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
        return sum(done) / (2 * WINDOW)

    share_fifo = victim_share_ratio(wfq=False)
    share_wfq = victim_share_ratio(wfq=True)
    # Interleaved pairs, plateau judged within each pair: the two
    # windows of a pair run back to back and share machine conditions,
    # so comparing across pairs would put one lucky window against one
    # unlucky one and break the plateau check spuriously.  Real
    # congestion collapse drops the 2x window in *every* pair; noise
    # only ever lowers individual windows, so one clean pair suffices —
    # keep sampling (GC-quiet, up to four pairs) until one shows up.
    import gc as _gc

    pairs = []
    plateau = 0.0
    _gc.collect()
    _gc.disable()
    try:
        while len(pairs) < 4 and plateau < 0.85:
            pairs.append((accepted_rate(8), accepted_rate(16)))
            s, o = pairs[-1]
            plateau = max(plateau, o / max(s, o))
    finally:
        _gc.enable()
    saturated = max(s for s, _ in pairs)
    overloaded = max(o for _, o in pairs)

    # Analytic twin: water-filling over equally-weighted, all-backlogged
    # clients predicts an exactly equal split — victim ratio 1.0.
    demands = {"victim": 1.0, **{f"greedy{i}": 1.0 for i in range(GREEDY)}}
    model = weighted_fair_shares(1.0, demands)
    model_ratio = model["victim"] / (1.0 / len(demands))

    return {
        "victim_share_fifo": share_fifo,
        "victim_share_wfq": share_wfq,
        "model_victim_share": model_ratio,
        "accepted_at_saturation": saturated,
        "accepted_at_2x": overloaded,
        "plateau_ratio": plateau,
        "holds": (
            share_fifo < 0.2
            and share_wfq >= 0.5
            and plateau >= 0.85
        ),
    }


def _ext_integrity() -> dict:
    """End-to-end data integrity: checksums, fail-over, and self-healing.

    Extension measurement (the paper's GekkoFS trusts the SSD, §III-B)
    driving the whole integrity plane on a live deployment, seeded from
    ``CHAOS_SEED`` so CI can pin corruption patterns:

    * **Replication 2** — seeded bit-rot on <= 25% of one daemon's
      chunks; every client read must still return verified-correct data
      (checksum fail-over to the intact replica), and after a second
      corruption round one full scrub pass must converge: every corrupt
      chunk found is repaired, none unrepairable, fsck clean after.
    * **Replication 1** — corruption has no surviving copy: the read
      fails loudly with ``IntegrityError`` (EIO) instead of serving
      rotten bytes, the scrubber quarantines every damaged chunk, and
      fsck lists the quarantined set.

    The closed-form twin (:mod:`repro.models.integrity`) is evaluated at
    the same replication factors to show what the empirical result
    generalises to at campaign scale.
    """
    from repro.core import fsck
    from repro.core.cluster import GekkoFSCluster
    from repro.core.config import FSConfig
    from repro.faults import ChaosController, Scrubber
    from repro.faults.soak import LedgeredWorkload
    from repro.models.integrity import mission_survival_probability

    seed = chaos_seed()
    files, chunks_per_file = 6, 8

    # Part A: replication 2 — reads survive, the scrubber converges.
    run = bitrot_scrub(4, files, chunks_per_file, replication=2, fraction=0.25, seed=seed)
    scrub_pass, second_pass = run["scrub"], run["second_pass"]
    reads_ok = run["reads_ok"] == files
    part_a = (
        reads_ok
        and run["integrity_failovers"] >= 1
        and scrub_pass.corrupt_found >= len(run["damaged_round2"])
        and scrub_pass.corrupt_found == scrub_pass.repaired
        and scrub_pass.unrepairable == 0
        and second_pass.corrupt_found == 0
        and run["fsck_clean"]
    )

    # Part B: replication 1 — loud failure and quarantine, no silent rot.
    config = FSConfig(chunk_size=4 * KiB, integrity_enabled=True, integrity_block_size=KiB)
    solo = LedgeredWorkload(f"integrity:{seed}", seed, 1, 4 * KiB * chunks_per_file,
                            prefix="/gkfs/solo")
    with GekkoFSCluster(4, config) as cluster:
        client = cluster.client()
        solo.populate(client)
        chaos = ChaosController(cluster, seed=seed)
        victim = cluster.distributor.locate_chunk(solo.path(0).removeprefix("/gkfs"), 0)
        damaged_solo = chaos.bitrot(victim, 0.5)
        unreadable, _mismatched, _verified = solo.verify(client)
        read_raised = len(unreadable) == 1 and "IntegrityError" in unreadable[0]
        solo_pass = Scrubber(cluster).run()
        solo_fsck = fsck.check(cluster)

    part_b = (
        read_raised
        and solo_pass.unrepairable == len(damaged_solo)
        and len(solo_fsck.quarantined_chunks) == len(damaged_solo)
    )

    # Analytic twin at campaign scale: 1M chunks, 30-day mission, hourly
    # scrub, lambda = 1e-9 corruptions per replica-second.
    twin = {
        r: mission_survival_probability(1e-9, 3600.0, r, 10**6, 30 * 86400.0)
        for r in (1, 2, 3)
    }

    return {
        "seed": seed,
        "damaged_round1": len(run["damaged_round1"]),
        "damaged_round2": len(run["damaged_round2"]),
        "reads_verified_ok": reads_ok,
        "integrity_failovers": run["integrity_failovers"],
        "read_repairs": run["read_repairs"],
        "scrub_corrupt_found": scrub_pass.corrupt_found,
        "scrub_repaired": scrub_pass.repaired,
        "scrub_unrepairable": scrub_pass.unrepairable,
        "second_pass_corrupt": second_pass.corrupt_found,
        "fsck_clean_after_scrub": run["fsck_clean"],
        "replication1_read_raises": read_raised,
        "replication1_quarantined": len(solo_fsck.quarantined_chunks),
        "model_survival_by_replication": twin,
        "holds": part_a and part_b,
    }


def _ext_elastic() -> dict:
    """Elastic membership: grow 4 -> 8 online under IOR-style write load.

    Extension measurement (the paper's membership is fixed at bootstrap,
    §III-A): a live cluster doubles while a client keeps writing.

    * **No acknowledged byte lost** — every file written before or
      during the change reads back correct afterwards.
    * **Throughput never zero** — the migration interval is quartered
      and each quarter must see at least one acknowledged write, i.e.
      the write freeze is a blip, not an outage.
    * **Bytes moved near the minimum** — measured mover traffic is
      bounded by 1.5x the closed-form rendezvous minimum
      (:mod:`repro.models.rebalance`) plus the raced foreground bytes,
      versus the near-everything a naive ``key % n`` rehash would move.
    """
    from repro.core.config import FSConfig
    from repro.models.rebalance import (
        minimum_bytes_moved,
        modulo_moved_fraction,
        rendezvous_moved_fraction,
    )

    files, chunks_per_file = 12, 6
    old_nodes, new_nodes = 4, 8
    config = FSConfig(chunk_size=4 * KiB, migration_rate=2 * MiB)
    run = resize_pass(config, old_nodes, files, chunks_per_file, grow=new_nodes, load=True)
    report = run["report"]
    total_bytes = run["static_bytes"]

    # Quarter the migration interval; an outage would empty a window.
    quarters = 4
    t0, t1 = run["resize_window"]
    span = (t1 - t0) / quarters
    windows = [0] * quarters
    for stamp in run["write_stamps"]:
        if t0 <= stamp < t1:
            windows[min(int((stamp - t0) / span), quarters - 1)] += 1
    never_zero = all(w > 0 for w in windows)
    data_ok = run["data_ok"]

    # Closed-form twin: the rendezvous minimum for the static payload,
    # with headroom for re-copies plus the foreground bytes raced in
    # under the old placement (worst case each is moved once and then
    # re-streamed by the frozen delta pass).
    load_bytes = run["load_bytes_acked"]
    min_bytes = minimum_bytes_moved(total_bytes, old_nodes, new_nodes)
    byte_bound = 1.5 * min_bytes + 2 * load_bytes

    holds = (
        data_ok
        and never_zero
        and report.epoch == 1
        and report.verify_failures == 0
        and report.bytes_moved <= byte_bound
    )
    return {
        "old_nodes": old_nodes,
        "new_nodes": new_nodes,
        "static_bytes": total_bytes,
        "load_writes_acked": run["load_writes_acked"],
        "load_bytes_acked": load_bytes,
        "bytes_moved": report.bytes_moved,
        "theoretical_min_bytes": min_bytes,
        "byte_bound": byte_bound,
        "chunks_moved_fraction": report.chunks_moved_fraction,
        "rendezvous_fraction": rendezvous_moved_fraction(old_nodes, new_nodes),
        "naive_modulo_fraction_4_to_5": modulo_moved_fraction(4, 5),
        "migration_duration_s": report.duration,
        "copy_passes": report.passes,
        "chunks_verified": report.verified,
        "verify_failures": report.verify_failures,
        "writes_per_quarter": windows,
        "throughput_never_zero": never_zero,
        "lost_files": run["lost_files"],
        "mismatched_files": run["mismatched_files"],
        "workload_finished": run["workload_finished"],
        "workload_error": run["workload_error"],
        "all_acked_data_correct": data_ok,
        "epoch": report.epoch,
        "holds": holds,
    }


def _ext_selfheal() -> dict:
    """Hands-free node-loss survival: kill 1 of 8 daemons under load.

    Extension measurement (the paper has no fault tolerance, §I): a
    chaos soak (:class:`~repro.faults.soak.SoakHarness`) over a real
    8-process cluster whose policy is scripted to one fault.  After a
    1.5 s warm-up one daemon — seeded choice, ``CHAOS_SEED`` env — is
    SIGKILLed with no operator in the loop:

    * the phi-accrual detector must condemn it (and nothing else),
    * the supervisor must restart it and restore redundancy hands-free,
    * wall-clock kill-to-repaired time must stay within **2x the
      analytic twin** (:func:`repro.models.selfheal.mttr`, calibrated
      with the measured per-daemon spawn cost and the victim's own
      probe-gap statistics at the kill),
    * every soak invariant must hold: no acknowledged byte lost, the
      availability floor, full redundancy after quiesce.
    """
    import random
    import shutil
    import tempfile

    from repro.faults.soak import SoakHarness
    from repro.models.selfheal import mttr as twin_mttr

    seed = chaos_seed()
    num_nodes, files, chunk, warmup = 8, 16, 16 * KiB, 1.5
    victim = random.Random(seed).randrange(num_nodes)
    workdir = tempfile.mkdtemp(prefix="ext-selfheal-")
    try:
        harness = SoakHarness(workdir, seed=seed, duration=warmup + 0.5,
                              num_nodes=num_nodes, files=files, chunk_size=chunk)
        gap_stats = []

        def one_kill(elapsed: float) -> None:
            """Kill the victim once its probe-gap history is warm."""
            if elapsed >= warmup and not gap_stats:
                detector = harness.supervisor.detector
                gap_stats.append(detector.gap_stats(victim)
                                 or (harness.probe_interval, detector.min_std))
                harness.chaos.crash(victim)

        harness.policy = one_kill
        report = harness.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detector = harness.supervisor.detector
    killed_at = next(e.t for e in harness.chaos.log if e.action == "crash")
    spawn_per_daemon = report.setup_s / num_nodes
    twin = twin_mttr(
        detector.condemn_phi,
        *gap_stats[0],
        harness.probe_interval,
        spawn_per_daemon,
        files * harness.file_size * harness.config.replication // num_nodes,
        64 * MiB,
    )
    budget = 2.0 * twin
    sup = report.supervisor
    repair = next((r for r in sup["repairs"] if r["address"] == victim), None)
    measured = repair["completed_at"] - killed_at if repair is not None else None
    condemned = sorted({
        e["address"] for e in sup["journal"]
        if e["event"] == "transition" and e["new"] == "condemned"
    })
    data_ok = (
        not report.lost_files
        and not report.mismatched_files
        and report.workload_finished
        and report.workload_error is None
    )
    return {
        "seed": seed,
        "victim": victim,
        "files_acked": len(harness.workload.ledger),
        "spawn_seconds_per_daemon": spawn_per_daemon,
        "twin_mttr_s": twin,
        "mttr_budget_s": budget,
        "measured_mttr_s": measured,
        "restarts": report.restarts,
        "replaces": report.replaces,
        "resyncs": report.resyncs,
        "condemned": condemned,
        "repair_failures": report.repair_failures,
        "lost_files": report.lost_files,  # unreadable
        "mismatched_files": report.mismatched_files,
        "workload_finished": report.workload_finished,
        "workload_error": report.workload_error,
        "all_acked_data_correct": data_ok,
        "availability": report.availability,
        "violations": report.violations,
        "holds": (
            report.passed
            and repair is not None
            and measured <= budget
            and condemned == [victim]
        ),
    }


# -- scenarios: an EXT-* experiment and its CLI command run the same code --


def overload_pump(
    depths: list,
    *,
    wfq: bool = True,
    weights: Optional[dict] = None,
    warmup: float = 0.0,
    window: float = 0.4,
) -> dict:
    """Self-refilling ``gkfs_statfs`` pumps against one daemon.

    EXT-OVERLOAD's fairness run (also behind ``repro overload``): client
    ``i`` keeps ``depths[i]`` RPCs in flight, client 0 being the victim.
    A completion reissues before the lane worker picks its next request,
    so every client stays backlogged and the shares are set by the
    scheduling discipline, not by timing noise.  ``wfq`` serves them on
    weighted-fair QoS lanes (one meta worker, ``weights`` by client id),
    otherwise on the FIFO pool at the same width.

    Returns ``ops``, each client's completions in the ``window`` seconds
    after ``warmup``, and ``shares``, the daemon's per-client service
    totals over the whole run (empty without QoS).
    """
    import threading
    import time
    from functools import partial

    from repro.core.cluster import GekkoFSCluster
    from repro.core.config import FSConfig
    from repro.qos.pool import ANON

    if wfq:
        cluster = GekkoFSCluster(
            1,
            FSConfig(
                qos_enabled=True,
                qos_meta_workers=1,
                qos_queue_limit=4096,  # above total in-flight: pure scheduling
                qos_window_enabled=False,  # fixed client depths, not AIMD
                qos_client_weights=weights,
            ),
        )
    else:
        cluster = GekkoFSCluster(1, threaded=True, handlers_per_daemon=1)
    with cluster:
        ports = [cluster.client().network for _ in depths]
        counts = [0] * len(ports)
        outstanding = list(depths)
        lock = threading.Lock()
        stop = threading.Event()

        def refill(index: int, done=None) -> None:
            if done is not None:
                with lock:
                    counts[index] += 1
                    if stop.is_set():
                        outstanding[index] -= 1
                        return
            ports[index].call_async(0, "gkfs_statfs").add_done_callback(
                partial(refill, index))

        for index, depth in enumerate(depths):
            for _ in range(depth):
                refill(index)
        time.sleep(warmup)
        with lock:
            before = list(counts)
        time.sleep(window)
        with lock:
            after = list(counts)
        stop.set()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with lock:
                if not any(outstanding):
                    break
            time.sleep(0.005)
        # The deployment's own calls (its root record) are no pump's.
        shares = {c: s for c, s in cluster.client_shares().items() if c != ANON}
    return {"ops": [b - a for a, b in zip(before, after)], "shares": shares}


def bitrot_scrub(
    nodes: int,
    files: int,
    chunks_per_file: int,
    *,
    replication: int,
    fraction: float,
    seed: int,
    rate: Optional[float] = None,
) -> dict:
    """Write, rot, read through the rot, rot again, scrub twice, fsck.

    EXT-INTEGRITY's replicated part (also behind ``repro scrub``): ledgered
    files of 4 KiB chunks with 1 KiB digest blocks; seeded bit-rot on
    ``fraction`` of daemon ``seed % nodes``'s chunks before the read-back
    and again after it (the reads may have repaired what they touched);
    then two scrub passes (``rate`` chunks/s) and an fsck.
    """
    from repro.core import fsck
    from repro.core.cluster import GekkoFSCluster
    from repro.core.config import FSConfig
    from repro.faults import ChaosController, Scrubber
    from repro.faults.soak import LedgeredWorkload

    config = FSConfig(chunk_size=4 * KiB, integrity_enabled=True,
                      integrity_block_size=KiB, replication=replication)
    workload = LedgeredWorkload(f"scrub:{seed}", seed, files, 4 * KiB * chunks_per_file,
                                prefix="/gkfs/scrub")
    victim = seed % nodes
    with GekkoFSCluster(nodes, config) as cluster:
        client = cluster.client()
        workload.populate(client)
        chaos = ChaosController(cluster, seed=seed)
        damaged_round1 = chaos.bitrot(victim, fraction)
        unreadable, _mismatched, verified = workload.verify(client)
        damaged_round2 = chaos.bitrot(victim, fraction)
        scrubber = Scrubber(cluster, rate_limit=rate)
        scrub, second_pass = scrubber.run(), scrubber.run()
        clean = fsck.check(cluster).clean
    return {
        "victim": victim,
        "damaged_round1": damaged_round1,
        "damaged_round2": damaged_round2,
        "reads_ok": verified,
        "read_errors": len(unreadable),
        "integrity_failovers": client.stats.integrity_failovers,
        "read_repairs": client.stats.read_repairs,
        "scrub": scrub,
        "second_pass": second_pass,
        "fsck_clean": clean,
    }


def resize_pass(
    config,
    nodes: int,
    files: int,
    chunks_per_file: int,
    *,
    grow: Optional[int] = None,
    replace: Optional[int] = None,
    load: bool = False,
) -> dict:
    """Populate, change membership online, read every acked byte back.

    EXT-ELASTIC's scenario (also behind ``repro resize``): ledgered files
    on ``nodes`` daemons under rendezvous placement, then either a live
    resize to ``grow`` daemons (verified copies) or a crash of daemon
    ``replace`` restored onto an empty replacement from the surviving
    replicas (fsck and a scrub pass follow).  With ``load``, a second
    client on a threaded deployment writes one new 512 B file after
    another from before the change until after it; those are read back
    too, and ``write_stamps`` against ``resize_window`` show the freeze.
    """
    import threading
    import time

    from repro.core import fsck
    from repro.core.cluster import GekkoFSCluster
    from repro.core.distributor import RendezvousDistributor
    from repro.faults import Scrubber
    from repro.faults.soak import LedgeredWorkload

    static = LedgeredWorkload("resize", 0, files, config.chunk_size * chunks_per_file,
                              prefix="/gkfs/resize")
    written = LedgeredWorkload("resize-load", 0, 0, 512, prefix="/gkfs/load")
    stamps: list[float] = []
    errors: list[Exception] = []
    stop = threading.Event()

    def writer(client) -> None:
        while not stop.is_set():
            try:
                written.write(client, len(stamps))
            except Exception as exc:  # pragma: no cover - fatal
                errors.append(exc)
                return
            stamps.append(time.monotonic())

    with GekkoFSCluster(
        nodes, config, distributor=RendezvousDistributor(nodes), threaded=load
    ) as cluster:
        client = cluster.client()
        static.populate(client)
        thread = threading.Thread(target=writer, args=(cluster.client(1),)) if load else None
        if thread is not None:
            client.mkdir("/gkfs/load")
            thread.start()
            time.sleep(0.05)
        try:
            t0 = time.monotonic()
            if grow is not None:
                report = cluster.resize_live(grow)
            else:
                cluster.crash_daemon(replace)
                report = cluster.replace_daemon(replace)
            t1 = time.monotonic()
            if thread is not None:
                time.sleep(0.05)
        finally:
            stop.set()
            if thread is not None:
                thread.join(timeout=60)
        reader = cluster.client()
        checks = [workload.verify(reader) for workload in (static, written)]
        clean, scrub_corrupt = True, 0
        if replace is not None:
            clean = fsck.check(cluster).clean
            scrub_corrupt = Scrubber(cluster).run().corrupt_found

    lost = sum(len(unreadable) for unreadable, _, _ in checks)
    mismatched = sum(len(wrong) for _, wrong, _ in checks)
    finished = thread is None or not thread.is_alive()
    error = repr(errors[0]) if errors else None
    return {
        "report": report,
        "static_bytes": files * static.file_size,
        "load_writes_acked": len(written.ledger),
        "load_bytes_acked": len(written.ledger) * written.file_size,
        "write_stamps": stamps,
        "resize_window": (t0, t1),
        "lost_files": lost,
        "mismatched_files": mismatched,
        "workload_finished": finished,
        "workload_error": error,
        "data_ok": lost == mismatched == 0 and finished and error is None,
        "fsck_clean": clean,
        "scrub_corrupt_found": scrub_corrupt,
    }


def hotspot_storm(
    num_daemons: int,
    metacache_on: bool,
    seed: int = 101,
    duration: float = 0.6,
    client_threads: int = 8,
    ttl: float = 0.025,
    hot_k: int = 5,
    hot_threshold: int = 4,
    hot_window: float = 0.5,
    mode: str = "mixed",
) -> dict:
    """One storm against a single shared file and/or shared directory.

    The measured half of EXT-HOTSPOT (also behind ``repro hotspot``):
    ``client_threads`` concurrent clients hammer the shared targets for
    ``duration`` seconds against a threaded ``num_daemons``-way cluster.
    With the cache off this is the paper's worst case — every stat is an
    RPC to the one daemon owning the hot record.  With it on, leases
    absorb the storm locally and the hot plane spreads the residual
    revalidations over owner + K replicas.

    :param mode: ``"stat"`` = pure 1-file stat storm (the hotspot
        curve's clean measurement), ``"dir"`` = pure listdir storm on
        one shared directory, ``"mixed"`` = 8:1 interleave of both
        (the CLI demo).

    Returns per-daemon metadata RPC counts (the hotspot curve), client
    throughput, and cache-effectiveness counters.
    """
    if mode not in ("stat", "dir", "mixed"):
        raise ValueError(f"unknown storm mode {mode!r}")
    import os as _os
    import random
    import threading
    import time

    from repro.core.cluster import GekkoFSCluster
    from repro.core.config import FSConfig
    from repro.core.distributor import RendezvousDistributor

    stat_handlers = ("gkfs_stat", "gkfs_stat_lease", "gkfs_stat_if_changed")
    dir_handlers = ("gkfs_readdir", "gkfs_readdir_plus")
    config = FSConfig(
        chunk_size=4 * KiB,
        metacache_enabled=metacache_on,
        metacache_ttl=ttl,
        metacache_capacity=4096,
        metacache_hot_enabled=metacache_on,
        # Stability condition: once rotation spreads the storm over the
        # ring, the owner still sees ~clients/ttl/ring reads per second;
        # the demotion threshold must sit below that per window or the
        # key flaps hot->cold->hot (see docs/architecture.md §15).
        metacache_hot_threshold=hot_threshold,
        metacache_hot_window=hot_window,
        metacache_hot_k=hot_k,
        metacache_replica_ttl=duration * 10,
    )
    rng = random.Random(seed)
    offsets = [rng.uniform(0.0, 0.004) for _ in range(client_threads)]
    with GekkoFSCluster(
        num_daemons,
        config,
        distributor=RendezvousDistributor(num_daemons),
        threaded=True,
    ) as cluster:
        setup = cluster.client()
        setup.mkdir("/gkfs/shared")
        fd = setup.open("/gkfs/shared/hot", _os.O_CREAT | _os.O_WRONLY)
        setup.write(fd, b"x" * 512)
        setup.close(fd)
        for i in range(4):
            fd = setup.open(f"/gkfs/shared/s{i}", _os.O_CREAT | _os.O_WRONLY)
            setup.close(fd)
        clients = [
            cluster.client(i % num_daemons) for i in range(client_threads)
        ]
        # Baseline RPC counts: exclude the setup traffic from the curve.
        base = [
            {h: d.engine.calls_served[h] for h in stat_handlers + dir_handlers}
            for d in cluster.daemons
        ]
        stat_ops = [0] * client_threads
        dir_ops = [0] * client_threads
        errors: list[Exception] = []
        barrier = threading.Barrier(client_threads + 1)
        stop = threading.Event()

        def storm(idx: int) -> None:
            client = clients[idx]
            barrier.wait()
            time.sleep(offsets[idx])
            try:
                while not stop.is_set():
                    if mode != "dir":
                        for _ in range(8):
                            client.stat("/gkfs/shared/hot")
                            stat_ops[idx] += 1
                    if mode != "stat":
                        client.listdir("/gkfs/shared")
                        dir_ops[idx] += 1
            except Exception as exc:  # pragma: no cover - fatal
                errors.append(exc)

        threads = [
            threading.Thread(target=storm, args=(i,)) for i in range(client_threads)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.monotonic()
        time.sleep(duration)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        elapsed = time.monotonic() - t0

        per_daemon_stat = [
            sum(d.engine.calls_served[h] - base[i][h] for h in stat_handlers)
            for i, d in enumerate(cluster.daemons)
        ]
        per_daemon_dir = [
            sum(d.engine.calls_served[h] - base[i][h] for h in dir_handlers)
            for i, d in enumerate(cluster.daemons)
        ]
        hit_rate = None
        replica_reads = replica_seeds = 0
        if metacache_on:
            lookups = hits = 0
            for c in clients:
                s = c.meta.leases.stats
                hits += s.attr_hits
                lookups += s.attr_hits + s.attr_misses + s.revalidations
                replica_reads += s.replica_reads
                replica_seeds += s.replica_seeds
            hit_rate = hits / lookups if lookups else 0.0
    total_stat_rpcs = sum(per_daemon_stat)
    return {
        "num_daemons": num_daemons,
        "metacache_on": metacache_on,
        "seed": seed,
        "duration_s": elapsed,
        "errors": len(errors),
        "stat_ops": sum(stat_ops),
        "dir_ops": sum(dir_ops),
        "stat_ops_per_s": sum(stat_ops) / elapsed,
        "dir_ops_per_s": sum(dir_ops) / elapsed,
        "per_daemon_stat_rpcs": per_daemon_stat,
        "per_daemon_dir_rpcs": per_daemon_dir,
        "hottest_share": (
            max(per_daemon_stat) / total_stat_rpcs if total_stat_rpcs else 0.0
        ),
        "stat_rpcs_total": total_stat_rpcs,
        "hit_rate": hit_rate,
        "replica_reads": replica_reads,
        "replica_seeds": replica_seeds,
        "per_client_stat_rate": sum(stat_ops) / elapsed / client_threads,
    }


def _ext_hotspot() -> dict:
    """EXT-HOTSPOT: the client cache + hot plane flatten a stat storm.

    Four storms — 4 and 8 daemons, cache off and on — over one shared
    file and one shared directory, seeded by ``CHAOS_SEED``.  Holds when
    at 8 daemons the hottest daemon's share of stat RPCs drops >= 4x,
    aggregate stat throughput improves >= 3x, the directory storm
    improves >= 2x, and the live hit rate lands within +-0.15 of the
    closed-form twin (:mod:`repro.models.metacache`).
    """
    from repro.models.metacache import offload_ratio, stat_hit_rate

    seed = chaos_seed()
    ttl, hot_k = 0.02, 5
    runs = {}
    for n in (4, 8):
        for on in (False, True):
            runs[(n, on)] = hotspot_storm(
                n, on, seed=seed, ttl=ttl, hot_k=hot_k, duration=2.0, mode="stat"
            )
    dir_off = hotspot_storm(8, False, seed=seed, ttl=ttl, duration=0.5, mode="dir")
    dir_on = hotspot_storm(8, True, seed=seed, ttl=ttl, duration=0.5, mode="dir")
    off8, on8 = runs[(8, False)], runs[(8, True)]
    share_ratio = off8["hottest_share"] / max(on8["hottest_share"], 1e-9)
    stat_speedup = on8["stat_ops_per_s"] / max(off8["stat_ops_per_s"], 1e-9)
    dir_speedup = dir_on["dir_ops_per_s"] / max(dir_off["dir_ops_per_s"], 1e-9)
    # Analytic pin: the live hit rate at the measured per-client access
    # rate must land on the closed form (same for dir pages and attrs,
    # so pin the attr curve — the dominant stream).
    predicted = stat_hit_rate(on8["per_client_stat_rate"], ttl)
    hit_err = abs((on8["hit_rate"] or 0.0) - predicted)
    errors = sum(r["errors"] for r in runs.values()) + dir_off["errors"] + dir_on["errors"]
    holds = (
        errors == 0
        and share_ratio >= 4.0
        and stat_speedup >= 3.0
        and dir_speedup >= 2.0
        and hit_err <= 0.15
    )
    return {
        "seed": seed,
        "ttl": ttl,
        "hot_k": hot_k,
        "curve": {
            f"{n}d_{'on' if on else 'off'}": {
                "per_daemon_stat_rpcs": r["per_daemon_stat_rpcs"],
                "hottest_share": r["hottest_share"],
                "stat_ops_per_s": r["stat_ops_per_s"],
            }
            for (n, on), r in runs.items()
        },
        "dir_ops_per_s_off": dir_off["dir_ops_per_s"],
        "dir_ops_per_s_on": dir_on["dir_ops_per_s"],
        "hottest_share_off_8": off8["hottest_share"],
        "hottest_share_on_8": on8["hottest_share"],
        "share_flattening_ratio_8": share_ratio,
        "model_offload_ratio_8": offload_ratio(8, hot_k),
        "stat_speedup_8": stat_speedup,
        "dir_speedup_8": dir_speedup,
        "hit_rate_live": on8["hit_rate"],
        "hit_rate_model": predicted,
        "hit_rate_abs_err": hit_err,
        "replica_reads": on8["replica_reads"],
        "replica_seeds": on8["replica_seeds"],
        "errors": errors,
        "holds": holds,
    }


REGISTRY: dict[str, Experiment] = {
    exp.exp_id: exp
    for exp in (
        Experiment(
            "FIG2a", "create throughput, 1-512 nodes",
            "~46M creates/s at 512 nodes, ~1405x Lustre, near-linear",
            lambda: _fig2("create", 46e6, 1405),
        ),
        Experiment(
            "FIG2b", "stat throughput, 1-512 nodes",
            "~44M stats/s at 512 nodes, ~359x Lustre",
            lambda: _fig2("stat", 44e6, 359),
        ),
        Experiment(
            "FIG2c", "remove throughput, 1-512 nodes",
            "~22M removes/s at 512 nodes, ~453x Lustre",
            lambda: _fig2("remove", 22e6, 453),
        ),
        Experiment(
            "FIG3a", "sequential write, file-per-process",
            "~141 GiB/s at 64 MiB = 80% of aggregated SSD peak",
            lambda: _fig3(True, 141 * GiB, 0.80),
        ),
        Experiment(
            "FIG3b", "sequential read, file-per-process",
            "~204 GiB/s at 64 MiB = 70% of aggregated SSD peak",
            lambda: _fig3(False, 204 * GiB, 0.70),
        ),
        Experiment(
            "T-DATA", "8 KiB IOPS and latency",
            ">13M write / >22M read IOPS, latency <= 700us",
            _t_data,
        ),
        Experiment(
            "T-RAND", "random vs sequential",
            "-33% write / -60% read at 8 KiB; == sequential at >= chunk size",
            _t_rand,
        ),
        Experiment(
            "T-SHARED", "shared-file write ceiling",
            "~150K ops/s without cache; == file-per-process with cache",
            _t_shared,
        ),
        Experiment(
            "T-START", "daemon bring-up",
            "< 20 s for 512 nodes",
            _t_start,
        ),
        Experiment(
            "T-LDATA", "Lustre partition data ceiling",
            "~12 GiB/s, reached for <= 10 nodes",
            _t_ldata,
        ),
        Experiment(
            "EXT-BALANCE", "per-daemon load balance under wide striping (extension)",
            "paper: hash-based distribution spreads data and metadata "
            "evenly across daemons (§III); verified from live per-daemon "
            "metrics: chunk-write skew and Gini near even",
            _ext_balance,
        ),
        Experiment(
            "EXT-AVAIL", "availability under daemon failure (extension)",
            "paper: none (no fault tolerance, §I); extension: correct "
            "completion with 1 of 4 daemons down at replication 2",
            _ext_avail,
        ),
        Experiment(
            "EXT-OVERLOAD", "fair shares and saturation under overload (extension)",
            "paper: none (FIFO daemons, no scheduler); extension: with WFQ "
            "a victim keeps >= 0.5x its fair share against 8 greedy "
            "clients (< 0.2x without), and accepted throughput at 2x "
            "overload stays within 15% of peak",
            _ext_overload,
        ),
        Experiment(
            "EXT-INTEGRITY", "end-to-end data integrity and self-healing (extension)",
            "paper: none (daemons trust the SSD, §III-B); extension: with "
            "seeded bit-rot on <= 25% of one daemon's chunks at "
            "replication 2, every read returns verified-correct data and "
            "one scrub pass repairs every corrupt chunk (0 unrepairable); "
            "at replication 1 corrupt reads fail with EIO and the "
            "scrubber quarantines the damage",
            _ext_integrity,
        ),
        Experiment(
            "EXT-ELASTIC", "online membership change under load (extension)",
            "paper: none (membership fixed at bootstrap, §III-A); "
            "extension: growing 4 -> 8 daemons online under continuous "
            "writes loses no acknowledged byte, keeps throughput above "
            "zero in every quarter of the migration window, and moves "
            "<= 1.5x the closed-form rendezvous minimum (a naive "
            "modulo rehash would move ~80% at 4 -> 5)",
            _ext_elastic,
        ),
        Experiment(
            "EXT-SELFHEAL", "hands-free node-loss survival (extension)",
            "paper: none (no fault tolerance, §I); extension: SIGKILLing "
            "1 of 8 live daemon processes under IOR-style load is "
            "detected (phi accrual), condemned (it alone), and repaired "
            "hands-free within 2x the analytic-twin MTTR, losing no "
            "acknowledged byte",
            _ext_selfheal,
        ),
        Experiment(
            "EXT-HOTSPOT", "metadata hotspot absorption via client cache (extension)",
            "paper: none (cache-less by design, §III-A; caching named "
            "future work, §V); extension: under a stat storm on one "
            "shared file at 8 daemons, TTL leases plus adaptive hot-key "
            "replication cut the hottest daemon's share of metadata "
            "RPCs >= 4x and lift aggregate stat throughput >= 3x (dir "
            "listings >= 2x), with the live hit rate within 0.15 of "
            "the closed-form twin",
            _ext_hotspot,
        ),
    )
}


def run_experiment(exp_id: str) -> dict:
    """Run one registered experiment; KeyError for unknown ids."""
    return REGISTRY[exp_id].runner()


def run_all() -> dict[str, dict]:
    """Run the whole registry; every ``holds`` flag should be True."""
    return {exp_id: exp.runner() for exp_id, exp in REGISTRY.items()}
