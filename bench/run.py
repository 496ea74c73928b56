#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name and unit.

    python3 bench/run.py --workload mdtest_paper --seed 1 --seconds 10 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Without ``--workload`` every workload runs, each in a
fresh subprocess, and the collected results are written to one JSON file;
``--repeat N`` does that N times with seeds ``seed .. seed+N-1`` and prints
the run-to-run spread of every end-to-end metric against its bound.
"""

from time import perf_counter

_T0 = perf_counter()  # set-up time is counted from here, imports included

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(1, os.path.join(REPO_ROOT, "src"))

SETUP_SAMPLES = 5  # this process's own set-up plus four fresh-process probes
MIN_TRACED_ROUNDS = 2
#: The traced run measures for this share of ``--seconds``: spans cost
#: memory, and the per-layer numbers are shares and counts, not medians.
TRACED_SHARE = 1 / 3


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long one workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="1: per-layer metrics from the traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the operations per round")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full runs back to back (all workloads only)")
    parser.add_argument("--out", help="result file when running all workloads")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


# -- one workload, in this process ------------------------------------------------


def _probe_setup(args) -> list:
    """Set-up times of fresh processes that set up and stop."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", str(args.scale), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_workload(args, spec: dict) -> int:
    import deploy
    import workloads

    deploy.pin_to_one_cpu()
    deploy.settle_allocator()
    workload = workloads.build(args.workload, args.scale)
    dep = deploy.Deployment(workload.config, workload.clients)
    try:
        workload.setup(dep, args.seed)
        setup_s = perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        problems: list = []
        warm_up = workload.run_round(dep, args.seed, 0, None)
        if args.trace:
            detail = _traced(args, workload, dep, warm_up, problems)
        else:
            detail = _untraced(args, workload, dep, warm_up, problems)
        problems.extend(workload.teardown(dep))
    finally:
        leaks = dep.close()
    problems.extend(leaks)
    if not args.trace:
        samples = [setup_s] + _probe_setup(args)
        detail["samples"]["setup_s"] = samples
        detail["values"]["setup_s"] = statistics.median(samples)
        detail["values"]["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    return _emit(args, spec, workload, detail, problems)


def _measure(args, workload, dep, tracer, first_index: int, min_rounds: int,
             seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed, each with the machine's
    speed factor taken just before and just after it."""
    import deploy

    rounds = []
    start = perf_counter()
    before = deploy.machine_speed_factor()
    while len(rounds) < min_rounds or perf_counter() - start < seconds:
        gc.collect()
        if tracer is not None:
            tracer.round_starts.append(len(tracer.spans))
        r = workload.run_round(dep, args.seed, first_index + len(rounds), tracer)
        after = deploy.machine_speed_factor()
        r.speed_factor = (before + after) / 2
        before = after
        rounds.append(r)
    return rounds


def _check_rounds(rounds: list, problems: list) -> tuple[int, int]:
    attempted = failed = 0
    for index, r in enumerate(rounds):
        problems.extend(f"round {index}: {p}" for p in r.problems)
        for phase in r.phases.values():
            attempted += phase.ops
            failed += phase.failed
            problems.extend(f"round {index} {phase.kind}: {e}" for e in phase.errors)
    return attempted, failed


def _untraced(args, workload, dep, warm_up, problems: list) -> dict:
    from workloads import summarise

    rounds = _measure(args, workload, dep, None, 1, 1, args.seconds)
    attempted, failed = _check_rounds([warm_up] + rounds, problems)
    deployment = dep.cluster.deployment
    if deployment.retrying is not None and deployment.retrying.retries:
        problems.append(f"{deployment.retrying.retries} RPC retries on a healthy run")
    if deployment.health is not None and deployment.health.trips:
        problems.append(f"{deployment.health.trips} breaker trips on a healthy run")
    values, samples, kinds = summarise(workload, rounds, warm_up)
    samples["speed_factor"] = [r.speed_factor for r in rounds]
    return {
        "attempted": attempted, "failed": failed, "values": values, "kinds": kinds,
        "samples": samples, "rounds": len(rounds),
    }


def _traced(args, workload, dep, warm_up, problems: list) -> dict:
    import substrate
    import tracing
    from workloads import percentile, summarise

    # One round with tracing still off: the base of the overhead ratio and
    # the only honest source of a tail latency in this run.
    reference = workload.run_round(dep, args.seed, 1, None)
    reference_ops_s = sum(p.ops for p in reference.phases.values()) / reference.wall
    reference_p99_us = 1e6 * percentile(
        [lat for p in reference.phases.values() for lat in p.latencies], 99
    )
    tracer = tracing.Tracer()
    installed = tracing.Installed(dep, tracer)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rounds = _measure(args, workload, dep, tracer, 2, MIN_TRACED_ROUNDS,
                      args.seconds * TRACED_SHARE)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    attempted, failed = _check_rounds([warm_up, reference] + rounds, problems)
    values, tables = tracing.report(
        installed, workload, rounds, reference_ops_s, reference_p99_us
    )
    values["bench.minor_faults_per_op"] = faults / sum(
        p.ops for r in rounds for p in r.phases.values()
    )
    values.update(substrate.probe(dep.root))
    for name in ("rpc.transport.retries", "rpc.transport.failed_rpcs",
                 "rpc.health.breaker_trips", "storage.integrity.verify_failures"):
        if values[name]:
            problems.append(f"{name} = {values[name]} on a healthy run")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{workload.name}.json"), "w") as fh:
        json.dump(tracing.chrome_trace(tracer), fh)
    _values, _samples, kinds = summarise(workload, rounds, warm_up)
    return {
        "attempted": attempted, "failed": failed, "values": values, "kinds": kinds,
        "samples": {}, "rounds": len(rounds), "tables": tables,
        "traced_ops_s": statistics.median(
            sum(p.ops for p in r.phases.values()) / r.wall for r in rounds
        ),
    }


def _print_tables(workload, detail: dict) -> None:
    import tracing

    values = detail["values"]
    for kind, table in detail["tables"].items():
        ops = table["ops"] or 1
        op_us = 1e6 * table["op_seconds"] / ops
        print(f"\n{workload.name} / {kind}: {op_us:.1f} us per traced operation "
              f"({table['ops']} operations)")
        for name in tracing.ROWS:
            us = 1e6 * table["rows"][name] / ops
            share = 100 * us / op_us if op_us else 0.0
            print(f"  {name:<20} {us:>10.2f} us  {share:>6.1f} %")
    print("\nagainst the substrate measured in this run:")
    pingpong_ops_s = 1e6 / values["substrate.sock_pingpong_us"]
    print(f"  traced ops/s {detail['traced_ops_s']:.0f} = "
          f"{detail['traced_ops_s'] / pingpong_ops_s:.3f} of one raw loopback "
          f"round trip per operation ({pingpong_ops_s:.0f}/s)")
    for kind, row in detail["kinds"].items():
        if "mib_s" not in row:
            continue
        file_rate = values["substrate.file_write_mib_s" if kind == "write"
                           else "substrate.file_read_mib_s"]
        print(f"  {kind} {row['mib_s']:.1f} MiB/s = "
              f"{row['mib_s'] / values['substrate.sock_stream_mib_s']:.3f} of the raw "
              f"socket stream, {row['mib_s'] / file_rate:.3f} of raw chunk-file {kind}")


def _emit(args, spec: dict, workload, detail: dict, problems: list) -> int:
    """Print every metric by name with its unit; last line is the result."""
    catalogue = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in catalogue:
        value = detail["values"].get(entry["name"])
        if value is None:
            problems.append(f"metric {entry['name']} was not measured")
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = not problems and detail["failed"] == 0

    print(f"workload {workload.name} ({workload.config} config), seed {args.seed}, "
          f"{detail['rounds']} measured rounds, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<52} {metric['value']:>16.4f} {metric['unit']}")
    factors = detail["samples"].get("speed_factor")
    if factors:
        print(f"  rates and latencies above are at the reference machine speed; this "
              f"machine ran {statistics.median(factors):.3f}x slower "
              f"(min {min(factors):.3f}, max {max(factors):.3f}); raw wall clock:")
    for kind, row in detail["kinds"].items():
        extra = f", {row['mib_s']:.1f} MiB/s" if "mib_s" in row else ""
        print(f"  [{kind}] {row['ops_s']:.0f} ops/s{extra}, p50 {row['p50_us']:.1f} us, "
              f"p99 {row['p99_us']:.1f} us over {row['samples']} samples"
              + (" (traced)" if args.trace else ""))
    if args.trace:
        _print_tables(workload, detail)
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    result = {"correct": correct, "attempted": detail["attempted"],
              "failed": detail["failed"], "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(_detail_path(workload.name, args.seed, args.trace), "w") as fh:
        json.dump({**result, "problems": problems, **{
            key: detail[key] for key in ("samples", "kinds", "rounds", "tables")
            if key in detail
        }}, fh)
    print(json.dumps(result))
    return 0 if correct else 1


def _detail_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(OUT_DIR, f"run-{workload}-seed{seed}-trace{trace}.json")


# -- every workload, each in a fresh process ---------------------------------------


def run_all(args, spec: dict) -> int:
    import deploy

    status = 0
    runs = []
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        run = {"seed": seed, "workloads": {}}
        for entry in spec["workloads"]:
            name = entry["name"]
            code = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--scale", str(args.scale)],
            ).returncode
            if code != 0:
                print(f"workload {name} failed (exit code {code})")
                status = 1
            try:
                with open(_detail_path(name, seed, args.trace)) as fh:
                    run["workloads"][name] = json.load(fh)
            except (OSError, ValueError):
                status = 1
        runs.append(run)
    document = {
        "fingerprint": deploy.host_fingerprint(), "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace, "runs": runs,
    }
    out = args.out or os.path.join(OUT_DIR, "result.json")
    with open(out, "w") as fh:
        json.dump(document, fh, indent=1)
    print(f"\nresults written to {out}")
    if args.repeat > 1 and not args.trace:
        status |= _print_spread(spec, runs)
    return status


def _print_spread(spec: dict, runs: list) -> int:
    """Median, quartiles and range of every end-to-end metric over the
    runs; a metric whose quartiles are further apart than its bound cannot
    be gated at that bound and is flagged."""
    from compare import quartiles

    flagged = 0
    print(f"\nspread over {len(runs)} runs "
          f"(iqr and range as a share of the median)")
    print(f"{'workload':<24}{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'iqr':>8}{'range':>8}{'bound':>7}")
    for entry in spec["workloads"]:
        for metric in spec["end_to_end"]:
            values = [
                run["workloads"][entry["name"]]["metrics"][metric["name"]]["value"]
                for run in runs
                if metric["name"] in run["workloads"].get(entry["name"], {}).get(
                    "metrics", {})
            ]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            iqr = (q3 - q1) / q2 if q2 else 0.0
            spread = (max(values) - min(values)) / q2 if q2 else 0.0
            wide = iqr > metric["bound"] and metric["name"] != "setup_s"
            flagged += wide
            print(f"{entry['name']:<24}{metric['name']:<22}{q2:>14.3f}{q1:>14.3f}"
                  f"{q3:>14.3f}{iqr:>8.3f}{spread:>8.3f}{metric['bound']:>7.2f}"
                  + ("  OUTSIDE BOUND" if wide else ""))
    return 1 if flagged else 0


def main() -> int:
    spec = load_spec()
    args = parse_args(spec)
    if args.workload:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
