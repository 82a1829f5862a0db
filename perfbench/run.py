#!/usr/bin/env python3
"""End-to-end benchmark of the MSPastry simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload join_storm --seed 1 --seconds 20 --trace 0

The first call builds perfbench/ (the simulator libraries from src/ plus
the perfbench_sim harness) in Release mode under .bench_build/perfbench.
Each call then runs repetitions of one workload -- one perfbench_sim
process per repetition, every repetition on the same seed-derived inputs --
until --seconds of wall time are used, checks every repetition's
correctness gates and that all repetitions computed the same digest, and
prints as its last line one JSON object:

    {"correct": true, "attempted": N, "failed": K, "metrics": {...}}

attempted = lookups issued after warmup; failed = lookups delivered to the
wrong node or lost. With --trace 0 the metrics are the end-to-end ones
(host times are medians over the repetitions; run time is given in units
of a host-speed reference sampled beside it); with --trace 1 untraced and
traced repetitions alternate and the metrics are the per-layer ones. Any
failed gate exits 1 without printing a result. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_sim"

# Workload -> shard count. Single-shard repetitions are pinned to the
# allowed CPUs in turn, so every run samples each CPU alike: on a shared
# host the CPUs differ in speed by more than the bounds allow.
WORKLOADS = {"join_storm": 1, "join_storm_s4": 4, "steady_churn": 1,
             "squirrel": 1}

# Whole-invocation deadline: the run must end within 180 s (900 s when it
# also builds). Repetitions stop early enough to leave room for the last.
DEADLINE_S = 170.0
MIN_REPS = 3


class GateError(Exception):
    pass


def build():
    """Configure (once) and build the harness. Returns the build seconds."""
    t0 = time.monotonic()
    log = ROOT / ".bench_build" / "perfbench-build.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_sim", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise GateError(f"build failed: {e}")
            if rc != 0:
                raise GateError(f"build failed ({' '.join(cmd[:2])}), "
                                f"see {log}")
    return time.monotonic() - t0


def run_child(args, timeout, cpu=None):
    """Run perfbench_sim once (on `cpu` only, if given); return its JSON."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        p = subprocess.run([str(BINARY)] + args, capture_output=True,
                           text=True, timeout=timeout, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        raise GateError(f"perfbench_sim {' '.join(args)} timed out")
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        raise GateError(f"perfbench_sim {' '.join(args)} exited "
                        f"{p.returncode}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise GateError("perfbench_sim printed nothing")
    return json.loads(lines[-1])


def median(xs):
    return statistics.median(xs)


def run_ref(r):
    """run_trace's wall time in units of 10^6 events of the host-speed
    sampler that ran beside it (its mean time per event; see Sampler in
    perfbench_sim.cpp)."""
    return r["run_s"] / (r["ref_event_ns"] * 1e-3)


def end_to_end(untraced):
    """End-to-end metrics: medians over the untraced repetitions."""
    r0 = untraced[0]

    def med(key):
        return median([r[key] for r in untraced])

    return {
        "setup_s": (med("setup_s"), "s"),
        "run_ref": (median([run_ref(r) for r in untraced]), "ratio"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "rdp_p50": (r0["rdp_p50"], "ratio"),
        "rdp_p95": (r0["rdp_p95"], "ratio"),
        "control_msgs_per_node_s": (r0["control_msgs_per_node_s"], "1/s"),
        "join_latency_p90_s": (r0["join_latency_p90_s"], "s"),
    }


def per_layer(untraced, traced, chase):
    """Per-layer metrics: counts from the run, layer times from the traced
    repetitions, whole-run host rates from the untraced ones."""
    r = traced[0]

    def med(reps, key):
        return median([x[key] for x in reps])

    run_s = med(untraced, "run_s")
    cpu_s = med(untraced, "cpu_s")
    shards = r["shards"]
    live = r["live_nodes"]
    issued = r["lookups_issued"]
    app_done = r["app_hits"] + r["app_misses"]
    periodic = r["rt_probes_suppressed"] + r["rt_probes_periodic"]
    m = {
        "sim.events": (r["events"], "count"),
        "sim.epochs": (r["epochs"], "count"),
        "sim.events_per_epoch": (r["events"] / r["epochs"], "count"),
        "sim.ns_per_event": (run_s * 1e9 / r["events"], "ns"),
        "sim.parallel_util": (cpu_s / (shards * run_s), "ratio"),
        "proc.nvcsw": (med(untraced, "nvcsw"), "count"),
        "proc.nivcsw": (med(untraced, "nivcsw"), "count"),
        "proc.minflt": (med(untraced, "minflt"), "count"),
        "host.steal_s": (med(untraced, "steal_s"), "s"),
        "host.run_s": (run_s, "s"),
        "host.cpu_s": (cpu_s, "s"),
        "host.ref_event_ns": (med(untraced, "ref_event_ns"), "ns"),
        "host.chase_ns_before": (chase[0], "ns"),
        "host.chase_ns_after": (chase[1], "ns"),
        "net.topology_build_s": (med(traced, "topology_build_s"), "s"),
        "net.delay_calls": (r["delay_calls"], "count"),
        "net.delay_ns": (med(traced, "delay_ns"), "ns"),
        "net.delay_s": (med(traced, "delay_s"), "s"),
        "net.oracle_bytes": (r["oracle_bytes"], "bytes"),
        "net.cached_rows": (r["cached_rows"], "count"),
        "net.landmark_mode": (r["landmark_mode"], "flag"),
        "net.packets_sent": (r["packets_sent"], "count"),
        "net.packets_lost": (r["packets_lost"], "count"),
        "net.packets_unbound": (r["packets_unbound"], "count"),
        "net.ns_per_packet": (run_s * 1e9 / r["packets_sent"], "ns"),
        "pastry.msgs.join": (r["msgs.join"], "1/s"),
        "pastry.msgs.leafset": (r["msgs.leafset"], "1/s"),
        "pastry.msgs.rt_probes": (r["msgs.rt_probes"], "1/s"),
        "pastry.msgs.distance_probes": (r["msgs.distance_probes"], "1/s"),
        "pastry.msgs.acks": (r["msgs.acks"], "1/s"),
        "pastry.msgs.lookups": (r["msgs.lookups"], "1/s"),
        "pastry.forwards_per_lookup": (r["lookups_forwarded"] / issued,
                                       "ratio"),
        "pastry.ack_timeouts": (r["ack_timeouts"], "count"),
        "pastry.rt_probe_suppression": (
            r["rt_probes_suppressed"] / periodic if periodic else 0.0,
            "ratio"),
        "pastry.false_positives": (r["false_positives"], "count"),
        "pastry.bytes_per_node": (
            med(untraced, "peak_rss_mb") * 1048576 / live, "bytes"),
        "overlay.driver_ctor_s": (med(traced, "driver_ctor_s"), "s"),
        "overlay.live_nodes": (live, "count"),
        "overlay.joins_completed": (r["joins_completed"], "count"),
        "overlay.lookups_correct": (r["lookups_correct"], "count"),
        "overlay.lookup_fail_rate": (r["lookups_failed"] / issued, "ratio"),
        "overlay.rdp_p99": (r["rdp_p99"], "ratio"),
        "overlay.join_latency_p50_s": (r["join_latency_p50_s"], "s"),
        "overlay.join_latency_p99_s": (r["join_latency_p99_s"], "s"),
        "trace.generate_s": (med(traced, "trace_generate_s"), "s"),
        "trace.sessions": (r["sessions"], "count"),
        "trace.run_self_s": (med(traced, "run_self_s"), "s"),
        "trace.overhead_s": (med(traced, "run_s") - run_s, "s"),
        "trace.spans": (r["spans"], "count"),
        "apps.attach_s": (med(traced, "app_attach_s"), "s"),
        "apps.requests": (r["app_requests"], "count"),
        "apps.hit_rate": (
            r["app_hits"] / app_done if app_done else 0.0, "ratio"),
        "apps.latency_p50_ms": (r["app_latency_p50_ms"], "ms"),
        "apps.latency_p99_ms": (r["app_latency_p99_ms"], "ms"),
        "apps.upcalls.workload_rate": (r["upcalls.workload_rate"], "count"),
        "apps.upcalls.workload_tick": (r["upcalls.workload_tick"], "count"),
        "apps.upcalls.deliver": (r["upcalls.deliver"], "count"),
        "apps.upcalls.packet": (r["upcalls.packet"], "count"),
        "apps.upcall_ns": (med(traced, "upcall_ns"), "ns"),
        "apps.upcall_s": (med(traced, "upcall_s"), "s"),
    }
    return m


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: small inputs for the self-test")
    args = ap.parse_args(argv)

    start = time.monotonic()
    build_s = build()
    print(f"# build: {build_s:.1f} s")
    deadline = start + DEADLINE_S + (build_s if build_s > 30 else 0)

    base = ["run", "--workload", args.workload, "--seed", str(args.seed),
            "--scale", args.scale]
    spans_dir = ROOT / ".bench_build" / "perfbench-spans"
    spans_dir.mkdir(parents=True, exist_ok=True)

    pinned = WORKLOADS[args.workload] == 1
    cpus = sorted(os.sched_getaffinity(0))
    # --trace 1 alternates untraced and traced repetitions, one pair per CPU.
    per_slot = 2 if args.trace else 1

    def rep(i):
        traced = args.trace == 1 and i % 2 == 1
        cmd = base + ["--traced", "1" if traced else "0"]
        if traced:
            spans = spans_dir / f"{args.workload}-seed{args.seed}.csv"
            cmd += ["--spans", str(spans)]
        cpu = cpus[(i // per_slot) % len(cpus)] if pinned else None
        t = time.monotonic()
        r = run_child(cmd, max(1.0, deadline - time.monotonic()), cpu)
        r["wall_s"] = time.monotonic() - t
        print(f"# rep {i + 1}: traced={int(traced)} cpu={cpu} "
              f"digest={r['digest']} setup_s={r['setup_s']:.6f} "
              f"run_s={r['run_s']:.4f} cpu_s={r['cpu_s']:.3f} "
              f"ref_event_ns={r['ref_event_ns']:.1f} run_ref={run_ref(r):.4f} "
              f"rss_mb={r['peak_rss_mb']:.1f} nivcsw={r['nivcsw']} "
              f"steal_s={r['steal_s']:.2f} "
              f"events={r['events']}")
        return r

    chase_before = run_child(["chase"], 60)["chase_ns"]
    t0 = time.monotonic()
    reps = []
    # Repetitions while the next one (judged by the median so far) still
    # fits in --seconds; at least MIN_REPS, and whole pairs when traced.
    while True:
        if len(reps) >= MIN_REPS and len(reps) % per_slot == 0:
            next_s = median([r["wall_s"] for r in reps])
            if time.monotonic() - t0 + next_s > args.seconds:
                break
        if reps and time.monotonic() + 1.5 * reps[-1]["wall_s"] > deadline:
            break
        reps.append(rep(len(reps)))
    chase_after = run_child(["chase"], 60)["chase_ns"]

    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        raise GateError(f"repetitions disagree (traced and untraced "
                        f"included): digests {sorted(digests)}")
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    r0 = reps[0]
    print(f"# workload={args.workload} seed={args.seed} reps={len(reps)} "
          f"digest={r0['digest']} shards={r0['shards']} "
          f"setups_per_rep={r0['setups']}")
    print(f"# host: chase_ns before={chase_before:.2f} "
          f"after={chase_after:.2f} nivcsw="
          f"{[r['nivcsw'] for r in reps]} steal_s="
          f"{[round(r['steal_s'], 2) for r in reps]} run_s="
          f"{[round(r['run_s'], 4) for r in reps]}")

    if args.trace == 0:
        metrics = end_to_end(untraced)
    else:
        if not traced:
            raise GateError("no traced repetition fitted in --seconds")
        metrics = per_layer(untraced, traced, (chase_before, chase_after))
    result = {
        "correct": True,
        "attempted": r0["lookups_issued"],
        "failed": r0["lookups_failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except GateError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
