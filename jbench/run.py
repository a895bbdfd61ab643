#!/usr/bin/env python3
"""jbench: the jmsim benchmark, end to end and per layer.

Run from the root of a source checkout:

    python3 jbench/run.py --workload radix_512 --seed 7 --seconds 25 --trace 0

The runner builds jbench (a Release build of ../src plus jbench.cc) into
$CARGO_TARGET_DIR/jbench (default .bench_build/jbench), then starts one
fresh jbench process per measured repetition until --seconds have
passed. Every repetition boots the workload's machine with the serial
kernel, runs it, and checks the answer. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, from untraced
repetitions. With --trace 1 they are the per-layer ones: untraced and
traced repetitions alternate, the per-layer numbers come from the traced
ones, and their run-time ratio is the tracing overhead. See README.md for
the workloads, the metrics and what each should move.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("nqueens_512", "radix_512", "saturate_512", "hotspot_512")

# Repetitions every run makes whatever --seconds says, so that a median
# exists even for the longest workload.
MIN_REPS = 3
# Fresh processes that only boot, run before the repetitions and within
# --seconds. A cold boot takes tens of milliseconds and varies by about
# 20% from one process to the next, so setup_s needs many samples.
BOOTS = 20
# A repetition takes seconds; these limits end a run within 180 s even
# when repetitions hang.
REP_TIMEOUT_S = 60
MAX_MEASURE_S = 100

# Counters the exact-repeat guard compares across every run of one
# source tree and seed (jmsim is deterministic, so any drift means the
# runs simulated different work).
GUARDED = ("sim_cycles", "proc.instructions", "net.flits_routed",
           "net.combine_hits")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "jbench")


def build():
    """Configure (once) and build jbench; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("jbench: no jmsim sources at %s/src" % ROOT)
        sys.exit(2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(os.path.join(out, "build.log"), "w") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log("jbench: build failed, see %s" % logf.name)
                sys.exit(3)
    return os.path.join(out, "jbench")


def tree_hash():
    """Hash of every source file that decides what a run simulates."""
    h = hashlib.sha256()
    for top in ("src", "jbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_rep(binary, args):
    """One fresh jbench process; returns its parsed line or a failure."""
    cmd = [binary] + args
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out: %s" % " ".join(args)}
    lines = p.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "error": "exit %d, no result: %s"
                % (p.returncode, p.stderr.strip()[-300:])}
    if p.returncode != 0 and rep.get("ok"):
        rep.update(ok=False, error="exit %d" % p.returncode)
    return rep


def guarded(rep):
    counters = rep["counters"]
    return {name: rep["sim_cycles"] if name == "sim_cycles"
            else counters.get(name, 0) for name in GUARDED}


class RepeatGuard:
    """Fails any repetition whose simulated counters differ from the
    first repetition of this source tree and seed, in this run or an
    earlier one in the same checkout."""

    def __init__(self, workload, seed):
        self.path = os.path.join(build_dir(), "signatures.json")
        self.key = "%s/%s/%d" % (tree_hash(), workload, seed)
        try:
            with open(self.path) as f:
                self.known = json.load(f)
        except (OSError, ValueError):
            self.known = {}
        self.ref = self.known.get(self.key)

    def check(self, rep):
        sig = {"counters": guarded(rep), "signature": rep["signature"]}
        if self.ref is None:
            self.ref = sig
            self.known[self.key] = sig
            tmp = self.path + ".tmp"
            with open(tmp, "w") as f:
                json.dump(self.known, f, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
            return ""
        if sig != self.ref:
            return "simulated counters drifted: %s, first run had %s" % (
                json.dumps(sig, sort_keys=True),
                json.dumps(self.ref, sort_keys=True))
        return ""


def ratio(num, den):
    return num / den if den else 0.0


def median_rep(reps):
    """The repetition with the median run time (lower middle if even),
    so a breakdown taken from it sums to its own run_s."""
    ranked = sorted(reps, key=lambda r: r["run_s"])
    return ranked[(len(ranked) - 1) // 2]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(untraced, boots):
    c = untraced[0]["counters"]
    return {
        "setup_s": metric(statistics.median(boots), "s"),
        "run_s": metric(statistics.median(r["run_s"] for r in untraced), "s"),
        "minstr_per_s": metric(statistics.median(
            c["proc.instructions"] / r["run_s"] / 1e6 for r in untraced),
            "Minstr/s"),
        "peak_rss_mb": metric(statistics.median(
            r["peak_rss_kb"] / 1024.0 for r in untraced), "MB"),
        "sim_cycles": metric(untraced[0]["sim_cycles"], "cycles"),
    }


def per_layer(untraced, traced, boots):
    rep = median_rep(traced)
    c = rep["counters"]
    run_s, node_s, net_s, commit_s = (rep["run_s"], rep["node_s"],
                                      rep["net_s"], rep["commit_s"])
    other_s = run_s - node_s - net_s - commit_s
    instr = c["proc.instructions"]
    flits = c["net.flits_routed"]
    faa = c.get("net.faa_ops", 0)
    hits = c.get("net.combine_hits", 0)
    misses = c.get("net.combine_misses", 0)
    seg_hits, seg_misses = c["proc.seg_cache_hits"], c["proc.seg_cache_misses"]
    stepped, skipped = c["kernel.node_steps"], c["kernel.skipped_node_steps"]
    untraced_run = statistics.median(r["run_s"] for r in untraced)
    traced_run = statistics.median(r["run_s"] for r in traced)
    mb = 1024.0 * 1024.0
    return {
        # mdp: the node layer (processor, NI)
        "mdp.node_s": metric(node_s, "s"),
        "mdp.ns_per_instr": metric(ratio(node_s * 1e9, instr), "ns"),
        "proc.instructions": metric(instr, "count"),
        "proc.dispatches": metric(c["proc.dispatches"], "count"),
        "proc.seg_cache_hit_ratio": metric(
            ratio(seg_hits, seg_hits + seg_misses), "ratio"),
        "ni.messages_sent": metric(c["ni.messages_sent"], "count"),
        "ni.send_full_events": metric(c["ni.send_full_events"], "count"),
        # net: the router fabric and message pool
        "net.net_s": metric(net_s, "s"),
        "net.ns_per_flit_hop": metric(ratio(net_s * 1e9, flits), "ns"),
        "net.flits_routed": metric(flits, "count"),
        "net.inject_stalls": metric(c["net.inject_stalls"], "count"),
        "net.router_steps": metric(c["net.router_steps"], "count"),
        "net.useful_router_step_ratio": metric(
            ratio(flits, c["net.router_steps"]), "ratio"),
        "net.latency_p50": metric(rep["latency_p50"], "cycles"),
        "net.latency_p99": metric(rep["latency_p99"], "cycles"),
        "pool.allocs": metric(c["pool.allocs"], "count"),
        "pool.live_high_water": metric(c["pool.live_high_water"], "count"),
        # machine: the kernel's scheduling of nodes and cycles
        "kernel.node_steps": metric(stepped, "count"),
        "kernel.skipped_node_steps": metric(skipped, "count"),
        "kernel.step_ratio": metric(ratio(stepped, stepped + skipped),
                                    "ratio"),
        "kernel.idle_skipped_cycles": metric(
            c["kernel.idle_skipped_cycles"], "cycles"),
        "net.event_skipped_cycles": metric(c["net.event_skipped_cycles"],
                                           "cycles"),
        "kernel.commit_s": metric(commit_s, "s"),
        "kernel.other_s": metric(other_s, "s"),
        "trace.run_s": metric(run_s, "s"),
        # netops: fetch-and-add and combining
        "net.faa_ops": metric(faa, "count"),
        "net.combine_hits": metric(hits, "count"),
        "net.combine_hit_ratio": metric(ratio(hits, hits + misses), "ratio"),
        "netops.reply_retries": metric(c.get("netops.reply_retries", 0),
                                       "count"),
        "netops.us_per_faa": metric(ratio(other_s * 1e6, faa), "us"),
        # boot: workloads, jasm, isa and machine construction
        "boot.cold_s": metric(statistics.median(boots), "s"),
        "boot.warm_s": metric(statistics.median(r["warm_s"] for r in traced),
                              "s"),
        "machine.footprint_mb": metric(rep["footprint_bytes"] / mb, "MB"),
        # ckpt: snapshot of the machine halfway through the run
        "ckpt.save_s": metric(statistics.median(r["save_s"] for r in traced),
                              "s"),
        "ckpt.restore_s": metric(statistics.median(
            r["restore_s"] for r in traced), "s"),
        "ckpt.image_mb": metric(rep["image_bytes"] / mb, "MB"),
        # trace: what the traced run costs
        "trace.overhead_ratio": metric(ratio(traced_run, untraced_run),
                                       "ratio"),
        "trace.dropped": metric(rep["trace_dropped"], "count"),
    }


def bucket_error(rep):
    """'' unless the KernelProfile buckets, timed inside run(), add up to
    more than run_s, timed around it, by over 1% (the TSC calibration
    error is about 0.1%). kernel.other_s is the rest of run_s, so the
    four buckets sum to run_s by construction."""
    run_s = rep["run_s"]
    inside = rep["node_s"] + rep["net_s"] + rep["commit_s"]
    if inside > 1.01 * run_s:
        return "KernelProfile buckets sum to %r s, run_s is %r s" % (
            inside, run_s)
    return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", choices=("answer", "repeat"),
                    help="self-test: break the answer check's input, or "
                    "shift sim_cycles per repetition, and report the "
                    "failures the checks must then find")
    args = ap.parse_args()
    seed = args.seed % (1 << 32)

    binary = build()
    guard = RepeatGuard(args.workload, seed)
    host = {"cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg()[0]}

    common = ["--workload", args.workload, "--seed", str(seed)]
    if args.corrupt == "answer":
        common.append("--corrupt")
    # Untraced and traced repetitions alternate under --trace 1, so a
    # change in host load hits both sides of the overhead ratio alike.
    kinds = [False, True] if args.trace else [False]
    t0 = time.monotonic()
    boots = []
    boot_failed = 0
    for _ in range(BOOTS):
        rep = run_rep(binary, common + ["--boot-only"])
        if not rep.get("ok"):
            boot_failed = 1
            log("jbench %s seed %d boot: FAILED %s" % (
                args.workload, seed, rep.get("error", "")))
            break
        boots.append(rep["setup_s"])
    reps = []
    rep_s = []
    while True:
        done = len(reps) >= MIN_REPS * len(kinds)
        elapsed = time.monotonic() - t0
        if elapsed > MAX_MEASURE_S or (
                done and elapsed + statistics.median(rep_s) > args.seconds):
            break
        traced = kinds[len(reps) % len(kinds)]
        start = time.monotonic()
        rep = run_rep(binary, common + (["--traced"] if traced else []))
        rep_s.append(time.monotonic() - start)
        rep["kind"] = "traced" if traced else "untraced"
        if rep.get("ok"):
            if args.corrupt == "repeat":
                rep["sim_cycles"] += len(reps)
            err = guard.check(rep) or (bucket_error(rep) if traced else "")
            if err:
                rep.update(ok=False, error=err)
        reps.append(rep)
        log("jbench %s seed %d %s: %s" % (
            args.workload, seed, rep["kind"],
            "run_s %.4f setup_s %.4f" % (rep["run_s"], rep["setup_s"])
            if rep.get("ok") else "FAILED " + rep.get("error", "")))

    attempted = len(boots) + boot_failed + len(reps)
    ok = [r for r in reps if r.get("ok")]
    boots += [r["setup_s"] for r in ok]
    untraced = [r for r in ok if r["kind"] == "untraced"]
    traced = [r for r in ok if r["kind"] == "traced"]
    failed = len(reps) - len(ok) + boot_failed
    metrics = {}
    if untraced and (traced or not args.trace):
        metrics = (per_layer(untraced, traced, boots) if args.trace
                   else end_to_end(untraced, boots))
    else:
        failed = max(failed, 1)  # too few repetitions to measure

    first = ok[0] if ok else {}
    host.update(compiler=first.get("compiler"),
                build_type=first.get("build_type"),
                loadavg_end=os.getloadavg()[0])
    print(json.dumps({"host": host, "tree": guard.key,
                      "repetitions": len(reps), "boots": len(boots),
                      "measured_s": round(time.monotonic() - t0, 3)}))
    if traced:
        spans = os.path.join(build_dir(), "spans-%s-%d.json"
                             % (args.workload, seed))
        with open(spans, "w") as f:
            json.dump([{"kind": r["kind"], "spans": r["spans"]}
                       for r in traced], f)
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
