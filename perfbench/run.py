#!/usr/bin/env python3
"""Region-checkpoint pipeline benchmark.

Builds perfbench/perfbench.cpp against the repository's sources, runs one
workload for a fixed time and prints its metrics. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload checkpoint-mcf --seed 1 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics (tracing off). --trace 1 runs
alternating untraced and traced repetitions, writes the traced spans as a
Chrome trace-event file and reports the per-layer metrics derived from
it. Everything the run writes lives under .bench_build/ in the checkout
(or $CARGO_TARGET_DIR when set); the work directory is private to the run
and removed at exit. See perfbench/README.md.
"""

import argparse
import collections
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("checkpoint-mcf", "evaluate-gcc", "pipeline-mt")
RUN_TIMEOUT_S = 170

# Spans timed once per region; each gets a total, p50, tail and count.
PER_REGION_SPANS = (
    "vm.ffwd", "pinball.log", "pinball.save", "sysstate.analyze",
    "core.emit", "analyze.verify", "store.put", "store.get",
    "core.native_run", "pinball.load", "replay.replay", "sim.cold",
    "sim.resume",
)
# Spans timed once per repetition.
PER_REP_SPANS = ("simpoint.profile", "simpoint.select", "pinball.capture")
# The benchmark's own stage spans: parents of the per-region spans.
STAGE_SPANS = ("pipeline.produce", "pipeline.consume")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def base_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(base):
    """Configures and builds perfbench; returns its path or None."""
    build_dir = os.path.join(base, "perfbench-build")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(base, "perfbench-build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", build_dir, "-j", jobs,
             "--target", "perfbench"],
        ):
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if r.returncode != 0:
                log(r.stdout[-4000:])
                log("run.py: build failed: " + " ".join(cmd))
                return None
    return os.path.join(build_dir, "perfbench")


def run_perfbench(exe, args, work, trace_out):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("run.py: perfbench timed out")
        return None, -1
    finally:
        # Reap anything left in perfbench's process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        return None, proc.returncode
    return json.loads(lines[-1]), proc.returncode


def fsync_ms(work, n=32):
    """Median latency of a 4 KiB write + fsync in the work directory."""
    path = os.path.join(work, "fsync-probe")
    times = []
    with open(path, "wb") as f:
        for _ in range(n):
            start = time.perf_counter()
            f.write(b"\0" * 4096)
            f.flush()
            os.fsync(f.fileno())
            times.append((time.perf_counter() - start) * 1e3)
    os.unlink(path)
    return round(statistics.median(times), 3)


def provenance(summary, work, seed):
    info = {"nproc": os.cpu_count(), "seed": seed}
    cpu, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                if key.strip() == "model name" and cpu == "unknown":
                    cpu = val.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(val.split())
    except OSError:
        pass
    info["cpu_model"] = cpu
    info["sha_ni"] = "sha_ni" in flags
    fstype, best = "unknown", ""
    real = os.path.realpath(work)
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3:
                    mnt = parts[1]
                    inside = real == mnt or real.startswith(
                        mnt.rstrip("/") + "/")
                    if inside and len(mnt) > len(best):
                        best, fstype = mnt, parts[2]
    except OSError:
        pass
    info["work_fs"] = fstype
    # Measured after the run, so it does not disturb it: fsync latency
    # moves store.put_s and checkpoint-mcf's wall time.
    info["work_fsync_ms"] = fsync_ms(work)
    info["build_type"] = summary.get("build_type", "unknown")
    info["compiler"] = summary.get("compiler", "unknown")
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        info["git_commit"] = (r.stdout.strip() if r.returncode == 0
                              else "unknown (not a git checkout)")
    except OSError:
        info["git_commit"] = "unknown (git not found)"
    return info


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(n):
    """Highest percentile with at least ten samples beyond it (else 50)."""
    best = 50
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100.0 >= 10:
            best = p
    return best


def percentile(sorted_values, p):
    if not sorted_values:
        return 0.0
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def self_times(events):
    """Span duration minus the part of it covered by its child spans."""
    children = collections.defaultdict(list)
    for e in events:
        parent = e["args"].get("parent", 0)
        if parent:
            children[(e["tid"], parent)].append(e)
    out = {}
    for e in events:
        covered, end = 0.0, e["ts"]
        kids = sorted(children.get((e["tid"], e["args"]["span"]), []),
                      key=lambda k: k["ts"])
        for k in kids:
            s, t = max(k["ts"], end), k["ts"] + k["dur"]
            if t > s:
                covered += t - s
                end = t
        out[id(e)] = max(0.0, e["dur"] - covered) / 1e6
    return out


def per_layer(trace_path, summary):
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    reps = max(1, len({e["tid"] for e in events}))
    selfs = self_times(events)
    by = collections.defaultdict(list)
    for e in events:
        by[e["name"]].append(e)

    def total(name):
        return sum(e["dur"] for e in by[name]) / 1e6 / reps

    def argsum(name, key):
        return sum(e["args"].get(key, 0) for e in by[name]) / reps

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}

    def put(key, value, unit):
        m[key] = {"value": value, "unit": unit}

    prof_s = total("simpoint.profile")
    put("simpoint.slices", argsum("simpoint.profile", "slices"), "count")
    put("simpoint.regions", argsum("simpoint.select", "regions"), "count")
    put("vm.profile_minst_per_s",
        ratio(argsum("simpoint.profile", "retired"), prof_s) / 1e6, "Minst/s")
    ffwd_s = total("vm.ffwd")
    put("vm.ffwd_minst_per_s",
        ratio(argsum("vm.ffwd", "insts"), ffwd_s) / 1e6, "Minst/s")
    put("pinball.pages", argsum("pinball.log", "pages"), "count")
    put("pinball.image_bytes", argsum("pinball.log", "image_bytes"), "B")
    for phase, span in (("capture", "pinball.capture"),
                        ("replay", "replay.replay")):
        hits, misses = argsum(span, "decode_hits"), argsum(span, "decode_misses")
        put("vm.decode_hit_frac." + phase, ratio(hits, hits + misses), "ratio")
        for k in ("jit_blocks", "jit_hits", "jit_bailouts", "jit_dispatches",
                  "jit_invalidations", "jit_flushes"):
            put("vm.%s.%s" % (k, phase), argsum(span, k), "count")
        put("vm.jit_native_frac." + phase,
            ratio(argsum(span, "jit_hits"), argsum(span, "retired")), "ratio")
    put("core.elfie_bytes", argsum("core.emit", "bytes"), "B")
    put("analyze.errors", argsum("analyze.verify", "errors"), "count")
    put("store.chunks_put", argsum("store.put", "chunks_put"), "count")
    put("store.chunks_new", argsum("store.put", "chunks_new"), "count")
    put("store.dedup_ratio", ratio(argsum("store.put", "chunks_put"),
                                   argsum("store.put", "chunks_new")), "ratio")
    put("store.get_mb_per_s",
        ratio(argsum("store.get", "bytes") / 2**20, total("store.get")), "MiB/s")
    put("replay.retired", argsum("replay.replay", "retired"), "count")
    put("vm.cow_faults", argsum("replay.replay", "cow_faults"), "count")
    put("vm.dirty_bytes", argsum("replay.replay", "dirty_bytes"), "B")
    put("core.native_region_cycles",
        argsum("core.native_run", "region_cycles"), "count")
    put("sim.state_bytes", argsum("sim.cold", "state_bytes"), "B")
    put("sim.reference_s", median(summary.get("reference_s", [])), "s")
    for k in ("insts", "cycles", "l1d_misses", "l2_misses", "l3_misses",
              "bp_mispredicts"):
        put("sim." + k, argsum("sim.cold", k), "count")

    for name in PER_REP_SPANS + PER_REGION_SPANS:
        put(name + "_s", total(name), "s")
    for name in ("pinball.save", "store.put", "store.get"):
        put(name + "_cpu_s", argsum(name, "cpu_s"), "s")
    for name in PER_REGION_SPANS:
        durs = sorted(e["dur"] / 1e3 for e in by[name])
        p = tail_percentile(len(durs))
        put(name + "_p50_ms", percentile(durs, 50), "ms")
        put(name + "_tail_ms", percentile(durs, p), "ms")
        put(name + "_tail_pct", p, "%")
        put(name + "_n", len(durs), "count")
    # Leaf spans' self time equals their total; report it where children
    # (the calls into layers) are subtracted.
    for name in ("pinball.capture",) + STAGE_SPANS:
        put(name + "_self_s",
            sum(selfs[id(e)] for e in by[name]) / reps, "s")

    values = summary.get("values", {})
    put("cpi_err_pct", median(values.get("cpi_err_pct", [])), "%")
    put("sim_minst_per_s", median(values.get("sim_minst_per_s", [])), "Minst/s")
    put("consume.coverage_pct", median(values.get("coverage_pct", [])), "%")
    put("consume.skipped_regions",
        median(values.get("skipped_regions", [])), "count")
    attempted = max(1, summary.get("attempted", 0))
    put("checks.failed_frac", summary.get("failed", 0) / attempted, "ratio")
    put("trace.overhead_s", median(summary.get("traced_wall_s", []))
        - median(summary.get("wall_s", [])), "s")
    return m


def end_to_end(summary):
    values = summary.get("values", {})
    return {
        "wall_s": {"value": median(summary["wall_s"]), "unit": "s"},
        "cpu_s": {"value": median(summary["cpu_s"]), "unit": "s"},
        "peak_rss_mb": {"value": median(summary["peak_rss_mb"]),
                        "unit": "MiB"},
        "setup_s": {"value": median(summary["setup_s"]), "unit": "s"},
        "store_mb": {"value": median(values.get("store_mb", [])),
                     "unit": "MiB"},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    base = base_dir()
    os.makedirs(base, exist_ok=True)
    start = time.time()
    exe = build(base)
    if exe is None:
        return 1
    log("run.py: build ready in %.1f s" % (time.time() - start))

    results = os.path.join(base, "perfbench-results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d" % (args.workload, args.seed)
    trace_out = os.path.join(results, stem + ".trace.json")
    work = tempfile.mkdtemp(prefix="work-", dir=base)
    try:
        summary, code = run_perfbench(exe, args, work, trace_out)
        prov = provenance(summary or {}, work, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if summary is None:
        log("run.py: perfbench produced no summary (exit %d)" % code)
        return 1

    metrics = (per_layer(trace_out, summary) if args.trace
               else end_to_end(summary))
    correct = code == 0 and summary["failed"] == 0
    for f in summary.get("failures", []):
        log("run.py: check failed: " + f)

    print("# perfbench %s seed %d, %d repetitions (%s)" % (
        args.workload, args.seed, summary["reps"],
        "traced run" if args.trace else "tracing off"))
    for k in sorted(prov):
        print("# provenance %s: %s" % (k, prov[k]))
    if args.trace:
        print("# trace: %s" % trace_out)
    for k, v in metrics.items():
        print("%-36s %16.6f %s" % (k, v["value"], v["unit"]))
    print("# checks: %d attempted, %d failed" % (summary["attempted"],
                                                  summary["failed"]))
    record = {"provenance": prov, "summary": summary, "metrics": metrics}
    with open(os.path.join(results, stem + (".trace" if args.trace else "")
                           + ".result.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
