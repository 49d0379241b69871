#!/usr/bin/env python3
"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the program's libraries
from src/ plus the runner in perfbench/runner/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks its outputs and prints every metric with its unit. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1, which also writes the span file (Chrome trace JSON)
next to the build. Exits 0 only when every correctness gate passed.

All traffic crosses the host loopback interface, not a real link.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

# Why each workload exists: which layers it loads and which it bypasses.
WORKLOADS = {
    "tcp_verified":
        "The configuration a user gets by default (TransferSession over TCP, "
        "syscall backend, in-memory source, fill + verify on, 256 KiB chunks, "
        "<2,2,2>, 768 MiB transfers). Per-byte work dominates (pattern fill, "
        "FNV on both sides, two payload copies per chunk), so checksum and "
        "copy changes show here and per-chunk coordination changes barely "
        "register.",
    "serve_64":
        "In-process SessionServer with 64 always-open sessions from 4 client "
        "connections (one tenant and client thread each), 1 MiB objects in "
        "64 KiB FNV-checked chunks, closed loop, in epochs of fixed work on a "
        "fresh server. Exercises session open/close, event-loop frame "
        "reassembly, admission and the worker pool, and bypasses the engine.",
    "train_offline":
        "core::AutoMdt::train_offline on the bottleneck_read preset with "
        "shipped PpoConfig defaults (serial lanes), back-to-back calls of a "
        "fixed 32-episode budget, each with its own seed. The only workload "
        "that runs nn, rl and sim; every data-plane change should predict no "
        "change here.",
}

# End-to-end metrics: every workload reports every one. Where a workload
# has no payload bytes or no client sessions of its own, README.md gives
# the analogue it reports.
END_TO_END = [
    ("setup_s", "s"),
    ("goodput_mib_s", "MiB/s"),
    ("cpu_ms_per_mib", "ms/MiB"),
    ("peak_rss_mib", "MiB"),
    ("session_p50_ms", "ms"),
    ("session_p99_ms", "ms"),
]


def _percentile_names(prefix, unit):
    return [(prefix + ".p50", unit), (prefix + ".p99", unit),
            (prefix + ".count", "count")]


# Per-layer metrics: every workload reports every one; a layer the
# workload does not run reads 0.
PER_LAYER = (
    [("transfer.%s.%s" % (stage, kind), "ratio")
     for stage in ("read", "network", "write")
     for kind in ("busy_frac", "blocked_frac")]
    + [m for stage in ("read", "network", "write")
       for m in _percentile_names("transfer.%s.service_us" % stage, "us")]
    + _percentile_names("transfer.sender_queue.wait_us", "us")
    + _percentile_names("transfer.receiver_queue.wait_us", "us")
    + [("transfer.ring.stalls_per_chunk", "1/chunk"),
       ("transfer.ring.parks_per_chunk", "1/chunk"),
       ("transfer.payload_pool.hit_ratio", "ratio"),
       ("transfer.setup_ms", "ms"),
       ("transfer.wait_ms", "ms"),
       ("net.syscalls_per_chunk", "1/chunk"),
       ("net.copies_per_chunk", "1/chunk"),
       ("net.recv_syscalls_per_chunk", "1/chunk"),
       ("net.recv_copies_per_chunk", "1/chunk"),
       ("net.chunks_per_write", "chunks"),
       ("net.batch_chunks.p50", "chunks"),
       ("net.batch_chunks.count", "count"),
       ("net.frame_errors", "count"),
       ("net.send_failures", "count"),
       ("serve.loop.busy_frac", "ratio"),
       ("serve.pool.busy_frac", "ratio"),
       ("serve.pool.starved_frac", "ratio")]
    + _percentile_names("serve.open_ms", "ms")
    + _percentile_names("serve.close_ms", "ms")
    + _percentile_names("serve.send_us", "us")
    + [("serve.client_cpu_frac", "ratio"),
       ("serve.sessions_rejected", "count"),
       ("serve.verify_failures", "count"),
       ("serve.late_chunks", "count"),
       ("serve.unknown_session_frames", "count"),
       ("rl.rollout_ms_per_episode", "ms"),
       ("rl.gae_ms_per_update", "ms"),
       ("rl.update_ms_per_update", "ms"),
       ("rl.train_steps_per_s", "1/s")]
    + _percentile_names("sim.step_us", "us")
    + _percentile_names("rl.act_us", "us")
    + [("rl.converge_episode", "episodes"),
       ("rl.best_reward", "ratio"),
       ("telemetry.snapshot_us", "us"),
       ("bench.trace_overhead_frac", "ratio"),
       ("bench.fail_frac", "ratio"),
       ("bench.session_samples", "count")]
)

RUNNER_TIMEOUT_S = 165


class BenchError(Exception):
    pass


def _run_quiet(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("failed: " + " ".join(cmd))


def build(build_dir):
    for required in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(required):
            raise BenchError("run from the repository root: %s is missing"
                             % required)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        _run_quiet(["cmake", "-S", "perfbench", "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"])
    _run_quiet(["cmake", "--build", build_dir, "--target", "perfbench_runner",
                "-j", str(os.cpu_count() or 1)])
    return os.path.join(build_dir, "perfbench_runner")


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over src/ (paths and contents): identifies the program built
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_steal_ticks():
    """Cumulative steal time of all CPUs (/proc/stat, clock ticks): time the
    hypervisor gave to other guests while this one had work."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except OSError:
        return 0


def provenance(workload, raw):
    values, info = raw["values"], raw["info"]
    return {
        "workload": workload,
        "why": WORKLOADS[workload],
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "io_uring_available": values.get("uring_available") == 1,
        "build_type": info.get("build_type", "unknown"),
        "trace_spans_compiled_in": values.get("trace_compiled_in") == 1,
        "network": "loopback, not a real link",
    }


def end_to_end(raw):
    s = raw["samples"]
    sessions = s["session_ms"]
    epochs = s.get("session_epoch")

    def session_percentile(p):
        if epochs is None:
            return benchlib.percentile(sessions, p)
        # serve_64: 1000 measured sessions per epoch, taken per epoch.
        return benchlib.grouped_percentile(sessions, epochs, p)

    return {
        "setup_s": benchlib.median(s["setup_s"]),
        "goodput_mib_s": benchlib.median(s["goodput_mib_s"]),
        "cpu_ms_per_mib": benchlib.median(s["cpu_ms_per_mib"]),
        "peak_rss_mib": benchlib.median(s["rss_mib"]),
        "session_p50_ms": session_percentile(50),
        "session_p99_ms": session_percentile(99),
    }


def _add_percentiles(out, name, samples):
    if samples:
        out[name + ".p50"] = benchlib.percentile(samples, 50)
        out[name + ".p99"] = benchlib.percentile(samples, 99)
        out[name + ".count"] = len(samples)


def _add_histogram(out, name, values, hist, scale):
    """A program histogram flattened by its registry snapshot."""
    out[name + ".p50"] = values.get(hist + ".p50", 0.0) * scale
    out[name + ".p99"] = values.get(hist + ".p99", 0.0) * scale
    out[name + ".count"] = values.get(hist + ".count", 0.0)


def _overhead(untraced, traced):
    return 1.0 - benchlib.ratio(traced, untraced)


def engine_layers(raw):
    s, v = raw["samples"], raw["values"]

    def g(name):
        return v.get("engine." + name, 0.0)

    chunks = g("write.chunks")
    capacity_ns = v["transfer.active_workers"] * v["transfer.wall_s"] * 1e9
    out = {}
    for stage in ("read", "network", "write"):
        prefix = "transfer." + stage
        out[prefix + ".busy_frac"] = benchlib.ratio(
            g("stage.%s.busy_ns" % stage), capacity_ns)
        out[prefix + ".blocked_frac"] = benchlib.ratio(
            g("stage.%s.blocked_up_ns" % stage)
            + g("stage.%s.blocked_down_ns" % stage), capacity_ns)
        _add_histogram(out, prefix + ".service_us", v,
                       "engine.%s.service_ns" % stage, 1e-3)
    for queue in ("sender_queue", "receiver_queue"):
        _add_histogram(out, "transfer.%s.wait_us" % queue, v,
                       "engine.%s.wait_ns" % queue, 1e-3)
    queues = ("sender_queue", "receiver_queue")
    stalls = sum(g(q + "." + k) for q in queues
                 for k in ("push_stalls", "pop_stalls"))
    parks = sum(g(q + "." + k) for q in queues
                for k in ("push_parks", "pop_parks"))
    hits, misses = g("pool.payload_hits"), g("pool.payload_misses")
    out.update({
        "transfer.ring.stalls_per_chunk": benchlib.ratio(stalls, chunks),
        "transfer.ring.parks_per_chunk": benchlib.ratio(parks, chunks),
        "transfer.payload_pool.hit_ratio": benchlib.ratio(hits, hits + misses),
        "transfer.setup_ms": s["traced.setup_s"][0] * 1e3,
        "transfer.wait_ms": v["transfer.wall_s"] * 1e3,
        "net.syscalls_per_chunk": benchlib.ratio(g("io.syscalls_total"), chunks),
        "net.copies_per_chunk":
            benchlib.ratio(g("io.payload_copies_total"), chunks),
        "net.recv_syscalls_per_chunk":
            benchlib.ratio(g("io.recv_syscalls_total"), chunks),
        "net.recv_copies_per_chunk":
            benchlib.ratio(g("io.recv_copies_total"), chunks),
        "net.chunks_per_write":
            benchlib.ratio(g("net.chunks_coalesced"), g("net.batch_writes")),
        "net.batch_chunks.p50": g("network.batch_chunks.p50"),
        "net.batch_chunks.count": g("network.batch_chunks.count"),
        "net.frame_errors": g("net.frame_errors"),
        "net.send_failures": g("net.send_failures"),
        "telemetry.snapshot_us": benchlib.median(s["traced.snapshot_us"]),
        "bench.trace_overhead_frac": _overhead(
            benchlib.median(s["goodput_mib_s"]), s["traced.goodput_mib_s"][0]),
    })
    return out


def serve_layers(raw):
    s, v = raw["samples"], raw["values"]
    window_s = v["traced.serve.window_s"]
    window_ns = window_s * 1e9

    def busy(name, threads):
        return benchlib.ratio(v["serve_window." + name], threads * window_ns)

    out = {
        "serve.loop.busy_frac": busy("serve.loop.busy_ns",
                                     v["serve.event_loops"]),
        "serve.pool.busy_frac": busy("serve.pool.busy_ns",
                                     v["serve.worker_threads"]),
        "serve.pool.starved_frac": busy("serve.pool.blocked_up_ns",
                                        v["serve.worker_threads"]),
        "serve.client_cpu_frac": benchlib.ratio(
            v["serve.client_cpu_s"], (os.cpu_count() or 1) * window_s),
        "telemetry.snapshot_us": benchlib.median(s["traced.snapshot_us"]),
        "bench.trace_overhead_frac": _overhead(
            benchlib.median(s["goodput_mib_s"]),
            benchlib.median(s["traced.goodput_mib_s"])),
    }
    for name in ("serve.sessions_rejected", "serve.verify_failures",
                 "serve.late_chunks", "serve.unknown_session_frames"):
        out[name] = v[name]
    for name in ("serve.open_ms", "serve.close_ms", "serve.send_us"):
        _add_percentiles(out, name, s.get(name, []))
    return out


def train_layers(raw, spans):
    s, v = raw["samples"], raw["values"]
    self_time = benchlib.self_times(spans)

    def per_span_ms(name):
        times = [self_time[sp["id"]] for sp in spans
                 if sp["process"] == "trainer" and sp["name"] == name]
        return benchlib.ratio(sum(times), len(times)) * 1e-3  # us -> ms

    untraced_steps_per_s = benchlib.median(s["rl.untraced_steps_per_s"])
    out = {
        "rl.rollout_ms_per_episode": per_span_ms("rollout"),
        "rl.gae_ms_per_update": per_span_ms("gae"),
        "rl.update_ms_per_update": per_span_ms("update"),
        "rl.train_steps_per_s": untraced_steps_per_s,
        "rl.converge_episode": v["rl.converge_episode"],
        "rl.best_reward": v["rl.best_reward"],
        "telemetry.snapshot_us": benchlib.median(s["snapshot_us"]),
        "bench.trace_overhead_frac": _overhead(
            untraced_steps_per_s, benchlib.median(s["rl.traced_steps_per_s"])),
    }
    _add_percentiles(out, "sim.step_us", s["sim.step_us"])
    _add_percentiles(out, "rl.act_us", s["rl.act_us"])
    return out


def per_layer(workload, raw, span_path):
    if workload == "tcp_verified":
        layers = engine_layers(raw)
    elif workload == "serve_64":
        layers = serve_layers(raw)
    else:
        with open(span_path) as f:
            layers = train_layers(raw, benchlib.chrome_spans(json.load(f)))
    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update(layers)
    out["bench.fail_frac"] = benchlib.ratio(raw["failed"], raw["attempted"])
    out["bench.session_samples"] = len(raw["samples"].get("session_ms", []))
    return out


def print_table(title, metrics, units, session_samples):
    """Human-readable metrics; a p99 resting on fewer than
    MIN_SAMPLES_BEYOND samples beyond it is marked. `session_samples` is
    the sample count behind each session percentile (serve_64: the smallest
    epoch's)."""
    print(title)
    for name, unit in units:
        count = 0
        if name == "session_p99_ms":
            count = session_samples
        elif name.endswith(".p99"):
            count = int(metrics.get(name[:-len(".p99")] + ".count", 0))
        note = ""
        if count and not benchlib.percentile_supported(count, 99):
            note = "  (n=%d, fewer than %d beyond p99)" % (
                count, benchlib.MIN_SAMPLES_BEYOND)
        print("  %-36s %16.6g %s%s" % (name, metrics[name], unit, note))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    try:
        build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"), "perfbench")
        runner = build(build_dir)
        raw_path = os.path.join(build_dir, "raw-%s.json" % args.workload)
        span_path = os.path.join(build_dir, "spans-%s.json" % args.workload)
        if os.path.exists(raw_path):
            os.remove(raw_path)
        cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--raw", raw_path]
        if args.trace:
            cmd += ["--spans", span_path]
        steal0 = host_steal_ticks()
        started = time.monotonic()
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUNNER_TIMEOUT_S)
        wall_s = time.monotonic() - started
        steal_share = benchlib.ratio(
            host_steal_ticks() - steal0,
            (os.cpu_count() or 1) * wall_s * os.sysconf("SC_CLK_TCK"))
        if proc.returncode != 0 or not os.path.isfile(raw_path):
            raise BenchError("workload runner exited with %d" % proc.returncode)
        with open(raw_path) as f:
            raw = json.load(f)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    errors = list(raw["errors"])
    try:
        if args.trace:
            units = PER_LAYER
            metrics = per_layer(args.workload, raw, span_path)
        else:
            units = END_TO_END
            metrics = end_to_end(raw)
    except (KeyError, IndexError, ValueError, OSError) as e:
        errors.append("incomplete measurements: %r" % (e,))
        units, metrics = [], {}

    samples = raw["samples"]
    session_samples = len(samples.get("session_ms", []))
    per_percentile = session_samples
    if "session_epoch" in samples:
        sizes = benchlib.group_sizes(samples["session_epoch"])
        per_percentile = min(sizes)
        print("%d epochs of %s measured sessions" % (
            len(sizes), "/".join(str(n) for n in sizes)))
    print("provenance " + json.dumps(provenance(args.workload, raw)))
    print("runner wall time %.1f s, %d session samples, host steal %.1f%%" % (
        wall_s, session_samples, 100.0 * steal_share))
    for err in errors:
        print("GATE FAILED: " + err)
    if metrics:
        print_table("%s metrics (%s):" % (
            "per-layer" if args.trace else "end-to-end", args.workload),
            metrics, units, per_percentile)
    if metrics and not args.trace:
        s = raw["samples"]
        print("within-run spread, IQR / median: " + ", ".join(
            "%s %.3f (n=%d)" % (name, benchlib.relative_spread(s[name]),
                                len(s[name]))
            for name in ("setup_s", "goodput_mib_s", "cpu_ms_per_mib",
                         "rss_mib", "session_ms")))

    correct = not errors and raw["failed"] == 0
    result = {
        "correct": correct,
        "attempted": max(1, int(raw["attempted"])),
        # A failed path or output gate counts as one failed operation.
        "failed": int(raw["failed"]) or (0 if correct else 1),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
