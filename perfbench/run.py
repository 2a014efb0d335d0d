#!/usr/bin/env python3
"""The repository benchmark: build the simulator from source, run one
workload in fresh processes, check its outputs and print its metrics.

    python3 perfbench/run.py --workload fleet-replay --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. Workloads: fleet-replay, sweep-kernels,
telemetry-roundtrip (see NOTES.md for why each was chosen). With
--trace 0 the result carries the end-to-end metrics; with --trace 1 a
separate traced run carries the per-layer metrics. The last line of
stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the lines before it print every metric by name and unit
and the environment the numbers were measured in.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("fleet-replay", "sweep-kernels", "telemetry-roundtrip")

# The seed claims are developed against, and the one they must also
# pass without having been tuned on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Fresh processes per run: each pays the cold set-up once, so set-up
# time is the median of this many cold starts.
UNTRACED_PROCESSES = 4
TRACED_PROCESSES = 2

CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

KERNELS = ("Base", "Tile-8", "Tile-32", "Tile-128", "SONIC", "TAILS")

PER_LAYER_UNITS = {
    "dnn.build_s.MNIST": "s",
    "dnn.build_s.HAR": "s",
    "dnn.build_s.OkG": "s",
    "dnn.dataset_s": "s",
    "fleet.simulate_s": "s",
    "fleet.reduce_s": "s",
    "fleet.round_hits": "count",
    "fleet.round_misses": "count",
    "fleet.lifetime_hits": "count",
    "fleet.lifetime_misses": "count",
    "fleet.uncached_rounds": "count",
    "fleet.hit_ratio": "ratio",
    "fleet.reboots_replayed": "count",
    "fleet.ns_per_reboot": "ns",
    "fleet.dnf_devices": "count",
    **{f"kernels.run_s.{k}": "s" for k in KERNELS},
    "arch.op_instances": "count",
    "arch.sim_ops_per_s": "1/s",
    "arch.reboots": "count",
    "task.tasks_executed": "count",
    "kernels.dnf_runs": "count",
    "kernels.tails_tile_mismatch_runs": "count",
    "kernels.useful_op_ratio": "ratio",
    "app.pool_efficiency": "ratio",
    "app.runone_ms_p50": "ms",
    "app.runone_ms_tail": "ms",
    "telemetry.encode_s": "s",
    "telemetry.aggregate_s": "s",
    "telemetry.bytes_per_device": "B",
    "telemetry.decode_rows_per_s": "1/s",
    "bench.trace_overhead": "ratio",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the sources the benchmark is built from, so results
    from checkouts without git history still name their code."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, jobs):
    """Configure and build perfbench_workload under .bench_build; return its
    path. Build output goes to stderr."""
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_workload", "-j", str(jobs)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited "
                 f"{done.returncode}")
    return os.path.join(build_dir, "perfbench_workload")


def run_child(program, workload, seed, seconds, traced):
    cmd = [program, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds:.3f}"] + (["--traced"] if traced else [])
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} process timed out after {CHILD_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{workload} process exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(children):
    runs = [t for c in children for t in c["run_s"]]
    return {
        "setup_s": stats.median([c["setup_s"] for c in children]),
        "wall_s": stats.median([c["wall_s"] for c in children]),
        "work_per_s": children[0]["work"] / stats.median(runs),
        "peak_rss_mb": stats.median([c["peak_rss_mb"] for c in children]),
    }


def per_layer(children):
    values = {name: stats.median([c["layers"][name] for c in children])
              for name in children[0]["layers"]}
    runs = [t for c in children for t in c["run_s"]]
    traced = [t for c in children for t in c["traced_s"]]
    values["bench.trace_overhead"] = stats.median(traced) / stats.median(runs)
    runone = [t for c in children for t in c.get("runone_ms", [])]
    tail = stats.tail_percentile(runone)
    values["app.runone_ms_p50"] = stats.median(runone) if runone else 0.0
    values["app.runone_ms_tail"] = tail[1] if tail else 0.0
    if tail:
        print(f"# app.runone_ms_tail is p{tail[0]:.2f} of "
              f"{len(runone)} runOne calls")
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within [1, 600]")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"no {needed} in {root}: run from a full checkout")

    nproc = os.cpu_count() or 1
    program = build(root, min(4, nproc))

    traced = args.trace == 1
    processes = TRACED_PROCESSES if traced else UNTRACED_PROCESSES
    share = args.seconds / processes
    children = []
    for _ in range(processes):
        # Each process's repeats fill its share of the run after its
        # set-up, estimated from the processes before it.
        setup = (stats.median([c["setup_s"] for c in children])
                 if children else 2.0)
        children.append(run_child(program, args.workload, args.seed,
                                  max(0.0, share - setup), traced))

    tally = stats.Tally()
    for c in children:
        tally.add(c["attempted"], c["failed"], c["failures"])
    tally.expect(len({c["digest"] for c in children}) == 1,
                 "output digests differ between processes")

    env = dict(children[0]["environment"])
    env.update(seed=args.seed, workload=args.workload,
               commit=commit(root), source_digest=source_digest(root),
               processes=processes,
               repeats=sum(len(c["run_s"]) for c in children),
               checks_attempted=tally.attempted,
               failed_frac=tally.failed_frac())
    print(json.dumps({"environment": env}))
    for failure in tally.failures:
        print(f"# check failed: {failure}")

    if traced:
        values, units = per_layer(children), PER_LAYER_UNITS
    else:
        values, units = end_to_end(children), END_TO_END_UNITS
    metrics = {}
    for name, unit in units.items():
        # Layers the workload does not run report 0.
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
