#!/usr/bin/env python3
"""End-to-end benchmark of the three SOCRATES paths.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the driver from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), measures
the three paths (one process each) and prints every metric by name, unit
and sample count, then the result as one JSON object on the last line of
standard output.  Workloads and metrics are listed in BENCHMARK.json and
described in perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

# workload -> the path it measures most
PATHS = {"offline_campaign": "offline", "online_short_kernels": "online", "serve_ladder": "serve"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the driver; returns its path."""
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PATHS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the root of a SOCRATES checkout ({needed} is missing)")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out_dir = os.path.join(root, target, "perfbench")
    driver = build(root, out_dir)

    # Each path runs in its own process, the workload's own path first
    # with 60% of the time, the other two with 20% each, so every run
    # reports every metric.
    focus = PATHS[args.workload]
    order = [focus] + [p for p in PATHS.values() if p != focus]
    results = {}
    for path in order:
        share = 0.6 if path == focus else 0.2
        results[path] = run_path(driver, out_dir, path, args, share * args.seconds, path == focus)

    metrics = {}
    for path in order:
        for name, m in results[path]["metrics"].items():
            if name not in ("setup_s", "peak_rss_mb"):
                metrics[name] = m
    setup = [results[p]["metrics"]["setup_s"] for p in order]
    metrics["setup_s"] = {"value": sum(m["value"] for m in setup), "unit": "s",
                          "n": setup[0]["n"], "tail": 0}
    metrics["peak_rss_mb"] = max((results[p]["metrics"]["peak_rss_mb"] for p in order),
                                 key=lambda m: m["value"])

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = all(r["correct"] for r in results.values())
    missing = expected - set(metrics)
    if missing:
        fail(f"metrics missing from the driver's output: {sorted(missing)}")

    # Every metric the paths measured is printed; the ones BENCHMARK.json
    # lists for this mode go into the result object, the rest are marked
    # "(info)".
    for name in sorted(metrics):
        m = metrics[name]
        line = f"{name:40s} {m['value']:16.6g} {m['unit']:6s}"
        if m["n"]:
            line += f"  n={m['n']}"
        if m["tail"]:
            line += f"  tail<=p{m['tail'] * 100:g}"
        if name not in expected:
            line += "  (info)"
        print(line)
    print(f"{'failed_frac':40s} {failed / max(attempted, 1):16.6g}  ({failed} of {attempted})")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                          for n in sorted(expected)}}
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


def run_path(driver, out_dir, path, args, seconds, focus):
    """Runs the driver on one path; returns its parsed result."""
    # The library reads SOCRATES_* tuning knobs from the environment;
    # the benchmark fixes every setting itself.  OpenMP stays on one
    # thread (the online loop is single-threaded by design).
    env = {k: v for k, v in os.environ.items() if not k.startswith("SOCRATES_")}
    env["OMP_NUM_THREADS"] = "1"
    work = os.path.join(out_dir, f"work-{os.getpid()}-{path}")
    cmd = [driver, "--path", path, "--seed", str(args.seed), "--seconds", f"{seconds:.3f}",
           "--trace", str(args.trace), "--overhead", "1" if focus and args.trace else "0",
           "--work", work]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, f"spans-{args.workload}-{path}-{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 100)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out on the {path} path")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with {proc.returncode} on the {path} path and printed no result")
    if len(lines) > 1:
        print("\n".join(lines[:-1]))
    return result


if __name__ == "__main__":
    main()
