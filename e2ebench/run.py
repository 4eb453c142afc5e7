#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --list

Run from the repository root. The benchmark is compiled from source into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); later runs
rebuild incrementally. Before running, the metric and workload names the
binary lists (--list) are checked against BENCHMARK.json and README.md, so
the three cannot drift apart. The last line of stdout is the binary's JSON
result; a failed build, check or run exits non-zero.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "e2ebench")


def listed(binary):
    out = subprocess.run([binary, "--list"], capture_output=True, text=True,
                         timeout=60)
    if out.returncode:
        fail("--list failed")
    return out.stdout


def check_catalog(listing):
    """BENCHMARK.json and README.md must name exactly what the binary does."""
    workloads, metrics = [], {"end_to_end": [], "per_layer": []}
    for line in listing.splitlines():
        parts = line.split()
        if parts[0] == "workload":
            workloads.append(parts[1])
        else:
            metrics[parts[1]].append((parts[2], parts[3], parts[4]))
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        if [w["name"] for w in spec["workloads"]] != workloads:
            fail("BENCHMARK.json workloads differ from --list")
        for kind, rows in metrics.items():
            declared = [(m["name"], m["unit"], m["better"]) for m in spec[kind]]
            if declared != rows:
                fail(f"BENCHMARK.json {kind} metrics differ from --list")
    with open(os.path.join(HERE, "README.md")) as f:
        doc = f.read()
    missing = [n for n in workloads if f"`{n}`" not in doc]
    if missing:
        fail("README.md does not document: " + ", ".join(missing))
    # Each metric has a table row "| `name` | unit | better | ...".
    rows = {}
    for line in doc.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) >= 3:
            rows[cells[0].strip("`")] = (cells[1], cells[2])
    listed_metrics = {m[0]: m[1:] for ms in metrics.values() for m in ms}
    for name, (unit, better) in listed_metrics.items():
        if rows.get(name) != (unit, better):
            fail(f"README.md table row for {name} is missing or does not "
                 f"say unit {unit}, {better} is better")
    stale = [n for n, (_, better) in rows.items()
             if better in ("higher", "lower") and n not in listed_metrics]
    if stale:
        fail("README.md documents metrics the binary lacks: " + ", ".join(stale))


def main(argv):
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "e2ebench")
    binary = build(build_dir)
    listing = listed(binary)
    check_catalog(listing)
    if "--list" in argv:
        sys.stdout.write(listing)
        return 0
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        name = "-".join(args[i + 1] for i, a in enumerate(args[:-1])
                        if a in ("--workload", "--seed"))
        args += ["--trace-out", os.path.join(build_dir, f"trace-{name}.json")]
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
