#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload clique_gnp --seed 1 --seconds 32 --trace 0

Workloads: clique_gnp, clique_lollipop, serve_mixed (see BENCHMARK.json).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; seed-exact counts and a per-run environment record persist
in <build dir>/perfbench-state. Exits nonzero, without a result line, when the
sources are missing or the build, the self-test or the run fails; exits 1
after the result line when an output check failed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("clique_gnp", "clique_lollipop", "serve_mixed")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target


def build(out_dir):
    """Configures and builds perfbench (library included) in Release."""
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out_dir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}", 3)
    return out_dir / "perfbench"


def source_id():
    """The git commit when the checkout is a repository, else a digest of src/."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    if not (ROOT / "src" / "engine" / "engine.hpp").is_file():
        fail(f"no cliquest sources under {ROOT / 'src'}", 3)

    out_dir = build_dir() / "perfbench"
    binary = build(out_dir)
    selftest = subprocess.run([str(binary), "--selftest"], stdout=sys.stderr,
                              stderr=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        fail("self-test failed", 4)

    state = build_dir() / "perfbench-state"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--state-dir", str(state), "--commit", source_id()]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 5)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail(f"run failed with exit code {done.returncode}", 5)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"units {sorted(n for n in set(want) & set(got) if want[n] != got[n])}", 5)
    env = next((json.loads(line[4:]) for line in lines if line.startswith("ENV ")), {})
    with open(state / "runs.jsonl", "a") as log:
        log.write(json.dumps({"env": env, "result": result}) + "\n")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
