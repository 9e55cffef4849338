"""Print every benchmark metric for every workload, or smoke-test the
benchmark.

    python3 bench/report.py [--seed N]
    python3 bench/report.py --smoke

Runs ``bench/run.py`` once untraced and once traced per workload, each in
its own process, from the root of the checkout.  It prints the end-to-end
metrics by name and unit, with ``failed_ratio`` (failed / attempted
operations), then the per-layer metrics of the traced run and its
tracing overhead.

``--smoke`` runs every workload at its smallest input size with no
minimum run time, and exits non-zero when a metric listed in
BENCHMARK.json is missing or has another unit, or an output check fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _run(workload, seed, seconds, trace, size):
    cmd = [sys.executable, os.path.join("bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _missing(result, wanted):
    """Metric names that are absent or carry another unit than listed."""
    got = result["metrics"]
    return [m["name"] for m in wanted
            if got.get(m["name"], {}).get("unit") != m["unit"]]


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    size = "smoke" if args.smoke else "full"
    seconds = 0 if args.smoke else spec["run_seconds"]

    print(f"git {_git_sha()}, Python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs, seed {args.seed}, {seconds} s per run, "
          f"{size} inputs")
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        plain = _run(name, args.seed, seconds, 0, size)
        traced = _run(name, args.seed, seconds, 1, size)
        print(f"\n{name}")
        if plain is None or traced is None:
            problems.append(f"{name}: run.py failed")
            print("  run failed")
            continue
        for result, wanted in ((plain, spec["end_to_end"]),
                               (traced, spec["per_layer"])):
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            missing = _missing(result, wanted)
            if missing:
                problems.append(f"{name}: missing or mis-united metrics "
                                f"{missing}")
        for metric, entry in plain["metrics"].items():
            print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  {'failed_ratio':<34} "
              f"{plain['failed'] / plain['attempted']:>14.6g} "
              f"failed/attempted ({plain['failed']} of "
              f"{plain['attempted']} operations)")
        print("  per layer (traced passes, per pass):")
        for metric, entry in traced["metrics"].items():
            print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
