#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --check-grid
    python3 perfbench/run.py --write-reference
    python3 perfbench/run.py --compare BASE_DIR NEW_DIR

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build
output goes to stderr. Every UCX_* variable is removed from the
program's environment, so stray library knobs cannot change a result.
Each run leaves a report (settings fingerprint + result) in
<build>/reports; --compare reads two such directories.
"""

import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
REFERENCE = os.path.join(HERE, "reference", "shipped.txt")


def build():
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j",
                    str(os.cpu_count() or 1)],
                   stdout=log, stderr=log, check=True)
    return os.path.join(BUILD, "perfbench")


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("UCX_")}
    cleared = sorted(set(os.environ) - set(env))
    if cleared:
        print("cleared " + " ".join(cleared), file=sys.stderr)
    return env


def load_reports(directory):
    """(workload, trace) -> (settings, {metric: [values]})."""
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace*.json"))):
        with open(path) as f:
            report = json.load(f)
        key = (report["settings"]["workload"], report["trace"])
        settings, values = groups.setdefault(key, (report["settings"], {}))
        if report["settings"] != settings:
            sys.exit(f"{path}: settings differ within {directory}")
        for name, m in report["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return groups


def compare(base_dir, new_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load_reports(base_dir), load_reports(new_dir)
    worse = 0
    for key in sorted(set(base) & set(new)):
        if base[key][0] != new[key][0]:
            print(f"{key[0]}: settings differ, refusing to compare:")
            for k in sorted(set(base[key][0]) | set(new[key][0])):
                if base[key][0].get(k) != new[key][0].get(k):
                    print(f"  {k}: {base[key][0].get(k)} vs "
                          f"{new[key][0].get(k)}")
            return 2
        for name, values in sorted(new[key][1].items()):
            if name not in base[key][1] or name not in bounds:
                continue
            b = statistics.median(base[key][1][name])
            n = statistics.median(values)
            change = (n - b) / b if b else 0.0
            sign = 1 if bounds[name]["better"] == "lower" else -1
            bad = sign * change > bounds[name]["bound"]
            worse += bad
            print(f"{key[0]:<20} {name:<16} {b:>14.6g} {n:>14.6g} "
                  f"{change:+8.2%}  bound {bounds[name]['bound']:.0%}"
                  f"{'  WORSE' if bad else ''}")
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py --compare BASE_DIR NEW_DIR")
        return compare(argv[1], argv[2])
    try:
        program = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = argv + ["--scratch", os.path.join(BUILD, "scratch"),
                   "--reports", os.path.join(BUILD, "reports"),
                   "--reference", REFERENCE]
    return subprocess.run([program] + args, env=clean_env()).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
