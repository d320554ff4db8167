#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (a few seconds once built).

    python3 perfbench/selftest.py

Checks, for every workload and both --trace modes, that the last stdout
line has exactly the contract's keys and every metric BENCHMARK.json names
with its unit; that the report line before it carries the workload's own
metric names with units and the provenance fields; that a perturbed
recorded digest is counted as a failure; and that a directory holding only
BENCHMARK.json and perfbench/ makes the benchmark exit non-zero without a
result.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The report line's metric names per workload (see README.md).
REPORT = {
    "static-converge": {"setup_s": "s", "trial_s": "s", "trial_samples": "count",
                        "deliveries_per_s": "1/s", "peak_rss_mb": "MB", "failed_frac": "frac"},
    "churn-soak": {"setup_s": "s", "window_ms_p50": "ms", "window_ms_p90": "ms",
                   "window_samples": "count", "deliveries_per_s": "1/s", "peak_rss_mb": "MB",
                   "failed_frac": "frac"},
    "paper-sweep": {"setup_s": "s", "sweep_s": "s", "sweep_samples": "count",
                    "peak_rss_mb": "MB", "failed_frac": "frac"},
}
PROVENANCE = {"git_sha", "compiler", "build_type", "release", "nproc", "pool_workers"}

checks = 0


def check(ok: bool, what: str):
    global checks
    if not ok:
        print(f"selftest: FAILED: {what}", file=sys.stderr)
        sys.exit(1)
    checks += 1


def bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--size", "tiny",
                           "--seconds", "1"] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def lines_of(proc, what):
    check(proc.returncode == 0, f"{what}: exit {proc.returncode}: {proc.stderr[-400:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def main() -> int:
    for name in REPORT:
        for trace in (0, 1):
            what = f"{name} --trace {trace}"
            report, result = lines_of(bench(["--workload", name, "--trace", str(trace)]), what)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys")
            check(result["correct"] is True and result["failed"] == 0, f"{what}: not correct")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{what}: attempted")
            spec = SPEC["per_layer" if trace else "end_to_end"]
            check(set(result["metrics"]) == {m["name"] for m in spec}, f"{what}: metric names")
            for m in spec:
                got = result["metrics"][m["name"]]
                check(got["unit"] == m["unit"], f"{what}: unit of {m['name']}")
                check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                      f"{what}: value of {m['name']}")
            check(PROVENANCE <= set(report["provenance"]), f"{what}: provenance")
            check(report["digest"].get("recorded") == report["digest"]["value"],
                  f"{what}: default-seed digest")
            if trace == 0:
                for key, unit in REPORT[name].items():
                    check(report["report"].get(key, {}).get("unit") == unit,
                          f"{what}: report metric {key}")

    # A perturbed recorded digest must count as a failed operation.
    SCRATCH.mkdir(parents=True, exist_ok=True)
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    for name in REPORT:
        perturbed = json.loads(json.dumps(expected))
        digest = perturbed["tiny"][name]["digest"]
        perturbed["tiny"][name]["digest"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        path = SCRATCH / "expected.json"
        path.write_text(json.dumps(perturbed))
        _, result = lines_of(bench(["--workload", name, "--expected", str(path)]), name)
        check(result["correct"] is False and result["failed"] >= 1,
              f"{name}: perturbed digest not counted as a failure")

    # Without the simulator sources the benchmark must fail and print no result.
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(["--workload", "static-converge"], cwd=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout, "bare directory run")
    shutil.rmtree(bare)

    print(f"selftest: {checks} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
