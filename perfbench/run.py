#!/usr/bin/env python3
"""The repo benchmark: three closed-loop workloads over the simulator.

    python3 perfbench/run.py --workload static-converge --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all          # every workload on its default seed

Run from the repository root.  The first run configures and builds the
measuring program (perfbench/measure.cpp plus the simulator libraries from
src/) into .bench_build/perfbench as a Release build.  This script turns
--seed into every input the program gets (trial seeds, the sweep's master
seed, the soak's scenario seed), runs it, checks its outputs and prints one
JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones (see perfbench/README.md).  The line
before it is a report with provenance, the digest check and the workload's
own metric names (trial_s, window_ms_p90, sweep_s, failed_frac, ...).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
MEASURE = BUILD_DIR / "firefly_perfbench"
EXPECTED = BENCH_DIR / "expected.json"
MEASURE_TIMEOUT_S = 170
NPROC = len(os.sched_getaffinity(0))

# Work per run scales with --seconds (calibrated on a 4-core x86 box) but
# never with the clock, so both sides of a comparison do identical work.
# "tiny" is the self-test size.
SIZES = {
    "full": {
        "static": {"n": 2000, "seeds_per_s": 0.3, "min_seeds": 3},
        "soak": {"n": 200, "windows_per_s": 5, "min_windows": 30, "trace_windows": 60},
        "sweep": {"ns": [50, 100, 200, 400, 600, 800, 1000], "trials": 4, "s_per_pass": 10},
    },
    "tiny": {
        "static": {"n": 100, "seeds_per_s": 0, "min_seeds": 2},
        "soak": {"n": 30, "windows_per_s": 0, "min_windows": 12, "trace_windows": 12},
        "sweep": {"ns": [20, 40], "trials": 2, "s_per_pass": 1e9},
    },
}
# Leading ops hashed into the workload digest; both --trace modes run them.
DIGEST_PREFIX = {"static": 2, "soak": 30}


def derive(seed: int, stream: str, index: int = 0) -> int:
    """Deterministic 63-bit child seed of the benchmark seed."""
    h = hashlib.sha256(f"{stream}/{seed}/{index}".encode()).digest()
    return int.from_bytes(h[:8], "little") >> 1


def combine(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def pctl(xs, q):
    """Nearest-rank percentile."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s) - 1, int(q * (len(s) - 1) + 0.5))]


def setup_ms(recs, part):
    """Set-up time of the run's engines: the median of each engine config's
    samples, summed over configs.  `part` picks deploy, build or both."""
    samples = {}
    for s in recs["setup"]:
        samples.setdefault(s["key"], []).append(part(s))
    return sum(median(v) for v in samples.values())


def setup_s(recs):
    return setup_ms(recs, lambda s: s["deploy_ms"] + s["build_ms"]) / 1e3


# --- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    kind = ""  # measuring-program subcommand
    workers = 1  # threads that run the workload

    def __init__(self, seed: int, seconds: int, size: str, trace: bool):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.cfg = SIZES[size][self.kind]
        self.failed = 0
        self.attempted = 0

    def fail_unless(self, ok: bool):
        self.attempted += 1
        self.failed += 0 if ok else 1


class StaticConverge(Workload):
    name, kind = "static-converge", "static"

    def measure_args(self):
        k = max(self.cfg["min_seeds"], round(self.seconds * self.cfg["seeds_per_s"]))
        seeds = [derive(self.seed, self.name, i) for i in range(k)]
        return ["static", f"n={self.cfg['n']}", "seeds=" + ",".join(map(str, seeds)),
                f"trace={int(self.trace)}"]

    def check(self, recs):
        ops = recs["op"]
        first = {}
        for op in ops:  # repeats of one seed must reproduce its digest
            ref = first.setdefault(op["key"], op["digest"])
            self.fail_unless(op["converged"] and op["digest"] == ref)
        timed = [op for op in ops if op["phase"] in ("timed", "plain")]
        return combine([f"{op['key']}:{op['digest']}" for op in timed[:DIGEST_PREFIX["static"]]])

    def end_to_end(self, recs):
        timed = [op for op in recs["op"] if op["phase"] == "timed"]
        run_s = sum(op["run_ms"] for op in timed) / 1e3
        trial_s = median([op["run_ms"] / 1e3 for op in timed])
        report = {
            "trial_s": (trial_s, "s"),
            "trial_samples": (len(timed), "count"),
            "deliveries_per_s": (sum(op["deliveries"] for op in timed) / run_s, "1/s"),
        }
        return {"tx_per_s": median([op["tx"] / op["run_ms"] * 1e3 for op in timed])}, report

    def per_layer(self, recs, trace):
        plain = [op for op in recs["op"] if op["phase"] == "plain"]
        traced = [op for op in recs["op"] if op["phase"] == "traced"]
        counts = sum_counts(plain)
        m = engine_layer(counts, sum(op["run_ms"] for op in plain),
                         trace["spans"]["slot_delivery"]["self_ms"])
        m["core.run_ms"] = median([op["run_ms"] for op in plain])
        op_ms = [op["setup_ms"] + op["run_ms"] for op in traced]
        m["core.trial_ms_sum"] = sum(op_ms)
        m["core.trial_ms_max"] = max(op_ms)
        m["util.pool_busy_frac"] = sum(op["run_ms"] for op in traced) / recs["phase"]["traced"]
        m["obs.trace_overhead_frac"] = (sum(op["run_ms"] for op in traced)
                                        / sum(op["run_ms"] for op in plain) - 1)
        m["sim.arena_high_water"] = 0
        return m


class ChurnSoak(Workload):
    name, kind = "churn-soak", "soak"

    def measure_args(self):
        windows = (self.cfg["trace_windows"] if self.trace else
                   max(self.cfg["min_windows"], round(self.seconds * self.cfg["windows_per_s"])))
        return ["soak", f"n={self.cfg['n']}", f"seed={derive(self.seed, self.name)}",
                f"windows={windows}", f"trace={int(self.trace)}"]

    def check(self, recs):
        windows = {}
        for op in recs["op"]:
            ref = windows.setdefault(op["key"], op["digest"])
            self.fail_unless(op["ok"] and op["digest"] == ref)
        for rp in recs["replay"]:  # a restored, replayed window must match
            self.fail_unless(rp["ok"] and rp["digest"] == windows.get(rp["key"]))
        keys = sorted(windows)[:DIGEST_PREFIX["soak"]]
        return combine([windows[k] for k in keys])

    def end_to_end(self, recs):
        timed = [op for op in recs["op"] if op["phase"] == "timed"]
        ms = [op["run_ms"] for op in timed]
        run_s = sum(ms) / 1e3
        report = {
            "window_ms_p50": (median(ms), "ms"),
            "window_ms_p90": (pctl(ms, 0.9), "ms"),
            "window_samples": (len(ms), "count"),
            "deliveries_per_s": (timed[-1]["deliveries"] / run_s, "1/s"),
        }
        tx = [b["tx"] - a["tx"] for a, b in zip([{"tx": 0}] + timed, timed)]  # cumulative
        return {"tx_per_s": median([t / m * 1e3 for t, m in zip(tx, ms)])}, report

    def per_layer(self, recs, trace):
        plain = [op for op in recs["op"] if op["phase"] == "plain"]
        traced = [op for op in recs["op"] if op["phase"] == "traced"]
        last = plain[-1]  # counts are cumulative over the soak
        m = engine_layer(last, sum(op["run_ms"] for op in plain),
                         trace["spans"]["slot_delivery"]["self_ms"])
        m["core.run_ms"] = median([op["run_ms"] for op in plain])
        m["core.trial_ms_sum"] = sum(op["run_ms"] for op in traced)
        m["core.trial_ms_max"] = max(op["run_ms"] for op in traced)
        m["util.pool_busy_frac"] = m["core.trial_ms_sum"] / recs["phase"]["traced"]
        m["obs.trace_overhead_frac"] = (m["core.trial_ms_sum"]
                                        / sum(op["run_ms"] for op in plain) - 1)
        m["sim.arena_high_water"] = max(op["arena_high_water"] for op in plain)
        return m


class PaperSweep(Workload):
    name, kind = "paper-sweep", "sweep"
    workers = NPROC

    def measure_args(self):
        passes = max(1, round(self.seconds / self.cfg["s_per_pass"]))
        return ["sweep", "ns=" + ",".join(map(str, self.cfg["ns"])),
                f"trials={self.cfg['trials']}", f"master_seed={derive(self.seed, self.name)}",
                f"workers={self.workers}", f"passes={passes}", f"trace={int(self.trace)}"]

    def check(self, recs):
        first = {}
        for p in recs["point"]:  # every pass must reproduce pass 0's points
            ref = first.setdefault((p["protocol"], p["n"]), p["digest"])
            self.fail_unless(p["failure_rate"] == 0 and p["digest"] == ref)
        for p in recs["probe"]:  # telemetry must not change the probe's result
            self.fail_unless(p["converged"] and p["digest"] == recs["probe"][0]["digest"])
        return combine(list(first.values()))

    def end_to_end(self, recs):
        timed = [op for op in recs["op"] if op["phase"] == "timed"]
        tx = sum(p["tx"] for p in recs["point"] if p["rep"] == 0)
        report = {
            "sweep_s": (median([op["run_ms"] / 1e3 for op in timed]), "s"),
            "sweep_samples": (len(timed), "count"),
        }
        # Per CPU second, not per wall second: a pass's wall time ends with
        # the pool's idle tail, whose length depends on which worker the host
        # slows during the last large trials (busy share 0.73-0.93 from pass
        # to pass).  sweep_s above is the wall time.
        return {"tx_per_s": median([tx / op["cpu_ms"] * 1e3 for op in timed])}, report

    def per_layer(self, recs, trace):
        probe = {p["phase"]: p for p in recs["probe"]}
        m = engine_layer(probe["plain"], probe["plain"]["run_ms"],
                         recs["trace"]["probe"]["spans"]["slot_delivery"]["self_ms"])
        m["core.run_ms"] = probe["plain"]["run_ms"]
        ops = {op["phase"]: op for op in recs["op"]}
        trial = trace["spans"]["trial"]
        m["core.trial_ms_sum"] = trial["total_ms"]
        m["core.trial_ms_max"] = trial["max_ms"]
        m["util.pool_busy_frac"] = trial["total_ms"] / (ops["traced"]["run_ms"] * ops["traced"]["workers"])
        m["obs.trace_overhead_frac"] = ops["traced"]["run_ms"] / ops["plain"]["run_ms"] - 1
        m["sim.arena_high_water"] = 0
        return m


WORKLOADS = {w.name: w for w in (StaticConverge, ChurnSoak, PaperSweep)}


def sum_counts(ops):
    keys = ("events", "slots", "tx", "deliveries", "collisions", "fault_drops",
            "crashes", "recoveries")
    return {k: sum(op[k] for op in ops) for k in keys}


def engine_layer(c, run_ms, slot_delivery_self_ms):
    """sim/mac/fault metrics of one scope from its exact counts."""
    decoded = c["deliveries"] + c["collisions"]
    return {
        "sim.events": c["events"],
        "sim.slots": c["slots"],
        "sim.ns_per_event": run_ms * 1e6 / max(1, c["events"]),
        "mac.tx": c["tx"],
        "mac.deliveries": c["deliveries"],
        "mac.collisions": c["collisions"],
        "mac.decode_ratio": c["deliveries"] / decoded if decoded else 0.0,
        "mac.ns_per_delivery": slot_delivery_self_ms * 1e6 / max(1, c["deliveries"]),
        "fault.crashes": c["crashes"],
        "fault.recoveries": c["recoveries"],
        "fault.drops": c["fault_drops"],
    }


def span_layer(recs, trace):
    spans = trace["spans"]
    # Self time needs kept spans; the sweep keeps them only for its probe.
    self_src = trace if trace["spans_kept"] else recs["trace"]["probe"]
    snaps = recs["snapshot"] + recs["replay"]
    return {
        "geo.deploy_ms": setup_ms(recs, lambda s: s["deploy_ms"]),
        "core.engine_build_ms": setup_ms(recs, lambda s: s["build_ms"]),
        "core.snapshot_ms_p50": median([s["snapshot_ms"] for s in snaps]),
        "core.restore_ms_p50": median([s["restore_ms"] for s in snaps]),
        "mac.slot_delivery_us_p50": trace["slot_delivery_us_p50"],
        "mac.slot_delivery_us_p99": trace["slot_delivery_us_p99"],
        "mac.slot_delivery_calls": spans["slot_delivery"]["calls"],
        "mac.slot_delivery_self_ms": self_src["spans"]["slot_delivery"]["self_ms"],
        "mac.slot_batch_p50": trace["slot_batch_p50"],
        "pco.pco_update_calls": spans["pco_update"]["calls"],
        "pco.pco_update_ms": spans["pco_update"]["total_ms"],
        "proto.fires": trace["fires"],
        "proto.h_connect_calls": spans["h_connect"]["calls"],
        "proto.h_connect_ms": spans["h_connect"]["total_ms"],
        "proto.merge_calls": spans["fragment_merge"]["calls"],
        "proto.merge_ms": spans["fragment_merge"]["total_ms"],
        "obs.spans_dropped": sum(t["spans_dropped"] for t in recs["trace"].values()),
    }


# --- running -----------------------------------------------------------------


def die(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def ensure_built():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources not found under {ROOT / 'src'}; run from a repo checkout")
    # Configure on every run, not only the first: the build info (git sha)
    # is read at configure time, and a reconfigure with nothing changed is
    # cheap.
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD_DIR), "-j", str(NPROC)]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die(f"{' '.join(cmd[:2])} failed")


def run_measure(args: list[str]) -> dict:
    """Run the measuring program; returns its records grouped by tag."""
    try:
        proc = subprocess.run([str(MEASURE)] + args, stdout=subprocess.PIPE, text=True,
                              timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"measuring program exceeded {MEASURE_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        die(f"measuring program exited with {proc.returncode}", 1)
    recs = {k: [] for k in ("build", "setup", "op", "replay", "snapshot", "point",
                            "probe", "phase", "trace", "rss")}
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        recs[rec.pop("rec")].append(rec)
    recs["trace"] = {t["scope"]: t for t in recs["trace"]}
    recs["phase"] = {p["phase"]: p["wall_ms"] for p in recs["phase"]}
    return recs


def run_workload(name, seed, seconds, trace, size, expected_path):
    expected = json.loads(expected_path.read_text())[size][name]
    if seed is None:
        seed = expected["default_seed"]
    w = WORKLOADS[name](seed, seconds, size, trace)
    ensure_built()
    recs = run_measure(w.measure_args())
    digest = w.check(recs)
    digest_check = {"value": digest, "default_seed": expected["default_seed"]}
    if seed == expected["default_seed"]:
        digest_check["recorded"] = expected["digest"]
        w.fail_unless(digest == expected["digest"])

    build = recs["build"][0]
    provenance = dict(build)
    provenance.update(release=build["build_type"] == "Release", nproc=NPROC,
                      pool_workers=w.workers)
    if not provenance["release"]:
        print(f"perfbench: WARNING: {build['build_type']} build, not Release", file=sys.stderr)
    peak_rss_mb = recs["rss"][0]["peak_rss_kb"] / 1024.0

    if trace:
        spans = recs["trace"]["workload"]
        metrics = {**span_layer(recs, spans), **w.per_layer(recs, spans)}
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        report = {}
    else:
        metrics, own = w.end_to_end(recs)
        metrics.update(setup_s=setup_s(recs), peak_rss_mb=peak_rss_mb)
        report = {"setup_s": (metrics["setup_s"], "s"), **own}
        units = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    report["peak_rss_mb"] = (peak_rss_mb, "MB")
    report["failed_frac"] = (w.failed / max(1, w.attempted), "frac")

    print(json.dumps({"perfbench": {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "provenance": provenance, "digest": digest_check,
        "report": {k: {"value": v, "unit": u} for k, v, u in
                   ((k, v[0], v[1]) for k, v in report.items())},
    }}))
    missing = set(units) - set(metrics)
    if missing:
        die(f"metrics not computed: {sorted(missing)}", 1)
    print(json.dumps({
        "correct": w.failed == 0, "attempted": w.attempted, "failed": w.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return w.failed == 0


def benchmark_spec() -> dict:
    """The metric table: names, units and bounds live in BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload on its default seed")
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's default seed")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--expected", type=Path, default=EXPECTED,
                    help="digest file (the self-test passes a perturbed copy)")
    a = ap.parse_args(argv)
    if a.all:
        ok = True
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            ok &= run_workload(name, None, a.seconds, bool(a.trace), a.size, a.expected)
        return 0 if ok else 1
    if a.workload is None:
        ap.error("--workload or --all is required")
    run_workload(a.workload, a.seed, a.seconds, bool(a.trace), a.size, a.expected)
    return 0


if __name__ == "__main__":
    sys.exit(main())
