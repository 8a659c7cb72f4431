#!/usr/bin/env python3
"""NOPE benchmark: builds the program from source, runs one workload, checks
its outputs and prints the metrics.

    python3 perfbench/run.py --workload handshake_nope --seed 1 --seconds 10 --trace 0

Run from the repository root. The program (perfbench.cc) is built with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of the traced run with --trace 1. The line before it carries the host
fingerprint, exact counts and the raw measurements. perfbench/NOTES.md describes the
workloads and metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

WORKLOADS = ("handshake_nope", "handshake_downgrade", "issuance")
THREADS = "4"  # NOPE_THREADS for every run: the measurement host's nproc
RUN_TIMEOUT_S = 170

# Exact counts the program reports, under their per-layer metric names.
COUNTS = {
    "constraints_pre": ("r1cs.constraints_pre", "count"),
    "constraints_post": ("r1cs.constraints_post", "count"),
    "domain_size": ("groth16.domain_size", "count"),
    "chain_bytes": ("pki.chain_bytes", "bytes"),
    "proof_bytes": ("groth16.proof_bytes", "bytes"),
}
UNIT_SUFFIXES = (("_ms", "ms"), ("_ns", "ns"), ("_s", "s"), ("_pct", "%"))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the program; returns its path."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isfile("src/core/nope.h")):
        fail("run from the repository root: the NOPE sources are not here")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", THREADS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def source_identity():
    """The git commit when the checkout is a git repository, and a digest of
    the sources."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob("src/**/*", recursive=True) + ["CMakeLists.txt"]):
        if os.path.isfile(path):
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return commit, digest.hexdigest()


def unit_of(name):
    for suffix, unit in UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


def nominal_op_ms(raw):
    """Each handshake's time at the nominal host speed, by the reference chunks
    on either side of it on the client thread. An issuance runs on four
    threads, which no single-thread chunk tracks, so it stays as measured."""
    if raw["workload"] == "issuance":
        return list(raw["op_ms"])
    refs = raw["op_ref_ms"]
    return [stats.at_nominal_speed(ms, (refs[i] + refs[i + 1]) / 2, raw["ref_nominal_ms"])
            for i, ms in enumerate(raw["op_ms"])]


def setup_s(raw):
    """Set-up times in s: handshake_downgrade's single-threaded builds at the
    nominal host speed, by chunks on the same thread around each build; the
    multi-threaded trusted-setup fixtures as measured."""
    if not raw["setup_ref_ms"]:
        return [ms / 1e3 for ms in raw["setup_ms"]]
    return [stats.at_nominal_speed(ms / 1e3, ref, raw["ref_nominal_ms"])
            for ms, ref in zip(raw["setup_ms"], raw["setup_ref_ms"])]


def end_to_end(raw):
    """The bounded metrics. ops_per_s is completed operations over their
    summed time (the window less the reference chunks), since only single
    operations can be put at the nominal host speed."""
    op_ms = nominal_op_ms(raw)
    if not op_ms:
        fail("no operation completed")
    completed = len(op_ms) - raw["failed"]
    return {
        "setup_s": (stats.median(setup_s(raw)), "s"),
        "ops_per_s": (1e3 * completed / sum(op_ms), "1/s"),
        "op_ms_p50": (stats.median(op_ms), "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def by_kind(raw):
    """Per kind of input: operations, median time at the nominal host speed and
    share of the summed operation time, so that a shift between kinds can be
    told apart from a change in one."""
    op_ms = nominal_op_ms(raw)
    groups = {}
    for kind, ms in zip(raw["op_kind"], op_ms):
        groups.setdefault(kind, []).append(ms)
    total = sum(op_ms)
    return {kind: {"ops": len(v), "op_ms_p50": stats.median(v),
                   "time_share_pct": 100 * sum(v) / total}
            for kind, v in sorted(groups.items())}


def measured(raw):
    """What the run measured before rescaling: whole-window throughput and
    percentiles, the tail percentile, raw set-up times and the host's
    reference speed; and the per-kind times."""
    op_ms = raw["op_ms"]
    refs = raw["op_ref_ms"]
    tail = stats.tail(op_ms)
    nominal_p99 = stats.percentile(nominal_op_ms(raw), 99) if op_ms else None
    return {
        "ops": len(op_ms),
        "window_s": raw["window_s"],
        "ops_per_s": (len(op_ms) - raw["failed"]) / raw["window_s"] if op_ms else None,
        "op_ms_p50": stats.median(op_ms) if op_ms else None,
        "op_ms_tail": {"percentile": tail[0], "value": tail[1]} if tail else None,
        "op_ms_p99_at_nominal_speed": nominal_p99,
        "setup_s": [ms / 1e3 for ms in raw["setup_ms"]],
        "ref_chunk_ms_median": stats.median(refs) if refs else None,
        "by_kind": by_kind(raw) if op_ms else None,
    }


def trace_shares(raw):
    """Coverage, dominant share and pairings per operation from the
    interleaved pairs, whose two sides run next to each other."""
    coverage, dominant, whole = [], [], []
    for pair in raw["pairs"]:
        whole_ms = pair["whole"][1] - pair["whole"][0]
        coverage.append(100 * pair["layers_ms"] / whole_ms)
        dominant.append(100 * pair["dominant_ms"] / whole_ms)
        whole.append(whole_ms)
    return {
        "trace.coverage_pct": stats.median(coverage),
        "trace.dominant_pct": stats.median(dominant),
        "trace.pairings_per_op": stats.median([pair["pairings"] for pair in raw["pairs"]]),
        "trace.whole_op_ms": stats.median(whole),
        "trace.pairs": len(raw["pairs"]),
    }


def per_layer(raw):
    layers = dict(raw["layers"], **trace_shares(raw))
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    for key, (name, unit) in COUNTS.items():
        metrics[name] = (raw["counts"][key], unit)
    return metrics


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, when it is here."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return []
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, NOPE_THREADS=THREADS)
    try:
        run = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0 or not run.stdout.strip():
        fail(f"perfbench exited with status {run.returncode}")
    raw = json.loads(run.stdout.strip().splitlines()[-1])

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    declared = declared_metrics(args.trace) or list(metrics)
    missing = [name for name in declared if name not in metrics]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))

    commit, source_sha256 = source_identity()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": dict(raw["fingerprint"], commit=commit, source_sha256=source_sha256),
        "counts": dict(raw["counts"], attempted=raw["attempted"], failed=raw["failed"]),
        "measured": measured(raw),
        "undeclared_metrics": {name: value for name, (value, _) in metrics.items()
                               if name not in declared},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }))


if __name__ == "__main__":
    main()
