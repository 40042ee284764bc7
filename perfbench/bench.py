"""One benchmark run: inputs from the seed, timed passes, checks, metrics.

``run.py`` is the entry point; it puts the checkout's ``src/`` on the
import path before this module is imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NoReturn

import mathverify

import calibrate
import corpus as gen
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Replicas of the 40 bundled formulae per pass.  The three verify
# workloads share one corpus.  Extraction passes stay small so that a
# run holds well over 1000 chapter latency samples (see extract_pass).
VERIFY_REPLICAS = 4
EXTRACT_REPLICAS = 3
SETUP_SAMPLES = 7
WORK_DIR = ROOT / ".perfbench_work"
BASELINE_FILE = HERE / "baseline.json"

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import mathverify
mathverify.Tables(mathverify.PipelineOptions())
setup = time.perf_counter() - start
sys.path.insert(0, {here!r})
import calibrate
calibrate.kernel_seconds()
print(setup, calibrate.kernel_seconds())
"""


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replicas", type=int, default=None,
                    help="override the corpus size (self-test only)")
    ap.add_argument("--expected", type=Path, default=None,
                    help="known-answer file (self-test only)")
    return ap.parse_args(argv)


def setup_seconds() -> list[tuple[float, float]]:
    """Import ``mathverify`` and load its tables in fresh processes; the
    first, untimed, one writes the byte-code cache.  Returns (set-up,
    kernel) seconds per process."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-E", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            fail(f"set-up process failed:\n{done.stderr}")
        if i:
            setup, kernel = map(float, done.stdout.split())
            samples.append((setup, kernel))
    return samples


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(len(sorted_values) * q / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def child_pids() -> list[int]:
    """Processes whose parent is this one, from ``/proc`` (Linux); an
    empty list where ``/proc`` is missing."""
    me, found = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(stat.parent.name))
    return found


def end_children() -> list[int]:
    """Stop and wait for every child process still here; returns their
    ids.  Every helper the benchmark starts is waited for where it is
    started, so a non-empty result is a defect of the benchmark."""
    left = child_pids()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return left


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if Path(mathverify.__file__).resolve().parent != SRC / "mathverify":
        fail(f"imported mathverify from {mathverify.__file__}, not from {SRC}")
    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    extract = args.workload == "extract_translate"
    replicas = args.replicas or (EXTRACT_REPLICAS if extract else VERIFY_REPLICAS)
    verdicts = gen.load_verdicts() if args.expected is None else \
        json.loads(args.expected.read_text())["verdicts"]

    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        base = gen.load_base(ROOT)
        formulas = gen.make_corpus(base, args.seed, replicas)
        inputs = wl.Inputs(formulas, scratch / "corpus.jsonl", verdicts)
        gen.write_jsonl(formulas, inputs.corpus_path)
        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "replicas": replicas, "formulas": len(formulas),
            "duplicate_share": round(gen.duplicate_share(formulas), 4),
        }
        if extract:
            inputs.chapters = gen.render_chapters(formulas, args.seed, verdicts)
            for code, text in inputs.chapters.sources.items():
                path = scratch / f"{code}.tex"
                path.write_text(text, encoding="utf-8")
                inputs.chapter_paths[code] = path
            info.update(first_scan_records=inputs.chapters.first_scan,
                        second_scan_records=len(inputs.chapters.expected),
                        culled_sum_share=round(
                            inputs.chapters.culled / inputs.chapters.first_scan, 4))
        if args.trace:
            result = traced_run(args, inputs, info, scratch)
        else:
            result = untraced_run(args, inputs, info, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        left = end_children()
    if left:
        fail(f"child processes {left} were still there after the run")
    for key, value in info.items():
        print(f"{key}: {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    if result["failed_ids"]:
        print(f"known-answer gate FAILED for {len(result['failed_ids'])} formula results, "
              f"first: {result['failed_ids'][:10]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": len(result["failed_ids"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def _fingerprints(info: dict, passes: list, key: str) -> bool:
    """Record the output hashes; they must agree across every pass."""
    reports = sorted({p.report_sha256 for p in passes})
    maples = sorted({p.maple_sha256 for p in passes if p.maple_sha256 is not None})
    info["report_sha256"] = reports[0] if len(reports) == 1 else reports
    if maples:
        info["maple_sha256"] = maples[0] if len(maples) == 1 else maples
    recorded = None
    if BASELINE_FILE.is_file():
        baseline = json.loads(BASELINE_FILE.read_text())["fingerprints"]
        recorded = baseline.get(key)
    if recorded is None:
        info["fingerprint_vs_baseline"] = "unrecorded"
    else:
        same = recorded == {"report": info["report_sha256"], "maple": info.get("maple_sha256")}
        info["fingerprint_vs_baseline"] = "identical" if same else "differs"
    return len(reports) == 1 and len(maples) <= 1


def _baseline_key(args, info: dict) -> str:
    return f"{args.workload}/seed{args.seed}/replicas{info['replicas']}"


def _gate(passes: list, info: dict) -> tuple[int, list[str]]:
    attempted = sum(p.formulas for p in passes)
    failed_ids = [i for p in passes for i in p.failed]
    info.update(attempted=attempted, failed=len(failed_ids),
                failed_share=len(failed_ids) / attempted)
    return attempted, failed_ids


def untraced_run(args, inputs, info, scratch) -> dict:
    warm, passes = wl.measure(args.workload, inputs, args.seconds, scratch)
    rss = peak_rss_mb(with_children=args.workload == "verify_both_jobs2")
    stable = _fingerprints(info, [warm, *passes], _baseline_key(args, info))
    attempted, failed_ids = _gate(passes, info)
    lat = sorted(v / 1e6 / p.slowdown for p in passes for v in p.latencies)
    if not lat:
        fail("no per-formula latency samples were recorded")
    p50, _ = percentile(lat, 50)
    p99, beyond = percentile(lat, 99)
    info.update(passes=len(passes), pass_seconds=[round(p.wall, 4) for p in passes],
                machine_slowdown=round(statistics.median(p.slowdown for p in passes), 4),
                throughput_fps_unscaled=round(wl.throughput(passes), 3),
                latency_samples=len(lat), latency_p99_samples_beyond=beyond)
    if beyond < 10:
        info["latency_p99_note"] = "fewer than 10 samples beyond p99; run longer"
    setup = setup_seconds()
    info["setup_samples_s"] = [round(s, 4) for s, _ in setup]
    info["setup_kernel_s"] = [round(k, 4) for _, k in setup]
    return {
        "correct": stable and not failed_ids,
        "attempted": attempted, "failed_ids": failed_ids,
        "metrics": {
            "throughput_fps": (statistics.median(p.scaled_throughput for p in passes), "1/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p99_ms": (p99, "ms"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (statistics.median(
                s * calibrate.NOMINAL_S / k for s, k in setup), "s"),
        },
    }


def traced_run(args, inputs, info, scratch) -> dict:
    run = wl.measure_traced(args.workload, inputs, args.seconds)
    stable = _fingerprints(info, [run.warm, *run.untraced, *run.parallel, *run.traced],
                           _baseline_key(args, info))
    attempted, failed_ids = _gate(run.traced, info)
    spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    run.tracer.write(spans_path)
    untraced_wall = statistics.median(p.wall for p in run.untraced)
    traced_wall = statistics.median(p.wall for p in run.traced)
    speedup = wl.throughput(run.parallel) / wl.throughput(run.untraced) \
        if run.parallel else 0.0
    cost_ns = wl.timer_cost_ns(scratch)
    info.update(traced_passes=len(run.traced), spans=len(run.tracer.spans),
                spans_file=str(spans_path.relative_to(ROOT)),
                untraced_pass_s=round(untraced_wall, 4), traced_pass_s=round(traced_wall, 4),
                latency_timer_ns_per_call=round(cost_ns, 1))
    metrics = {name: (value, _unit(name))
               for name, value in spans.median_metrics(run.layers).items()}
    metrics["pipeline.parallel_speedup"] = (speedup, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    timed_calls = len(inputs.chapter_paths) or run.untraced[0].formulas
    metrics["latency_timer.cost_share"] = (
        cost_ns * timed_calls / (untraced_wall * 1e9), "ratio")
    return {"correct": stable and not failed_ids, "attempted": attempted,
            "failed_ids": failed_ids, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name or name.endswith("per_evaluation"):
        return "ms"
    if name.endswith(("_ratio", "_share", "per_formula")):
        return "ratio"
    return "count"

