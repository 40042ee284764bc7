"""The four workloads: one pass each, and the loops that time them.

Each workload is a closed loop in one client process: the next pass
starts when the previous one has returned its report.  Only
``verify_both_jobs2`` uses more than one worker (two, one per core).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from mathverify import (
    ChapterSource,
    PipelineOptions,
    Tables,
    pipeline,
    render_report,
    run_pipeline,
    scan_first,
)
from mathverify.emit import DIALECT_MAPLE
from mathverify.errors import MathVerifyError, TranslationError
from mathverify.extraction import load_substitutions

import calibrate
import gate
import spans
from corpus import ChapterSet, Formula

_now = time.perf_counter_ns

VERIFY_OPTIONS = {
    "verify_both": PipelineOptions(),
    "verify_numeric": PipelineOptions(run_symbolic=False),
    "verify_both_jobs2": PipelineOptions(jobs=2),
}
WORKLOADS = (*VERIFY_OPTIONS, "extract_translate")


class Ops:
    """The calls the benchmark itself makes into ``mathverify``;
    ``spans.install`` rebinds them like the module globals."""

    def __init__(self) -> None:
        self.Tables = Tables
        self.run_pipeline = run_pipeline
        self.render_report = render_report
        self.scan_first = scan_first
        self.scan_second = pipeline.scan_second
        self.tokenize = pipeline.tokenize
        self.parse = pipeline.parse
        self.to_relation = pipeline.to_relation
        self.emit_relation = pipeline.emit_relation

    def on_record(self, formula_id: str) -> None:
        """Called before each record the benchmark translates itself."""


class LatencyTimer:
    """One timer around each ``pipeline.verify_record`` call.

    ``run_pipeline`` looks the name up as a module global, so rebinding
    it times every record.  Forked pool workers inherit the rebinding;
    they append their samples to one file per worker in ``spool``.
    """

    def __init__(self, spool: Path, inner: Optional[Callable] = None) -> None:
        self.samples: list[int] = []
        self.spool = spool
        self._pid = os.getpid()
        self._inner = inner or pipeline.verify_record

    def __call__(self, record, tables, options):
        start = _now()
        out = self._inner(record, tables, options)
        elapsed = _now() - start
        if os.getpid() == self._pid:
            self.samples.append(elapsed)
        else:
            with open(self.spool / f"latency-{os.getpid()}.txt", "a") as fh:
                fh.write(f"{elapsed}\n")
        return out

    def take(self) -> list[int]:
        """Samples since the last call, the workers' included."""
        for path in sorted(self.spool.glob("latency-*.txt")):
            self.samples += [int(v) for v in path.read_text().split()]
            path.unlink()
        samples, self.samples = self.samples, []
        return samples

    def install(self) -> Callable[[], None]:
        pipeline.verify_record = self

        def restore() -> None:
            pipeline.verify_record = self._inner
        return restore


@dataclass
class PassResult:
    formulas: int
    report: bytes                   # structured report / second-scan corpus
    check: Callable[[], list[str]]  # known-answer gate, run after timing
    maple: Optional[bytes] = None
    latencies: list[int] = field(default_factory=list)


@dataclass
class Inputs:
    corpus: list[Formula]
    corpus_path: Path
    verdicts: dict[str, str]
    chapters: Optional[ChapterSet] = None
    chapter_paths: dict[str, Path] = field(default_factory=dict)


def verify_pass(ops: Ops, inputs: Inputs, options: PipelineOptions) -> PassResult:
    report = ops.run_pipeline(inputs.corpus_path, options)
    ops.render_report(report, "text")
    structured = ops.render_report(report, "structured")
    return PassResult(report.totals.f2, structured, lambda: gate.check_verdicts(
        report.outcomes, inputs.corpus, inputs.verdicts))


def extract_pass(ops: Ops, inputs: Inputs, options: PipelineOptions) -> PassResult:
    """The ``extract`` and ``translate`` subcommands, chapter by chapter.
    A latency sample is the time from a chapter file to its Maple lines:
    a record takes a fraction of a millisecond, so a per-record tail
    would time the host's scheduling jitter, not the program."""
    tables = ops.Tables(options)
    subs = load_substitutions(pipeline.data_text("substitutions.table"))
    mt, tt = tables.macro_table, tables.translation_table
    records, lines, latencies, translated = [], [], [], {}
    for code, path in inputs.chapter_paths.items():
        start = _now()
        source = ChapterSource.from_file(code, path)
        chapter = ops.scan_second(ops.scan_first(source, subs), source.preamble_macros)
        for rec in chapter:
            ops.on_record(rec.id)
            try:
                rel = ops.to_relation(ops.parse(ops.tokenize(rec.latex), mt), tt)
                text, status = ops.emit_relation(rel, DIALECT_MAPLE, tt), "ok"
            except TranslationError as exc:
                text, status = "", exc.failure_kind
            except MathVerifyError as exc:
                text, status = "", type(exc).__name__
            translated[rec.id] = status == "ok"
            lines.append(json.dumps({"id": rec.id, "status": status, "translation": text},
                                    ensure_ascii=True))
        latencies.append(_now() - start)
        records += chapter
    corpus = "".join(r.to_json() + "\n" for r in records).encode()
    maple = ("\n".join(lines) + "\n").encode()
    expected = inputs.chapters.expected

    def check() -> list[str]:
        return sorted(set(gate.check_second_scan(records, expected))
                      | set(gate.check_translations(translated, expected)))
    return PassResult(len(records), corpus, check, maple, latencies)


def pass_function(workload: str) -> tuple[Callable, PipelineOptions]:
    if workload == "extract_translate":
        return extract_pass, PipelineOptions()
    return verify_pass, VERIFY_OPTIONS[workload]


# --- timing loops ---

@dataclass
class Pass:
    """What is kept of one timed pass once its outputs are checked."""
    formulas: int
    wall: float                     # seconds
    report_sha256: str
    maple_sha256: Optional[str]
    failed: list[str]
    latencies: list[int]
    slowdown: float = 1.0           # machine slowdown just before (calibrate)

    @property
    def scaled_throughput(self) -> float:
        return self.formulas / self.wall * self.slowdown


def run_timed(run: Callable[[], PassResult],
              timer: Optional[LatencyTimer] = None,
              calibrator: Optional[calibrate.Calibrator] = None) -> Pass:
    """Time one pass, then hash and check its outputs outside the timing.
    Each pass starts from a collected heap, as a fresh process would."""
    slowdown = calibrator.slowdown() if calibrator else 1.0
    gc.collect()
    start = time.perf_counter()
    result = run()
    wall = time.perf_counter() - start
    return Pass(result.formulas, wall, hashlib.sha256(result.report).hexdigest(),
                None if result.maple is None else hashlib.sha256(result.maple).hexdigest(),
                result.check(), timer.take() if timer else result.latencies, slowdown)


def throughput(passes: list[Pass]) -> float:
    return statistics.median(p.formulas / p.wall for p in passes)


def measure(workload: str, inputs: Inputs, seconds: float, spool: Path,
            min_passes: int = 4) -> tuple[Pass, list[Pass]]:
    """Untraced run: a warm-up pass, then passes back to back until
    ``seconds`` have gone by, each paired with the machine's slowdown
    measured just before it."""
    run_one, options = pass_function(workload)
    ops = Ops()
    calibrator = calibrate.Calibrator(workers=options.jobs)
    restore = lambda: None  # noqa: E731
    try:
        timer = None if workload == "extract_translate" else LatencyTimer(spool)
        if timer:
            restore = timer.install()
        warm = run_timed(lambda: run_one(ops, inputs, options), timer)
        passes: list[Pass] = []
        deadline = time.perf_counter() + seconds
        while len(passes) < min_passes or time.perf_counter() < deadline:
            passes.append(run_timed(lambda: run_one(ops, inputs, options), timer,
                                    calibrator))
    finally:
        restore()
        calibrator.close()
    return warm, passes


@dataclass
class TracedRun:
    warm: Pass
    untraced: list[Pass] = field(default_factory=list)
    parallel: list[Pass] = field(default_factory=list)
    traced: list[Pass] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    tracer: spans.Tracer = field(default_factory=spans.Tracer)


def measure_traced(workload: str, inputs: Inputs, seconds: float) -> TracedRun:
    """Traced run, serial: pairs of an untraced and a traced pass, in
    alternating order so that neither side always runs first, until
    ``seconds`` have gone by.  For ``verify_both_jobs2`` an untraced pass
    with two workers precedes each pair, for the speed-up."""
    run_one, options = pass_function(workload)
    serial = dataclasses.replace(options, jobs=1)
    ops = Ops()
    out = TracedRun(run_timed(lambda: run_one(ops, inputs, options)))
    tracer = out.tracer

    def traced_pass() -> None:
        first = len(tracer.spans)
        tracer.counts.clear()
        restore = spans.install(tracer, ops)
        try:
            traced = run_timed(lambda: run_one(ops, inputs, serial))
        finally:
            restore()
        out.traced.append(traced)
        out.layers.append(spans.layer_metrics(tracer.self_ms(first), tracer.counts,
                                              traced.wall * 1e3))

    deadline = time.perf_counter() + seconds
    while not out.traced or time.perf_counter() < deadline:
        if options.jobs > 1:
            out.parallel.append(run_timed(lambda: run_one(ops, inputs, options)))
        if len(out.traced) % 2:
            traced_pass()
        out.untraced.append(run_timed(lambda: run_one(ops, inputs, serial)))
        if len(out.untraced) % 2:
            traced_pass()
    return out


def timer_cost_ns(spool: Path, calls: int = 200_000) -> float:
    """Cost of one ``LatencyTimer`` call beyond the call it wraps."""
    noop = lambda record, tables, options: None  # noqa: E731
    timer = LatencyTimer(spool, noop)
    best = float("inf")
    for _ in range(3):
        start = _now()
        for _ in range(calls):
            noop(None, None, None)
        direct = _now() - start
        start = _now()
        for _ in range(calls):
            timer(None, None, None)
        best = min(best, (_now() - start - direct) / calls)
        timer.samples.clear()
    return best
