"""Span recorder for the traced run.

``install`` rebinds the public callables of ``mathverify`` in the modules
that call them (and in the benchmark's own call table) to wrappers that
record one span per call: name, start, end, parent span and formula id.
Spans stay in memory; ``write`` saves them once, at the end of the run.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

from mathverify import numeric, pipeline, symbolic
from mathverify.errors import MathVerifyError

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, formula]
        self.counts: Counter = Counter()
        self.formula: Optional[str] = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        record = name == "pipeline.record"

        def traced(*args, **kwargs):
            if record:
                self.at(args[0].id)
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.formula]
            spans.append(span)
            stack.append(idx)
            span[1] = _now()
            try:
                result = fn(*args, **kwargs)
            except MathVerifyError:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                span[2] = _now()
                stack.pop()
                if record:
                    self.at(None)
            if count is not None:
                count(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def at(self, formula_id: Optional[str]) -> None:
        """Tag the spans that follow with a formula id."""
        self.formula = formula_id

    def self_ms(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over ``spans[first:]``: each span's
        duration minus the time its direct children cover."""
        total: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans[first:]:
            total[name] += end - start
            if parent >= first:
                total[self.spans[parent][0]] -= end - start
        return {k: v / 1e6 for k, v in total.items()}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _add(key: str, measure: Callable) -> Callable:
    def count(counts: Counter, result) -> None:
        counts[key] += measure(result)
    return count


def _symbolic_outcome(counts: Counter, out) -> None:
    counts["symbolic.calls"] += 1
    counts["symbolic.decided"] += out.verified
    counts["symbolic.steps"] += out.steps_used


def _numeric_outcome(counts: Counter, out) -> None:
    counts["numeric.evaluations"] += len(out.evaluations)
    counts["numeric.skipped"] += len(out.skipped)


# (module, attribute, span name, counter)
REBINDS = [
    (pipeline, "verify_record", "pipeline.record", None),
    (pipeline, "Tables", "pipeline.tables", None),
    (pipeline, "read_corpus", "pipeline.read_corpus", None),
    (pipeline, "scan_second", "extraction.scan_second",
     _add("extraction.records_out", len)),
    (pipeline, "interpret_constraints", "constraints.interpret",
     _add("constraints.unmatched", lambda r: len(r.unmatched))),
    (pipeline, "tokenize", "parser.tokenize", _add("parser.tokens", len)),
    (pipeline, "parse", "parser.parse", None),
    (pipeline, "to_relation", "translate.to_relation", None),
    (pipeline, "emit_relation", "emit.maple", None),
    (pipeline, "verify_symbolic", "symbolic.verify", _symbolic_outcome),
    (pipeline, "verify_numeric", "numeric.verify", _numeric_outcome),
    (pipeline, "aggregate", "pipeline.aggregate", None),
    (symbolic, "simplify", "symbolic.simplify", _add("symbolic.simplify_calls", lambda r: 1)),
    (symbolic, "expand", "symbolic.preprocess.expand", None),
    (symbolic, "to_exponential_form", "symbolic.preprocess.exponential", None),
    (symbolic, "to_hypergeometric_form", "symbolic.preprocess.hypergeometric", None),
    (symbolic, "apply_rules", "symbolic.apply_rules", None),
    (symbolic, "reduce_bessel_orders", "symbolic.bessel", None),
    (symbolic, "norm", "normform.norm", None),
    (numeric, "generate_assignments", "numeric.assignments", None),
]

# Call-table entries the benchmark's own passes use (see workloads.Ops).
OPS_SPANS = {
    "scan_first": "extraction.scan_first",
    "scan_second": "extraction.scan_second",
    "tokenize": "parser.tokenize",
    "parse": "parser.parse",
    "to_relation": "translate.to_relation",
    "emit_relation": "emit.maple",
    "render_report": "pipeline.render",
    "Tables": "pipeline.tables",
}


def install(tracer: Tracer, ops) -> Callable[[], None]:
    """Rebind every traced callable; returns the function that undoes it."""
    saved = []
    counters = {name: count for _, _, name, count in REBINDS}
    for module, attr, name, count in REBINDS:
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
    for attr, name in OPS_SPANS.items():
        saved.append((ops, attr, getattr(ops, attr)))
        setattr(ops, attr, tracer.wrap(name, getattr(ops, attr), counters.get(name)))
    saved.append((ops, "on_record", ops.on_record))
    ops.on_record = tracer.at

    def restore() -> None:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
    return restore


def layer_metrics(self_ms: dict[str, float], counts: Counter,
                  wall_ms: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    ms = lambda name: self_ms.get(name, 0.0)  # noqa: E731
    calls = counts["symbolic.calls"]
    evaluations = counts["numeric.evaluations"]
    symbolic_ms = sum(v for k, v in self_ms.items()
                      if k.startswith(("symbolic.", "normform.")))
    return {
        "pipeline.tables_ms": ms("pipeline.tables"),
        "pipeline.read_corpus_ms": ms("pipeline.read_corpus"),
        "extraction.scan_first_ms": ms("extraction.scan_first"),
        "extraction.scan_second_ms": ms("extraction.scan_second"),
        "extraction.records_out": counts["extraction.records_out"],
        "parser.tokenize_ms": ms("parser.tokenize"),
        "parser.parse_ms": ms("parser.parse"),
        "parser.tokens": counts["parser.tokens"],
        "translate.to_relation_ms": ms("translate.to_relation"),
        "translate.failed": counts["translate.to_relation.raised"],
        "emit.maple_ms": ms("emit.maple"),
        "constraints.interpret_ms": ms("constraints.interpret"),
        "constraints.unmatched": counts["constraints.unmatched"],
        "symbolic.verify_ms": ms("symbolic.verify"),
        "symbolic.simplify_ms": ms("symbolic.simplify"),
        "symbolic.simplify_calls": counts["symbolic.simplify_calls"],
        "symbolic.preprocess_ms.exponential": ms("symbolic.preprocess.exponential"),
        "symbolic.preprocess_ms.hypergeometric": ms("symbolic.preprocess.hypergeometric"),
        "symbolic.preprocess_ms.expand": ms("symbolic.preprocess.expand"),
        "symbolic.apply_rules_ms": ms("symbolic.apply_rules"),
        "symbolic.bessel_ms": ms("symbolic.bessel"),
        "normform.norm_ms": ms("normform.norm"),
        "symbolic.steps": counts["symbolic.steps"],
        "symbolic.decided_ratio": counts["symbolic.decided"] / calls if calls else 0.0,
        "symbolic.simplify_per_formula":
            counts["symbolic.simplify_calls"] / calls if calls else 0.0,
        "symbolic.self_share": symbolic_ms / wall_ms,
        "numeric.verify_ms": ms("numeric.verify"),
        "numeric.assignments_ms": ms("numeric.assignments"),
        "numeric.evaluations": evaluations,
        "numeric.skipped": counts["numeric.skipped"],
        "numeric.ms_per_evaluation":
            (ms("numeric.verify") + ms("numeric.assignments")) / evaluations
            if evaluations else 0.0,
        "pipeline.record_self_ms": ms("pipeline.record"),
        "pipeline.aggregate_ms": ms("pipeline.aggregate"),
        "pipeline.render_ms": ms("pipeline.render"),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
