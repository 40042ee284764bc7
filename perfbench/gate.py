"""Known-answer gate: every output is checked against what the generator
and the hand-written ``expected.json`` say it must be."""

from __future__ import annotations

from typing import Iterable, Optional

from corpus import ExpectedRecord, Formula

TRUE, SEEDED_ERROR, UNKNOWN_MACRO = "true", "seeded_error", "unknown_macro"


def verdict_of(outcome: dict) -> Optional[str]:
    """The known-answer class an outcome satisfies, or None."""
    if outcome["failure"] is not None:
        return UNKNOWN_MACRO if outcome["failure"] == "unknown_macro" else None
    sym = outcome.get("symbolic") or {}
    num = outcome.get("numeric") or {}
    if sym.get("classification") in ("zero", "one") \
            or num.get("classification") == "verified":
        return TRUE
    if sym.get("classification") == "other_numeric" \
            or num.get("classification") == "above_threshold":
        return SEEDED_ERROR
    return None


def check_verdicts(outcomes: Iterable[dict], corpus: list[Formula],
                   verdicts: dict[str, str]) -> list[str]:
    """Ids whose outcome misses its known verdict, or that are missing."""
    base_of = {f.id: f.base for f in corpus}
    seen = set()
    failed = []
    for out in outcomes:
        seen.add(out["id"])
        if out["id"] not in base_of or verdict_of(out) != verdicts[base_of[out["id"]]]:
            failed.append(out["id"])
    failed += sorted(set(base_of) - seen)
    return failed


def check_second_scan(records, expected: list[ExpectedRecord]) -> list[str]:
    """Ids where scan two's output differs from the generator's."""
    got = {r.id: r for r in records}
    failed = [] if len(got) == len(records) else ["(repeated ids)"]
    for e in expected:
        r = got.pop(e.id, None)
        if r is None or (r.chapter_code, "".join(r.latex.split()), r.constraints,
                         r.label, r.split_origin) != (
                e.chapter, e.latex, e.constraints, e.label, e.split_origin):
            failed.append(e.id)
    return failed + sorted(got)


def check_translations(translated: dict[str, bool],
                       expected: list[ExpectedRecord]) -> list[str]:
    """Ids whose translate/fail outcome differs from the expectation."""
    return [e.id for e in expected if translated.get(e.id) is not e.translatable]
