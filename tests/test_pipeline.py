import difflib
import json
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from mathverify import pipeline
from mathverify.errors import ConfigParseError, MalformedRule, MissingInputFile
from mathverify.extraction import FormulaRecord, split_relations, write_corpus
from mathverify.pipeline import (
    ChapterReport,
    PipelineOptions,
    PipelineReport,
    TRANSLATION_FAILURE_KINDS,
    Tables,
    aggregate,
    list_flagged,
    load_config,
    render_report,
    run_pipeline,
    verify_record,
)

MINI = str(resources.files("mathverify").joinpath("data", "mini_corpus.jsonl"))
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def report():
    return run_pipeline(MINI)


def test_pipeline_totals(report):
    totals = report.totals
    assert totals.f2 == 40
    assert totals.translated == 38
    assert totals.sym_verified >= 25
    assert totals.failures.get("unknown_macro") == 2
    assert totals.failures.get("above_threshold") == 2
    # Everything translated and not symbolically verified either verifies
    # numerically or is one of the seeded errors.
    assert totals.num_verified == totals.translated - totals.sym_verified - 2


def test_count_conservation_per_chapter(report):
    from mathverify.pipeline import TRANSLATION_FAILURE_KINDS
    for chapter in report.chapters:
        failed = sum(chapter.failures.get(k, 0)
                     for k in TRANSLATION_FAILURE_KINDS)
        assert chapter.f2 == chapter.translated + failed


def test_totals_row_is_columnwise_sum(report):
    assert report.totals.f2 == sum(c.f2 for c in report.chapters)
    assert report.totals.translated == sum(c.translated for c in report.chapters)
    assert report.totals.sym_verified == sum(c.sym_verified for c in report.chapters)
    assert report.totals.num_verified == sum(c.num_verified for c in report.chapters)


def test_aggregation_order_independent(report):
    outcomes = list(report.outcomes)
    rng = random.Random(7)
    for _ in range(3):
        shuffled = list(outcomes)
        rng.shuffle(shuffled)
        again = aggregate(shuffled)
        assert [c.__dict__ for c in again.chapters] == \
            [c.__dict__ for c in report.chapters]
        assert again.totals.__dict__ == report.totals.__dict__


@pytest.mark.parametrize("fmt, golden", [
    ("structured", "mini_corpus_report.structured.jsonl"),
    ("text", "mini_corpus_report.txt"),
])
def test_mini_corpus_report_matches_golden_file(report, fmt, golden):
    # The golden files pin the whole mini-corpus report byte for byte.
    # Regenerate them only in a change that means to alter the output.
    expected = (DATA / golden).read_bytes()
    actual = render_report(report, fmt)
    if actual != expected:
        diff = difflib.unified_diff(
            expected.decode("utf-8").splitlines(),
            actual.decode("utf-8").splitlines(),
            golden, "render_report", lineterm="", n=0,
        )
        pytest.fail("report differs from golden file:\n" + "\n".join(diff))


def test_percentages_recomputed_from_counts():
    ch = ChapterReport("EF", f2=466, translated=406, sym_verified=182,
                       num_verified=61)
    assert round(ch.t_percent(), 1) == 87.1
    assert round(ch.tvs_percent(), 1) == 39.1
    assert round(ch.tvn_percent(), 1) == 21.5


def test_csv_row_shape():
    ch = ChapterReport("EF", f2=466, translated=406, sym_verified=182,
                       num_verified=61)
    report = PipelineReport([ch], [], ch)
    csv = render_report(report, "csv").decode("utf-8")
    assert "EF, 4, 466, 406 (87.1%), 182 (39.1%), 61 (21.5%)" in csv


def test_csv_has_sum_row(report):
    csv = render_report(report, "csv").decode("utf-8")
    lines = [l for l in csv.strip().splitlines() if l]
    assert lines[-1].startswith("Σ")
    assert len(lines) == 1 + len(report.chapters) + 1  # header + chapters + sum


def test_text_report_single_chapter():
    ch = ChapterReport("GA", f2=5, translated=4, sym_verified=2, num_verified=1)
    out = render_report(PipelineReport([ch], [], ch), "text").decode("utf-8")
    rows = [l for l in out.splitlines() if l and not set(l) <= {"-", " "}]
    assert len(rows) == 3  # header + data row + totals row


def test_structured_lines_round_trip(report):
    # The structured lines alone determine the totals: recount the four
    # columns and the failure breakdown from the parsed lines.
    blob = render_report(report, "structured")
    columns, failures = Counter(), Counter()
    for line in blob.decode("utf-8").splitlines():
        out = json.loads(line)
        columns["f2"] += 1
        if out["failure"] is not None:
            failures[out["failure"]] += 1
            continue
        columns["translated"] += 1
        sym, num = out["symbolic"], out["numeric"]
        if sym is not None and sym["classification"] in ("zero", "one"):
            columns["sym_verified"] += 1
        elif num is not None and num["classification"] == "verified":
            columns["num_verified"] += 1
        elif num is not None:
            failures[num["classification"]] += 1
    totals = report.totals
    assert columns == Counter(f2=totals.f2, translated=totals.translated,
                              sym_verified=totals.sym_verified,
                              num_verified=totals.num_verified)
    assert failures == totals.failures


def test_flagged_cases(report):
    flags = list_flagged(report)
    numeric = [f for f in flags if f.stage == "numeric"]
    assert {f.formula_id for f in numeric} == {"EF.14", "GA.8"}
    # Sorted by worst discrepancy, descending.
    worsts = [f.worst for f in numeric]
    assert worsts == sorted(worsts, reverse=True)
    assert not [f for f in flags if f.stage == "constraint"]


def test_constraint_gap_flagged(tmp_path, tables):
    from mathverify.extraction import FormulaRecord, write_corpus
    record = FormulaRecord(
        id="BS.901", chapter_code="BS",
        latex=r"\BesselJ{\nu}@{z} = \BesselJ{\nu}@{z}",
        constraints=(r"2\nu=-1, -2 -3, \ldots",),
    )
    path = tmp_path / "c.jsonl"
    write_corpus([record], path)
    report = run_pipeline(path)
    flags = list_flagged(report)
    constraint_flags = [f for f in flags if f.stage == "constraint"]
    assert len(constraint_flags) == 1
    assert constraint_flags[0].detail == r"2\nu=-1, -2 -3, \ldots"


def test_clean_corpus_has_no_flags(tmp_path):
    from mathverify.extraction import FormulaRecord, write_corpus
    record = FormulaRecord(id="EF.900", chapter_code="EF",
                           latex=r"\sin@{x}^2+\cos@{x}^2 = 1")
    path = tmp_path / "clean.jsonl"
    write_corpus([record], path)
    assert list_flagged(run_pipeline(path)) == []


@pytest.mark.parametrize("run_symbolic", [True, False])
def test_zero_to_a_complex_power_is_evaluated(tables, run_symbolic):
    # 0^z = 0 whenever the real part of z is positive, so the formula's one
    # assignment is evaluated, not skipped as a pole.  The symbolic stage
    # proves it zero, so the numeric stage runs on it only without that stage.
    options = PipelineOptions(run_symbolic=run_symbolic)
    out = verify_record(FormulaRecord("EF.902", "EF", r"0^{2+\iunit} = 0"),
                        tables, PipelineOptions(run_symbolic=False))
    assert out.numeric.classification == "verified"
    assert [(ev.lhs, ev.rhs) for ev in out.numeric.evaluations] == [(0j, 0j)]
    out = verify_record(FormulaRecord("EF.903", "EF", r"0^{\iunit} = 0"),
                        tables, options)
    assert out.numeric.classification == "no_valid_values"
    assert out.numeric.skipped == [{}]


@pytest.mark.parametrize("latex, classification", [
    (r"0^{2+\iunit} = 0", "zero"),
    (r"0^{\frac{2+\iunit}{2}} = 0", "zero"),
    (r"0^{\iunit} = 0", "error"),
    (r"0^{-1+\iunit} = 0", "error"),
])
def test_zero_to_a_complex_power_is_zero_when_its_real_part_is_positive(
        tables, latex, classification):
    # The principal value of 0^(a + b i) is 0 for rational a > 0, the value
    # the numeric stage verifies; otherwise it is a pole.
    out = verify_record(FormulaRecord("EF.904", "EF", latex), tables, PipelineOptions())
    assert out.symbolic.classification == classification


@pytest.mark.parametrize("latex", [
    r"\sqrt{x}\sqrt{y} = \sqrt{x y}",
    r"(x y)^{1/3} = x^{1/3} y^{1/3}",
    r"\sqrt{(5^{\iunit})^2} = 5^{\iunit}",
])
def test_false_identity_is_not_verified_symbolically(tables, latex):
    # The first two are false at x = y = -1/2, the third everywhere: a
    # power of a product splits only over factors known to be nonnegative,
    # and a positive base to a non-real power is not known to be one.
    out = verify_record(FormulaRecord("EF.907", "EF", latex), tables, PipelineOptions())
    assert out.symbolic.classification != "zero"
    assert out.numeric.classification == "above_threshold"


def test_power_of_a_product_splits_over_a_positive_factor(tables):
    out = verify_record(FormulaRecord("EF.908", "EF", r"\sqrt{x}\sqrt{y} = \sqrt{x y}",
                                      constraints=("x > 0",)),
                        tables, PipelineOptions())
    assert out.symbolic.classification == "zero"


def test_root_of_a_non_real_power_is_no_source_error(tmp_path):
    # sqrt((5^i)^2) = -5^i holds; the symbolic stage must not reduce it to
    # -1, which list_flagged would report as a source error.
    record = FormulaRecord("EF.909", "EF", r"\sqrt{(5^{\iunit})^{2}} = -5^{\iunit}")
    path = tmp_path / "root.jsonl"
    write_corpus([record], path)
    report = run_pipeline(path)
    (out,) = report.outcomes
    assert out.symbolic.classification != "other_numeric"
    assert out.numeric.classification == "verified"
    assert list_flagged(report) == []


def test_bounded_variable_counts_as_real(tables):
    # x > 0 makes x real although x \ne 1 gives it a complex-based domain.
    record = FormulaRecord("EF.910", "EF", r"\ln@{\expe^{x}} = x",
                           constraints=("x > 0", r"x \ne 1"))
    out = verify_record(record, tables, PipelineOptions())
    assert out.symbolic.classification == "zero"


@pytest.mark.parametrize("latex", [
    r"\Int{0}{\infty}@{t}{\expe^{-t}} = 1",
    r"\Int{-\infty}{0}@{t}{\expe^{t}} = 1",
])
def test_integral_with_an_infinite_bound_is_evaluated(tables, latex):
    options = PipelineOptions(run_symbolic=False)
    out = verify_record(FormulaRecord("EF.904", "EF", latex), tables, options)
    assert out.numeric.classification == "verified"


@pytest.mark.parametrize("latex", [
    r"\Int{1}{\infty}@{t}{\frac{1}{t}} = 1",
    r"\Int{0}{\infty}@{t}{\sin@{t}} = 1",
])
def test_divergent_integral_with_an_infinite_bound_gets_no_value(tables, latex):
    # mp.quad gives these a finite estimate (about 55.98 for the first);
    # its error estimate shows that the integral does not converge.
    options = PipelineOptions(run_symbolic=False)
    out = verify_record(FormulaRecord("EF.906", "EF", latex), tables, options)
    assert (out.numeric.classification, out.numeric.detail) == \
        ("evaluation_error", "convergence_failure")


def test_sum_with_an_infinite_bound_is_not_evaluated(tables):
    options = PipelineOptions(run_symbolic=False)
    out = verify_record(FormulaRecord("EF.905", "EF", r"\Sum{k}{0}{\infty}@{2^{-k}} = 2"),
                        tables, options)
    assert out.numeric.classification == "evaluation_error"


def test_chapter_filter():
    report = run_pipeline(MINI, chapter="GA")
    assert [c.chapter_code for c in report.chapters] == ["GA"]
    assert report.totals.f2 == 8


def test_missing_corpus_raises():
    with pytest.raises(MissingInputFile):
        run_pipeline("/nonexistent/corpus.jsonl")


def test_empty_corpus_all_zero_report(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    report = run_pipeline(path)
    assert report.chapters == []
    assert (report.totals.f2, report.totals.translated,
            report.totals.sym_verified, report.totals.num_verified) == (0, 0, 0, 0)


def test_parallel_jobs_match_serial(report):
    options = PipelineOptions(jobs=2)
    parallel = run_pipeline(MINI, options)
    assert parallel.outcomes == report.outcomes


def test_tables_pickle_round_trip(tables, mini_corpus):
    copy = pickle.loads(pickle.dumps(tables))
    for name in ("macro_table", "translation_table"):
        assert vars(getattr(copy, name)) == vars(getattr(tables, name))
    assert copy.blueprints == tables.blueprints
    assert copy.rewrite_rules == tables.rewrite_rules
    options = PipelineOptions()
    # A spawned --jobs worker verifies with unpickled tables like these.
    copied = [verify_record(r, copy, options) for r in mini_corpus[:5]]
    direct = [verify_record(r, tables, options) for r in mini_corpus[:5]]
    assert copied == direct
    assert [o.to_json() for o in copied] == [o.to_json() for o in direct]


def test_parallel_jobs_use_the_callers_tables(report):
    custom = Tables(PipelineOptions())
    custom.rewrite_rules = ()
    serial = run_pipeline(MINI, tables=custom)
    parallel = run_pipeline(MINI, PipelineOptions(jobs=2), tables=custom)
    # Without rewrite rules some verdicts change, so the workers' tables show.
    assert render_report(serial, "structured") != render_report(report, "structured")
    assert render_report(parallel, "structured") == render_report(serial, "structured")


@pytest.mark.parametrize("jobs", [1, 2])
def test_record_that_raises_ends_as_internal_error(tmp_path, report, mini_corpus, jobs):
    deep = FormulaRecord("EF.999", "EF", "x = " + "(" * 400 + "x" + ")" * 400)
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(mini_corpus + [deep], corpus)
    result = run_pipeline(corpus, PipelineOptions(jobs=jobs))
    by_id = {o.id: o for o in result.outcomes}
    assert by_id.pop("EF.999").failure == "internal_error"
    assert list(by_id.values()) == report.outcomes
    assert result.totals.failures["internal_error"] == 1
    failed = sum(result.totals.failures[k] for k in TRANSLATION_FAILURE_KINDS)
    assert result.totals.f2 == result.totals.translated + failed
    assert "internal_error=1" in render_report(result).decode()


@pytest.mark.parametrize("jobs", [1, 2])
def test_chains_with_empty_members_do_not_stop_a_report(tmp_path, report, mini_corpus,
                                                        jobs):
    chains = [FormulaRecord(f"EF.99{k}", "EF", latex)
              for k, latex in enumerate(("a = b =", "==", "= a = b"))]
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(mini_corpus + chains, corpus)
    result = run_pipeline(corpus, PipelineOptions(jobs=jobs))
    by_id = {o.id: o for o in result.outcomes}
    for chain in chains:
        assert [by_id.pop(f"{chain.id}-{k}").latex for k in (1, 2)] == \
            [c.latex for c in split_relations(chain)]
    assert list(by_id.values()) == report.outcomes
    assert render_report(result)


# --- --jobs workers claim records from one shared counter ---

DEEP = FormulaRecord("EF.999", "EF", "x = " + "(" * 400 + "x" + ")" * 400)


def _run_counted(records, tables, jobs, monkeypatch):
    """``_run_parallel``'s outcomes and the number of processes it started."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return pipeline._run_parallel(records, tables, PipelineOptions(jobs=jobs)), len(started)


def _lines(outcomes):
    return [o.to_json() for o in outcomes]


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 40])
def test_parallel_chunks_return_the_serial_outcomes_in_order(tables, mini_corpus,
                                                             monkeypatch, jobs, n):
    # Whichever worker claims a record, its outcome lands in its place.
    records = list(mini_corpus[:n])
    if n == 17:
        records[8] = DEEP
    serial = [verify_record(r, tables, PipelineOptions()) for r in records]
    outcomes, workers = _run_counted(records, tables, jobs, monkeypatch)
    assert _lines(outcomes) == _lines(serial)
    assert workers == min(jobs, n)  # never more workers than records
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [2, 3])
def test_record_that_raises_mid_chunk_leaves_the_rest_of_its_chunk(tables, mini_corpus,
                                                                   monkeypatch, jobs):
    # The worker that verifies a record ending internal_error goes on
    # claiming records; the records around it keep their serial outcomes.
    records = [mini_corpus[i % len(mini_corpus)] for i in range(3 * 8 * jobs)]
    records[4] = DEEP
    serial = [verify_record(r, tables, PipelineOptions()) for r in records]
    outcomes, workers = _run_counted(records, tables, jobs, monkeypatch)
    assert _lines(outcomes) == _lines(serial)
    assert [o.failure == "internal_error" for o in outcomes[3:6]] == [False, True, False]
    assert workers == jobs


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers inherit a rebound module global")
def test_more_workers_than_cores_claim_each_record_once(tables, mini_corpus, monkeypatch):
    # With a verify_record that returns at once, the workers contend for
    # the counter on every claim: a lost update would verify a record
    # twice or leave one out.
    calls = multiprocessing.Value("i", 0)

    def count(record, tables, options):
        with calls.get_lock():
            calls.value += 1
        return record.id

    monkeypatch.setattr(pipeline, "verify_record", count)
    records = [mini_corpus[i % len(mini_corpus)] for i in range(100_000)]
    outcomes = pipeline._run_parallel(records, tables, PipelineOptions(jobs=4))
    assert outcomes == [r.id for r in records]
    assert calls.value == len(records)


def test_empty_corpus_starts_no_pool(tables, monkeypatch):
    assert _run_counted([], tables, 2, monkeypatch) == ([], 0)


def test_claim_loop_sends_its_claims_as_one_message(tables, mini_corpus):
    # The worker body, run in this process on one end of a pipe.
    records, options = mini_corpus[:4], PipelineOptions()
    counter = multiprocessing.Value("i", 1)  # index 0 is claimed already
    reader, writer = multiprocessing.Pipe(duplex=False)
    pipeline._claim_loop(records, tables, options, counter, writer)
    assert reader.recv() == [(i, verify_record(records[i], tables, options))
                             for i in (1, 2, 3)]
    assert not reader.poll()
    assert counter.value == len(records) + 1  # one claim past the end


def test_claim_loop_sends_back_the_error_that_escaped(tables, mini_corpus, monkeypatch):
    def refuse(record, tables, options):
        raise MalformedRule(f"record {record.id}")
    monkeypatch.setattr(pipeline, "verify_record", refuse)
    counter = multiprocessing.Value("i", 0)
    reader, writer = multiprocessing.Pipe(duplex=False)
    pipeline._claim_loop(mini_corpus[:3], tables, PipelineOptions(), counter, writer)
    error = reader.recv()
    assert (type(error), str(error)) == (MalformedRule, "record EF.1")
    assert counter.value == 1  # the first claim failed, so no other was made


@pytest.mark.parametrize("jobs", [1, 2])
def test_error_that_escapes_verify_record_stops_the_run_with_its_type(monkeypatch, jobs):
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("only forked workers inherit a rebound module global")
    # A MathVerifyError is not one record's internal_error: it leaves
    # verify_record and ends the run, in a worker as in the caller.
    inner = pipeline._verify

    def refuse_ga3(record, tables, options):
        if record.id == "GA.3":
            raise MalformedRule("no blueprint for GA.3")
        return inner(record, tables, options)

    monkeypatch.setattr(pipeline, "_verify", refuse_ga3)
    with pytest.raises(MalformedRule, match="no blueprint for GA.3"):
        run_pipeline(MINI, PipelineOptions(jobs=jobs))
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers inherit a rebound module global")
def test_worker_that_exits_without_its_message_stops_the_run(monkeypatch):
    # The worker that claims EF.1 stays in it, so the other one reaches
    # GA.3 and dies there; the parent terminates the first.
    inner = pipeline.verify_record

    def exit_on_ga3(record, tables, options):
        if record.id == "EF.1":
            time.sleep(60)
        if record.id == "GA.3":
            os._exit(7)
        return inner(record, tables, options)

    monkeypatch.setattr(pipeline, "verify_record", exit_on_ga3)
    began = time.monotonic()
    with pytest.raises(RuntimeError, match="exited with code 7"):
        run_pipeline(MINI, PipelineOptions(jobs=2))
    assert time.monotonic() - began < 30
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers inherit a rebound module global")
def test_worker_whose_pipe_ends_before_its_message_stops_the_run(monkeypatch):
    # The parent reads end-of-file on the pipe before the worker has exited.
    def close_and_exit(records, tables, options, counter, conn):
        conn.close()
        time.sleep(0.2)
        os._exit(5)

    monkeypatch.setattr(pipeline, "_claim_loop", close_and_exit)
    with pytest.raises(RuntimeError, match="exited with code 5"):
        run_pipeline(MINI, PipelineOptions(jobs=2))
    assert multiprocessing.active_children() == []


_FORKED_RUN = """
import multiprocessing.resource_tracker
from mathverify import pipeline
pipeline.run_pipeline({mini!r}, pipeline.PipelineOptions(jobs=2))
print(multiprocessing.resource_tracker._resource_tracker._pid)
"""


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the resource tracker is started by design under spawn")
def test_forked_workers_start_no_resource_tracker():
    # A tracker outlives the run as a child process of the caller.
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", _FORKED_RUN.format(mini=MINI)],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    assert done.stdout.strip() == "None"


_SPAWNED_RUN = """
import multiprocessing, sys
from mathverify import pipeline
multiprocessing.set_start_method("spawn")
report = pipeline.run_pipeline({mini!r}, pipeline.PipelineOptions(jobs=2))
assert multiprocessing.active_children() == []
sys.stdout.buffer.write(pipeline.render_report(report, "structured"))
"""


def test_spawned_workers_produce_the_serial_report(report):
    # Under spawn the records, tables, counter and pipe ends reach the
    # workers pickled, and the workers import the package afresh.
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", _SPAWNED_RUN.format(mini=MINI)],
                          capture_output=True, env=env, check=True, timeout=120)
    assert done.stdout == render_report(report, "structured")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers inherit a rebound module global")
def test_workers_call_the_module_global_verify_record(tmp_path, monkeypatch):
    # Wrappers installed on pipeline.verify_record (perfbench's latency
    # timer and spans) must see every record, once, in the workers.
    inner = pipeline.verify_record

    def spooled(record, tables, options):
        with open(tmp_path / f"seen-{os.getpid()}.txt", "a") as fh:
            fh.write(record.id + "\n")
        return inner(record, tables, options)

    monkeypatch.setattr(pipeline, "verify_record", spooled)
    result = run_pipeline(MINI, PipelineOptions(jobs=2))
    spools = sorted(tmp_path.glob("seen-*.txt"))
    assert 1 <= len(spools) <= 2
    assert tmp_path / f"seen-{os.getpid()}.txt" not in spools
    seen = Counter(line for path in spools for line in path.read_text().split())
    assert sorted(seen.elements()) == [o.id for o in result.outcomes]


def test_verify_record_structure(tables, mini_corpus):
    options = PipelineOptions()
    out = verify_record(mini_corpus[0], tables, options)
    assert out["id"] == "EF.1"
    assert out["translated"] is True
    assert out["symbolic"]["classification"] == "zero"
    assert out["maple"].startswith("sin(x)^2")


def test_outcome_key_lookups_read_its_json_line(tables, mini_corpus):
    out = verify_record(mini_corpus[0], tables, PipelineOptions())
    line = json.loads(out.to_json())
    assert {key: out[key] for key in line} == line
    assert out.get("symbolic") == line["symbolic"]
    assert out.get("no_such_key") is None


def test_unparsable_record_is_unsupported_grammar(tables):
    from mathverify.extraction import FormulaRecord
    record = FormulaRecord(id="EF.905", chapter_code="EF", latex="x = {1")
    out = verify_record(record, tables, PipelineOptions())
    assert out.failure == "unsupported_grammar"
    assert out.relation is None and out.symbolic is None and out.numeric is None
    assert out["translated"] is False


def test_record_without_maple_name_still_translates(tables):
    # translation.table maps \qgenhyper to no Maple name ('-'), so the
    # record has no Maple text; it still translates, and numeric cannot
    # evaluate it.
    from mathverify.extraction import FormulaRecord
    record = FormulaRecord(id="QH.900", chapter_code="QH",
                           latex=r"\qgenhyper{1}{1}@@{a}{b}{q}{z} = 1")
    out = verify_record(record, tables, PipelineOptions())
    assert out.maple is None
    assert out["translated"] is True
    assert out.numeric.classification == "numerically_unsupported"


def test_false_constant_relation_is_flagged_by_both_stages(tables):
    # The record's numeric flag sorts ahead of its symbolic flag.
    from mathverify.extraction import FormulaRecord
    record = FormulaRecord(id="EF.906", chapter_code="EF", latex="1 = 2")
    report = aggregate([verify_record(record, tables, PipelineOptions())])
    flags = [(f.formula_id, f.stage, f.detail, f.suspected_reason)
             for f in list_flagged(report)]
    assert flags == [
        ("EF.906", "numeric", "worst discrepancy 1", "source_error"),
        ("EF.906", "symbolic", "simplified to -1", "source_error"),
    ]


def test_limit_relation_translates_but_is_not_verified(tmp_path, tables):
    # A '\to' relation has no verification semantics: it counts toward T
    # and toward neither verified column nor the failure breakdown.
    from mathverify.extraction import FormulaRecord, write_corpus
    record = FormulaRecord(id="EF.902", chapter_code="EF",
                           latex=r"\frac{\sin@{x}}{x} \to 1")
    path = tmp_path / "to.jsonl"
    write_corpus([record], path)
    report = run_pipeline(path)
    assert report.totals.translated == 1
    assert report.totals.sym_verified == 0
    assert report.totals.num_verified == 0
    assert report.totals.failures == {}
    outcome = report.outcomes[0]
    assert outcome["relation"] == "to"
    assert outcome["symbolic"] is None and outcome["numeric"] is None


@pytest.mark.parametrize("latex, maple", [
    (r"2^{10^{5}} = 0", "2^100000 = 0"),
    (r"x = 2^{20000}", "x = 2^20000"),
    (r"2^{10^{9}} = 0", "2^1000000000 = 0"),
    (r"\GammaFn@{3000} = 1", "GAMMA(3000) = 1"),
    (r"\GammaFn@{10^{6}} = 1", "GAMMA(1000000) = 1"),
    (r"\GammaFn@{\frac{10^{7}}{3}} = 1", "GAMMA(10000000/3) = 1"),
])
def test_huge_exact_power_gets_an_outcome(latex, maple, tables):
    # Folding these powers used to build integers Python refuses to print,
    # and the ValueError aborted the run; they now stay symbolic.  So do
    # gamma values of large constants, whose factorial products raised
    # the same ValueError (2999!) or did not finish.
    from mathverify.extraction import FormulaRecord
    record = FormulaRecord(id="EF.903", chapter_code="EF", latex=latex)
    out = verify_record(record, tables, PipelineOptions())
    assert out["translated"] is True
    assert out["maple"] == maple
    assert out["symbolic"]["classification"] == "unsimplified"
    assert out["numeric"]["classification"] == "above_threshold"


def test_exact_root_past_the_float_range(tables):
    # The integer root no longer goes through a float, which overflowed.
    from mathverify.extraction import FormulaRecord
    record = FormulaRecord(id="EF.904", chapter_code="EF",
                           latex=r"\sqrt{10^{400}} = 10^{200}")
    out = verify_record(record, tables, PipelineOptions())
    assert out["symbolic"]["classification"] == "zero"


def test_exit_semantics_errors_vs_outcomes(tmp_path):
    # Failed verification is a reported outcome, not a pipeline error.
    from mathverify.extraction import FormulaRecord, write_corpus
    record = FormulaRecord(id="EF.901", chapter_code="EF", latex="1 = 2")
    path = tmp_path / "wrong.jsonl"
    write_corpus([record], path)
    report = run_pipeline(path)
    assert report.totals.failures.get("above_threshold") == 1


# --- configuration file ---

def test_load_config(tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(
        "# settings\n"
        "mode = both\n"
        "preprocessors = none, exponential\n"
        "test_values = -1/2, 1/2, 3/2\n"
        "threshold = 0.001\n"
        "precision = 10\n"
        "timeout_seconds = 300\n"
        "jobs = 2\n"
    )
    options = load_config(cfg)
    assert options.symbolic.preprocessors == ("none", "exponential")
    assert options.jobs == 2
    assert options.numeric.threshold == 0.001


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    with pytest.raises(ConfigParseError):
        load_config(cfg)


@pytest.mark.parametrize("setting", [
    "threshold = 0",
    "threshold = nan",
    "preprocessors = bogus",
    "preprocessors =",
    "mode = bogus",
    "comparison_mode = nonsense",
    "jobs = 0",
    "precision = 0",
    "rewrite_step_budget = 0",
    "timeout_seconds = 0",
])
def test_bad_config_value_is_rejected_at_load(tmp_path, setting, capsys):
    from mathverify.cli import main
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# settings\n{setting}\n")
    key = setting.split("=")[0].strip()
    with pytest.raises(ConfigParseError, match=f"bad.cfg:2: {key}: "):
        load_config(cfg)
    # The command line stops with an error before any record runs.
    assert main(["report", "--corpus", MINI, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("flags", [
    ["--jobs", "0"],
    ["--timeout", "0"],
    ["--timeout", "-1"],
])
def test_bad_flag_value_is_rejected(flags, capsys):
    from mathverify.cli import main
    assert main(["report", "--corpus", MINI, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: command line: ") and captured.out == ""


def test_flags_override_config(tmp_path):
    from mathverify.cli import _options_from, build_parser
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("jobs = 2\ntimeout_seconds = 60\nthreshold = 0.01\n")
    args = build_parser().parse_args(
        ["verify", "--config", str(cfg), "--timeout", "5", "--blueprints", "b.rules"])
    options = _options_from(args)
    assert (options.jobs, options.numeric.timeout_seconds) == (2, 5.0)
    assert options.numeric.threshold == 0.01
    assert options.blueprints == "b.rules"
    # verify --mode picks the stages; the symbolic ``mode`` setting stays.
    assert options.symbolic.mode == "both"


def test_load_config_resolves_relative_paths(tmp_path):
    rules = tmp_path / "my.rules"
    rules.write_text("0 < var < 1 ==> 1/2\n")
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("blueprints = my.rules\n")
    options = load_config(cfg)
    assert options.blueprints == str(rules)
    tables = Tables(options)
    assert len(tables.blueprints) == 1


# --- the blueprint and rule tables load on first read ---

def _refuse(*args):
    raise AssertionError("table parsed")


def test_translation_reads_neither_the_blueprints_nor_the_rules(tmp_path, monkeypatch,
                                                                chapter_file, capsys):
    from mathverify.cli import main
    monkeypatch.setattr(pipeline, "parse_blueprint_rules", _refuse)
    monkeypatch.setattr(pipeline, "load_rewrite_rules", _refuse)
    tables = Tables(PipelineOptions())
    assert tables.macro_table is not None and tables.translation_table is not None
    assert main(["translate", "--corpus", MINI, "--chapter", "GA"]) == 0
    assert main(["extract", "--source", str(chapter_file), "--source-chapter", "EF",
                 "--output", str(tmp_path / "out.jsonl")]) == 0
    assert all(json.loads(l)["status"] == "ok" for l in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("field", ["blueprints", "rewrite_rules"])
def test_missing_table_file_fails_at_construction(tmp_path, field):
    # The files are read at once; only their parse waits for the first read.
    with pytest.raises(FileNotFoundError):
        Tables(PipelineOptions(**{field: str(tmp_path / "missing.rules")}))


@pytest.mark.parametrize("jobs", [1, 2])
def test_malformed_rule_file_stops_the_run_before_any_record(tmp_path, monkeypatch, jobs):
    rules = tmp_path / "bad.rules"
    rules.write_text("\\sin@{var1}\n")
    started = []
    monkeypatch.setattr(pipeline, "verify_record", lambda *a: started.append(a))
    monkeypatch.setattr(pipeline, "_run_parallel", lambda *a: started.append(a))
    with pytest.raises(MalformedRule, match="line 1: missing '->'"):
        run_pipeline(MINI, PipelineOptions(rewrite_rules=str(rules), jobs=jobs))
    assert started == []


def test_numeric_run_never_parses_the_rule_table(monkeypatch, report):
    monkeypatch.setattr(pipeline, "load_rewrite_rules", _refuse)
    numeric = run_pipeline(MINI, PipelineOptions(run_symbolic=False))
    assert numeric.totals.f2 == report.totals.f2


def test_workers_inherit_the_parsed_tables(monkeypatch):
    loaded = []

    def run_parallel(records, tables, options):
        loaded.append({"blueprints", "rewrite_rules"} <= set(vars(tables)))
        return []
    monkeypatch.setattr(pipeline, "_run_parallel", run_parallel)
    run_pipeline(MINI, PipelineOptions(jobs=2))
    assert loaded == [True]


_IDENTITY_LOADS = """
from mathverify import pipeline, symbolic
parses = lambda: symbolic.identities.cache_info().misses
pipeline.Tables(pipeline.PipelineOptions())
at_start, at_pool = parses(), []
pipeline._run_parallel = lambda *args: at_pool.append(parses()) or []
pipeline.run_pipeline({mini!r}, pipeline.PipelineOptions(jobs=2))
pipeline.run_pipeline({mini!r}, pipeline.PipelineOptions(run_symbolic=False))
print(at_start, at_pool, parses())
"""


def test_identity_table_is_parsed_once_per_process_before_workers_start():
    # A fresh interpreter: importing the package and building the tables
    # parse none of it, and the first run parses it before its pool starts.
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", _IDENTITY_LOADS.format(mini=MINI)],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "0 [1] 1"


# --- command line ---

def test_cli_extract_and_report(tmp_path, chapter_file, capsys):
    from mathverify.cli import main
    out = tmp_path / "extracted.jsonl"
    code = main([
        "extract", "--source", str(chapter_file), "--source-chapter", "EF",
        "--substitutions",
        str(resources.files("mathverify").joinpath("data", "substitutions.table")),
        "--stage", "both", "--output", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 15
    code = main(["report", "--corpus", str(out), "--format", "csv"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("2C, C#, F2")


def test_cli_flags_and_blueprint_check(capsys):
    from mathverify.cli import main
    assert main(["flags", "--corpus", MINI]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert {l["id"] for l in lines} == {"EF.14", "GA.8"}
    assert main(["blueprint-check", "--corpus", MINI]) == 0
    assert "0 unmatched constraint(s)" in capsys.readouterr().out


def test_cli_flags_list_a_record_that_raises(tmp_path, mini_corpus, capsys):
    from mathverify.cli import main
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(mini_corpus + [DEEP], corpus)
    assert main(["flags", "--corpus", str(corpus)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert {l["id"] for l in lines[:-1]} == {"EF.14", "GA.8"}
    assert lines[-1] == {"id": "EF.999", "stage": "pipeline",
                         "detail": "internal error; traceback in the log",
                         "suspected_reason": "engine_error"}


def test_cli_translate_goes_on_past_a_record_that_raises(tmp_path, mini_corpus,
                                                       capsys, caplog):
    from mathverify.cli import main
    corpus = tmp_path / "corpus.jsonl"
    records = mini_corpus[:3] + [DEEP] + mini_corpus[3:5]
    write_corpus(records, corpus)
    assert main(["translate", "--corpus", str(corpus)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [l["id"] for l in lines] == [r.id for r in records]
    assert lines[3] == {"id": "EF.999", "status": "internal_error", "translation": ""}
    assert all(l["status"] == "ok" for l in lines[:3] + lines[4:])
    assert "record EF.999: internal error" in caplog.text
    assert "RecursionError" in caplog.text


def test_cli_translate(capsys):
    from mathverify.cli import main
    assert main(["translate", "--corpus", MINI, "--chapter", "GA"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert all(l["status"] == "ok" for l in lines)
    assert any(l["translation"].startswith("GAMMA") for l in lines)


@pytest.mark.parametrize("stages", ["numeric", "symbolic"])
def test_cli_verify_runs_only_the_chosen_stage(stages, capsys):
    from mathverify.cli import main
    assert main(["verify", "--corpus", MINI, "--mode", stages]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(lines) == 40
    skipped = "symbolic" if stages == "numeric" else "numeric"
    assert all(l[skipped] is None for l in lines)
    assert any(l[stages] is not None for l in lines)


def test_cli_verify_both_matches_golden_file(capsysbinary):
    from mathverify.cli import main
    assert main(["verify", "--corpus", MINI, "--mode", "both"]) == 0
    expected = (DATA / "mini_corpus_report.structured.jsonl").read_bytes()
    assert capsysbinary.readouterr().out == expected
