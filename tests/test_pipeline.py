import difflib
import json
import pickle
import random
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from mathverify.errors import ConfigParseError, MissingInputFile
from mathverify.extraction import FormulaRecord, write_corpus
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
    assert [verify_record(r, copy, options) for r in mini_corpus[:5]] == \
        [verify_record(r, tables, options) for r in mini_corpus[:5]]


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
