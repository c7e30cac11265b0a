"""``tools/byte_corpus.py`` writes the same bytes on every run, which is the
README's claim that files are byte-identical across runs apart from the
masked ``timestamp``; its ``--compare`` names the cases and files of two
corpora that differ."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_corpus.py"


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _tool():
    spec = importlib.util.spec_from_file_location("byte_corpus", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_quick_corpus_is_identical_across_runs(tmp_path):
    tool = _tool()
    tool.write_corpus(tmp_path / "a", quick=True)
    tool.write_corpus(tmp_path / "b", quick=True)
    first, second = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert first == second
    # reports, witnesses, CSVs, a failed pipeline and the batch are all there
    text = b"".join(first.values())
    assert b'"timestamp": "<masked>"' in text and b'"timestamp": "20' not in text
    assert b"exit 1\n--- stdout\n--- stderr\npipeline failed: stage" in text
    names = set(first)
    assert {"cli/hankel_0.sigma_f.csv", "cli/witnesses/eaoe.json",
            "cli/batch/inst_6x7_k1_s3.report.json"} <= names


def _fake_corpus(root: Path, exit_code: int, stage: str, residual: float) -> None:
    (root / "cli").mkdir(parents=True)
    (root / "lib" / "case").mkdir(parents=True)
    (root / "cli" / "run.status.txt").write_text(
        f"exit {exit_code}\n--- stdout\n--- stderr\npipeline failed: stage '{stage}': x\n")
    (root / "cli" / "run.report.json").write_text(
        f'{{"kind": "pipeline_report", "max_residual": {residual}}}\n')
    (root / "lib" / "case" / "failure.txt").write_text(f"ConversionError: x\nstage {stage}\n")


def test_compare_names_each_case_and_the_moved_files(tmp_path, capsys):
    tool = _tool()
    _fake_corpus(tmp_path / "old", 1, "small_eae", 1e-15)
    _fake_corpus(tmp_path / "new", 1, "small_eae", 2e-15)
    (tmp_path / "new" / "cli" / "extra.csv").write_text("index,sigma\n")
    assert tool.compare(tmp_path / "old", tmp_path / "new") == 0
    out = capsys.readouterr().out
    assert "same  cli/run: exit 1, stage small_eae\n" in out
    assert "same  lib/case: exit 1, stage small_eae\n" in out
    assert "2 cases agree, 0 differ\n" in out
    assert "  cli pipeline_report: 1\n    cli/run.report.json\n" in out
    assert "  only in NEW: 1\n    cli/extra.csv\n" in out
    _fake_corpus(tmp_path / "other", 1, "build_eaoe", 1e-15)
    assert tool.compare(tmp_path / "old", tmp_path / "other") == 1
    out = capsys.readouterr().out
    assert ("DIFFERS  cli/run: exit 1, stage small_eae -> exit 1, stage build_eaoe\n"
            in out)


def _report(root: Path, name: str, residual: float, cond: float, certified: list) -> None:
    """A pipeline report and a verifier report, each with one residual, one
    extra and the flags --compare reads."""
    (root / "cli").mkdir(parents=True, exist_ok=True)
    stage = {"name": "s", "residuals": {"a": residual}, "data": {"cond": cond},
             "certified": certified}
    (root / "cli" / f"{name}.report.json").write_text(json.dumps(
        {"kind": "pipeline_report", "success": True, "stages": [stage]}))
    (root / "cli" / f"{name}.verify.json").write_text(json.dumps(
        {"kind": "verifier_report", "passed": True, "residuals": {"b": residual},
         "extras": {"cond": 2 * cond}, "certified": []}))


def test_compare_says_how_far_values_moved(tmp_path, capsys):
    tool = _tool()
    _report(tmp_path / "old", "run", 1e-15, 4.0, ["a"])
    _report(tmp_path / "old", "other", 3e-15, 8.0, [])
    _report(tmp_path / "new", "run", 1.25e-15, 4.0, ["a"])
    _report(tmp_path / "new", "other", 3e-15, 6.0, ["a"])
    assert tool.compare(tmp_path / "old", tmp_path / "new") == 0
    out = capsys.readouterr().out
    # |new - old| / max(|old|, |new|): 0.25 / 1.25 and 2 / 8
    assert ("  cli pipeline_report: 2; largest relative change: residuals 2.00e-01, "
            "extras 2.50e-01; flags CHANGED\n") in out
    assert ("    cli/other.report.json  largest relative change: residuals 0.00e+00, "
            "extras 2.50e-01; flags CHANGED\n") in out
    assert ("    cli/run.report.json  largest relative change: residuals 2.00e-01, "
            "extras 0.00e+00; flags same\n") in out
    assert ("  cli verifier_report: 2; largest relative change: residuals 2.00e-01, "
            "extras 2.50e-01; flags same\n") in out


def test_compare_reads_a_changed_success(tmp_path, capsys):
    tool = _tool()
    for root, success in ((tmp_path / "old", True), (tmp_path / "new", False)):
        (root / "cli").mkdir(parents=True)
        (root / "cli" / "run.report.json").write_text(json.dumps(
            {"kind": "pipeline_report", "success": success, "stages": []}))
    tool.compare(tmp_path / "old", tmp_path / "new")
    assert ("    cli/run.report.json  largest relative change: residuals -, extras -; "
            "flags CHANGED\n") in capsys.readouterr().out
