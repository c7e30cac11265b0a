"""``tools/byte_corpus.py`` writes the same bytes on every run, which is the
README's claim that files are byte-identical across runs apart from the
masked ``timestamp``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_corpus.py"


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_quick_corpus_is_identical_across_runs(tmp_path):
    spec = importlib.util.spec_from_file_location("byte_corpus", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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
