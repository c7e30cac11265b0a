"""Write a fixed corpus of opcoupling outputs, for byte-identity checks.

Run it with the checkout's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python tools/byte_corpus.py OUT_DIR [--quick]

Two checkouts compute the same values exactly when ``diff -r`` of their
corpora is empty.  Each report's ``timestamp``, the one field outside the
byte-identity contract, is masked.  The corpus holds:

* ``cli/``: ``synth`` instance files; ``pipeline --out --report`` on each at
  two tolerances, one of which fails some stages, with the exit code and the
  captured output of every command; one ``--jobs 2`` batch; the five witnesses
  of a pipeline run and ``verify --report`` on all five witness kinds;
  ``hankel --report`` with its CSV side files.
* ``lib/``: ``run_pipeline`` results, synthesized and on supplied anchored
  witnesses, including two-sided ones from the test-side builder
  ``coupled_mc``: the canonical report and the five witnesses of a run that
  passed, and the stage, message and hex residual table of one that failed.

``--quick`` writes a small subset of ``cli/`` that takes about a second.

``--compare OLD NEW`` reads two corpora written by this tool, for example
from a change and its parent.  It prints, for each command and library
case, whether the exit code and the failing stage agree, and then lists the
files whose bytes moved, grouped by kind (a JSON file's ``kind``, a
command's captured output, a library failure, a CSV), and those in one
corpus only.  For a moved JSON file it prints how far its values moved:
the largest relative change ``|new - old| / max(|old|, |new|)`` of any
entry of a ``residuals`` map and of any entry of an ``extras`` (or a
pipeline stage's ``data``) map, and whether any ``success``, ``passed`` or
``certified`` value changed; each kind's line gives the largest of its
files.  It exits 1 when a case disagrees::

    PYTHONPATH=src python tools/byte_corpus.py --compare OLD_DIR NEW_DIR
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from opcoupling.cli import dispatch
from opcoupling.errors import ToolkitError
from opcoupling.instances import InstanceSpec, random_instance
from opcoupling.reduction import run_pipeline
from opcoupling.relations import mc_to_eae_special
from opcoupling.serialization import dumps_canonical, encode_witness, pipeline_report_to_dict

_TESTS = Path(__file__).resolve().parents[1] / "tests"
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
_FAILED_STAGE = re.compile(r"stage '([^']+)'")
_WITNESSES = ("mc", "witness", "small_eae", "eaoe", "final_sc")
# the witness of each verifier kind among a pipeline report's witnesses
_VERIFY_KINDS = {"mc": "mc", "eae_special": "witness", "eae": "small_eae",
                 "eaoe": "eaoe", "sc": "final_sc"}


def _run(out: Path, name: str, argv: list[str]) -> None:
    """Run one CLI command and record its exit code and output as ``name``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = dispatch(argv)
    (out / f"{name}.status.txt").write_text(
        f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}",
        encoding="utf-8")


def _write_witnesses(out: Path, report) -> None:
    for attr in _WITNESSES:
        w = getattr(report, attr)
        if w is not None:
            (out / f"{attr}.json").write_text(dumps_canonical(encode_witness(w)),
                                              encoding="utf-8")


def _cli(out: Path, quick: bool) -> None:
    out.mkdir()
    specs = [(6, 7, 1, 3), (5, 4, 1, 2)] if quick else [
        (0, 0, 0, 0), (1, 1, 1, 0), (3, 4, 2, 5), (12, 14, 2, 1), (14, 12, 2, 1),
        (40, 30, 3, 7), (100, 110, 10, 2)]
    instances = []
    for n, m, k, seed in specs:
        stem = f"inst_{n}x{m}_k{k}_s{seed}"
        path = out / f"{stem}.json"
        _run(out, f"synth_{stem}", ["synth", "--n", str(n), "--m", str(m),
                                    "--nullity", str(k), "--seed", str(seed),
                                    "--out", str(path)])
        instances.append(path)
        for tol in ("1e-8", "1e-15"):
            run = f"pipeline_{stem}_tol{tol}"
            _run(out, run, ["pipeline", "--in", str(path), "--tol", tol,
                            "--out", str(out / f"{run}.sc.json"),
                            "--report", str(out / f"{run}.report.json")])

    batch = instances if quick else instances[2:6]
    _run(out, "batch_jobs2", ["pipeline", *(a for p in batch for a in ("--in", str(p))),
                              "--out-dir", str(out / "batch"), "--jobs", "2"])

    n, m, k, seed = (6, 7, 1, 3) if quick else (12, 14, 2, 1)
    u, v = random_instance(InstanceSpec(n, m, k, seed=seed))
    wdir = out / "witnesses"
    wdir.mkdir()
    _write_witnesses(wdir, run_pipeline(u, v, tol=1e-8))
    kinds = {"eae_special": "witness"} if quick else _VERIFY_KINDS
    for kind, attr in kinds.items():
        for tol in ("1e-8", "1e-15"):
            run = f"verify_{kind}_tol{tol}"
            _run(wdir, run, ["verify", "--witness", str(wdir / f"{attr}.json"),
                             "--kind", kind, "--tol", tol,
                             "--report", str(wdir / f"{run}.report.json")])

    hankel = [("2,1", "20", "5")] if quick else [
        ("2,1", "30", "5"), ("2,1", "30", "29"), ("1,0.5,0.25", "60", "8"),
        ("3,1j,-0.5", "100", "10"), ("1,-1", "10", "5")]
    for i, (symbol, size, kmax) in enumerate(hankel):
        _run(out, f"hankel_{i}", ["hankel", "--symbol", symbol, "--N", size,
                                  "--kmax", kmax, "--report", str(out / f"hankel_{i}.json")])


def _pipeline_case(out: Path, name: str, u, v, w, tol: float) -> None:
    case = out / name
    case.mkdir()
    try:
        report = run_pipeline(u, v, w=w, tol=tol)
    except ToolkitError as exc:
        lines = [f"{type(exc).__name__}: {exc}", f"stage {getattr(exc, 'stage', None)}"]
        table = getattr(exc, "report", None)
        if table is not None:
            lines += [f"{label} {float(value).hex()}"
                      for label, value in table.residuals.items()]
        (case / "failure.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    (case / "report.json").write_text(dumps_canonical(pipeline_report_to_dict(report)),
                                      encoding="utf-8")
    _write_witnesses(case, report)


def _lib(out: Path) -> None:
    sys.path.insert(0, str(_TESTS))
    from test_reduction import coupled_mc

    out.mkdir()
    rng = np.random.default_rng(2024)
    cases = [(0, 0, 0, 0, 100.0), (2, 2, 2, 0, 100.0), (12, 14, 2, 1, 100.0),
             (200, 220, 20, 1, 100.0)]
    for seed in range(12):
        n, m = (int(x) for x in rng.integers(1, 49, size=2))
        cases.append((n, m, int(rng.integers(0, min(n, m) + 1)), seed,
                      float(10.0 ** rng.uniform(0, 6))))
    for n, m, k, seed, cond in cases:
        u, v = random_instance(InstanceSpec(n, m, k, seed=seed, cond_bound=cond))
        for tol in (1e-8, 5e-15, 1e-15):
            _pipeline_case(out, f"synth_{n}x{m}_k{k}_s{seed}_tol{tol:g}", u, v, None, tol)

    # supplied anchored witnesses: one-sided, and two-sided from coupled_mc
    for n, m, k, r, seed in [(12, 14, 2, 2, 1), (12, 14, 2, 7, 1), (40, 30, 3, 10, 4),
                             (30, 40, 0, 5, 6), (9, 9, 3, 4, 8), (200, 220, 20, 120, 1)]:
        u, v = random_instance(InstanceSpec(n, m, k, seed=seed))
        w = mc_to_eae_special(coupled_mc(u, v, r))
        for tol in (1e-8, 1e-13, 3e-14, 1e-15):
            _pipeline_case(out, f"coupled_{n}x{m}_k{k}_r{r}_s{seed}_tol{tol:g}",
                           u, v, w, tol)


def write_corpus(out_dir, quick: bool = False) -> None:
    """Write the corpus into the new directory ``out_dir``.

    The commands run inside it with relative paths, so that the captured
    output does not depend on where the corpus is written.
    """
    Path(out_dir).mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        _cli(Path("cli"), quick)
        if not quick:
            _lib(Path("lib"))
        for path in Path().rglob("*.json"):
            text = path.read_text(encoding="utf-8")
            masked = _TIMESTAMP.sub('"timestamp": "<masked>"', text)
            if masked != text:
                path.write_text(masked, encoding="utf-8")
    finally:
        os.chdir(cwd)


def _outcomes(root: Path) -> dict[str, str]:
    """Each case of a corpus with its exit code and failing stage: a command
    by its captured output, a library case by its failure, or its pass."""
    out = {}
    for path in root.rglob("*.status.txt"):
        head, _, rest = path.read_text(encoding="utf-8").partition("\n")
        stage = _FAILED_STAGE.search(rest.partition("--- stderr\n")[2])
        name = str(path.relative_to(root)).removesuffix(".status.txt")
        out[name] = f"{head}, stage {stage[1] if stage else '-'}"
    for case in (root / "lib").glob("*") if (root / "lib").is_dir() else ():
        failure = case / "failure.txt"
        if failure.is_file():
            stage = failure.read_text(encoding="utf-8").splitlines()[1].removeprefix("stage ")
            out[str(case.relative_to(root))] = f"exit 1, stage {stage}"
        else:
            out[str(case.relative_to(root))] = "exit 0, stage -"
    return out


def _kind(root: Path, name: str) -> str:
    """The kind of a corpus file: its tree, then its JSON ``kind`` or what
    the file holds."""
    tree, path = name.partition("/")[0], root / name
    if name.endswith(".status.txt"):
        return f"{tree} command output"
    if name.endswith("failure.txt"):
        return f"{tree} failure"
    if name.endswith(".json"):
        return f"{tree} {json.loads(path.read_text(encoding='utf-8')).get('kind')}"
    return f"{tree} {path.suffix.lstrip('.')}"


# the maps whose entries --compare measures, by the key that holds them
_MEASURED = {"residuals": "residuals", "extras": "extras", "data": "extras"}
_FLAGS = ("success", "passed", "certified")


def _values(obj, path: str = "") -> dict[str, object]:
    """The entries of a JSON document that ``--compare`` reads, by path:
    ``residuals/...`` and ``extras/...`` for each number in a measured map,
    and ``flags/...`` for each value of a flag key."""
    out = {}
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        here = f"{path}/{key}"
        if key in _MEASURED and isinstance(value, dict):
            out.update({f"{_MEASURED[key]}{here}/{name}": v for name, v in value.items()
                        if isinstance(v, (int, float)) and not isinstance(v, bool)})
        elif key in _FLAGS:
            out[f"flags{here}"] = value
        # a list of stages is read, a matrix's list of number pairs is not
        elif isinstance(value, dict) or (isinstance(value, list) and value
                                         and isinstance(value[0], dict)):
            out.update(_values(value, here))
    return out


def _relative(old: float, new: float) -> float:
    top = max(abs(old), abs(new))
    return abs(new - old) / top if top else 0.0


def _movement(old_path: Path, new_path: Path) -> dict | None:
    """How far the values of one JSON file moved: the largest relative
    change of a residual and of an extra (None where the two files share
    none), and whether a flag changed; None for a file that holds none of
    them, such as a witness."""
    before, after = (_values(json.loads(p.read_text(encoding="utf-8")))
                     for p in (old_path, new_path))
    if not before and not after:
        return None
    out = {}
    for group in ("residuals", "extras"):
        changes = [_relative(before[k], after[k]) for k in before.keys() & after.keys()
                   if k.startswith(group + "/")]
        out[group] = max(changes, default=None)
    flags = {k for k in before.keys() | after.keys() if k.startswith("flags/")}
    out["flags"] = any(before.get(k) != after.get(k) for k in flags)
    return out


def _describe(movement: dict) -> str:
    sizes = (f"{group} {'-' if movement[group] is None else f'{movement[group]:.2e}'}"
             for group in ("residuals", "extras"))
    return (f"largest relative change: {', '.join(sizes)}; flags "
            f"{'CHANGED' if movement['flags'] else 'same'}")


def _largest(movements: list[dict]) -> dict:
    out = {group: max((m[group] for m in movements if m[group] is not None), default=None)
           for group in ("residuals", "extras")}
    out["flags"] = any(m["flags"] for m in movements)
    return out


def compare(old_dir, new_dir) -> int:
    """Print how the corpus ``new_dir`` differs from ``old_dir``; 1 when a
    case's exit code or failing stage differs."""
    old, new = Path(old_dir), Path(new_dir)
    before, after = _outcomes(old), _outcomes(new)
    disagree = 0
    for name in sorted(before.keys() | after.keys()):
        was, now = before.get(name, "absent"), after.get(name, "absent")
        disagree += was != now
        print(f"{'same' if was == now else 'DIFFERS'}  {name}: {was}"
              + ("" if was == now else f" -> {now}"))
    files = [{str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
             for root in (old, new)]
    moved = defaultdict(list)
    for name in sorted(files[0] | files[1]):
        if name not in files[0] or name not in files[1]:
            moved["only in " + ("NEW" if name in files[1] else "OLD")].append(name)
        elif (old / name).read_bytes() != (new / name).read_bytes():
            moved[_kind(new, name)].append(name)
    print(f"{len(before.keys() | after.keys()) - disagree} cases agree, {disagree} differ")
    print(f"files whose bytes moved, or that one corpus lacks: "
          f"{sum(map(len, moved.values()))} of {len(files[0] | files[1])}")
    for kind in sorted(moved):
        names = moved[kind]
        movements = {name: found for name in names
                     if name.endswith(".json") and not kind.startswith("only in ")
                     if (found := _movement(old / name, new / name)) is not None}
        total = f"; {_describe(_largest(list(movements.values())))}" if movements else ""
        print(f"  {kind}: {len(names)}{total}")
        for name in names:
            print(f"    {name}" + (f"  {_describe(movements[name])}" if name in movements else ""))
    return 1 if disagree else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--compare":
        sys.exit(compare(args[1], args[2]))
    if len(args) not in (1, 2) or args[1:] not in ([], ["--quick"]):
        sys.exit("usage: byte_corpus.py OUT_DIR [--quick] | --compare OLD NEW")
    write_corpus(args[0], quick=bool(args[1:]))
