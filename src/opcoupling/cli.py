"""Command-line front end: instance synthesis, pipeline runs, witness
verification and Hankel finite-section experiments.

Exit codes: 0 on success / verification pass, 1 on verification failure,
2 on invalid input (unknown flags, malformed files, I/O trouble).
"""

from __future__ import annotations

import csv
import ctypes
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import (
    FeasibilityError,
    PipelineStageError,
    SymbolInversionError,
    ToolkitError,
)
from .hankel import (
    SymbolFC,
    build_sections,
    mc_residual_hankel,
    shift_comparability,
    singular_values,
    spectral_summability,
)
from .instances import InstanceSpec, random_instance
from .reduction import run_pipeline
from .relations import (
    verify_eae,
    verify_eae_special,
    verify_eaoe,
    verify_mc,
    verify_sc,
)
from .serialization import (
    WITNESS_KINDS,
    decode_instance,
    decode_witness,
    dumps_canonical,
    encode_instance,
    encode_symbol,
    encode_witness,
    pipeline_report_to_dict,
    verifier_report_to_dict,
)

_VERIFIERS = {
    "sc": verify_sc,
    "mc": verify_mc,
    "eae": verify_eae,
    "eae_special": verify_eae_special,
    "eaoe": verify_eaoe,
}


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    if not isinstance(obj, dict):
        raise click.UsageError(f"cannot read {path}: not a JSON object")
    return obj


def emit_report(payload: dict, path: str) -> None:
    """Write a report as canonical JSON with a timestamp field."""
    payload = dict(payload)
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    try:
        Path(path).write_text(dumps_canonical(payload), encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")


# (setter, getter) of the OpenBLAS thread count: numpy 2 wheels, ILP64 builds
# such as numpy 1.x wheels, plain builds
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_threads():
    """The ``(set, get)`` thread-count functions of the OpenBLAS that numpy
    loaded, found among the mapped libraries, or None (another BLAS or OS)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({fields[-1] for fields in map(str.split, fh)
                            if len(fields) == 6 and "openblas" in fields[-1].lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREAD_FUNCS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


@contextmanager
def _shared_blas_threads(workers: int):
    """Split numpy's BLAS threads among ``workers`` concurrent callers for the
    length of the block, and restore the count afterwards.

    Without this every batch worker's BLAS call starts a pool of one thread
    per core, and the workers oversubscribe the cores.  The count is
    process-wide, so batches must not overlap.  A no-op for a single worker or
    when no OpenBLAS is found.
    """
    funcs = _openblas_threads() if workers > 1 else None
    if funcs is None:
        yield
        return
    set_threads, get_threads = funcs
    before = get_threads()
    set_threads(max(1, before // workers))
    try:
        yield
    finally:
        set_threads(before)


def _check_tol(ctx, param, value: float) -> float:
    """Reject a ``--tol`` that no residual could be meaningfully held to."""
    if not 0 < value < np.inf:
        raise click.BadParameter(f"{value} is not a finite number > 0")
    return value


def _write_witness(w, path: str) -> None:
    try:
        Path(path).write_text(dumps_canonical(encode_witness(w)), encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")


def _write_sigma_csv(path: str, sigmas: np.ndarray) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "sigma"])
            for i, s in enumerate(sigmas):
                writer.writerow([i, repr(float(s))])
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")


@click.group()
@click.version_option(version=__version__, prog_name="opcoupling")
def main():
    """Coupling relations for complex matrices, with verified reductions."""


@main.command()
@click.option("--n", type=int, required=True, help="Size of U.")
@click.option("--m", type=int, required=True, help="Size of V.")
@click.option("--nullity", type=int, default=0, show_default=True,
              help="Common kernel dimension of U and V.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cond-bound", type=float, default=100.0, show_default=True,
              help="Bound on the conditioning of the nonzero singular values.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              help="Instance file to write.")
def synth(n, m, nullity, seed, cond_bound, out_path):
    """Synthesize a random pair (U, V) with a common nullity."""
    try:
        spec = InstanceSpec(n=n, m=m, k=nullity, seed=seed, cond_bound=cond_bound)
    except ToolkitError as exc:
        raise click.UsageError(str(exc))
    u, v = random_instance(spec)
    payload = encode_instance(u, v, meta={
        "n": n, "m": m, "nullity": nullity, "seed": seed, "cond_bound": cond_bound,
    })
    try:
        Path(out_path).write_text(dumps_canonical(payload), encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot write {out_path}: {exc}")
    click.echo(f"wrote instance n={n} m={m} nullity={nullity} -> {out_path}")


def _run_one_pipeline(in_path: str, tol: float, out_path, report_path):
    try:
        u, v = decode_instance(_load_json(in_path))
    except ToolkitError as exc:
        raise click.UsageError(f"malformed instance file {in_path}: {exc}")
    report = run_pipeline(u, v, tol=tol)
    if out_path:
        _write_witness(report.final_sc, out_path)
    if report_path:
        emit_report(pipeline_report_to_dict(report), report_path)
    return report


@main.command()
@click.option("--in", "in_paths", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Instance file(s); repeat for batch mode.")
@click.option("--tol", type=float, default=1e-8, show_default=True, callback=_check_tol)
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              help="Witness file for the final Schur coupling (single input).")
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              help="JSON report path (single input).")
@click.option("--out-dir", type=click.Path(file_okay=False),
              help="Output directory for batch mode.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Parallel workers for batch mode.")
@click.pass_context
def pipeline(ctx, in_paths, tol, out_path, report_path, out_dir, jobs):
    """Run the full reduction pipeline on synthesized instances."""
    if len(in_paths) > 1:
        if out_path or report_path:
            raise click.UsageError("use --out-dir with multiple inputs")
        if not out_dir:
            raise click.UsageError("--out-dir is required with multiple inputs")
        Path(out_dir).mkdir(parents=True, exist_ok=True)

        def job(path: str):
            stem = Path(path).stem
            wit = str(Path(out_dir) / f"{stem}.witness.json")
            rep = str(Path(out_dir) / f"{stem}.report.json")
            return _run_one_pipeline(path, tol, wit, rep)

        failures = 0
        workers = max(1, min(jobs, len(in_paths)))
        # the pool joins inside the block, before the thread count is restored
        with _shared_blas_threads(workers), \
                ThreadPoolExecutor(max_workers=workers) as pool:
            for path, fut in [(p, pool.submit(job, p)) for p in in_paths]:
                try:
                    rep = fut.result()
                    click.echo(f"{path}: ok (max residual {rep.max_residual:.3e})")
                except (ToolkitError, click.UsageError) as exc:
                    failures += 1
                    click.echo(f"{path}: FAIL {exc}", err=True)
        ctx.exit(1 if failures else 0)

    try:
        report = _run_one_pipeline(in_paths[0], tol, out_path, report_path)
    except (FeasibilityError, PipelineStageError) as exc:
        click.echo(f"pipeline failed: {exc}", err=True)
        ctx.exit(1)
    click.echo(
        f"pipeline ok: extensions (x0={report.x0_dim}, y0={report.y0_dim}), "
        f"one-sided extension on {report.eaoe.extended_side} "
        f"(dim {report.eaoe.ext_dim}), max residual {report.max_residual:.3e}"
    )


@main.command()
@click.option("--witness", "witness_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(WITNESS_KINDS), required=True)
@click.option("--tol", type=float, default=1e-8, show_default=True, callback=_check_tol)
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              help="Optional JSON report of the residual table.")
@click.pass_context
def verify(ctx, witness_path, kind, tol, report_path):
    """Re-check a stored witness; exit 0 when it passes, 1 otherwise."""
    obj = _load_json(witness_path)
    if obj.get("kind") != kind:
        raise click.UsageError(
            f"witness file has kind {obj.get('kind')!r}, not {kind!r}"
        )
    try:
        w = decode_witness(obj)
    except (KeyError, ToolkitError) as exc:
        raise click.UsageError(f"malformed witness file {witness_path}: {exc}")
    try:
        rep = _VERIFIERS[kind](w, tol)
    except ToolkitError as exc:
        click.echo(f"verification error: {exc}", err=True)
        ctx.exit(1)
    click.echo(str(rep))
    if report_path:
        emit_report(verifier_report_to_dict(rep), report_path)
    ctx.exit(0 if rep.passed else 1)


def _parse_symbol(text: str, offset: int) -> SymbolFC:
    try:
        coeffs = [complex(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise click.UsageError(f"cannot parse --symbol: {exc}")
    if not coeffs:
        raise click.UsageError("--symbol must list at least one coefficient")
    return SymbolFC(offset=offset, coeffs=np.array(coeffs, dtype=np.complex128))


@main.command()
@click.option("--symbol", "symbol_text", required=True,
              help="Comma-separated coefficients, e.g. '2,1' or '0.5,1j'.")
@click.option("--symbol-offset", type=int, default=0, show_default=True,
              help="Index of the first listed coefficient.")
@click.option("--N", "section_size", type=int, required=True,
              help="Section half-size.")
@click.option("--p", "schatten_p", type=float, default=2.0, show_default=True)
@click.option("--kmax", type=int, default=5, show_default=True,
              help="Largest shift tried in the comparability search.")
@click.option("--grid", type=int, default=0,
              help="FFT grid size override for symbol inversion.")
@click.option("--tol", type=float, default=1e-8, show_default=True, callback=_check_tol,
              help="Zero-threshold for |f| on the inversion grid.")
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              help="JSON report path; CSV side-files are derived from it.")
@click.pass_context
def hankel(ctx, symbol_text, symbol_offset, section_size, schatten_p, kmax,
           grid, tol, report_path):
    """Finite-section coupling experiment for a circle symbol and its inverse."""
    f = _parse_symbol(symbol_text, symbol_offset)
    try:
        coupling = mc_residual_hankel(f, section_size, tol=tol, grid=grid)
    except SymbolInversionError as exc:
        click.echo(f"symbol inversion failed: {exc}", err=True)
        ctx.exit(1)
    except ToolkitError as exc:
        raise click.UsageError(str(exc))

    inv = coupling.inverse
    sigma_f = singular_values(build_sections(f, section_size).H)
    sigma_inv = singular_values(build_sections(inv, section_size).H)
    shift = shift_comparability(sigma_f, sigma_inv, kmax)
    summab_f = spectral_summability(sigma_f, schatten_p, besov_symbol=f)
    summab_inv = spectral_summability(sigma_inv, schatten_p, besov_symbol=inv)

    click.echo(
        f"N={section_size}: interior residual {coupling.interior_residual:.3e}, "
        f"winding {coupling.winding}, sigma1(H_f)={sigma_f[0]:.6g}, "
        f"sigma1(H_1/f)={sigma_inv[0]:.6g}"
    )
    if shift.comparable:
        click.echo(
            f"shift comparability: k={shift.verdict_k} c={shift.verdict_c:.6g} "
            f"({shift.verdict_orientation})"
        )
    else:
        click.echo("shift comparability: incomparable at this truncation")

    if report_path:
        base = Path(report_path)
        csv_f = base.with_suffix(".sigma_f.csv")
        csv_inv = base.with_suffix(".sigma_inv.csv")
        _write_sigma_csv(str(csv_f), sigma_f)
        _write_sigma_csv(str(csv_inv), sigma_inv)
        payload = {
            "kind": "hankel_report",
            "tool": "opcoupling",
            "version": __version__,
            "symbol": encode_symbol(f),
            "N": section_size,
            "coupling": {
                "grid": coupling.grid,
                "interior_rows": list(coupling.interior_rows),
                "interior_cols": list(coupling.interior_cols),
                "interior_residual": coupling.interior_residual,
                "full_residual": coupling.full_residual,
                "inversion_l1": coupling.inversion_l1,
                "min_abs_on_grid": coupling.min_abs_on_grid,
                "winding": coupling.winding,
            },
            "schatten": {
                "p": schatten_p,
                "total_f": summab_f.total,
                "total_inv": summab_inv.total,
                "tail_fraction_f": summab_f.tail_fraction,
                "tail_fraction_inv": summab_inv.tail_fraction,
            },
            "besov": {
                "alpha": summab_f.besov.alpha,
                "order": summab_f.besov.order,
                "integral_f": summab_f.besov.integral,
                "integral_inv": summab_inv.besov.integral,
                "t_points": summab_f.besov.t_points,
                "s_points": summab_f.besov.s_points,
            },
            "shift": {
                "threshold": shift.threshold,
                "verdict_orientation": shift.verdict_orientation,
                "verdict_k": shift.verdict_k,
                "verdict_c": shift.verdict_c,
                "records": [
                    {"orientation": r.orientation, "k": r.k, "c": r.c,
                     "compared": r.compared}
                    for r in shift.records
                ],
            },
            "csv_files": [csv_f.name, csv_inv.name],
        }
        emit_report(payload, report_path)


def dispatch(argv) -> int:
    """Route an argument vector to the subcommands; returns the exit code."""
    try:
        rv = main.main(args=list(argv), prog_name="opcoupling",
                       standalone_mode=False)
    except click.exceptions.UsageError as exc:
        exc.show()
        return 2
    except click.exceptions.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(dispatch(sys.argv[1:]))
