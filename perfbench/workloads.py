"""The four workloads of the opcoupling benchmark.

Every workload makes its inputs from the seed, hands the program only those
inputs, and checks each operation's output with code of its own (numpy and
the file formats), never with the program's pass/fail.  An operation ends
in one of three ways:

* ``ok``: the output passes the benchmark's check;
* ``refused``: a pair with mismatched nullities raised ``FeasibilityError``,
  the right answer of the feasibility oracle;
* ``failed``: anything else -- a wrong or unverified result, a
  ``PipelineStageError`` on a feasible pair, or a bare Python exception.

A failed operation whose output the program presented as an answer (a
witness that does not verify, a refusal of a feasible pair, a coupling of an
infeasible one) is also marked ``wrong``; a run with a wrong answer is not
correct.

Why each workload exists:

* ``pipeline-200`` -- ``run_pipeline`` on 200x220 pairs.  It is BLAS-bound
  and verification dominates it (dense SVDs inside the verifiers and the
  spectral norms), so it is where verifier and norm work shows.  ``hankel``
  and ``serialization`` do no work here.
* ``pipeline-small`` -- ``run_pipeline`` on many pairs of size 0..48, mixed
  shapes, nullity from 0 to all-zero, conditioning up to 1e6 and one pair in
  five with mismatched nullities.  Python overhead and the rank/feasibility
  decisions cost more than LAPACK here, so a change that trades constant
  cost for O(n^3) savings shows its price.  The pool deliberately keeps
  inputs the program is known to get wrong: the 0x0 pair raises a bare
  ``IndexError`` in ``verify_eae_special``, and pairs conditioned near 1e6
  fail the final ``schur_coupling`` stage.  They count as failed.  This
  workload is runnable but not listed in ``BENCHMARK.json``: the quartile
  spread of its ``op_s_p50`` over ten seeds reached 25%, more than the
  largest bound a gated metric may have.
* ``hankel-sweep`` -- ``opcoupling hankel ... --report`` for three
  invertible symbols at N = 400, 600 and 800.  Only the Hankel harness (and a
  little serialization and CLI) works here; a verifier change should read
  "no change", a structured Hankel path should show.
* ``cli-batch`` -- one ``opcoupling pipeline`` command over six 100x110
  instance files with ``--jobs 2``.  It is the only workload that decodes
  instance files, writes witnesses and reports, and runs concurrently (a
  thread pool plus the BLAS threads).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = float(np.finfo(np.float64).eps)
TOL = 1e-8           # pipeline acceptance tolerance (the CLI default)
HANKEL_TOL = 1e-6    # interior coupling defect accepted for a section


@dataclass
class Outcome:
    status: str               # "ok" | "refused" | "failed"
    wrong: bool = False       # the program answered, and the answer is wrong
    residual: float | None = None   # worst residual of an ok operation
    tol: float = TOL
    answered: int = 1         # answered units (instances, for a batch)
    note: str = ""


def _failed(note: str, wrong: bool = False) -> Outcome:
    return Outcome("failed", wrong=wrong, answered=0, note=note)


@contextlib.contextmanager
def _quiet():
    """Keep the program's console output out of the benchmark's stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


# ---------------------------------------------------------------------------
# independent checks


def _norm2(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def _rel(lhs: np.ndarray, rhs: np.ndarray) -> float:
    if lhs.shape != rhs.shape:
        return float("inf")
    return _norm2(lhs - rhs) / max(1.0, _norm2(rhs))


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[0] == 0:
        return np.zeros((0, b.shape[1]), dtype=np.complex128)
    return np.linalg.solve(a, b)


def _invertible(a: np.ndarray) -> bool:
    if a.size == 0:
        return True
    s = np.linalg.svd(a, compute_uv=False)
    return bool(s[-1] > max(a.shape) * EPS * s[0])


def schur_residual(a, b, c, d, u, v, wit_u, wit_v) -> float:
    """Worst relative residual of a Schur coupling of the given (u, v).

    Checks that ``[[a, b], [c, d]]`` has invertible diagonal blocks, that its
    two Schur complements are ``u`` and ``v`` in the spectral norm (the
    residual definition of the program's ``verify_sc``), and that the
    witness carries the input pair.  Returns ``inf`` when a block is
    singular.
    """
    if not (_invertible(a) and _invertible(d)):
        return float("inf")
    schur_u = a - b @ _solve(d, c)
    schur_v = d - c @ _solve(a, b)
    return max(_rel(u, schur_u), _rel(v, schur_v),
               _rel(wit_u, u), _rel(wit_v, v))


def _decode_matrix(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=np.float64).reshape(rows * cols, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(rows, cols)


def _load_matrices(path: Path) -> dict[str, np.ndarray]:
    obj = json.loads(path.read_text(encoding="utf-8"))
    return {name: _decode_matrix(enc) for name, enc in obj["matrices"].items()}


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs, the timed call and the output check of one workload.

    ``unit`` is the number of consecutive operations that are measured as a
    whole: a run ends only between units, so every run times the same mix.
    """

    name = ""
    unit = 1

    def __init__(self, program, work_dir: Path):
        self.p = program
        self.work_dir = work_dir

    def setup(self, seed: int) -> None:
        """Generate the inputs from ``seed`` and warm the program up."""
        raise NotImplementedError

    def ops(self) -> list:
        """The operations of one cycle, in order."""
        raise NotImplementedError

    def trace_ops(self) -> list:
        """The fixed operation list of a traced run."""
        return self.ops()[: self.unit]

    def run(self, op):
        """The timed call; returns the program's result."""
        raise NotImplementedError

    def check(self, op, result) -> Outcome:
        raise NotImplementedError

    def prepare(self, op) -> None:
        """Untimed work before an operation, such as clearing its outputs."""

    def trace_extra(self, plain: list, traced: list):
        """Extra per-layer inputs of a traced run, and their outcomes."""
        return {}, []


@dataclass
class Pair:
    u: np.ndarray
    v: np.ndarray
    feasible: bool


class PipelineWorkload(Workload):
    """``run_pipeline`` on generated pairs, one pair per operation."""

    def make_pairs(self, seed: int) -> list[Pair]:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        self.pairs = self.make_pairs(seed)
        warm_u, warm_v = self.p.instances.random_instance(
            self.p.instances.InstanceSpec(n=6, m=8, k=2, seed=seed))
        self.p.reduction.run_pipeline(warm_u, warm_v, tol=TOL)

    def ops(self) -> list:
        return self.pairs

    def run(self, pair: Pair):
        return self.p.reduction.run_pipeline(pair.u, pair.v, tol=TOL)

    def check(self, pair: Pair, result) -> Outcome:
        if isinstance(result, self.p.errors.FeasibilityError):
            if pair.feasible:
                return _failed("feasible pair refused", wrong=True)
            return Outcome("refused")
        if isinstance(result, BaseException):
            return _failed(type(result).__name__)
        if not pair.feasible:
            return _failed("infeasible pair coupled", wrong=True)
        sc = result.final_sc
        m = sc.M
        residual = schur_residual(m.a11, m.a12, m.a21, m.a22,
                                  pair.u, pair.v, sc.U, sc.V)
        if not (result.success and result.max_residual <= TOL and residual <= TOL):
            return _failed(f"witness does not verify (residual {residual:.3e})",
                           wrong=True)
        return Outcome("ok", residual=max(result.max_residual, residual))


class Pipeline200(PipelineWorkload):
    name = "pipeline-200"
    PAIRS = 3
    unit = PAIRS   # a run always times whole cycles of the pairs

    def make_pairs(self, seed: int) -> list[Pair]:
        inst = self.p.instances
        rng = np.random.default_rng([seed, 200])
        pairs = []
        for s in rng.integers(0, 2**31, size=self.PAIRS):
            u, v = inst.random_instance(inst.InstanceSpec(
                n=200, m=220, k=20, seed=int(s), cond_bound=100.0))
            pairs.append(Pair(u, v, True))
        return pairs


class PipelineSmall(PipelineWorkload):
    name = "pipeline-small"
    POOL = 480
    TRACE_OPS = 120
    MAX_DIM = 48
    # Edge shapes get fixed slots (every twelfth pair), so that every pool
    # holds each of them the same number of times, 0x0 included.
    EDGE_SHAPES = ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2),
                   (2, 0), (1, 2), (2, 1), (2, 2), (1, 3))

    def make_pairs(self, seed: int) -> list[Pair]:
        inst = self.p.instances
        rng = np.random.default_rng([seed, 48])
        # Sizes and log-uniform conditioning on [1, 1e6] are stratified: the
        # seed permutes fixed marginals, so every pool holds the same mix of
        # sizes and the same share of badly conditioned pairs.
        sizes = np.resize(np.arange(self.MAX_DIM + 1), self.POOL)
        ns, ms = rng.permutation(sizes), rng.permutation(sizes)
        conds = rng.permutation(10.0 ** (
            6.0 * (np.arange(self.POOL) + rng.random(self.POOL)) / self.POOL))
        pairs = []
        for i in range(self.POOL):
            if i % 12 == 0:
                n, m = self.EDGE_SHAPES[(i // 12) % len(self.EDGE_SHAPES)]
            else:
                n, m = int(ns[i]), int(ms[i])
            low = min(n, m)
            k = low if i % 10 == 3 else int(rng.integers(0, low + 1))
            ku = kv = k
            if i % 5 == 4:
                choices = [(a, b) for a in range(n + 1) for b in range(m + 1)
                           if a != b]
                if choices:
                    ku, kv = choices[int(rng.integers(len(choices)))]
            cond = float(conds[i])
            s1, s2 = (int(x) for x in rng.integers(0, 2**31, size=2))
            if ku == kv:
                u, v = inst.random_instance(inst.InstanceSpec(
                    n=n, m=m, k=k, seed=s1, cond_bound=cond))
            else:
                u = inst.random_instance(inst.InstanceSpec(
                    n=n, m=n, k=ku, seed=s1, cond_bound=cond))[0]
                v = inst.random_instance(inst.InstanceSpec(
                    n=m, m=m, k=kv, seed=s2, cond_bound=cond))[0]
            pairs.append(Pair(u, v, ku == kv))
        return [pairs[j] for j in rng.permutation(self.POOL)]

    def trace_ops(self) -> list:
        return self.pairs[: self.TRACE_OPS]


@dataclass
class HankelOp:
    text: str
    offset: int
    coeffs: np.ndarray
    N: int
    report: Path


def _symbol_text(coeffs: np.ndarray) -> str:
    return ",".join(repr(complex(z)).strip("()") for z in coeffs)


class HankelSweep(Workload):
    name = "hankel-sweep"
    # N = 600 sits between the two sizes the harness is judged at, so that
    # the median of a sweep's nine commands is an N = 600 command rather than
    # the midpoint between the N = 400 and the N = 800 clusters.
    SIZES = (400, 600, 800)
    unit = 9   # 3 symbols x 3 sizes: a run always times whole sweeps

    def _symbols(self, seed: int):
        rng = np.random.default_rng([seed, 400])

        def small(count: int, total: float) -> np.ndarray:
            z = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            w = rng.random(count) + 0.5
            return np.round(z / np.abs(z) * w / w.sum() * total, 6)

        # |f| >= 3 - 1.5 on the circle, so both generated symbols invert
        banded = np.concatenate([[3.0], small(4, 1.5)])
        around = small(2, 1.5)
        negative = np.array([around[0], 3.0, around[1]])
        return [("2,1", 0, np.array([2.0, 1.0], dtype=np.complex128)),
                (_symbol_text(banded), 0, banded.astype(np.complex128)),
                (_symbol_text(negative), -1, negative.astype(np.complex128))]

    def setup(self, seed: int) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.sweep = [
            HankelOp(text, offset, coeffs, N,
                     self.work_dir / f"hankel-{i}-{N}.json")
            for i, (text, offset, coeffs) in enumerate(self._symbols(seed))
            for N in self.SIZES
        ]
        with _quiet():
            self.p.cli.dispatch(["hankel", "--symbol", "2,1", "--N", "30",
                                 "--report", str(self.work_dir / "warm.json")])

    def ops(self) -> list:
        return self.sweep

    def run(self, op: HankelOp):
        with _quiet():
            return self.p.cli.dispatch([
                "hankel", "--symbol", op.text, f"--symbol-offset={op.offset}",
                "--N", str(op.N), "--report", str(op.report)])

    def check(self, op: HankelOp, result) -> Outcome:
        if result != 0:
            return _failed(f"exit code {result!r}")
        try:
            report = json.loads(op.report.read_text(encoding="utf-8"))
            sigma_f = self._sigmas(op.report.with_suffix(".sigma_f.csv"))
            sigma_inv = self._sigmas(op.report.with_suffix(".sigma_inv.csv"))
        except (OSError, ValueError, KeyError) as exc:
            return _failed(f"unreadable report: {exc}", wrong=True)
        residual = float(report["coupling"]["interior_residual"])
        if not residual <= HANKEL_TOL:
            return _failed(f"interior residual {residual:.3e}", wrong=True)
        positive = [op.offset + j for j, z in enumerate(op.coeffs)
                    if z != 0 and op.offset + j > 0]
        cut = 1e-10 * max(1.0, float(sigma_f[0]))
        rank = int(np.count_nonzero(sigma_f > cut))
        if rank > max(positive, default=0):
            return _failed(f"rank H_f = {rank} exceeds the symbol degree",
                           wrong=True)
        if op.text == "2,1" and not (abs(sigma_f[0] - 1.0) <= 1e-9
                                     and abs(sigma_inv[0] - 1.0 / 3.0) <= 1e-9):
            return _failed("closed forms of f = 2 + z missed", wrong=True)
        return Outcome("ok", residual=residual, tol=HANKEL_TOL)

    @staticmethod
    def _sigmas(path: Path) -> np.ndarray:
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[0] != "index,sigma":
            raise ValueError(f"bad header in {path.name}")
        return np.array([float(line.split(",")[1]) for line in lines[1:]])


@dataclass
class BatchOp:
    jobs: int


class CliBatch(Workload):
    name = "cli-batch"
    INSTANCES = 6
    N, M, NULLITY = 100, 110, 10
    JOBS = 2

    def setup(self, seed: int) -> None:
        self.in_dir = self.work_dir / "in"
        self.out_dir = self.work_dir / "out"
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.in_dir.mkdir(parents=True)
        rng = np.random.default_rng([seed, 110])
        self.inputs = []
        for i, s in enumerate(rng.integers(0, 2**31, size=self.INSTANCES)):
            path = self.in_dir / f"inst{i}.json"
            with _quiet():
                rc = self.p.cli.dispatch([
                    "synth", "--n", str(self.N), "--m", str(self.M),
                    "--nullity", str(self.NULLITY), "--seed", str(s),
                    "--out", str(path)])
            if rc != 0:
                raise RuntimeError(f"synth exited with {rc}")
            self.inputs.append(path)
        self.expected = [_load_matrices(path) for path in self.inputs]
        warm = [self.in_dir / "warm0.json", self.in_dir / "warm1.json"]
        with _quiet():
            for i, path in enumerate(warm):
                self.p.cli.dispatch(["synth", "--n", "4", "--m", "5",
                                     "--nullity", "1", "--seed", str(i),
                                     "--out", str(path)])
            self.p.cli.dispatch(self._argv(warm, self.work_dir / "warm", 2))

    @staticmethod
    def _argv(inputs, out_dir: Path, jobs: int) -> list[str]:
        argv = ["pipeline"]
        for path in inputs:
            argv += ["--in", str(path)]
        return argv + ["--out-dir", str(out_dir), "--jobs", str(jobs)]

    def ops(self) -> list:
        return [BatchOp(self.JOBS)]

    def run(self, op: BatchOp):
        with _quiet():
            return self.p.cli.dispatch(self._argv(self.inputs, self.out_dir, op.jobs))

    def check(self, op: BatchOp, result) -> Outcome:
        if result != 0:
            return _failed(f"exit code {result!r}")
        answered, worst = 0, 0.0
        for path, expected in zip(self.inputs, self.expected):
            stem = self.out_dir / path.stem
            try:
                mats = _load_matrices(Path(f"{stem}.witness.json"))
                report = json.loads(Path(f"{stem}.report.json").read_text(
                    encoding="utf-8"))
            except (OSError, ValueError, KeyError) as exc:
                return _failed(f"unreadable output: {exc}", wrong=True)
            residual = schur_residual(mats["A"], mats["B"], mats["C"], mats["D"],
                                      expected["U"], expected["V"],
                                      mats["U"], mats["V"])
            stated = float(report["max_residual"])
            if not (report["success"] and stated <= TOL and residual <= TOL):
                return _failed(f"{path.name}: witness does not verify "
                               f"(residual {residual:.3e})", wrong=True)
            answered += 1
            worst = max(worst, stated, residual)
        return Outcome("ok", residual=worst, answered=answered)

    def prepare(self, op) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def trace_extra(self, plain: list, traced: list):
        """Output size and wall of the last (traced) batch, and the wall of
        one plain ``--jobs 1`` batch: the single-worker baseline."""
        written = sum(p.stat().st_size for p in self.out_dir.iterdir())
        op = BatchOp(jobs=1)
        self.prepare(op)
        start = time.perf_counter()
        result = self.run(op)
        jobs1 = time.perf_counter() - start
        extra = {"bytes_written": written, "batch_wall_s": traced[-1],
                 "jobs1_wall_s": jobs1, "jobs2_wall_s": statistics.median(plain),
                 "jobs": self.JOBS}
        return extra, [self.check(op, result)]


WORKLOADS = {cls.name: cls for cls in (Pipeline200, PipelineSmall,
                                        HankelSweep, CliBatch)}
