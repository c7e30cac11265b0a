import csv
import json
import re
import warnings

import numpy as np
import pytest

from opcoupling import cli
from opcoupling.cli import dispatch
from opcoupling.errors import NumericalError
from opcoupling.hankel import SymbolFC
from opcoupling.instances import InstanceSpec, random_instance, random_sc_witness
from opcoupling.reduction import run_pipeline
from opcoupling.relations import EAESpecialWitness, EAOEWitness, mc_to_eae_special, sc_to_mc
from opcoupling.serialization import (
    decode_matrix,
    decode_witness,
    dumps_canonical,
    encode_instance,
    encode_matrix,
    encode_symbol,
    encode_witness,
)


class TestMatrixCodec:
    @pytest.mark.parametrize("shape", [(3, 2), (1, 1), (0, 4), (5, 0)])
    def test_roundtrip_bit_exact(self, shape):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        back = decode_matrix(encode_matrix(a))
        assert back.shape == a.shape
        assert np.array_equal(back, a)  # bit-for-bit

    def test_symbol_roundtrip(self):
        f = SymbolFC(-3, np.array([0.1, 0.2 + 0.7j, -1.0 / 3.0]))
        g = json.loads(dumps_canonical(encode_symbol(f)))
        assert g["offset"] == f.offset
        assert np.array_equal([complex(re, im) for re, im in g["coeffs"]], f.coeffs)

    def test_json_roundtrip_preserves_doubles(self):
        a = np.array([[1.0 / 3.0 + (2.0 / 7.0) * 1j]])
        text = json.dumps(encode_matrix(a))
        assert np.array_equal(decode_matrix(json.loads(text)), a)


class TestWitnessCodec:
    def test_all_kinds_roundtrip(self):
        rng = np.random.default_rng(3)
        sc = random_sc_witness(2, 3, 100, rng)
        mc = sc_to_mc(sc)
        special = mc_to_eae_special(mc)
        eaoe = EAOEWitness(extended_side="V", ext_dim=1, E=np.eye(2), F=np.eye(2),
                           U=np.eye(2), V=[[1.0]])
        for w in (sc, mc, special, eaoe):
            enc = encode_witness(w)
            back = decode_witness(json.loads(json.dumps(enc)))
            assert type(back) is type(w)
            assert np.array_equal(back.U, w.U)
            assert np.array_equal(back.V, w.V)

    def test_sc_blocks_roundtrip(self):
        sc = random_sc_witness(2, 2, 10, np.random.default_rng(0))
        back = decode_witness(encode_witness(sc))
        assert np.array_equal(back.M.assemble(), sc.M.assemble())


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    code = dispatch(["synth", "--n", "4", "--m", "6", "--nullity", "2",
                     "--seed", "7", "--out", str(path)])
    assert code == 0
    return path


class TestCliPipeline:
    def test_synth_writes_instance(self, instance_file):
        obj = json.loads(instance_file.read_text())
        assert obj["kind"] == "instance"
        u = decode_matrix(obj["matrices"]["U"])
        assert u.shape == (4, 4)

    def test_pipeline_and_verify(self, tmp_path, instance_file):
        wit = tmp_path / "wit.json"
        rep = tmp_path / "rep.json"
        assert dispatch(["pipeline", "--in", str(instance_file), "--tol", "1e-8",
                         "--out", str(wit), "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        assert report["success"] is True
        assert report["extension_dims"] == {"x0_dim": 2, "y0_dim": 0}
        assert [s["name"] for s in report["stages"]][0] == "synthesize_mc"
        # every witness written by pipeline re-verifies
        assert dispatch(["verify", "--witness", str(wit), "--kind", "sc"]) == 0

    def test_verify_rejects_perturbed_witness(self, tmp_path, instance_file):
        wit = tmp_path / "wit.json"
        assert dispatch(["pipeline", "--in", str(instance_file),
                         "--out", str(wit)]) == 0
        obj = json.loads(wit.read_text())
        obj["matrices"]["U"]["data"][0][0] += 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert dispatch(["verify", "--witness", str(bad), "--kind", "sc"]) == 1

    def test_verify_kind_mismatch_is_invalid_input(self, tmp_path, instance_file):
        wit = tmp_path / "wit.json"
        dispatch(["pipeline", "--in", str(instance_file), "--out", str(wit)])
        assert dispatch(["verify", "--witness", str(wit), "--kind", "mc"]) == 2

    def test_unknown_flag_exits_2(self):
        assert dispatch(["pipeline", "--bogus"]) == 2
        assert dispatch(["nonsense"]) == 2

    def test_missing_input_exits_2(self, tmp_path):
        assert dispatch(["pipeline", "--in", str(tmp_path / "nope.json")]) == 2

    def test_infeasible_instance_exits_1(self, tmp_path):
        u, _ = random_instance(InstanceSpec(3, 3, 0, seed=1, cond_bound=10))
        _, v = random_instance(InstanceSpec(4, 4, 2, seed=2, cond_bound=10))
        from opcoupling.serialization import dumps_canonical, encode_instance
        path = tmp_path / "bad_inst.json"
        path.write_text(dumps_canonical(encode_instance(u, v)))
        assert dispatch(["pipeline", "--in", str(path)]) == 1

    def test_numerical_error_exits_1(self, instance_file, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise NumericalError("SVD of shape (4, 4) failed: no convergence")

        monkeypatch.setattr("opcoupling.instances.svd", failing)
        assert dispatch(["pipeline", "--in", str(instance_file)]) == 1
        assert ("pipeline failed: stage 'synthesize_mc': SVD of shape (4, 4) failed: "
                "no convergence" in capsys.readouterr().err)

    def test_batch_mode_with_jobs(self, tmp_path):
        paths = []
        for i, (n, m, k) in enumerate([(3, 3, 1), (2, 4, 0), (5, 4, 2)]):
            p = tmp_path / f"inst{i}.json"
            assert dispatch(["synth", "--n", str(n), "--m", str(m),
                             "--nullity", str(k), "--seed", str(20 + i),
                             "--out", str(p)]) == 0
            paths.append(p)
        args = ["pipeline", "--out-dir", str(tmp_path / "batch"), "--jobs", "2"]
        for p in paths:
            args += ["--in", str(p)]
        assert dispatch(args) == 0
        for i in range(3):
            wit = tmp_path / "batch" / f"inst{i}.witness.json"
            assert dispatch(["verify", "--witness", str(wit), "--kind", "sc"]) == 0


def _mask_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


class _FakeBlas:
    """Thread-count setter and getter that record every set."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def set(self, threads):
        self.calls.append(threads)
        self.threads = threads

    def get(self):
        return self.threads


@pytest.fixture
def fake_blas(monkeypatch):
    """A fake OpenBLAS with 8 threads in place of the real one."""
    blas = _FakeBlas(8)
    monkeypatch.setattr(cli, "_openblas_threads", lambda: (blas.set, blas.get))
    return blas


class TestSharedBlasThreads:
    @pytest.mark.parametrize("before, workers, during",
                             [(8, 2, 4), (8, 3, 2), (2, 2, 1), (1, 2, 1), (2, 8, 1)])
    def test_splits_and_restores(self, fake_blas, before, workers, during):
        fake_blas.threads = before
        with cli._shared_blas_threads(workers):
            assert fake_blas.threads == during
        assert fake_blas.threads == before
        assert fake_blas.calls == [during, before]

    def test_restores_after_exception(self, fake_blas):
        with pytest.raises(RuntimeError):
            with cli._shared_blas_threads(2):
                raise RuntimeError("worker failed")
        assert fake_blas.calls == [4, 8] and fake_blas.threads == 8

    def test_one_worker_never_sets(self, fake_blas):
        with cli._shared_blas_threads(1):
            pass
        assert fake_blas.calls == []

    def test_without_openblas_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        with cli._shared_blas_threads(2):
            pass


needs_openblas = pytest.mark.skipif(
    cli._openblas_threads() is None,
    reason="numpy's BLAS is not an OpenBLAS with thread-count controls")


@pytest.fixture(scope="module")
def batch_inputs(tmp_path_factory):
    """Three instance files of different sizes."""
    root = tmp_path_factory.mktemp("batch_in")
    paths = []
    for i, (n, m, k) in enumerate([(4, 6, 2), (12, 14, 2), (20, 22, 3)]):
        path = root / f"inst{i}.json"
        assert dispatch(["synth", "--n", str(n), "--m", str(m), "--nullity", str(k),
                         "--seed", str(30 + i), "--out", str(path)]) == 0
        paths.append(path)
    return paths


def _batch(paths, out_dir, jobs):
    args = ["pipeline", "--out-dir", str(out_dir), "--jobs", str(jobs)]
    for path in paths:
        args += ["--in", str(path)]
    return dispatch(args)


def _masked_outputs(out_dir):
    return {p.name: _mask_timestamp(p.read_text()) for p in sorted(out_dir.iterdir())}


class TestBatchBlasThreads:
    @needs_openblas
    @pytest.mark.parametrize("with_fail", [False, True], ids=["ok", "fail"])
    def test_thread_count_restored_after_batch(self, tmp_path, batch_inputs,
                                               monkeypatch, with_fail):
        _set, get = cli._openblas_threads()
        before = get()
        seen = []
        real = cli._run_one_pipeline

        def recording(*args):
            seen.append(get())
            return real(*args)

        monkeypatch.setattr(cli, "_run_one_pipeline", recording)
        paths = list(batch_inputs[:2])
        if with_fail:
            bad = tmp_path / "bad.json"
            bad.write_text("{}")
            paths.append(bad)
        assert _batch(paths, tmp_path / "out", 2) == (1 if with_fail else 0)
        assert seen == [max(1, before // 2)] * len(paths)
        assert get() == before

    def test_jobs2_batches_are_reproducible(self, tmp_path, batch_inputs):
        outs = []
        for tag in ("a", "b"):
            assert _batch(batch_inputs, tmp_path / tag, 2) == 0
            outs.append(_masked_outputs(tmp_path / tag))
        assert outs[0] == outs[1] and len(outs[0]) == 2 * len(batch_inputs)
        for path in batch_inputs:
            wit = tmp_path / "a" / f"{path.stem}.witness.json"
            assert dispatch(["verify", "--witness", str(wit), "--kind", "sc"]) == 0

    def test_jobs1_batch_matches_single_runs(self, tmp_path, batch_inputs):
        assert _batch(batch_inputs, tmp_path / "batch", 1) == 0
        single = tmp_path / "single"
        single.mkdir()
        for path in batch_inputs:
            assert dispatch([
                "pipeline", "--in", str(path),
                "--out", str(single / f"{path.stem}.witness.json"),
                "--report", str(single / f"{path.stem}.report.json")]) == 0
        assert _masked_outputs(tmp_path / "batch") == _masked_outputs(single)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_invalid_input(self, tmp_path, batch_inputs, capsys, jobs):
        out = tmp_path / "out"
        assert _batch(batch_inputs[:2], out, jobs) == 2
        assert "'--jobs'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs, calls", [(8, [4, 8]), (2, [4, 8]), (1, [])])
    def test_workers_are_capped_by_inputs(self, tmp_path, batch_inputs, fake_blas,
                                          jobs, calls):
        assert _batch(batch_inputs[:2], tmp_path / "out", jobs) == 0
        assert fake_blas.calls == calls
        for path in batch_inputs[:2]:
            wit = tmp_path / "out" / f"{path.stem}.witness.json"
            assert dispatch(["verify", "--witness", str(wit), "--kind", "sc"]) == 0


def _truncate_to_negative_size(m):
    m.update(rows=-1, cols=-1, data=m["data"][:1])


# Each edit breaks an encoded matrix in one way; all of them once escaped
# the CLI as a bare ValueError, TypeError or KeyError.
MALFORMED_MATRIX = {
    "triple": lambda m: m["data"][0].append(0.5),
    "string_entry": lambda m: m["data"][0].__setitem__(0, "1.0"),
    "bare_float": lambda m: m["data"].__setitem__(0, 1.0),
    "negative_size": _truncate_to_negative_size,
    "missing_rows": lambda m: m.pop("rows"),
    "nan_entry": lambda m: m["data"][0].__setitem__(0, float("nan")),
}


class TestCliMalformedMatrix:
    def _broken_copy(self, src, dst, case):
        obj = json.loads(src.read_text())
        MALFORMED_MATRIX[case](obj["matrices"]["U"])
        dst.write_text(json.dumps(obj))
        return dst

    @pytest.mark.parametrize("case", sorted(MALFORMED_MATRIX))
    def test_pipeline_exits_cleanly(self, tmp_path, instance_file, case, capsys):
        bad = self._broken_copy(instance_file, tmp_path / "bad.json", case)
        assert dispatch(["pipeline", "--in", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_MATRIX))
    def test_verify_exits_cleanly(self, tmp_path, instance_file, case):
        wit = tmp_path / "wit.json"
        assert dispatch(["pipeline", "--in", str(instance_file), "--out", str(wit)]) == 0
        bad = self._broken_copy(wit, tmp_path / "bad.json", case)
        assert dispatch(["verify", "--witness", str(bad), "--kind", "sc"]) in (1, 2)

    def test_batch_reports_bad_file_as_fail(self, tmp_path, instance_file, capsys):
        bad = self._broken_copy(instance_file, tmp_path / "bad.json", "string_entry")
        assert dispatch(["pipeline", "--in", str(instance_file), "--in", str(bad),
                         "--out-dir", str(tmp_path / "out"), "--jobs", "2"]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: FAIL" in err
        assert f"{instance_file}: FAIL" not in err
        assert (tmp_path / "out" / "inst.witness.json").exists()


def _pipeline_witnesses():
    """One witness of each kind, by kind, from a 4x6 pipeline run."""
    rep = run_pipeline(*random_instance(InstanceSpec(4, 6, 2, seed=7)))
    return {"sc": rep.final_sc, "mc": rep.mc, "eae": rep.small_eae,
            "eae_special": rep.witness, "eaoe": rep.eaoe}


# kind -> the dims entries its decoder reads; sc and eae_special take their
# sizes from the matrices
DIMS_READ = {"sc": (), "mc": ("n", "m"), "eae": ("x0_dim", "y0_dim"),
             "eae_special": (), "eaoe": ("ext_dim",)}
BAD_DIMS = {"string": "four", "null": None, "negative": -1, "bool": True,
            "float": 2.0, "missing": ...}


class TestCliMalformedDims:
    @pytest.fixture(scope="class")
    def witnesses(self):
        return _pipeline_witnesses()

    def _write(self, path, w, case):
        obj = encode_witness(w)
        for key in DIMS_READ[obj["kind"]] or list(obj["dims"]):
            if BAD_DIMS[case] is ...:
                del obj["dims"][key]
            else:
                obj["dims"][key] = BAD_DIMS[case]
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize("case", sorted(BAD_DIMS))
    @pytest.mark.parametrize("kind", sorted(DIMS_READ))
    def test_verify_exits_cleanly(self, tmp_path, witnesses, kind, case, capsys):
        bad = self._write(tmp_path / "bad.json", witnesses[kind], case)
        code = dispatch(["verify", "--witness", str(bad), "--kind", kind])
        if DIMS_READ[kind]:
            assert code == 2
            assert str(bad) in capsys.readouterr().err
        else:
            assert code == 0

    @pytest.mark.parametrize("kind", sorted(DIMS_READ))
    def test_intact_witness_verifies(self, tmp_path, witnesses, kind):
        path = tmp_path / "w.json"
        path.write_text(dumps_canonical(encode_witness(witnesses[kind])))
        assert dispatch(["verify", "--witness", str(path), "--kind", kind]) == 0


class TestCliMalformedMatrices:
    @pytest.fixture(scope="class")
    def witnesses(self):
        return _pipeline_witnesses()

    @pytest.mark.parametrize("bad", [[], "U", None], ids=["list", "string", "null"])
    @pytest.mark.parametrize("kind", sorted(DIMS_READ))
    def test_verify_exits_cleanly(self, tmp_path, witnesses, kind, bad, capsys):
        obj = encode_witness(witnesses[kind])
        obj["matrices"] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert dispatch(["verify", "--witness", str(path), "--kind", kind]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "matrices" in err


@pytest.fixture(scope="module")
def tol_commands(tmp_path_factory):
    """The argument vectors of the three commands that take --tol."""
    tmp = tmp_path_factory.mktemp("tol")
    inst, wit = tmp / "inst.json", tmp / "wit.json"
    u, v = random_instance(InstanceSpec(3, 3, 1, seed=1))
    inst.write_text(dumps_canonical(encode_instance(u, v)))
    wit.write_text(dumps_canonical(encode_witness(random_sc_witness(2, 3, 100, 0))))
    return {"pipeline": ["pipeline", "--in", str(inst)],
            "verify": ["verify", "--witness", str(wit), "--kind", "sc"],
            "hankel": ["hankel", "--symbol", "2,1", "--N", "10"]}


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["pipeline", "verify", "hankel"])
def test_meaningless_tol_is_invalid_input(tol_commands, command, value, capsys):
    assert dispatch([*tol_commands[command], f"--tol={value}"]) == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("command,option", [
    ("synth", "--out"), ("pipeline", "--out"), ("pipeline", "--report"),
    ("verify", "--report"), ("hankel", "--report"),
])
def test_unwritable_output_is_invalid_input(tol_commands, tmp_path, capsys, command,
                                            option):
    args = tol_commands.get(command, ["synth", "--n", "2", "--m", "2"])
    missing = tmp_path / "missing"
    assert dispatch([*args, option, str(missing / "out.json")]) == 2
    assert f"cannot write {missing}" in capsys.readouterr().err
    assert not missing.exists()


def test_svd_failure_in_eae_special_verification_exits_1(tmp_path, monkeypatch, capsys):
    special = mc_to_eae_special(sc_to_mc(random_sc_witness(2, 3, 100, 0)))
    path = tmp_path / "w.json"
    path.write_text(dumps_canonical(encode_witness(special)))

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    # an empty anchored table, so the first SVD is the sigma_min one of E
    monkeypatch.setattr(EAESpecialWitness, "residual_table", {})
    monkeypatch.setattr(np.linalg, "svd", failing)
    assert dispatch(["verify", "--witness", str(path), "--kind", "eae_special"]) == 1
    assert ("verification error: SVD of shape (5, 5) failed: SVD did not converge"
            in capsys.readouterr().err)


class TestCliDeterminism:
    def test_reports_byte_identical_modulo_timestamp(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            inst = tmp_path / f"i_{tag}.json"
            rep = tmp_path / f"r_{tag}.json"
            assert dispatch(["synth", "--n", "5", "--m", "4", "--nullity", "1",
                             "--seed", "42", "--out", str(inst)]) == 0
            assert dispatch(["pipeline", "--in", str(inst),
                             "--report", str(rep)]) == 0
            outs.append(_mask_timestamp(rep.read_text()))
        assert outs[0] == outs[1]

    def test_instances_byte_identical(self, tmp_path):
        texts = []
        for tag in ("a", "b"):
            path = tmp_path / f"inst_{tag}.json"
            dispatch(["synth", "--n", "3", "--m", "3", "--nullity", "0",
                      "--seed", "5", "--out", str(path)])
            texts.append(path.read_text())
        assert texts[0] == texts[1]


class TestCliHankel:
    def test_report_and_csv(self, tmp_path):
        rep = tmp_path / "h.json"
        assert dispatch(["hankel", "--symbol", "2,1", "--N", "30",
                         "--p", "2", "--kmax", "4", "--report", str(rep)]) == 0
        obj = json.loads(rep.read_text())
        assert obj["coupling"]["interior_residual"] <= 1e-6
        assert obj["shift"]["verdict_k"] == 0
        assert obj["shift"]["verdict_c"] == pytest.approx(1.0 / 3.0, abs=1e-6)

        with open(tmp_path / "h.sigma_f.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "sigma"]
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)
        with open(tmp_path / "h.sigma_inv.csv") as fh:
            rows_inv = list(csv.reader(fh))
        assert float(rows_inv[1][1]) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_vanishing_symbol_exits_1(self):
        assert dispatch(["hankel", "--symbol", "1,-1", "--N", "10"]) == 1

    def test_bad_symbol_exits_2(self):
        assert dispatch(["hankel", "--symbol", "abc", "--N", "5"]) == 2

    @pytest.mark.parametrize("text", ["nan", "2,inf", "1,-inf"])
    def test_non_finite_symbol_exits_2(self, capsys, text):
        assert dispatch(["hankel", "--symbol", text, "--N", "5"]) == 2
        assert "--symbol: symbol coefficients must be finite" in capsys.readouterr().err

    def test_overflowing_symbol_exits_2(self, capsys):
        assert dispatch(["hankel", "--symbol", "1e308,1e308", "--N", "5"]) == 2
        assert "overflow" in capsys.readouterr().err

    def test_overflowing_power_sum_exits_2_without_files(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(["hankel", "--symbol", "1e200,1e199", "--N", "10",
                             "--report", str(tmp_path / "r.json")]) == 2
        assert "overflows; rescale the symbol" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_section_size_exits_2(self, tmp_path, capsys, value):
        rep = tmp_path / "h.json"
        assert dispatch(["hankel", "--symbol", "2,1", f"--N={value}",
                         "--report", str(rep)]) == 2
        assert "'--N'" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("option,value", [
        ("--p", "0.5"), ("--p", "0"), ("--p", "nan"), ("--p", "inf"), ("--p", "-inf"),
        ("--kmax", "-3"), ("--kmax", "-1"), ("--grid", "-4"), ("--grid", "-1"),
        ("--symbol-offset", "100000000000000000000"),
        ("--symbol-offset", "-100000000000000000000"),
    ])
    def test_invalid_option_exits_2(self, tmp_path, capsys, option, value):
        rep = tmp_path / "h.json"
        assert dispatch(["hankel", "--symbol", "2,1", "--N", "10", f"{option}={value}",
                         "--report", str(rep)]) == 2
        assert f"'{option}'" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("offset", [2**62, -2**62])
    def test_extreme_symbol_offset_ends_in_a_usage_error(self, capsys, offset):
        # the range's ends pass the option check and overflow no index sum
        assert dispatch(["hankel", "--symbol", "2,1", f"--symbol-offset={offset}",
                         "--N", "50"]) == 2
        assert "no interior rows/columns" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value", [("--p", "1"), ("--kmax", "0"),
                                              ("--grid", "0")])
    def test_boundary_option_accepted(self, tmp_path, option, value):
        rep = tmp_path / "h.json"
        assert dispatch(["hankel", "--symbol", "2,1", "--N", "10", f"{option}={value}",
                         "--report", str(rep)]) == 0
        assert "NaN" not in rep.read_text()


@pytest.mark.parametrize("args,field", [
    (["--n", "-1"], "size n"), (["--m", "-1"], "size m"), (["--nullity", "-1"], "nullity k"),
    (["--cond-bound", "nan"], "cond_bound"), (["--cond-bound", "inf"], "cond_bound"),
    (["--cond-bound", "0.5"], "cond_bound"), (["--seed", "-1"], "seed"),
])
def test_synth_invalid_spec_exits_2(tmp_path, capsys, args, field):
    out = tmp_path / "inst.json"
    assert dispatch(["synth", "--n", "2", "--m", "2", *args, "--out", str(out)]) == 2
    assert f"Error: {field} must be" in capsys.readouterr().err
    assert not out.exists()
