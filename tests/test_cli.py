import contextlib
import csv
import dataclasses
import gc
import io
import json
import os
import re
import stat
import warnings
import weakref

import numpy as np
import pytest

from opcoupling import __version__, cli
from opcoupling.blockops import Block2x2
from opcoupling.cli import dispatch
from opcoupling.errors import NumericalError
from opcoupling.hankel import SymbolFC
from opcoupling.instances import InstanceSpec, random_instance, random_sc_witness, synth_mc
from opcoupling.reduction import run_pipeline
from opcoupling.relations import (
    EAEWitness,
    EAOEWitness,
    SCWitness,
    mc_to_eae_special,
    sc_to_mc,
)
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
        # every kind, read back from its file text and written again, gives
        # the same bytes: the five witnesses of a pipeline run, an eaoe
        # without inverses, and the five of a 0x0 run
        rep = run_pipeline(*random_instance(InstanceSpec(4, 6, 2, seed=7)))
        empty = run_pipeline(*random_instance(InstanceSpec(0, 0, 0, seed=1)))
        witnesses = [w for r in (rep, empty) for w in
                     (r.final_sc, r.mc, r.small_eae, r.witness, r.eaoe)]
        witnesses.append(dataclasses.replace(rep.eaoe, Einv=None, Finv=None))
        for w in witnesses:
            text = dumps_canonical(encode_witness(w))
            back = decode_witness(json.loads(text))
            assert type(back) is type(w)
            assert dumps_canonical(encode_witness(back)) == text, type(w).__name__

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


class TestBatchOutputNames:
    @pytest.mark.parametrize("same_file", [False, True], ids=["same_stem", "same_file"])
    def test_colliding_stems_are_invalid_input(self, tmp_path, batch_inputs, capsys,
                                               same_file):
        # outputs are named by stem, so both inputs would write one pair of files
        first = batch_inputs[0]
        second = first if same_file else tmp_path / "other" / first.name
        if not same_file:
            second.parent.mkdir()
            second.write_bytes(batch_inputs[1].read_bytes())
        out = tmp_path / "out"
        assert _batch([first, batch_inputs[2], second], out, 2) == 2
        captured = capsys.readouterr()
        assert f"--in {first} and --in {second}" in captured.err
        assert captured.out == "" and not out.exists()

    def test_out_dir_that_cannot_be_created_is_invalid_input(self, tmp_path,
                                                             batch_inputs, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert _batch(batch_inputs[:2], afile / "sub", 2) == 2
        captured = capsys.readouterr()
        assert f"cannot create --out-dir {afile / 'sub'}" in captured.err
        assert "Traceback" not in captured.err
        # no job ran
        assert captured.out == "" and afile.read_text() == ""

    def test_rerun_into_one_out_dir_is_identical(self, tmp_path, batch_inputs):
        outs = []
        for _ in range(2):
            assert _batch(batch_inputs, tmp_path / "out", 2) == 0
            outs.append(_masked_outputs(tmp_path / "out"))
        assert _batch(batch_inputs, tmp_path / "fresh", 2) == 0
        assert outs[0] == outs[1] == _masked_outputs(tmp_path / "fresh")


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


# bytes that json cannot read: each once escaped the CLI as a bare
# UnicodeDecodeError or RecursionError
UNREADABLE = {"not_utf8": b'\xff\xfe{"kind": "instance"}', "deep_nesting": b"[" * 100000}


class TestCliUnreadableBytes:
    def _bad(self, tmp_path, case):
        path = tmp_path / "bad.json"
        path.write_bytes(UNREADABLE[case])
        return path

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    @pytest.mark.parametrize("command", ["pipeline", "verify"])
    def test_single_input_exits_2(self, tmp_path, case, command, capsys):
        bad = self._bad(tmp_path, case)
        args = (["pipeline", "--in", str(bad)] if command == "pipeline"
                else ["verify", "--witness", str(bad), "--kind", "sc"])
        assert dispatch(args) == 2
        err = capsys.readouterr().err
        assert f"cannot read {bad}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_batch_reports_a_fail_line(self, tmp_path, instance_file, case, capsys):
        bad = self._bad(tmp_path, case)
        assert dispatch(["pipeline", "--in", str(instance_file), "--in", str(bad),
                         "--out-dir", str(tmp_path / "out"), "--jobs", "2"]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: FAIL cannot read {bad}: " in err
        assert f"{instance_file}: FAIL" not in err
        assert (tmp_path / "out" / "inst.witness.json").exists()


@pytest.mark.parametrize("kind,drop", [("sc", "A"), ("mc", "UhatInv"), ("eae", "F"),
                                       ("eae_special", "Finv"), ("eaoe", "extended_side")])
def test_verify_names_what_a_witness_lacks(tmp_path, kind, drop, capsys):
    # once "malformed witness file X: 'A'", the text of a KeyError
    obj = encode_witness(_pipeline_witnesses()[kind])
    holder = obj if drop == "extended_side" else obj["matrices"]
    del holder[drop]
    path = tmp_path / "w.json"
    path.write_text(json.dumps(obj))
    assert dispatch(["verify", "--witness", str(path), "--kind", kind]) == 2
    err = capsys.readouterr().err
    assert f"malformed witness file {path}: {kind} witness file lacks the " in err
    assert f"'{drop}'" in err


def test_verify_names_a_malformed_matrix(tmp_path, capsys):
    # once "matrix data length 4 != rows*cols 14", without the matrix
    obj = encode_witness(_pipeline_witnesses()["sc"])
    obj["matrices"]["A"]["rows"] = 7
    path = tmp_path / "w.json"
    path.write_text(json.dumps(obj))
    assert dispatch(["verify", "--witness", str(path), "--kind", "sc"]) == 2
    err = capsys.readouterr().err
    assert f"malformed witness file {path}: sc witness file, matrix 'A': " in err


def test_verify_ignores_entries_outside_the_schema(tmp_path):
    # a malformed entry no kind reads was once decoded, and rejected
    obj = encode_witness(_pipeline_witnesses()["sc"])
    obj["matrices"]["junk"] = 5
    path = tmp_path / "w.json"
    path.write_text(json.dumps(obj))
    assert dispatch(["verify", "--witness", str(path), "--kind", "sc"]) == 0


@pytest.mark.parametrize("name", ["Einv", "Finv"])
def test_eaoe_inverse_of_wrong_shape_is_invalid_input(tmp_path, name, capsys):
    # once a bare ValueError from the product E @ Einv in verify_eaoe
    eaoe = run_pipeline(*random_instance(InstanceSpec(3, 4, 1, seed=2))).eaoe
    assert eaoe.E.shape == (4, 4)
    obj = encode_witness(eaoe)
    obj["matrices"][name] = encode_matrix(np.eye(2))
    path = tmp_path / "eaoe.json"
    path.write_text(json.dumps(obj))
    assert dispatch(["verify", "--witness", str(path), "--kind", "eaoe"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and f"{name} must be 4x4" in err


_EYE2, _EYE3 = np.eye(2), np.eye(3)


# each witness verifies; with the dims entry and E, F replaced as given, its
# extended spaces differ in size, which once ended in a verification error
@pytest.mark.parametrize("w,dim,value,e,f", [
    (EAEWitness(U=_EYE2, V=_EYE3, E=_EYE3, F=_EYE3, x0_dim=1, y0_dim=0),
     "x0_dim", 0, np.ones((2, 3)), np.ones((3, 2))),
    (EAOEWitness(extended_side="U", ext_dim=1, E=_EYE3, F=_EYE3, U=_EYE2, V=_EYE3),
     "ext_dim", 2, np.ones((4, 3)), np.ones((3, 4))),
    (EAOEWitness(extended_side="V", ext_dim=1, E=_EYE3, F=_EYE3, U=_EYE3, V=_EYE2),
     "ext_dim", 2, np.ones((3, 4)), np.ones((4, 3))),
], ids=["eae", "eaoe_u", "eaoe_v"])
def test_unequal_extended_spaces_are_invalid_input(tmp_path, capsys, w, dim, value, e, f):
    obj = encode_witness(w)
    kind = obj["kind"]
    path = tmp_path / "w.json"
    path.write_text(dumps_canonical(obj))
    assert dispatch(["verify", "--witness", str(path), "--kind", kind]) == 0
    obj["dims"][dim] = value
    obj["matrices"].update(E=encode_matrix(e), F=encode_matrix(f))
    path.write_text(dumps_canonical(obj))
    capsys.readouterr()
    assert dispatch(["verify", "--witness", str(path), "--kind", kind]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "extended spaces differ in size" in err


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


class TestWriteText:
    def test_shorter_text_leaves_only_the_new_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"x" * 5000)
        cli._write_text(path, "short \u00e9")
        assert path.read_bytes() == "short \u00e9".encode("utf-8")

    def test_symlink_is_followed_and_kept(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("old contents, longer than the new")
        link.symlink_to(target)
        cli._write_text(link, "new")
        assert link.is_symlink() and target.read_text() == "new"

    def test_mode_is_kept(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        path.chmod(0o640)
        cli._write_text(path, "new")
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_null_device_is_writable(self):
        # a device cannot be truncated, so only regular files are cut
        cli._write_text(os.devnull, "text")

    def test_directory_is_invalid_input(self, tmp_path, capsys):
        # the CSV side-file paths are derived, so no option check sees them
        (tmp_path / "h.sigma_f.csv").mkdir()
        assert dispatch(["hankel", "--symbol", "2,1", "--N", "10",
                         "--report", str(tmp_path / "h.json")]) == 2
        assert f"cannot write {tmp_path / 'h.sigma_f.csv'}" in capsys.readouterr().err


def test_dispatch_keeps_no_stdout_sink_alive():
    sink = io.StringIO()
    ref = weakref.ref(sink)
    with contextlib.redirect_stdout(sink):
        assert dispatch(["hankel", "--symbol", "2,1", "--N", "10"]) == 0
    assert sink.getvalue().startswith("N=10: ")
    del sink
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("argv, head", [
    (["--version"], f"opcoupling, version {__version__}\n"),
    (["--help"], "Usage: opcoupling [OPTIONS] COMMAND [ARGS]...\n"),
    (["hankel", "--help"], "Usage: opcoupling hankel [OPTIONS]\n"),
], ids=["version", "help", "command_help"])
def test_version_and_help_keep_no_stdout_sink_alive(argv, head):
    sink = io.StringIO()
    ref = weakref.ref(sink)
    with contextlib.redirect_stdout(sink):
        assert dispatch(argv) == 0
    assert sink.getvalue().startswith(head)
    del sink
    gc.collect()
    assert ref() is None


def test_messages_keep_the_stdout_error_handler(tmp_path):
    # a non-UTF-8 file name reaches the message as a surrogate, which the
    # surrogateescape handler of a POSIX stdout writes back as the raw byte
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="surrogateescape")
    out = tmp_path / "inst\udcff.json"
    with contextlib.redirect_stdout(stdout):
        assert dispatch(["synth", "--n", "2", "--m", "2", "--out", str(out)]) == 0
    stdout.flush()
    assert stdout.buffer.getvalue().endswith(b"inst\xff.json\n")


def test_svd_failure_in_eae_special_verification_exits_1(tmp_path, monkeypatch, capsys):
    special = mc_to_eae_special(sc_to_mc(random_sc_witness(2, 3, 100, 0)))
    path = tmp_path / "w.json"
    path.write_text(dumps_canonical(encode_witness(special)))

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    # the first SVD is that of the anchored table's first entry, e_times_einv
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

    @pytest.mark.parametrize("sigmas", [
        np.random.default_rng(3).random(600) * 10.0 ** np.arange(-300, 300),
        np.zeros(4), np.array([5e-324, 2.2250738585072014e-308 / 3, 1e-310]),
        np.array([1e300, np.finfo(float).max]), np.array([]),
    ], ids=["600_values", "zeros", "subnormals", "huge", "empty"])
    def test_sigma_csv_is_what_the_csv_module_writes(self, sigmas):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["index", "sigma"])
        writer.writerows([i, repr(float(s))] for i, s in enumerate(sigmas))
        assert cli._sigma_csv(sigmas) == buf.getvalue()

    def test_rerun_with_smaller_n_matches_a_fresh_run(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        for n, tag in [("40", "a"), ("10", "a"), ("10", "b")]:
            assert dispatch(["hankel", "--symbol", "2,1", "--N", n,
                             "--report", str(tmp_path / tag / "r.json")]) == 0
        for name in ("r.json", "r.sigma_f.csv", "r.sigma_inv.csv"):
            texts = [_mask_timestamp((tmp_path / tag / name).read_text()) for tag in "ab"]
            assert texts[0] == texts[1]

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

    # past the range's top end a section would be too large to allocate
    @pytest.mark.parametrize("value", ["0", "-3", str(2**16 + 1), str(10**30)])
    def test_nonpositive_section_size_exits_2(self, tmp_path, capsys, value):
        rep = tmp_path / "h.json"
        assert dispatch(["hankel", "--symbol", "2,1", f"--N={value}",
                         "--report", str(rep)]) == 2
        assert "'--N'" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("option,value", [
        ("--p", "0.5"), ("--p", "0"), ("--p", "nan"), ("--p", "inf"), ("--p", "-inf"),
        ("--kmax", "-3"), ("--kmax", "-1"), ("--grid", "-4"), ("--grid", "-1"),
        ("--grid", str(2**20 + 1)), ("--grid", str(2**45)), ("--grid", str(10**30)),
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
                                              ("--grid", "0"), ("--grid", str(2**20)),
                                              ("--N", str(2**16))])
    def test_boundary_option_accepted(self, tmp_path, option, value):
        rep = tmp_path / "h.json"
        assert dispatch(["hankel", "--symbol", "2,1", "--N", "10", f"{option}={value}",
                         "--report", str(rep)]) == 0
        assert "NaN" not in rep.read_text()


@pytest.mark.parametrize("args,field", [
    (["--n", "-1"], "size n"), (["--m", "-1"], "size m"), (["--nullity", "-1"], "nullity k"),
    (["--cond-bound", "nan"], "cond_bound"), (["--cond-bound", "inf"], "cond_bound"),
    (["--cond-bound", "0.5"], "cond_bound"), (["--seed", "-1"], "seed"),
    # sizes at the cap pass the option check and reach the spec's
    (["--n", "1024", "--m", "1024", "--nullity", "-1"], "nullity k"),
])
def test_synth_invalid_spec_exits_2(tmp_path, capsys, args, field):
    out = tmp_path / "inst.json"
    assert dispatch(["synth", "--n", "2", "--m", "2", *args, "--out", str(out)]) == 2
    assert f"Error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


# the range check rejects a size before random_instance allocates anything
@pytest.mark.parametrize("option,value", [("--n", 2**10 + 1), ("--n", 4097), ("--m", 10**30)])
def test_synth_size_past_the_cap_exits_2(tmp_path, capsys, option, value):
    out = tmp_path / "inst.json"
    assert dispatch(["synth", "--n", "2", "--m", "2", f"{option}={value}",
                     "--out", str(out)]) == 2
    assert f"Invalid value for '{option}'" in capsys.readouterr().err
    assert not out.exists()


class TestFailureReports:
    """A failed pipeline still writes its report: ``success`` false, the
    stages that finished, and the failing stage with its table."""

    @pytest.fixture()
    def instance_12x14(self, tmp_path):
        path = tmp_path / "i.json"
        assert dispatch(["synth", "--n", "12", "--m", "14", "--nullity", "2",
                         "--seed", "1", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("tol, finished, failing, label", [
        ("1e-15", [], "synthesize_mc", "corner_u"),
        ("4e-15", ["synthesize_mc", "mc_to_special", "decompose_corners"], "small_eae",
         "extension_equation"),
    ])
    def test_failed_run_writes_its_report(self, tmp_path, instance_12x14, capsys,
                                          tol, finished, failing, label):
        rep, wit = tmp_path / "r.json", tmp_path / "w.json"
        assert dispatch(["pipeline", "--in", str(instance_12x14), "--tol", tol,
                         "--out", str(wit), "--report", str(rep)]) == 1
        message = capsys.readouterr().err.removeprefix("pipeline failed: ").rstrip("\n")
        report = json.loads(rep.read_text())
        assert not wit.exists()
        assert report["success"] is False and report["tol"] == float(tol)
        assert [s["name"] for s in report["stages"]] == finished
        failed = report["failed_stage"]
        assert failed["name"] == failing and failed["error"] == message
        assert max(failed["residuals"], key=failed["residuals"].get) == label
        assert failed["residuals"][label] > float(tol) and label not in failed["certified"]
        assert report["max_residual"] <= float(tol)
        assert "extension_dims" not in report and "eaoe" not in report

    def test_failed_run_removes_an_earlier_witness(self, tmp_path, instance_12x14):
        rep, wit = tmp_path / "r.json", tmp_path / "w.json"
        argv = ["pipeline", "--in", str(instance_12x14), "--out", str(wit),
                "--report", str(rep)]
        assert dispatch([*argv, "--tol", "1e-8"]) == 0 and wit.is_file()
        assert dispatch([*argv, "--tol", "1e-15"]) == 1
        assert not wit.exists()
        assert json.loads(rep.read_text())["success"] is False

    def test_failed_batch_run_removes_an_earlier_witness(self, tmp_path, instance_12x14):
        other = tmp_path / "j.json"
        assert dispatch(["synth", "--n", "3", "--m", "4", "--nullity", "1",
                         "--seed", "2", "--out", str(other)]) == 0
        out = tmp_path / "out"
        argv = ["pipeline", "--in", str(instance_12x14), "--in", str(other),
                "--out-dir", str(out)]
        assert dispatch([*argv, "--tol", "1e-8"]) == 0
        assert (out / "i.witness.json").is_file()
        assert dispatch([*argv, "--tol", "1e-15"]) == 1
        assert not (out / "i.witness.json").exists()
        assert json.loads((out / "i.report.json").read_text())["success"] is False

    def test_failed_run_leaves_a_fifo_alone(self, tmp_path, instance_12x14):
        wit = tmp_path / "w.fifo"
        os.mkfifo(wit)
        assert dispatch(["pipeline", "--in", str(instance_12x14), "--tol", "1e-15",
                         "--out", str(wit)]) == 1
        assert stat.S_ISFIFO(os.stat(wit).st_mode)

    def test_infeasible_run_names_the_synthesis(self, tmp_path):
        u, _ = random_instance(InstanceSpec(3, 3, 0, seed=1, cond_bound=10))
        _, v = random_instance(InstanceSpec(4, 4, 2, seed=2, cond_bound=10))
        path, rep = tmp_path / "bad_inst.json", tmp_path / "r.json"
        path.write_text(dumps_canonical(encode_instance(u, v)))
        assert dispatch(["pipeline", "--in", str(path), "--report", str(rep)]) == 1
        report = json.loads(rep.read_text())
        assert report["success"] is False and report["stages"] == []
        failed = report["failed_stage"]
        assert failed["name"] == "synthesize_mc" and failed["residuals"] == {}
        assert failed["error"].startswith("no coupling exists: dim Ker U = 0")

    def test_batch_writes_the_failed_file_report(self, tmp_path, instance_12x14, capsys):
        other = tmp_path / "j.json"
        assert dispatch(["synth", "--n", "3", "--m", "4", "--nullity", "1",
                         "--seed", "2", "--out", str(other)]) == 0
        out = tmp_path / "out"
        assert dispatch(["pipeline", "--in", str(instance_12x14), "--in", str(other),
                         "--tol", "4e-15", "--out-dir", str(out)]) == 1
        failed = json.loads((out / "i.report.json").read_text())
        assert failed["success"] is False and failed["failed_stage"]["name"] == "small_eae"
        assert not (out / "i.witness.json").exists()
        assert json.loads((out / "j.report.json").read_text())["success"] is True


def test_overflowing_schur_complement_is_a_verification_error(tmp_path, capsys):
    """An sc witness whose product B D^-1 C overflows ends in an error that
    names the overflow, not in a nan table that blames the witness."""
    big = np.full((2, 2), 1e300)
    sc = SCWitness(M=Block2x2(1e300 * np.eye(2), big, big, np.eye(2)),
                   U=np.eye(2), V=np.eye(2))
    path = tmp_path / "sc.json"
    path.write_text(dumps_canonical(encode_witness(sc)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = dispatch(["verify", "--witness", str(path), "--kind", "sc",
                         "--report", str(tmp_path / "r.json")])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert re.fullmatch(r"verification error: .*overflow.*\n", out.err)
    assert "nan" not in out.err and not (tmp_path / "r.json").exists()


def test_verify_report_lists_its_certified_entries(tmp_path):
    """Above the certificate's crossover a passing report names its bound
    entries under ``certified``; below it the list is empty."""
    for (n, m), certified in (((3, 4), []), ((30, 34), ["uhat_inverse", "uhat_inverse_left",
                                                         "corner_u", "corner_v"])):
        mc, _ = synth_mc(*random_instance(InstanceSpec(n, m, 2, seed=3)))
        wit, rep = tmp_path / f"mc{n}.json", tmp_path / f"r{n}.json"
        wit.write_text(dumps_canonical(encode_witness(mc)))
        assert dispatch(["verify", "--witness", str(wit), "--kind", "mc",
                         "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        assert report["certified"] == certified and report["passed"] is True
        assert all(report["residuals"][label] <= 1e-8 for label in certified)
