"""The canonical JSON writer against ``json.dumps`` and the strict matrix decoder."""

import json

import numpy as np
import pytest

from opcoupling import cli
from opcoupling.errors import ShapeError
from opcoupling.instances import InstanceSpec, random_instance
from opcoupling.reduction import run_pipeline
from opcoupling.relations import (
    verify_eae,
    verify_eae_special,
    verify_eaoe,
    verify_mc,
    verify_sc,
)
from opcoupling.serialization import (
    decode_matrix,
    decode_witness,
    dumps_canonical,
    encode_matrix,
    encode_witness,
    pipeline_report_to_dict,
    verifier_report_to_dict,
)

NAN, INF = float("nan"), float("inf")


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"


@pytest.fixture(scope="module")
def pipeline_report():
    u, v = random_instance(InstanceSpec(6, 8, 2, seed=3))
    return run_pipeline(u, v, tol=1e-8)


def test_witnesses_and_reports_match_oracle(pipeline_report):
    rep = pipeline_report
    artifacts = [(rep.mc, verify_mc), (rep.witness, verify_eae_special),
                 (rep.small_eae, verify_eae), (rep.eaoe, verify_eaoe),
                 (rep.final_sc, verify_sc)]
    objs = [pipeline_report_to_dict(rep)]
    for w, verifier in artifacts:
        objs += [encode_witness(w), verifier_report_to_dict(verifier(w, 1e-8))]
    assert {obj["kind"] for obj in objs[1::2]} == {"mc", "eae_special", "eae", "eaoe", "sc"}
    for obj in objs:
        assert dumps_canonical(obj) == oracle(obj)


def test_hankel_payload_matches_oracle(monkeypatch, tmp_path):
    payloads = []
    monkeypatch.setattr(cli, "emit_report", lambda payload, path: payloads.append(payload))
    assert cli.dispatch(["hankel", "--symbol", "2,1j,-0.25", "--N", "20",
                         "--report", str(tmp_path / "h.json")]) == 0
    (payload,) = payloads
    assert payload["symbol"] == {"offset": 0,
                                 "coeffs": [[2.0, 0.0], [0.0, 1.0], [-0.25, 0.0]]}
    assert dumps_canonical(payload) == oracle(payload)


@pytest.mark.parametrize("obj", [
    encode_matrix(np.zeros((0, 3))),
    encode_matrix(np.zeros((3, 0))),
    encode_matrix(np.zeros((0, 0))),
    {"data": [[-0.0, 5e-324], [1.7976931348623157e308, -2.5e-310]]},
    [[NAN, 1.0], [2.0, INF]],
    [[1.0, -INF]],
    [NAN, INF, -INF, 1.0],
    {"nan": NAN, "inf": INF, "-inf": -INF},
    NAN,
    -0.0,
    5e-324,
    {"x": np.float64(1.5), "y": [np.float64(-0.0), 2.0], "z": [[np.float64(3.0), 4.0]]},
    {"s": "héllo ☃ \U0001f600", "q": 'say "hi" \\ back\\slash\n\ttab'},
    {2: "two", 10: "ten", -1: "minus"},
    {1.5: "a", -0.0: "b", 1e300: "c"},
    {True: 1, False: 0},
    {None: [None]},
    {},
    [],
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    [[], []],
    (1, (2.0, 3.0), [4, (5.0,)]),
    [[1.0, 2.0], (3.0, 4.0)],
    [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
    [[1.0], [2.0]],
    [[1.0, 2.0], [3.0]],
    [[1.0, 2], [3.0, 4.0]],
    [[True, 1.0]],
    [[[1.0, 2.0]], [[3.0, 4.0]]],
    [True, False, None, 0, -7, 2 ** 70],
    "text",
    None,
])
def test_edge_values_match_oracle(obj):
    assert dumps_canonical(obj) == oracle(obj)


def test_unencodable_values_raise_like_json():
    for obj in ({"a": np.int64(1)}, {(1, 2): "tuple key"}, [object()]):
        with pytest.raises(TypeError):
            oracle(obj)
        with pytest.raises(TypeError):
            dumps_canonical(obj)


@pytest.mark.parametrize("value", [-0.0, 5e-324, 2.2e-310, -1.7976931348623157e308])
def test_matrix_text_roundtrip_bit_exact(value):
    a = np.array([[complex(value, -value), complex(-value, 1.0)],
                  [complex(0.0, value), complex(value, 0.0)]])
    back = decode_matrix(json.loads(dumps_canonical(encode_matrix(a))))
    assert back.shape == a.shape
    assert back.tobytes() == a.tobytes()


@pytest.mark.parametrize("obj", [
    {"rows": 1, "cols": 1, "data": [[1.0, 0.0, 2.0]]},
    {"rows": 1, "cols": 1, "data": [["1.0", 0.0]]},
    {"rows": 1, "cols": 1, "data": [1.0]},
    {"rows": -1, "cols": -1, "data": [[1.0, 0.0]]},
    {"cols": 1, "data": [[1.0, 0.0]]},
    {"rows": 1, "cols": 1, "data": [[NAN, 0.0]]},
    {"rows": 1, "cols": 1, "data": [[True, 0.0]]},
    {"rows": 1.0, "cols": 1, "data": [[1.0, 0.0]]},
    {"rows": 1, "cols": 1, "data": [[10 ** 400, 0.0]]},
    {"rows": 1, "cols": 2, "data": [[1.0, 0.0]]},
    [[1.0, 0.0]],
])
def test_decode_matrix_rejects_malformed(obj):
    with pytest.raises(ShapeError):
        decode_matrix(obj)


@pytest.mark.parametrize("kind", ["sc", "mc", "eae", "eae_special", "eaoe"])
@pytest.mark.parametrize("matrices", [[], "U", None, ...],
                         ids=["list", "string", "null", "missing"])
def test_decode_witness_rejects_non_object_matrices(kind, matrices):
    obj = {"kind": kind}
    if matrices is not ...:
        obj["matrices"] = matrices
    with pytest.raises(ShapeError, match="matrices"):
        decode_witness(obj)


def test_decode_matrix_accepts_integers():
    a = decode_matrix({"rows": 1, "cols": 2, "data": [[1, -2], [0, 3.5]]})
    assert a.dtype == np.complex128
    assert np.array_equal(a, [[1 - 2j, 3.5j]])


def _encoded_witnesses(rep):
    """The five witnesses of a pipeline run, encoded, by kind."""
    objs = [encode_witness(w) for w in (rep.mc, rep.witness, rep.small_eae, rep.eaoe,
                                        rep.final_sc)]
    return {obj["kind"]: obj for obj in objs}


# kind -> the matrices its decoder needs
NEEDED_MATRICES = {
    "sc": ("A", "B", "C", "D", "U", "V"),
    "mc": ("Uhat", "UhatInv", "U", "V"),
    "eae_special": ("U", "V", "E", "F", "Einv", "Finv"),
    "eae": ("U", "V", "E", "F"),
    "eaoe": ("E", "F", "U", "V"),
}


@pytest.mark.parametrize("kind,name", [(kind, name) for kind, names in NEEDED_MATRICES.items()
                                       for name in names])
def test_decode_witness_names_a_missing_matrix(pipeline_report, kind, name):
    # once a bare KeyError whose text was only the matrix name
    obj = _encoded_witnesses(pipeline_report)[kind]
    del obj["matrices"][name]
    with pytest.raises(ShapeError, match=f"^{kind} witness file lacks the matrix '{name}'$"):
        decode_witness(obj)


@pytest.mark.parametrize("kind,name", [(kind, name) for kind, names in NEEDED_MATRICES.items()
                                       for name in names])
def test_decode_witness_names_a_malformed_matrix(pipeline_report, kind, name):
    obj = _encoded_witnesses(pipeline_report)[kind]
    obj["matrices"][name]["rows"] += 1
    with pytest.raises(ShapeError, match=f"^{kind} witness file, matrix '{name}': "
                                         "matrix data length "):
        decode_witness(obj)


def test_decode_witness_names_a_missing_extended_side(pipeline_report):
    obj = _encoded_witnesses(pipeline_report)["eaoe"]
    del obj["extended_side"]
    with pytest.raises(ShapeError, match="eaoe witness file lacks the entry 'extended_side'"):
        decode_witness(obj)


@pytest.mark.parametrize("kind", [None, "instance", ["sc"], {"kind": "sc"}])
def test_decode_witness_rejects_an_unknown_kind(kind):
    with pytest.raises(ShapeError, match="unknown witness kind"):
        decode_witness({"kind": kind, "matrices": {}})


def test_decode_witness_accepts_eaoe_without_inverses(pipeline_report):
    obj = _encoded_witnesses(pipeline_report)["eaoe"]
    obj["matrices"].pop("Einv", None)
    obj["matrices"].pop("Finv", None)
    w = decode_witness(obj)
    assert w.Einv is None and w.Finv is None
