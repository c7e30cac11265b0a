"""``perfbench/tracing.py`` installs on the program as it stands.

The benchmark's tracer finds what it wraps by name: every public function of
the ``opcoupling`` modules, ``cli._run_one_pipeline`` and
``cli.ThreadPoolExecutor``, and numpy's ``svd``.  A change that renames or
drops one of those fails only in a traced benchmark run, so this test runs
the tracer on a small pipeline and a small batch, and checks that it counts
what it should and puts every name back afterwards.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from opcoupling.cli import dispatch
from opcoupling.instances import InstanceSpec, random_instance
from opcoupling.reduction import run_pipeline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every name the tracer may rebind, with the object it is bound to."""
    out = {("numpy.linalg", "svd"): np.linalg.svd,
           ("numpy.linalg.norm globals", "svd"):
               inspect.unwrap(np.linalg.norm).__globals__["svd"]}
    for name, module in list(sys.modules.items()):
        if name != "opcoupling" and not name.startswith("opcoupling."):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for attr, desc in vars(value).items():
                    out[(name, key, attr)] = desc
    return out


def test_tracer_counts_a_pipeline_and_a_batch_and_restores_every_name(tmp_path):
    tracer = _load_tracing().Tracer()
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    inputs = []
    for seed in (1, 2):
        path = tmp_path / f"inst{seed}.json"
        assert dispatch(["synth", "--n", "12", "--m", "14", "--nullity", "2",
                         "--seed", str(seed), "--out", str(path)]) == 0
        inputs += ["--in", str(path)]
    before = _bindings()

    with tracer.active():
        run_pipeline(u, v)
        assert tracer.calls["lapack.svd"] == 19
        tracer.reset()
        assert dispatch(["pipeline", *inputs, "--out-dir", str(tmp_path / "out"),
                         "--jobs", "2"]) == 0
        assert tracer.calls["cli._run_one_pipeline"] == 2

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
