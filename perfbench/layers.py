"""Per-layer metrics of a traced run, derived from the tracer's aggregates.

Unless a line below says otherwise, a ``*_s`` metric is the *self time* of
the named function (its span durations minus the spans it directly caused,
which include the LAPACK SVD spans), and every value is divided by the
number of traced operations (``/op``).  Each layer metric is listed with the
end-to-end metric and workload it should move; ``perfbench/README.md`` has
the same table in prose.
"""

from __future__ import annotations

from tracing import BATCH_JOB, LAYERS, SVD_SPAN

VERIFIERS = tuple(f"relations.verify_{kind}"
                  for kind in ("sc", "mc", "eae", "eae_special", "eaoe"))
PIPELINE = "reduction.run_pipeline"

# (metric, unit, how it is computed); "self:" and "calls:" name a span.
CATALOGUE = (
    # numkernel -> op_s_p50 on pipeline-200 (and pipeline-small)
    ("numkernel.dense_svd_calls", "count/op", f"calls:{SVD_SPAN}"),
    ("numkernel.dense_svd_s", "s/op", "svd_s"),
    ("numkernel.svd_work", "count/op", "svd_work"),
    ("numkernel.spectral_norm_calls", "count/op", "calls:numkernel.spectral_norm"),
    ("numkernel.inverse_calls", "count/op", "calls:numkernel.inverse"),
    ("numkernel.inverse_s", "s/op", "self:numkernel.inverse"),
    ("numkernel.rel_residual_calls", "count/op", "calls:numkernel.rel_residual"),
    ("numkernel.subspaces_s", "s/op", "self:numkernel.subspaces"),
    ("numkernel.self_s", "s/op", "layer:numkernel"),
    # relations -> op_s_p50 on pipeline-200
    ("relations.verifier_calls", "count/op", "verifier_calls"),
    ("relations.verify_eae_special_calls", "count/op",
     "calls:relations.verify_eae_special"),
    ("relations.verify_s", "s/op", "verify_s"),
    ("relations.verify_share", "1", "verify_share"),
    ("relations.mc_to_eae_special_s", "s/op", "self:relations.mc_to_eae_special"),
    ("relations.sc_from_eaoe_s", "s/op", "self:relations.sc_from_eaoe"),
    ("relations.self_s", "s/op", "layer:relations"),
    # reduction -> op_s_p50 on pipeline-200 and pipeline-small
    ("reduction.fredholm_report_s", "s/op", "self:reduction.fredholm_report"),
    ("reduction.decompose_corners_s", "s/op", "self:reduction.decompose_corners"),
    ("reduction.derive_uv_blocks_s", "s/op", "self:reduction.derive_uv_blocks"),
    ("reduction.normalize_adjoint_s", "s/op", "self:reduction.normalize_adjoint"),
    ("reduction.check_two_sided_s", "s/op", "self:reduction.check_two_sided"),
    ("reduction.build_small_eae_s", "s/op", "self:reduction.build_small_eae"),
    ("reduction.build_eaoe_s", "s/op", "self:reduction.build_eaoe"),
    ("reduction.run_pipeline_self_s", "s/op", f"self:{PIPELINE}"),
    ("reduction.self_s", "s/op", "layer:reduction"),
    # instances -> op_s_p50 on the pipeline workloads; setup_s
    ("instances.synth_mc_s", "s/op", "self:instances.synth_mc"),
    ("instances.random_instance_s", "s", "random_instance_s"),
    ("instances.self_s", "s/op", "layer:instances"),
    # blockops -> op_s_p50 on pipeline-small
    ("blockops.assemble_calls", "count/op", "calls:blockops.Block2x2.assemble"),
    ("blockops.assemble_s", "s/op", "self:blockops.Block2x2.assemble"),
    ("blockops.self_s", "s/op", "layer:blockops"),
    # hankel -> op_s_p50 on hankel-sweep
    ("hankel.mc_residual_hankel_s", "s/op", "self:hankel.mc_residual_hankel"),
    ("hankel.build_sections_s", "s/op", "self:hankel.build_sections"),
    ("hankel.singular_values_s", "s/op", "self:hankel.singular_values"),
    ("hankel.spectral_summability_s", "s/op", "self:hankel.spectral_summability"),
    ("hankel.shift_comparability_s", "s/op", "self:hankel.shift_comparability"),
    ("hankel.invert_symbol_calls", "count/op", "calls:hankel.invert_symbol"),
    ("hankel.evaluate_on_grid_calls", "count/op", "calls:hankel.evaluate_on_grid"),
    ("hankel.self_s", "s/op", "layer:hankel"),
    # serialization -> ops_per_s on cli-batch
    ("serialization.dumps_canonical_s", "s/op", "self:serialization.dumps_canonical"),
    ("serialization.encode_witness_s", "s/op", "self:serialization.encode_witness"),
    ("serialization.decode_instance_s", "s/op", "self:serialization.decode_instance"),
    ("serialization.bytes_written", "B/op", "extra:bytes_written"),
    ("serialization.self_s", "s/op", "layer:serialization"),
    # cli -> ops_per_s on cli-batch
    ("cli.batch_wall_s", "s/op", "extra:batch_wall_s"),
    ("cli.worker_busy_ratio", "1", "worker_busy_ratio"),
    ("cli.queue_wait_s", "s", "queue_wait_s"),
    ("cli.jobs1_wall_s", "s", "extra:jobs1_wall_s"),
    ("cli.parallel_speedup", "1", "parallel_speedup"),
)

# counts that must repeat exactly between two traced runs of one seed
DETERMINISTIC = ("numkernel.dense_svd_calls", "relations.verifier_calls",
                 "hankel.invert_symbol_calls", "serialization.bytes_written")


def snapshot(tracer) -> dict:
    """What the set-up phase contributes: time inside random_instance."""
    return {"random_instance_s": tracer.inclusive["instances.random_instance"]}


def per_layer(tracer, setup: dict, ops: int, extra: dict) -> dict:
    """All catalogue metrics as ``{name: (value, unit)}``."""
    calls, incl, self_time = tracer.calls, tracer.inclusive, tracer.self_time
    verify_s = sum(incl[name] for name in VERIFIERS)
    batch_wall = extra.get("batch_wall_s", 0.0)
    jobs = extra.get("jobs", 0)
    job = f"cli.{BATCH_JOB}"
    instances = calls[job]
    derived = {
        "svd_s": incl[SVD_SPAN] / ops,
        "svd_work": tracer.svd_work / ops,
        "verifier_calls": sum(calls[name] for name in VERIFIERS) / ops,
        "verify_s": verify_s / ops,
        "verify_share": verify_s / incl[PIPELINE] if incl[PIPELINE] else 0.0,
        "random_instance_s": setup["random_instance_s"],
        "worker_busy_ratio": (incl[job] / (jobs * batch_wall)
                              if jobs and batch_wall else 0.0),
        "queue_wait_s": tracer.queue_wait / instances if instances else 0.0,
        "parallel_speedup": (extra["jobs1_wall_s"] / extra["jobs2_wall_s"]
                             if extra.get("jobs2_wall_s") else 0.0),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_time.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += value

    out = {}
    for metric, unit, how in CATALOGUE:
        kind, _, key = how.partition(":")
        if kind == "calls":
            value = calls[key] / ops
        elif kind == "self":
            value = self_time[key] / ops
        elif kind == "layer":
            value = layer_self[key] / ops
        elif kind == "extra":
            value = float(extra.get(key, 0.0))
        else:
            value = derived[kind]
        out[metric] = (value, unit)
    return out
