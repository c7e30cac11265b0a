"""Invariances of the pipeline's answers (ROADMAP item I).

The decisions of a run, the common nullity, the extension dimensions
``x0``/``y0`` and the side and size of the one-sided extension, depend on
(U, V) only up to what the mathematics fixes.  Each property states why it
should hold; the ones that do not hold yet are strict xfails naming the item
that makes them true.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcoupling.errors import FeasibilityError, PipelineStageError
from opcoupling.instances import InstanceSpec, random_instance, random_unitary
from opcoupling.reduction import run_pipeline
from opcoupling.relations import verify_sc


def decisions(report):
    return (report.stages["synthesize_mc"].extras["nullity"], report.x0_dim, report.y0_dim,
            report.eaoe.extended_side, report.eaoe.ext_dim)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(0, 24), m=st.integers(0, 24),
       log_cond=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_unitary_similarity_keeps_the_decisions(data, n, m, log_cond, seed):
    """Q U Q* and P V P* have the singular values of U and V, and every
    relation here is covariant under independent unitary changes of basis
    of X and of Y, so the decisions stay and the final SC still verifies."""
    k = data.draw(st.integers(0, min(n, m)), label="k")
    u, v = random_instance(InstanceSpec(n, m, k, seed=seed, cond_bound=10.0 ** log_cond))
    rng = np.random.default_rng(seed)
    q, p = random_unitary(n, rng), random_unitary(m, rng)
    report = run_pipeline(u, v, tol=1e-8)
    rotated = run_pipeline(q @ u @ q.conj().T, p @ v @ p.conj().T, tol=1e-8)
    assert decisions(rotated) == decisions(report)
    assert verify_sc(rotated.final_sc, 1e-8).passed


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(0, 24), m=st.integers(0, 24),
       log_cond=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_swap_flips_the_extended_side(data, n, m, log_cond, seed):
    """(V, U) is coupled exactly when (U, V) is, with the roles of X and Y
    exchanged: the nullity and the one-sided extension's size stay, x0 and
    y0 trade places, and the extension moves to the other side when
    n != m, since it always lands on the smaller matrix."""
    k = data.draw(st.integers(0, min(n, m)), label="k")
    u, v = random_instance(InstanceSpec(n, m, k, seed=seed, cond_bound=10.0 ** log_cond))
    report = run_pipeline(u, v, tol=1e-8)
    swapped = run_pipeline(v, u, tol=1e-8)
    nullity, x0, y0, side, ext_dim = decisions(report)
    assert decisions(swapped)[:3] == (nullity, y0, x0)
    assert swapped.eaoe.ext_dim == ext_dim == abs(n - m)
    if n != m:
        assert {swapped.eaoe.extended_side, side} == {"U", "V"}
    assert verify_sc(swapped.final_sc, 1e-8).passed


@pytest.mark.parametrize("u,v", [
    (np.zeros((0, 0)), np.zeros((0, 0))),
    (np.eye(1), np.eye(1)),
    (np.array([[2.0]]), np.array([[-0.5j]])),
    (np.zeros((1, 1)), np.zeros((1, 1))),
    (np.zeros((3, 3)), np.zeros((3, 3))),
], ids=["empty", "one", "powers_of_two", "zero_1x1", "zero_3x3"])
def test_degenerate_pairs_pass_exactly(u, v):
    """Empty pairs, scalars that are powers of two times a fourth root of
    unity and zero matrices have exact SVDs, so every block the chain
    forms is exact and every residual is 0."""
    report = run_pipeline(u, v, tol=1e-8)
    assert report.max_residual == 0.0
    assert verify_sc(report.final_sc, 1e-8).passed


@pytest.mark.parametrize("u,v", [(np.eye(3), np.zeros((3, 3))),
                                 (np.zeros((3, 3)), np.zeros((4, 4)))],
                         ids=["nullity_0_vs_3", "nullity_3_vs_4"])
def test_nullity_mismatch_is_infeasible(u, v):
    """Square matrices admit the extension chain exactly when their
    nullities agree, so a mismatch is refused before any stage runs."""
    with pytest.raises(FeasibilityError, match="no coupling exists"):
        run_pipeline(u, v, tol=1e-8)


@pytest.fixture(scope="module")
def pair():
    """The 12x14, nullity-2, seed-1 pair and its run at 1e-8."""
    u, v = random_instance(InstanceSpec(12, 14, 2, seed=1))
    return u, v, run_pipeline(u, v, tol=1e-8)


@pytest.mark.xfail(strict=True, raises=PipelineStageError,
                   reason="K: without power-of-two equilibration a scaled pair "
                          "fails at synthesize_mc")
@pytest.mark.parametrize("alpha,beta", [(1e-8, 1e-8), (1e8, 1e8), (2.0**-30, 2.0**-30),
                                        (2.0**40, 2.0**-40)])
def test_scaling_keeps_the_decisions(pair, alpha, beta):
    """Every relation is covariant under U -> alpha U and V -> beta V, so a
    pair's scale alone should never change a decision or fail the run."""
    u, v, report = pair
    scaled = run_pipeline(alpha * u, beta * v, tol=1e-8)
    assert decisions(scaled) == decisions(report)
    assert verify_sc(scaled.final_sc, 1e-8).passed


@pytest.mark.xfail(strict=True, raises=FeasibilityError,
                   reason="H: the rank cutoff is the SVD's rounding floor, so "
                          "noise of 1e-15 moves dim Ker U from 2 to 1")
def test_noise_below_the_rank_gap_keeps_the_nullity(pair):
    """Noise far below U's smallest nonzero singular value leaves its
    nullity, so the run should pass with the same decisions."""
    u, v, report = pair
    rng = np.random.default_rng(0)
    noise = 1e-15 * (rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
    noisy = run_pipeline(u + noise, v, tol=1e-8)
    assert decisions(noisy) == decisions(report)
