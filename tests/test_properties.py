"""Property tests: barrier and adjoint identities, JSON round-trips."""

import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sospoly as sp
from sospoly import fileio, hsd, wsos
from sospoly.hsd import initial_point
from sospoly.recovery import (
    PIVOT_TOL,
    _compensated_adjoint_sum,
    _ldl_min_pivot,
    recover_gram,
)


def ones_weight(t):
    return np.ones(t.shape[0])


def box_weight(t):
    return (1.0 - t[:, 0]) * (t[:, 0] + 1.0)


# small cones covering one and two variables, weighted and unweighted blocks
CONES = [
    sp.build_cone(sp.cheb2_points(6), [ones_weight], [3]),
    sp.build_cone(sp.cheb2_points(8), [box_weight, ones_weight], [3, 4]),
    sp.build_cone(sp.padua_points(4), [box_weight, ones_weight], [1, 2]),
]

cone_index = st.integers(0, len(CONES) - 1)
finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def vector(size, elements=finite):
    return arrays(np.float64, size, elements=elements)


@st.composite
def interior_points(draw):
    """A cone and a point x > 0 at every interpolation point (interior)."""
    cone = CONES[draw(cone_index)]
    logs = draw(vector(cone.U, st.floats(-3.0, 3.0)))
    return cone, np.exp(logs)


@given(interior_points())
def test_barrier_log_homogeneity_identities(case):
    cone, x = case
    ev = cone.barrier(x)
    g = ev.gradient
    assert abs(x @ g + cone.nu) <= 1e-9 * cone.nu
    Hx = ev.hessian @ x
    assert np.linalg.norm(Hx + g) <= 1e-9 * np.linalg.norm(g)


@st.composite
def screen_cases(draw):
    """A cone, two interior points, a vector psi and a mu >= 0."""
    cone = CONES[draw(cone_index)]
    x = np.exp(draw(vector(cone.U, st.floats(-3.0, 3.0))))
    ref = np.exp(draw(vector(cone.U, st.floats(-3.0, 3.0))))
    psi = draw(vector(cone.U, st.floats(-1.0, 1.0)))
    return cone, x, ref, psi, draw(st.floats(0.0, 1.0))


@given(screen_cases())
def test_screen_bound_below_every_jittered_norm(case):
    # the predictor's screen may reject only what the full norm rejects,
    # with or without the one diagonal shift the Hessian Cholesky may add
    cone, x, ref, psi, mu = case
    full = cone.barrier(x)
    s = psi - mu * full.gradient
    psi = s + mu * full.gradient
    bound = cone.barrier(x).inv_quadform_lower_bound(s, mu, cone.barrier(ref))
    H = full.hessian
    scale = np.mean(np.diag(H))
    for eps in (0.0, wsos.HESS_SHIFT):
        half = np.linalg.solve(np.linalg.cholesky(H + eps * scale * np.eye(cone.U)), psi)
        assert bound <= (1.0 + 1e-9) * float(half @ half)


@given(screen_cases())
def test_screen_bound_tight_at_its_reference(case):
    cone, x, _, psi, mu = case
    full = cone.barrier(x)
    s = psi - mu * full.gradient
    bound = cone.barrier(x).inv_quadform_lower_bound(s, mu, full)
    assert bound >= (1.0 - 1e-5) * full.inv_quadform(s + mu * full.gradient)


@st.composite
def adjoint_cases(draw):
    """A cone, a block index, any x and a symmetric matrix of the block's size."""
    cone = CONES[draw(cone_index)]
    i = draw(st.integers(0, len(cone.blocks) - 1))
    L = cone.dims[i]
    x = draw(vector(cone.U))
    G = draw(vector((L, L)))
    return cone, i, x, 0.5 * (G + G.T)


@given(adjoint_cases())
def test_lambda_adjointness(case):
    cone, i, x, S = case
    lhs = float(np.sum(cone.lambda_op(i, x) * S))
    rhs = float(x @ cone.lambda_adjoint(i, S))
    B = cone.blocks[i]
    scale = np.abs(x) @ np.sum(B * B, axis=1) * np.max(np.abs(S))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + scale)


@st.composite
def recovery_cases(draw):
    """A cone, an interior x = 1 + 0.5 U(-1, 1), any s and a delta in [0.1, 2]."""
    cone = CONES[draw(cone_index)]
    x = 1.0 + 0.5 * draw(vector(cone.U, st.floats(-1.0, 1.0)))
    return cone, x, draw(vector(cone.U)), draw(st.floats(0.1, 2.0))


@given(recovery_cases())
def test_recovered_grams_reproduce_s(case):
    # sum_i Lambda_i^*(S_i) = s holds for any s; positivity is what needs
    # the neighborhood hypothesis
    cone, x, s, delta = case
    grams = recover_gram(cone, x, s, delta).grams
    residual = np.max(np.abs(_compensated_adjoint_sum(cone, grams) - s))
    assert residual <= 1e-8 * (1.0 + np.linalg.norm(s))


def _pivot_block_scan(S):
    """Smallest eigenvalue over the 1x1/2x2 pivot blocks of S's LDL factor D."""
    _, D, _ = scipy.linalg.ldl(S)
    min_pivot, j, L = math.inf, 0, D.shape[0]
    while j < L:
        if j + 1 < L and (D[j, j + 1] != 0.0 or D[j + 1, j] != 0.0):
            min_pivot = min(min_pivot, float(np.linalg.eigvalsh(D[j:j + 2, j:j + 2])[0]))
            j += 2
        else:
            min_pivot = min(min_pivot, float(D[j, j]))
            j += 1
    return min_pivot


@st.composite
def symmetric_matrices(draw):
    """Indefinite, zero-diagonal (2x2 pivots), PSD and PSD shifted by -1e-10."""
    L = draw(st.integers(1, 12))
    G = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((L, L))
    kind = draw(st.sampled_from(["indefinite", "zero_diagonal", "psd", "shifted"]))
    if kind == "indefinite":
        return G + G.T
    if kind == "zero_diagonal":
        S = G + G.T
        np.fill_diagonal(S, 0.0)
        return S
    rank = draw(st.integers(1, L))
    S = G[:, :rank] @ G[:, :rank].T
    return S - 1e-10 * np.eye(L) if kind == "shifted" else S


@given(symmetric_matrices())
def test_ldl_min_pivot_equals_pivot_block_scan(S):
    want = _pivot_block_scan(S)
    assert _ldl_min_pivot(S) == (want >= -PIVOT_TOL, want)


@st.composite
def problems(draw):
    cone = CONES[draw(cone_index)]
    k = draw(st.integers(1, 3))
    A = draw(vector((k, cone.U)))
    A[:, 0] += 1e4 * np.arange(1, k + 1)   # rows independent whatever was drawn
    A[np.arange(k), np.arange(1, k + 1)] += 1e4
    return sp.ConicProblem(A, draw(vector(k)), draw(vector(cone.U)), cone)


@given(problems())
def test_problem_json_round_trip(problem):
    text = json.dumps(fileio.problem_to_dict(problem))
    back = fileio.problem_from_dict(json.loads(text))
    assert np.array_equal(back.A, problem.A)
    assert np.array_equal(back.b, problem.b)
    assert np.array_equal(back.c, problem.c)
    for got, want in zip(back.cone.factors, problem.cone.factors):
        assert len(got.blocks) == len(want.blocks)
        for gb, wb in zip(got.blocks, want.blocks):
            assert np.array_equal(gb, wb)


SMALL_PROBLEM = sp.build_envelope(1, 3, 2, seed=1).problem
START = initial_point(SMALL_PROBLEM)
N, K = SMALL_PROBLEM.shape[1], SMALL_PROBLEM.shape[0]
maybe_non_finite = st.one_of(finite, st.sampled_from([math.nan, math.inf, -math.inf]))


@given(st.sampled_from([hsd.OPTIMAL, hsd.PRIMAL_INFEASIBLE, hsd.NUMERICAL_FAILURE]),
       maybe_non_finite, maybe_non_finite, st.integers(0, 500), st.integers(0, 500),
       st.text(max_size=40), vector(N), vector(K), vector(N))
def test_solution_json_round_trip(tmp_path_factory, status, pobj, gap, iters,
                                  jittered, message, x, y, s):
    result = sp.SolveResult(status=status, primal_objective=pobj, rel_gap=gap,
                            iterations=iters, x=x, y=y, s=s, final=START,
                            message=message, jittered_iterates=jittered)
    path = tmp_path_factory.mktemp("solution") / "sol.json"
    fileio.dump_json(str(path), fileio.solution_to_dict(result))
    with open(path) as fh:  # strict JSON: no NaN or Infinity tokens
        json.load(fh, parse_constant=lambda name: pytest.fail(f"wrote {name}"))
    data = fileio.load_solution(str(path))
    assert (data["status"], data["iterations"], data["jittered_iterates"],
            data["message"]) == (status, iters, jittered, message)
    # a non-finite float is written as null
    expected = [v if math.isfinite(v) else None for v in (pobj, math.nan, gap)]
    assert [data["primal_objective"], data["dual_objective"],
            data["residuals"]["gap"]] == expected
    for key, want in (("x", x), ("y", y), ("s", s)):
        assert np.array_equal(data[key], want)
        assert np.array_equal(data["iterate"][key], getattr(START, key))
    x_it, s_it, mu = fileio.solution_iterate(data, N)
    assert np.array_equal(x_it, START.x) and np.array_equal(s_it, START.s)
    assert mu == START.mu
    for key in ("tau", "kappa", "mu"):
        assert data["iterate"][key] == getattr(START, key)
