"""Property tests: barrier and adjoint identities, JSON round-trips."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sospoly as sp
from sospoly import fileio, hsd
from sospoly.hsd import initial_point
from sospoly.recovery import recover_gram, verify_certificate


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
def third_order_cases(draw):
    """A cone, an interior point x and a direction d = x * u, |u| <= 1."""
    cone, x = draw(interior_points())
    return cone, x, x * draw(vector(cone.U, st.floats(-1.0, 1.0)))


def _hess_times_d_slope(barrier, x, d, h=1e-4):
    """Central difference of x -> H(x) d along d."""
    return (barrier(x + h * d).hess_apply(d) - barrier(x - h * d).hess_apply(d)) / (2 * h)


@given(third_order_cases())
def test_third_order_matches_central_differences(case):
    # nabla^3 F(x)[d, d] is the derivative of H(x) d along d, on an n = 1
    # cone and on weighted n = 1 and n = 2 cones
    cone, x, d = case
    third = cone.barrier(x).third_order(d)
    slope = _hess_times_d_slope(cone.barrier, x, d)
    assert np.all(third <= 0.0)  # -2 colsum((W V)∘(W V)), a sum of squares
    assert np.linalg.norm(third - slope) <= 1e-6 * (1e-12 + np.linalg.norm(third))


@given(third_order_cases(), st.floats(-4.0, 4.0))
def test_third_order_is_quadratic_in_d(case, scale):
    cone, x, d = case
    ev = cone.barrier(x)
    want = scale * scale * ev.third_order(d)
    assert np.linalg.norm(ev.third_order(scale * d) - want) <= 1e-12 * np.linalg.norm(want)


@st.composite
def screen_cases(draw):
    """A cone, two interior points, a vector psi and a mu >= 0."""
    cone = CONES[draw(cone_index)]
    x = np.exp(draw(vector(cone.U, st.floats(-3.0, 3.0))))
    ref = np.exp(draw(vector(cone.U, st.floats(-3.0, 3.0))))
    psi = draw(vector(cone.U, st.floats(-1.0, 1.0)))
    return cone, x, ref, psi, draw(st.floats(0.0, 1.0))


def at_the_centered_boundary_case(test):
    """Pin x = ref = 1, psi = 0, mu = 1 on every cone: the draws also take
    numeric literals from the package's source, so an edit there can drop
    this case, on which the bound once read 7.6e-32 against a norm of 0."""
    for cone in CONES:
        ones = np.ones(cone.U)
        test = example((cone, ones, ones, np.zeros(cone.U), 1.0))(test)
    return test


@given(screen_cases())
@at_the_centered_boundary_case
def test_screen_bound_below_every_jittered_norm(case):
    # the predictor's screen may reject only what the full norm, taken with
    # the barrier's one Hessian H + eps I, rejects
    cone, x, ref, psi, mu = case
    full = cone.barrier(x)
    s = psi - mu * full.gradient
    psi = s + mu * full.gradient
    bound = cone.barrier(x).inv_quadform_lower_bound(s, mu, cone.barrier(ref))
    half = np.linalg.solve(np.linalg.cholesky(full.hessian), psi)
    assert bound <= (1.0 + 1e-9) * float(half @ half)


@given(screen_cases())
@at_the_centered_boundary_case
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
    cert = recover_gram(cone, x, s, delta)
    residual = verify_certificate(cone, s, cert).adjoint_residual  # certified
    assert residual <= 1e-8 * (1.0 + np.linalg.norm(s))


# cones with U <= 10 points and blocks of L <= 4, small enough for exact sums
TINY_CONES = [
    CONES[0],
    sp.build_cone(sp.cheb2_points(6), [box_weight, ones_weight], [2, 3]),
    sp.build_cone(sp.padua_points(2), [box_weight, ones_weight], [0, 1]),
]


@st.composite
def tiny_certificates(draw):
    """A tiny cone, PSD Gram blocks scaled by up to 1e12, a tol and an s whose
    computed residual is up to twice the limit tol (1 + ||s||_inf)."""
    cone = TINY_CONES[draw(st.integers(0, len(TINY_CONES) - 1))]
    grams = []
    for L in cone.dims:
        A = draw(vector((L, L), st.floats(-1.0, 1.0)))
        grams.append(10.0 ** draw(st.integers(0, 12)) * (A @ A.T))
    tol = 10.0 ** draw(st.integers(-16, -6))
    r = sum(cone.lambda_adjoint(i, S) for i, S in enumerate(grams))
    offset = draw(vector(cone.U, st.floats(-2.0, 2.0)))
    return cone, grams, r + offset * tol * (1.0 + np.max(np.abs(r))), tol


@given(tiny_certificates())
def test_verified_certificate_meets_tol_exactly(case):
    # the certified residual bounds the exact one, so a pass means the
    # exact identity holds to tol (1 + ||s||_inf)
    cone, grams, s, tol = case
    report = verify_certificate(cone, s, sp.GramCertificate(grams, 0.0, [], 0.0), tol=tol)
    exact = max(
        abs(sum(Fraction(B[u, a]) * Fraction(S[a, b]) * Fraction(B[u, b])
                for B, S in zip(cone.blocks, grams)
                for a in range(S.shape[0]) for b in range(S.shape[0])) - Fraction(s[u]))
        for u in range(cone.U))
    assert exact <= Fraction(report.adjoint_residual)
    if report.passed:
        assert exact <= Fraction(tol) * (1 + Fraction(float(np.max(np.abs(s)))))


def _exact_pivots(S):
    """The pivots of S = L D L^T in exact rationals, up to the first that is
    not positive: all L of them are positive exactly when S is positive
    definite (Sylvester)."""
    A = [[Fraction(v) for v in row] for row in S.tolist()]
    pivots = []
    for j in range(len(A)):
        pivots.append(A[j][j])
        if A[j][j] <= 0:
            break
        for i in range(j + 1, len(A)):
            f = A[i][j] / A[j][j]
            for k in range(j + 1, len(A)):
                A[i][k] -= f * A[j][k]
    return pivots


# one unit-weight block of each size L = 1, ..., 6
PSD_CONES = {d + 1: sp.build_cone(sp.cheb2_points(max(2 * d, 1)), [ones_weight], [d])
             for d in range(6)}


@st.composite
def symmetric_blocks(draw):
    """Exactly symmetric blocks at the boundary of the PSD cone, scaled by
    2^k: indefinite, rank-deficient G G^T (singular but for rounding), and
    G G^T shifted so that its smallest eigenvalue is about -t tr(G G^T), t
    around the rounding level, of either sign."""
    L = draw(st.integers(1, 6))
    G = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((L, L))
    kind = draw(st.sampled_from(["indefinite", "rank_deficient", "shifted"]))
    if kind == "indefinite":
        S = G + G.T
    elif kind == "rank_deficient":
        rank = draw(st.integers(0, L - 1))
        S = G[:, :rank] @ G[:, :rank].T
    else:
        S = G @ G.T
        t = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.integers(-17, -13))
        S -= (np.linalg.eigvalsh(S)[0] + t * np.trace(S)) * np.eye(L)
    S = np.triu(S) + np.triu(S, 1).T
    return 2.0 ** draw(st.integers(-60, 60)) * S


@settings(max_examples=200)
@given(symmetric_blocks())
def test_verified_psd_block_is_exactly_positive_definite(S):
    # a block passes only if the exact rational matrix it stores has an
    # LDL^T factorization with positive pivots
    cone = PSD_CONES[S.shape[0]]
    cert = sp.GramCertificate([S], 0.0, [], 0.0)
    if verify_certificate(cone, cone.lambda_adjoint(0, S), cert).block_psd[0]:
        pivots = _exact_pivots(S)
        assert len(pivots) == S.shape[0] and all(p > 0 for p in pivots)


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
                                  trials, message, x, y, s):
    result = sp.SolveResult(status=status, primal_objective=pobj, rel_gap=gap,
                            iterations=iters, x=x, y=y, s=s, final=START,
                            message=message, trials=trials)
    path = tmp_path_factory.mktemp("solution") / "sol.json"
    fileio.dump_json(str(path), fileio.solution_to_dict(result))
    with open(path) as fh:  # strict JSON: no NaN or Infinity tokens
        json.load(fh, parse_constant=lambda name: pytest.fail(f"wrote {name}"))
    data = fileio.load_solution(str(path))
    assert (data["status"], data["iterations"], data["trials"],
            data["message"]) == (status, iters, trials, message)
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


@given(st.floats(0.1, 10.0), st.floats(-1.0, 1.0), vector(N, st.floats(-1.0, 1.0)))
def test_adjustment_rhs_is_the_path_second_order_term(tau, rel_dtau, u):
    # the complementarity rows of the predictor's adjustment are
    # mu (H dx - nabla^3 F[dx, dx] / 2) for x and, for the barrier -ln tau,
    # mu (dtau / tau^2 - T / 2) with T = -2 dtau^2 / tau^3; both third-order
    # terms against central differences, the linear rows zero. The
    # corrector's, at fixed mu, are the same rows without the terms of mu's
    # decrease, mu H dx and mu dtau / tau^2
    z = hsd.make_iterate(SMALL_PROBLEM, START.x, tau, START.y, START.s, START.kappa)
    dx, dtau = z.x * u, tau * rel_dtau
    d = hsd.Direction(dx, dtau, np.zeros(K), np.zeros(N), 0.0, 0.0)
    r1, r2, r3, r4, r5 = hsd._adjustment_rhs(SMALL_PROBLEM, z, d, True)
    assert not np.any(r1) and not np.any(r2) and r3 == 0.0
    barrier = SMALL_PROBLEM.cone.barrier
    want4 = z.mu * (z.barrier.hess_apply(dx) - 0.5 * _hess_times_d_slope(barrier, z.x, dx))
    assert np.linalg.norm(r4 - want4) <= 1e-6 * (1e-12 + np.linalg.norm(want4))
    h = 1e-4
    t_tau = (dtau / (tau + h * dtau) ** 2 - dtau / (tau - h * dtau) ** 2) / (2 * h)
    assert abs(t_tau + 2 * dtau**2 / tau**3) <= 1e-6 * (1e-12 + 2 * dtau**2 / tau**3)
    want5 = z.mu * (dtau / tau**2 - 0.5 * t_tau)
    assert abs(r5 - want5) <= 1e-6 * abs(want5)
    c1, c2, c3, c4, c5 = hsd._adjustment_rhs(SMALL_PROBLEM, z, d, False)
    assert not np.any(c1) and not np.any(c2) and c3 == 0.0
    decrease = z.mu * z.barrier.hess_apply(dx)
    assert (np.linalg.norm(r4 - c4 - decrease)
            <= 1e-12 * (np.linalg.norm(r4) + np.linalg.norm(c4)))
    assert abs(r5 - c5 - z.mu * dtau / tau**2) <= 1e-12 * z.mu * abs(dtau) / tau**2
