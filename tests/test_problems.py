"""Envelope/polymin builders, builtin polynomials, and the grid oracle."""

import numpy as np
import pytest

import sospoly as sp
from sospoly.problems import (
    build_envelope,
    build_polymin,
    builtin_poly,
    chebyshev_poly,
    grid_lower_bound_oracle,
    random_envelope_inputs,
)

BUTCHER_OPT = -2159.0 / 1500.0


# ----------------------------------------------------------------------
# builtin polynomials


def test_butcher_minimum_value():
    f = builtin_poly("butcher")
    # global minimizer: all coordinates at box bounds
    t_star = np.array([[0.0, 0.9, 0.5, -1.0, -0.1, -0.1]])
    assert f.box.contains(t_star)
    np.testing.assert_allclose(f(t_star)[0], BUTCHER_OPT, atol=1e-15)


def test_magnetism_values():
    f = builtin_poly("magnetism")
    assert f(np.zeros((1, 7)))[0] == 0.0
    e1 = np.zeros((1, 7))
    e1[0, 0] = 1.0
    assert f(e1)[0] == 0.0      # 1 - 1


def test_caprasse_value_at_origin():
    f = builtin_poly("caprasse")
    assert f(np.zeros((1, 4)))[0] == 2.0


@pytest.mark.parametrize("name, zeros", [
    ("robinson", [(1, 1), (-1, 1), (1, -1), (-1, -1), (1, 0), (-1, 0), (0, 1), (0, -1)]),
    ("motzkin", [(1, 1), (-1, 1), (1, -1), (-1, -1)]),
])
def test_adversarial_builtins_vanish_at_their_minimizers(name, zeros):
    # exact zeros, in the box, and positive at the origin
    f = builtin_poly(name)
    pts = np.array(zeros, dtype=float)
    assert f.box.contains(pts) and f.degree == 6
    assert np.all(f(pts) == 0.0) and f(np.zeros((1, 2)))[0] == 1.0


@pytest.mark.parametrize("name, d, tight", [
    ("robinson", 3, False), ("robinson", 4, True), ("robinson", 6, True),
    ("motzkin", 3, True), ("motzkin", 5, True),
])
def test_adversarial_builtin_bounds(name, d, tight):
    # minimum exactly 0: the bound is Optimal, at most 0 and at most the
    # grid oracle up to the solve tolerance, and within it of 0 where the
    # relaxation is tight (Robinson at d = 3 is not: its bound is about -5e-3)
    f = builtin_poly(name)
    params = sp.SolverParams()
    r = sp.solve(build_polymin(f, d).problem, params)
    assert r.status == "Optimal"
    tol = params.tol_gap
    assert r.dual_objective <= min(0.0, grid_lower_bound_oracle(f)) + tol
    if tight:
        assert abs(r.dual_objective) <= tol
    else:
        assert r.dual_objective < -1e-3


def test_unknown_builtin():
    with pytest.raises(KeyError):
        builtin_poly("rosenbrock")


# ----------------------------------------------------------------------
# random inputs


def test_random_inputs_deterministic():
    a = random_envelope_inputs(1, 5, 2, seed=1)
    b = random_envelope_inputs(1, 5, 2, seed=1)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.coeffs, fb.coeffs)
    assert not np.array_equal(a[0].coeffs, a[1].coeffs)


def test_random_inputs_dimensions():
    fs = random_envelope_inputs(1, 5, 2, seed=0)
    assert all(f.coeffs.shape == (6,) for f in fs)
    fs3 = random_envelope_inputs(3, 4, 1, seed=0)
    assert fs3[0].coeffs.shape == (35,)


# ----------------------------------------------------------------------
# envelope builder


def test_envelope_dimensions_1d():
    built = build_envelope(1, 100, 2, seed=0)
    assert built.pts.U == 201
    assert built.problem.A.shape == (201, 402)
    assert built.cone.nu + 1 == 403
    assert built.meta["degrees"] == [99, 100]


def test_envelope_dimensions_2d():
    built = build_envelope(2, 10, 2, seed=0)
    assert built.pts.U == 231
    assert built.problem.A.shape == (231, 462)


def test_envelope_input_validation():
    with pytest.raises(ValueError):
        build_envelope(1, 5, 0)
    too_big = [chebyshev_poly(1, 12, np.ones(13))]
    with pytest.raises(ValueError):
        build_envelope(1, 5, 1, fs=too_big)


def test_envelope_objective_is_quadrature_functional():
    built = build_envelope(1, 6, 2, seed=2)
    np.testing.assert_array_equal(built.problem.b, built.quad_weights)
    c = built.problem.c
    np.testing.assert_allclose(c[:built.pts.U], built.fs[0](built.pts.points), atol=0)


def test_self_envelope_recovers_integral():
    # k = 1 with a WSOS input: the envelope is the polynomial itself
    f = chebyshev_poly(1, 2, np.array([2.0, 0.0, 1.0]))   # 2 + T2 = 1 + 2t^2
    built = build_envelope(1, 5, 1, fs=[f])
    result = sp.solve(built.problem)
    assert result.status == "Optimal"
    integral = built.quad_weights @ f(built.pts.points)
    assert abs(result.dual_objective - integral) <= 1e-6 * (1 + abs(integral))


def test_envelope_primal_dual_consistency(envelope_small):
    built = envelope_small.built
    r = envelope_small.result
    U = built.pts.U
    # recovered primal satisfies sum_j x_j = w
    total = r.x[:U] + r.x[U:]
    assert np.max(np.abs(total - built.quad_weights)) <= 1e-8 * (1 + np.max(np.abs(built.quad_weights)))
    # dual slacks are c_j - y componentwise
    y = r.y
    s = r.s
    c = built.problem.c
    for j in range(2):
        block = slice(j * U, (j + 1) * U)
        np.testing.assert_allclose(s[block], c[block] - y, atol=1e-7)


# ----------------------------------------------------------------------
# polymin builder


def test_polymin_constant():
    f = chebyshev_poly(1, 0, np.array([5.0]))
    built = build_polymin(f, d=1)
    r = sp.solve(built.problem)
    assert r.status == "Optimal"
    assert abs(r.dual_objective - 5.0) <= 1e-7


def test_polymin_t_squared():
    f = chebyshev_poly(1, 2, np.array([0.5, 0.0, 0.5]))   # t^2 = (1 + T2)/2
    built = build_polymin(f, d=1)
    r = sp.solve(built.problem)
    assert abs(r.dual_objective) <= 1e-7


def test_polymin_dimensions_butcher(butcher_solved):
    built = butcher_solved.built
    assert built.pts.U == 210
    assert built.meta["degrees"] == [1] * 6 + [2]
    assert built.problem.A.shape == (1, 210)


def test_polymin_butcher_bound(butcher_solved):
    r = butcher_solved.result
    assert r.status == "Optimal"
    assert abs(r.dual_objective - BUTCHER_OPT) <= 1e-7


def test_envelope_degree_validation():
    for d in (0, -1):
        with pytest.raises(ValueError, match=f"d = {d}"):
            build_envelope(1, d, 2)


def test_polymin_degree_validation():
    f = builtin_poly("caprasse")
    with pytest.raises(ValueError):
        build_polymin(f, d=1)   # deg f = 4 > 2


def test_polymin_monotone_in_degree():
    # a quartic that is not a square: bound improves (weakly) with d
    f = chebyshev_poly(1, 4, np.array([0.0, -1.0, -0.5, 0.0, 0.25]))
    bounds = []
    for d in (2, 3):
        r = sp.solve(build_polymin(f, d=d).problem)
        assert r.status == "Optimal"
        bounds.append(r.dual_objective)
    assert bounds[1] >= bounds[0] - 1e-7


# ----------------------------------------------------------------------
# grid oracle


def test_oracle_t_squared_grid_hits_zero():
    f = chebyshev_poly(1, 2, np.array([0.5, 0.0, 0.5]))
    assert abs(grid_lower_bound_oracle(f, resolution=101)) <= 1e-14


def test_oracle_butcher_upper_bound():
    f = builtin_poly("butcher")
    val = grid_lower_bound_oracle(f, seed=0)
    assert val >= BUTCHER_OPT - 1e-12
    assert val - BUTCHER_OPT <= 1e-2


def test_oracle_deterministic():
    f = builtin_poly("magnetism")
    assert grid_lower_bound_oracle(f, seed=3) == grid_lower_bound_oracle(f, seed=3)


@pytest.mark.parametrize("fixture", ["butcher_solved", "caprasse_solved", "magnetism_solved"])
def test_sandwich_property(fixture, request):
    inst = request.getfixturevalue(fixture)
    f = inst.built.fs[0]
    oracle = grid_lower_bound_oracle(f)
    assert inst.result.dual_objective <= oracle + 1e-6
