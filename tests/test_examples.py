"""Tests for the closed-form benchmark solvers.

Frozen oracles used below, derived by substitution into the defining ODEs:

* f(x) = x^2, q = 1: psi(x) = x^2/2 + 1/4 solves (1/2) psi'' - 2 psi + f = 0
  (check: 1/2 - x^2 - 1/2 + x^2 = 0), hence V = psi + psi(0)/q = x^2/2 + 1/2.
* f(x) = x^2, q = 1 uncontrolled resolvent: R(x) = x^2 + 1 solves
  (1/2) R'' - R + f = 0 (check: 1 - x^2 - 1 + x^2 = 0).
* f constant c: psi = c/(q+1) kills both derivative terms.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from jumpctl.examples import (
    BoundaryError,
    BracketError,
    Example2Solution,
    _solve_threshold,
    _validate_cost,
    example1_psi,
    example1_value,
    example2_free_boundary,
    example2_phi_b,
)
from jumpctl.generator import AnalyticField, apply_generator
from jumpctl.hjb import Grid, HJBProblem, solve_stationary
from jumpctl.measures import Action, AtomicMeasure, ZeroMeasure, total_mass
from per_state_actions import example1_policy

QUAD = np.array([0.0, 0.0, 1.0])  # f(x) = x^2
GRID = Grid.regular(-6.0, 6.0, 401)


# ------------------------------------------------------------------- psi


def test_psi_constant_cost():
    for q in (0.5, 1.0, 3.0):
        psi = example1_psi([3.0], q, GRID)
        assert np.allclose(psi.values, 3.0 / (q + 1.0), atol=1e-10)


def test_psi_quadratic_frozen_value():
    psi = example1_psi(QUAD, 1.0, GRID)
    x = GRID.axes[0]
    assert np.max(np.abs(psi.values - (0.5 * x ** 2 + 0.25))) < 1e-9
    # between nodes the field interpolates linearly (O(h^2) on a quadratic);
    # beyond the grid the degree-2 tail fit reproduces the quadratic exactly
    assert psi.value(1.23456) == pytest.approx(0.5 * 1.23456 ** 2 + 0.25, abs=1e-3)
    assert psi.value(7.5) == pytest.approx(0.5 * 7.5 ** 2 + 0.25, abs=1e-7)


def test_psi_symmetric_convex_min_at_origin():
    grid = Grid.regular(-6.0, 6.0, 801)
    psi = example1_psi([0.0, 0.0, 2.0, 0.0, 1.0], 0.7, grid)
    vals = psi.values
    scale = np.max(np.abs(vals))
    assert np.max(np.abs(vals - vals[::-1])) < 1e-10 * scale
    assert np.min(np.diff(vals, 2)) > -1e-10 * scale
    assert np.argmin(vals) == grid.shape[0] // 2


def test_psi_rejects_bad_costs():
    with pytest.raises(ValueError, match="symmetric"):
        example1_psi([0.0, 1.0, 1.0], 1.0, GRID)
    with pytest.raises(ValueError, match="convex"):
        example1_psi([10.0, 0.0, -3.0, 0.0, 1.0], 1.0, GRID)
    with pytest.raises(ValueError, match="nonnegative"):
        example1_psi([-1.0], 1.0, GRID)
    with pytest.raises(ValueError, match="positive"):
        example1_psi(QUAD, 0.0, GRID)


def test_psi_and_value_on_a_2d_grid():
    # f = 1 + x^2 per axis, q = 1: P(x) = x^2/2 + 3/4 solves (1/2) P'' - 2 P + f = 0
    # (check: 1/2 - x^2 - 3/2 + 1 + x^2 = 0), and psi(x) = P(x_1) + P(x_2)
    grid = Grid.regular((-3.0, -2.0), (3.0, 2.0), (31, 21))
    psi = example1_psi([1.0, 0.0, 1.0], 1.0, grid)
    x1, x2 = grid.axes
    P1, P2 = 0.5 * x1 ** 2 + 0.75, 0.5 * x2 ** 2 + 0.75
    assert psi.values.shape == (31, 21)
    assert np.max(np.abs(psi.values - (P1[:, None] + P2[None, :]))) < 1e-12
    # V(0) = psi(0) (1 + 1/q) = 2 P(0)
    assert example1_value(psi, 1.0).value(np.zeros(2)) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("coeffs, message", [
    ([0.0, 1e308, 1.0], "evaluate finite"), ([0.0, 0.0, 1e308], "evaluate finite"),
    ([0.0, 0.0, 0.0, 0.0, 1e306], "evaluate finite"), ([0.0, 3e307, 1.0], "symmetric"),
    ([1e308, 0.0, 1.0], "within 1e300")])
def test_cost_checks_survive_overflow(coeffs, message):
    # an overflowed probe value is NaN or inf, and NaN compares false: f = 1e308 x + x^2
    # is not symmetric, yet it passed the symmetry, sign and convexity checks; with
    # 3e307 x the values are finite but their difference overflows, without a warning;
    # 1e308 + x^2 passes every shape check, but a solver's products of it overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            _validate_cost(np.array(coeffs))


# ------------------------------------------------------------------- value


def test_value_frozen_quadratic():
    psi = example1_psi(QUAD, 1.0, GRID)
    v = example1_value(psi, 1.0)
    x = GRID.axes[0]
    assert np.max(np.abs(v.values - (0.5 * x ** 2 + 0.5))) < 1e-9


def test_value_origin_identity():
    q = 0.7
    psi = example1_psi([0.0, 0.0, 2.0, 0.0, 1.0], q, GRID)
    v = example1_value(psi, q)
    assert v.value(0.0) == pytest.approx(psi.value(0.0) * (1.0 + 1.0 / q), abs=1e-10)


def test_policy_jumps_to_origin():
    a = example1_policy(2.0)
    assert a.sigma.shape == (1, 1) and a.sigma[0, 0] == 1.0
    assert isinstance(a.nu, AtomicMeasure)
    assert np.allclose(a.nu.locations, [[-2.0]])
    assert total_mass(a.nu) == pytest.approx(1.0)
    assert np.allclose(a.mu, [-2.0])
    assert isinstance(example1_policy(0.0).nu, ZeroMeasure)


def test_value_hjb_inequality_scan():
    # closed-form V for f = x^2, q = 1; candidate measures: no jump, full-rate
    # jump to the origin, half-rate jump to the origin.  The pointwise
    # integrand must be nonnegative with equality at the full-rate jump.
    v = AnalyticField(
        fn=lambda x: 0.5 * np.asarray(x)[..., 0] ** 2 + 0.5,
        grad=lambda x: np.atleast_1d(np.asarray(x)[..., 0]),
        hess=lambda x: np.array([[1.0]]),
    )
    for x in (-2.5, -1.0, 0.5, 3.0):
        candidates = [
            Action(1.0, ZeroMeasure(1), 0.0),
            Action(1.0, AtomicMeasure(1, [[-x]], [1.0]), -x),
            Action(1.0, AtomicMeasure(1, [[-x]], [0.5]), -0.5 * x),
        ]
        # L^a V(x) - q V(x) + f(x)
        vals = [apply_generator(a, v, x=x) - v.fn(np.array([x])) + x ** 2 for a in candidates]
        assert min(vals) > -1e-8
        assert abs(vals[1]) < 1e-8  # equality at the full-rate jump


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.1, 3.0),
    b=st.floats(0.0, 3.0),
    c=st.floats(0.0, 2.0),
)
def test_psi_minimum_at_origin_property(a, b, c):
    grid = Grid.regular(-6.0, 6.0, 129)
    psi = example1_psi([c, 0.0, b, 0.0, a], 1.0, grid)
    assert psi.values.min() >= psi.value(0.0) - 1e-9
    assert np.max(np.abs(psi.values - psi.values[::-1])) < 1e-8 * max(
        1.0, psi.values.max()
    )


# ------------------------------------------------------------------- phi_b


def test_phi_b_zero_threshold_zero_charge_matches_value():
    phi = example2_phi_b(QUAD, 1.0, 0.0, 0.0, GRID)
    x = GRID.axes[0]
    assert np.max(np.abs(phi.values - (0.5 * x ** 2 + 0.5))) < 1e-10
    closed = _solve_threshold(QUAD, 1.0, 0.0, 0.0)
    probes = np.linspace(0.0, 8.0, 500)
    resid = (
        0.5 * closed.second(probes)
        - 2.0 * closed.value(probes)
        + probes ** 2
        + closed.c
    )
    assert np.max(np.abs(resid)) < 1e-9


def test_phi_b_piecewise_residuals_and_smooth_fit():
    q, kappa, b = 1.0, 1.0, 1.3
    closed = _solve_threshold(QUAD, q, kappa, b)
    inner = np.linspace(0.0, b - 1e-9, 300)
    outer = np.linspace(b + 1e-9, 8.0, 300)
    r1 = 0.5 * closed.second(inner) - q * closed.value(inner) + inner ** 2
    r2 = (
        0.5 * closed.second(outer)
        - (q + 1.0) * closed.value(outer)
        + outer ** 2
        + kappa
        + closed.c
    )
    assert np.max(np.abs(r1)) < 1e-9
    assert np.max(np.abs(r2)) < 1e-9
    assert closed.c1_gap() < 1e-10
    assert closed.deriv(0.0) == 0.0
    assert closed.value(b - 1e-10) == pytest.approx(closed.value(b + 1e-10), abs=1e-8)
    # the jump-rate indicator is discontinuous at b, so the second derivative
    # gap equals twice the matching defect
    assert closed.c2_gap() == pytest.approx(2.0 * abs(closed.gap()), abs=1e-9)


def test_phi_b_large_threshold_is_uncontrolled_resolvent():
    phi = example2_phi_b(QUAD, 1.0, 2.0, 30.0, GRID)
    x = GRID.axes[0]
    mask = np.abs(x) <= 5.0
    assert np.max(np.abs(phi.values[mask] - (x[mask] ** 2 + 1.0))) < 1e-8


def test_phi_b_threshold_inside_tail_band_raises():
    with pytest.raises(BoundaryError, match="tail"):
        example2_phi_b(QUAD, 1.0, 1.0, 5.5, GRID)


def test_phi_b_input_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        example2_phi_b(QUAD, 1.0, -0.5, 1.0, GRID)
    with pytest.raises(ValueError, match="nonnegative"):
        example2_phi_b(QUAD, 1.0, 1.0, -1.0, GRID)


# ------------------------------------------------------------------- b_hat


def test_free_boundary_matching_and_diagnostics():
    sol = example2_free_boundary(QUAD, 1.0, 1.0, GRID)
    assert isinstance(sol, Example2Solution)
    assert 0.0 < sol.b_hat < 6.0
    assert sol.matching_gap < 1e-10
    assert sol.c1_gap < 1e-10
    assert sol.c2_gap < 1e-9
    assert sol.increasing
    assert sol.phi0 == pytest.approx(sol.closed_form.value(0.0), abs=1e-12)
    vals = sol.phi.values
    assert np.max(np.abs(vals - vals[::-1])) < 1e-10 * np.max(vals)


def test_free_boundary_kappa_monotone():
    hats = [
        example2_free_boundary(QUAD, 1.0, kappa, GRID).b_hat
        for kappa in (0.5, 1.0, 2.0)
    ]
    assert hats[0] < hats[1] < hats[2]


def test_free_boundary_bracket_error_carries_samples():
    with pytest.raises(BracketError) as err:
        example2_free_boundary(QUAD, 1.0, 1e300, GRID)
    assert len(err.value.samples) > 5
    assert all(g < 0.0 for _, g in err.value.samples)


def test_free_boundary_requires_positive_charge():
    with pytest.raises(ValueError, match="positive"):
        example2_free_boundary(QUAD, 1.0, 0.0, GRID)


def test_free_boundary_switch_matches_general_solver():
    q, kappa = 1.0, 1.0
    sol = example2_free_boundary(QUAD, q, kappa, GRID)

    def cost(x, a):
        return np.asarray(x) ** 2 + kappa * total_mass(a.nu)

    prob = HJBProblem(
        f=cost,
        q=q,
        delta_q=q,
        b_q=q,
        actions=(Action(1.0, ZeroMeasure(1), 0.0), example1_policy),
    )
    grid = Grid.regular(-6.0, 6.0, 241)
    phi, pol, rep = solve_stationary(prob, grid, tol=1e-8)
    assert rep.converged

    x = grid.axes[0]
    jumping = pol.action_index.reshape(grid.shape) == 1
    switched = x[jumping & (x > 0)]
    assert switched.size > 0
    x_switch = switched.min()
    assert abs(x_switch - sol.b_hat) <= 2.0 * grid.h[0] + 1e-12

    # value agreement on the interior third
    mask = np.abs(x) <= 2.0
    ref = sol.closed_form.value(x[mask])
    got = phi.values[mask]
    assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-9)) < 2e-2


def test_value_matches_simulated_payoff():
    # cross-check of the ODE value against a pathwise estimate: under the
    # relocation policy (sigma = 1, unit-rate jump to the origin, matched
    # drift) started at x0 = 1 with f = x^2, q = 1, the discounted payoff
    # must equal V(1) = 1
    from jumpctl.dynamics import PolicyFieldSpec, SimConfig, payoff_estimate

    pol = PolicyFieldSpec.jump_to_origin(rate=1.0, sigma=1.0, dim=1)
    cfg = SimConfig(x0=1.0, T=7.0, dt=0.0035, n_paths=10_000, seed=71, store_every=100)
    est = payoff_estimate(
        pol, cfg, f=lambda X: X[:, 0] ** 2, q=1.0,
        f_growth=(1.0, 2.0), delta_q=1.0,
    )
    # 5e-3 covers the O(dt) weak error of the step scheme
    assert abs(est.estimate - 1.0) <= 3 * est.std_error + est.tail_bound + 5e-3
