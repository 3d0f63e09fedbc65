"""Quadratic-cost closed form: Riccati roots, dispersion choice, feedback."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpctl.lq import (
    LQSpec,
    RiccatiSolveError,
    lq_assemble,
    minimal_dispersion,
    optimal_feedback,
    riccati_residual,
    solve_lq,
    solve_riccati,
)
from jumpctl.measures import AtomicMeasure, ZeroMeasure

# scalar case lam = theta = 1, q = 3: B^2 + 3B - 1 = 0, positive root
B_HAT = (np.sqrt(13.0) - 3.0) / 2.0  # 0.3027756377319946


def test_riccati_scalar_frozen():
    B = solve_riccati(1.0, 1.0, 3.0)
    assert B.shape == (1, 1)
    assert abs(B[0, 0] - 0.3027756377319946) < 1e-12
    assert abs(B[0, 0] - B_HAT) < 1e-12


def test_riccati_identity_case():
    # lam = (q+1) I, theta = I: B^2 + qB - (q+1) = 0 factors as (B-1)(B+q+1)
    q = 2.5
    n = 3
    B = solve_riccati((q + 1.0) * np.eye(n), np.eye(n), q)
    assert np.abs(B - np.eye(n)).max() < 1e-11


def test_riccati_nondiagonal_residual():
    lam = np.array([[2.0, 0.5], [0.5, 1.0]])
    theta = np.array([[1.0, 0.2], [0.2, 2.0]])
    B = solve_riccati(lam, theta, 0.7)
    assert np.abs(B - B.T).max() < 1e-13
    assert np.linalg.eigvalsh(B).min() > 0.0
    assert np.abs(riccati_residual(B, lam, theta, 0.7)).max() < 1e-10


def test_riccati_input_validation():
    with pytest.raises(ValueError):
        solve_riccati(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), 1.0)  # indefinite
    with pytest.raises(ValueError):
        solve_riccati(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        solve_riccati(np.array([[1.0, 0.3], [0.0, 1.0]]), np.eye(2), 1.0)  # asymmetric


def test_riccati_error_is_linalg_error():
    assert issubclass(RiccatiSolveError, np.linalg.LinAlgError)


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(0.1, 50.0),
    theta=st.floats(0.1, 50.0),
    q=st.floats(0.05, 20.0),
)
def test_riccati_scalar_closed_form(lam, theta, q):
    p = np.sqrt(q * q + 4.0 * lam / theta)
    expected = theta * (p - q) / 2.0
    B = solve_riccati(lam, theta, q)
    assert abs(B[0, 0] - expected) < 1e-10 * max(1.0, expected)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    b=st.floats(0.2, 3.0),
    c=st.floats(0.2, 3.0),
    t=st.floats(0.1, 10.0),
    q=st.floats(0.1, 5.0),
)
def test_riccati_joint_scaling(a, b, c, t, q):
    # scaling (lam, theta) -> (t lam, t theta) scales B linearly and leaves
    # the feedback gain Q = theta^-1 B untouched
    m = np.array([[b, a], [0.0, c]])
    lam = m @ m.T + 0.1 * np.eye(2)  # Gram matrix, always SPD
    theta = np.array([[1.0, 0.1], [0.1, 2.0]])
    B1 = solve_riccati(lam, theta, q)
    B2 = solve_riccati(t * lam, t * theta, q)
    scale = max(1.0, np.abs(B2).max())
    assert np.abs(B2 - t * B1).max() < 1e-9 * scale
    Q1 = np.linalg.solve(theta, B1)
    Q2 = np.linalg.solve(t * theta, B2)
    assert np.abs(Q2 - Q1).max() < 1e-9 * max(1.0, np.abs(Q1).max())


def test_minimal_dispersion_prefers_cheaper_jump():
    B = np.diag([1.0, 2.0])
    brownian = (np.eye(2), ZeroMeasure(2))
    jumpy = (np.zeros((2, 2)), AtomicMeasure(2, locations=[[1.0, 0.0]], masses=[1.0]))
    delta, sig, nu = minimal_dispersion([brownian, jumpy], B)
    # tr(B) = 3 versus B_00 * 1 = 1
    assert delta == pytest.approx(1.0)
    assert np.all(sig == 0.0)
    assert isinstance(nu, AtomicMeasure)


def test_minimal_dispersion_charges_small_jump_covariance():
    # the jumps a density cuts below eps cost their covariance too: with
    # Sigma_eps the density loses to the atom it beats without it
    from jumpctl.measures import DensityGridMeasure

    B = np.diag([1.0, 2.0])
    box = dict(dim=2, lo=[0.5, -0.1], hi=[0.7, 0.1], shape=(2, 2), values=np.full(4, 10.0), eps=0.05)
    dense, atom = DensityGridMeasure(**box), (np.zeros((2, 2)), AtomicMeasure(2, [[0.0, 0.5]], [1.0]))
    small = np.diag([0.3, 0.1])
    with_cov = DensityGridMeasure(**box, small_jump_cov=small)
    plain, _, _ = minimal_dispersion([(np.zeros((2, 2)), dense)], B)
    charged, _, _ = minimal_dispersion([(np.zeros((2, 2)), with_cov)], B)
    assert charged == plain + float(np.sum(B * small)) and plain < 0.5 < charged
    assert minimal_dispersion([(np.zeros((2, 2)), dense), atom], B)[2] is dense
    assert minimal_dispersion([(np.zeros((2, 2)), with_cov), atom], B)[2] is atom[1]


def test_minimal_dispersion_tie_breaks_first():
    B = np.eye(1)
    a = (np.eye(1), ZeroMeasure(1))
    b = (np.zeros((1, 1)), AtomicMeasure(1, locations=[[1.0]], masses=[1.0]))
    delta, sig, _ = minimal_dispersion([a, b], B)
    assert delta == pytest.approx(1.0)
    assert sig[0, 0] == 1.0  # both cost 1, first candidate wins


def test_assemble_zero_drift_offset():
    spec = LQSpec(lam=1.0, theta=1.0, q=3.0,
                  dispersion_candidates=[(1.0, ZeroMeasure(1))])
    sol = solve_lq(spec)
    assert abs(sol.delta_hat - B_HAT) < 1e-12
    assert np.abs(sol.c).max() == 0.0
    assert abs(sol.d - B_HAT / 3.0) < 1e-12
    # V(x) = B_HAT x^2 + B_HAT / 3
    assert sol.value(2.0) == pytest.approx(4.0 * B_HAT + B_HAT / 3.0, abs=1e-12)
    assert sol.value(0.0) == pytest.approx(sol.d)


def test_assemble_unit_drift_frozen_linear_coefficient():
    # u = 1, lam = theta = 1, q = 3: c = 2 B^2 = 8 / (sqrt(13) + 3)^2
    spec = LQSpec(lam=1.0, theta=1.0, q=3.0, u=1.0)
    sol = solve_lq(spec)
    c_expected = 8.0 / (np.sqrt(13.0) + 3.0) ** 2
    assert abs(sol.c[0] - c_expected) < 1e-12
    assert abs(sol.c[0] - 2.0 * B_HAT**2) < 1e-12
    d_expected = (2.0 * B_HAT**2 - B_HAT**4) / 3.0
    assert abs(sol.d - d_expected) < 1e-12
    assert abs(sol.v[0] + B_HAT**2) < 1e-12  # v = -theta^-1 P u = -B^2


def test_feedback_is_inner_argmin():
    # the drift part of the generator applied to V plus the control cost is
    # h(mu) = theta mu^2 + (2 B x + c) mu; scan a lattice and compare
    spec = LQSpec(lam=2.0, theta=0.5, q=1.3, u=0.4)
    sol = solve_lq(spec)
    lattice = np.linspace(-8.0, 8.0, 4001)
    cell = lattice[1] - lattice[0]
    for x in (-2.0, 0.0, 1.7):
        h = 0.5 * lattice**2 + (2.0 * sol.B[0, 0] * x + sol.c[0]) * lattice
        mu_star = optimal_feedback(x, sol)
        assert abs(lattice[np.argmin(h)] - mu_star[0]) <= cell


def test_feedback_batch_shape():
    spec = LQSpec(lam=np.eye(2), theta=np.eye(2), q=1.0)
    sol = solve_lq(spec)
    pts = np.random.default_rng(7).normal(size=(5, 2))
    batch = optimal_feedback(pts, sol)
    assert batch.shape == (5, 2)
    for i in range(5):
        assert np.allclose(batch[i], optimal_feedback(pts[i], sol))


def test_value_batch_matches_scalar():
    spec = LQSpec(lam=np.eye(2), theta=2.0 * np.eye(2), q=1.0, u=[0.3, -0.1],
                  dispersion_candidates=[(np.eye(2), ZeroMeasure(2))])
    sol = solve_lq(spec)
    pts = np.array([[0.0, 0.0], [1.0, -2.0], [0.5, 0.5]])
    batch = sol.value(pts)
    assert batch.shape == (3,)
    for i, x in enumerate(pts):
        assert batch[i] == pytest.approx(sol.value(x))


def test_spec_validation():
    with pytest.raises(ValueError):
        LQSpec(lam=1.0, theta=1.0, q=-2.0)
    with pytest.raises(ValueError):
        LQSpec(lam=np.eye(2), theta=np.eye(2), q=1.0, u=[1.0])
    with pytest.raises(ValueError):
        LQSpec(lam=1.0, theta=1.0, q=1.0,
               dispersion_candidates=[(np.eye(2), ZeroMeasure(2))])


def test_optimal_action_carries_selected_pair():
    spec = LQSpec(lam=1.0, theta=1.0, q=3.0,
                  dispersion_candidates=[(1.0, ZeroMeasure(1))])
    sol = solve_lq(spec)
    assert sol.sigma_hat[0, 0] == 1.0 and isinstance(sol.nu_hat, ZeroMeasure)
    assert np.allclose(optimal_feedback(1.5, sol), -sol.Q @ np.array([1.5]))


@pytest.mark.parametrize("dim", [1, 2])
def test_value_is_batch_size_invariant(dim):
    # V of one state is bitwise the same row of any batch holding it: the
    # quadratic and the linear term are summed row by row in a fixed order,
    # where einsum and pts @ c round differently for one- and many-row batches
    lam = [[2.7]] if dim == 1 else [[1.0, -0.2], [-0.2, 0.7]]
    theta = [[0.5]] if dim == 1 else [[1.0, 0.3], [0.3, 2.0]]
    sol = solve_lq(LQSpec(lam=lam, theta=theta, q=3.0, u=np.full(dim, 0.4)))
    assert dim == 1 or sol.B[0, 1] != 0.0
    rng = np.random.default_rng(8)
    for m in (1, 2, 3, 17, 2**14 + 1):
        X = rng.standard_normal((m, dim)) * 3.0
        whole = sol.value(X)
        rows = np.array([sol.value(X[i : i + 1])[0] for i in range(m)])
        points = np.array([sol.value(X[i]) for i in range(m)])
        assert np.array_equal(whole.view(np.int64), rows.view(np.int64)), m
        assert np.array_equal(whole.view(np.int64), points.view(np.int64)), m
