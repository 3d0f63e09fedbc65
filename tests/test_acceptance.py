"""Release gates: one test per numbered criterion, pass/fail at stated tolerances.

Each test pins an exact instance (grid sizes, path counts, seeds, tolerances,
runtime budgets) and states where its expected value comes from:

1.  Riccati oracle: for scalar lam = theta = 1, q = 3 the positive root of
    B^2 + 3B - 1 = 0 has the diagonal closed form B = theta (p - q) / 2 with
    p = sqrt(q^2 + 4 lam / theta) = sqrt(13).
2.  Policy iteration on the quadratic-cost problem reproduces
    V(x) = B x^2 + c x + d (c = 0, d = B/q for unit diffusion) and the
    feedback -Qx + v to within one drift-lattice cell.
3.  Jump-to-origin benchmark: psi = x^2/2 + 1/4 solves the resolvent ODE
    exactly, so V = psi + psi(0)/q = x^2/2 + 1/2; the two-action general
    solver must agree and select the relocation wherever it pays.
4.  Threshold benchmark: the free-boundary bundle carries its own matching,
    C^1, C^2 and monotonicity diagnostics; the general solver's switch node
    must land within two cells of b_hat.
5.  Increment test battery on compactly supported C^2 functions under a
    constant action: g(X_t) - g(X_0) - int L g ds has conditional mean zero;
    every statistic within 3 SE at 10^5 paths and bit-identical on rerun.
6.  Accumulated-cost process battery: the optimal quadratic feedback is a
    martingale; a 20% over-steered gain stays a submartingale but fails the
    martingale test in at least one bin.
7.  Discounted-value decay: certified positive decay rate for the optimal
    quadratic feedback; refused for x^2 + 1 + e^(sqrt(2) x) under the pure
    Brownian policy, whose heavy-tailed estimator conceals the true plateau.
8.  Compensated-jump moment bound: E[sup|X^d|^q] / (E[G^{q/2}] + E[H]) stays
    within a factor 2 of its T = 1 value as T doubles to 4, for q = 2 and 4.
9.  Finite-horizon consistency: the T = 8 backward solve lands on the
    stationary value; zero running cost with constant terminal payoff c
    reproduces c e^{-qT} to solver precision.
"""

import time

import numpy as np

from jumpctl.dynamics import PolicyFieldSpec, SimConfig, bellman_series, simulate
from jumpctl.examples import (
    example1_psi,
    example1_value,
    example2_free_boundary,
)
from jumpctl.hjb import Grid, HJBProblem, solve_finite_horizon, solve_stationary
from jumpctl.lq import LQSpec, solve_lq, solve_riccati
from jumpctl.measures import Action, AtomicMeasure, ZeroMeasure
from jumpctl.verify import (
    dynkin_test,
    moment_bound_report,
    submartingale_test,
    transversality_test,
)


def _lq_value_fn(sol, dim=1):
    return lambda X: sol.value(np.asarray(X, float).reshape(-1, dim))


def _jump_origin_entry(rate=1.0):
    def entry(x):
        x = np.atleast_1d(np.asarray(x, float))
        if np.linalg.norm(x) < 1e-12:
            return Action(sigma=np.eye(1), nu=ZeroMeasure(1), mu=np.zeros(1))
        return Action(sigma=np.eye(1),
                      nu=AtomicMeasure(1, -x[None, :], np.array([rate])),
                      mu=-rate * x)

    return entry


class _Bump:
    """(1 - (x/c)^2)^3 on |x| <= c: C^2, compactly supported, exact derivatives."""

    def __init__(self, c):
        self.c = float(c)
        self.name = f"bump{c:g}"

    def fn(self, X):
        u = X[:, 0] / self.c
        return np.where(np.abs(u) <= 1.0, (1.0 - u**2) ** 3, 0.0)

    def grad(self, X):
        u = X[:, 0] / self.c
        g = np.where(np.abs(u) <= 1.0, -6.0 * u * (1.0 - u**2) ** 2 / self.c, 0.0)
        return g[:, None]

    def hess(self, X):
        u = X[:, 0] / self.c
        h = np.where(
            np.abs(u) <= 1.0,
            (-6.0 * (1.0 - u**2) ** 2 + 24.0 * u**2 * (1.0 - u**2)) / self.c**2,
            0.0,
        )
        return h[:, None, None]


def test_01_riccati_diagonal_closed_form():
    start = time.perf_counter()
    lam = theta = 1.0
    q = 3.0
    B = solve_riccati([[lam]], [[theta]], q)
    p = np.sqrt(q**2 + 4.0 * lam / theta)
    exact = theta * (p - q) / 2.0
    assert abs(float(B[0, 0]) - exact) < 1e-10
    assert abs(exact - (np.sqrt(13.0) - 3.0) / 2.0) < 1e-15
    assert time.perf_counter() - start < 1.0


def test_02_stationary_solve_matches_quadratic_closed_form():
    start = time.perf_counter()
    spec = LQSpec(lam=[[1.0]], theta=[[1.0]], q=3.0,
                  dispersion_candidates=((np.eye(1), ZeroMeasure(1)),))
    sol = solve_lq(spec)
    grid = Grid.regular(-6.0, 6.0, 801)
    lattice = np.linspace(-4.0, 4.0, 81)
    prob = HJBProblem(
        f=lambda x, a: x**2 + float(a.mu @ a.mu), q=3.0, delta_q=3.0, b_q=3.0,
        sigma_nu_pairs=((np.eye(1), ZeroMeasure(1)),),
        mu_lattice=(lattice,),
    )
    phi, pol, rep = solve_stationary(prob, grid, tol=1e-8)
    assert rep.converged

    x = grid.axes[0]
    exact = float(sol.B[0, 0]) * x**2 + float(sol.c[0]) * x + sol.d
    window = np.abs(x) <= 2.0
    rel = np.abs(phi.values[window] - exact[window]) / np.maximum(1.0, np.abs(exact[window]))
    assert rel.max() < 1e-2

    target = -float(sol.Q[0, 0]) * x + float(sol.v[0])
    cell = lattice[1] - lattice[0]
    assert np.max(np.abs(pol.mu[1:-1, 0] - target[1:-1])) <= cell
    assert time.perf_counter() - start < 60.0


def test_03_jump_to_origin_benchmark_and_general_solver():
    start = time.perf_counter()
    grid = Grid.regular(-6.0, 6.0, 801)
    psi = example1_psi([0.0, 0.0, 1.0], 1.0, grid)
    V = example1_value(psi, 1.0)
    x = grid.axes[0]
    on_band = np.abs(x) <= 3.0
    assert np.max(np.abs(V.values[on_band] - (x[on_band] ** 2 / 2.0 + 0.5))) < 1e-6

    tol = 1e-6
    prob = HJBProblem(
        f=lambda xb, a: xb**2, q=1.0, delta_q=1.0, b_q=1.0,
        actions=(Action(sigma=np.eye(1), nu=ZeroMeasure(1), mu=np.zeros(1)),
                 _jump_origin_entry()),
    )
    gphi, gpol, grep = solve_stationary(prob, grid, tol=tol, max_iters=40)
    assert grep.converged
    rel = np.abs(gphi.values[on_band] - V.values[on_band]) / np.maximum(1.0, V.values[on_band])
    assert rel.max() < 2e-2

    should_jump = psi.values > psi.values[grid.num[0] // 2] + tol
    selected = gpol.action_index == 1
    assert np.all(selected[should_jump])
    assert time.perf_counter() - start < 60.0


def test_04_free_boundary_smooth_fit_and_switch_node():
    start = time.perf_counter()
    grid = Grid.regular(-8.0, 8.0, 481)
    sol = example2_free_boundary([0.0, 0.0, 1.0], 1.0, 1.0, grid, tol=1e-8)
    assert sol.matching_gap <= 1e-8
    assert sol.c1_gap <= 1e-8
    assert sol.increasing

    cgrid = Grid.regular(-8.0, 8.0, 241)
    assert sol.c2_gap <= 5.0 * cgrid.h[0]

    kappa = 1.0

    def f_with_charge(xb, a):
        from jumpctl.measures import total_mass
        return xb**2 + kappa * total_mass(a.nu)

    prob = HJBProblem(
        f=f_with_charge, q=1.0, delta_q=1.0, b_q=1.0,
        actions=(Action(sigma=np.eye(1), nu=ZeroMeasure(1), mu=np.zeros(1)),
                 _jump_origin_entry()),
    )
    gphi, gpol, grep = solve_stationary(prob, cgrid, tol=1e-6, max_iters=40)
    assert grep.converged
    axis = cgrid.axes[0]
    jumping = (gpol.action_index == 1) & (axis > 0.0)
    assert np.any(jumping)
    switch_x = float(axis[jumping].min())
    assert abs(switch_x - sol.b_hat) <= 2.0 * cgrid.h[0]
    assert time.perf_counter() - start < 120.0


def _dynkin_battery():
    act = Action(sigma=np.array([[0.8]]), nu=AtomicMeasure(1, [[0.5]], [1.0]),
                 mu=np.array([0.2]))
    cfg = SimConfig(x0=0.0, T=1.0, dt=1e-3, n_paths=100_000, seed=1105, store_every=10)
    bundle = simulate(PolicyFieldSpec.constant(act), cfg)
    rep = dynkin_test(bundle, [_Bump(2.0), _Bump(3.0), _Bump(4.0)],
                      [0.2, 0.4, 0.6, 0.8, 1.0])
    return rep.passed, [c["z"] for c in rep.statistics["checks"]]


def test_05_increment_battery_within_3se_and_deterministic():
    start = time.perf_counter()
    passed, zs = _dynkin_battery()
    assert passed
    assert len(zs) == 15  # 3 test functions x 5 time points
    assert np.max(np.abs(zs)) <= 3.0
    passed2, zs2 = _dynkin_battery()
    assert passed2 and zs == zs2
    assert time.perf_counter() - start < 300.0


def _bellman_battery(gain_scale, seed):
    spec = LQSpec(lam=[[1.0]], theta=[[1.0]], q=0.5,
                  dispersion_candidates=((np.eye(1), ZeroMeasure(1)),))
    sol = solve_lq(spec)
    k = gain_scale * float(sol.Q[0, 0])
    policy = PolicyFieldSpec.linear_feedback([[k]], [0.0], np.eye(1), nu=ZeroMeasure(1))
    cfg = SimConfig(x0=2.0, T=1.5, dt=1e-3, n_paths=100_000, seed=seed, store_every=25)
    bundle = simulate(policy, cfg, f=lambda X: X[:, 0] ** 2 + (k * X[:, 0]) ** 2, q=0.5)
    S = bellman_series(_lq_value_fn(sol), bundle)
    pairs = [(0.0, 1.0), (0.5, 1.5)]
    out = {}
    for mode in ("martingale", "sub"):
        rep = submartingale_test(S, bundle, pairs, n_bins=4, mode=mode)
        zs = [b["z"] for pr in rep.statistics["pairs"] for b in pr["bins"]
              if not b.get("excluded")]
        out[mode] = (rep.passed, zs)
    return out


def test_06_bellman_battery_optimal_vs_perturbed_feedback():
    start = time.perf_counter()
    optimal = _bellman_battery(1.0, 901)
    assert optimal["martingale"][0]
    assert optimal["sub"][0]

    perturbed = _bellman_battery(1.2, 902)
    assert perturbed["sub"][0]
    passed, zs = perturbed["martingale"]
    assert not passed
    assert any(abs(z) > 3.0 for z in zs)  # fails in at least one bin
    assert time.perf_counter() - start < 300.0


def test_07_decay_certificate_pass_and_refusal():
    start = time.perf_counter()
    spec = LQSpec(lam=[[1.0]], theta=[[1.0]], q=1.0,
                  dispersion_candidates=((np.eye(1), ZeroMeasure(1)),))
    sol = solve_lq(spec)
    policy = PolicyFieldSpec.linear_feedback(sol.Q, sol.v, sol.sigma_hat, nu=sol.nu_hat)
    cfg = SimConfig(x0=1.5, T=3.0, dt=0.005, n_paths=5000, seed=702, store_every=10)
    rep = transversality_test(simulate(policy, cfg, q=1.0), _lq_value_fn(sol))
    assert rep.passed
    assert rep.statistics["rate"] - 3.0 * rep.statistics["rate_se"] > 0.0

    def phi_heavy(X):
        x = np.asarray(X, float).reshape(-1, 1)[:, 0]
        return x**2 + 1.0 + np.exp(np.sqrt(2.0) * x)

    brownian = PolicyFieldSpec.linear_feedback([[0.0]], [0.0], np.eye(1), nu=ZeroMeasure(1))
    cfg2 = SimConfig(x0=0.0, T=6.0, dt=0.01, n_paths=20_000, seed=33, store_every=30)
    rep2 = transversality_test(simulate(brownian, cfg2, q=1.0), phi_heavy)
    assert not rep2.passed
    assert time.perf_counter() - start < 120.0


def test_08_jump_moment_ratio_stable_in_horizon():
    start = time.perf_counter()
    act = Action(sigma=np.array([[0.6]]), nu=AtomicMeasure(1, [[1.5]], [0.8]),
                 mu=np.zeros(1))
    policy = PolicyFieldSpec.constant(act)
    # one ensemble per horizon serves both moment orders
    bundles = [
        simulate(policy, SimConfig(x0=0.0, T=T, dt=2e-3, n_paths=20_000,
                                   seed=508 + i, store_every=50))
        for i, T in enumerate((1.0, 2.0, 4.0))
    ]
    for q in (2.0, 4.0):
        rep = moment_bound_report(bundles, q)
        assert rep.passed
        relative = np.asarray(rep.statistics["relative_to_first"])
        assert np.all(relative <= 2.0) and np.all(relative >= 0.5)
    assert time.perf_counter() - start < 300.0


def test_09_finite_horizon_agrees_with_stationary():
    start = time.perf_counter()
    grid = Grid.regular(-6.0, 6.0, 201)
    prob = HJBProblem(
        f=lambda x, a: x**2 + float(a.mu @ a.mu), q=3.0, delta_q=3.0, b_q=3.0,
        sigma_nu_pairs=((np.eye(1), ZeroMeasure(1)),),
        mu_lattice=(np.linspace(-4.0, 4.0, 41),),
    )
    phi_s, _, rep = solve_stationary(prob, grid, tol=1e-8)
    assert rep.converged
    fh = solve_finite_horizon(prob, 0.0, 8.0, 640, grid)
    x = grid.axes[0]
    window = np.abs(x) <= 2.0
    assert np.max(np.abs(fh.values[0][window] - phi_s.values[window])) < 5e-2

    discount_only = HJBProblem(
        f=0.0, q=3.0, delta_q=3.0, b_q=3.0,
        sigma_nu_pairs=((np.eye(1), ZeroMeasure(1)),),
        mu_lattice=(np.linspace(-1.0, 1.0, 5),),
    )
    fh0 = solve_finite_horizon(discount_only, 2.5, 2.0, 40, grid)
    assert np.max(np.abs(fh0.values[0] - 2.5 * np.exp(-3.0 * 2.0))) < 1e-10
    assert time.perf_counter() - start < 300.0
