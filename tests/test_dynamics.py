"""Simulator tests with closed-form oracles.

Every statistical assertion uses a frozen seed and a three-standard-error
band around an exactly known target:

* frozen point (sigma = 0, nu = 0, mu = 0, u = 0): the state never moves,
  gamma and the running cost integrate deterministic functions;
* Brownian constant action: E[X_T] = x0 and Var[X_T] = sigma^2 T, and the
  Euler scheme is exact for constant coefficients at any step size;
* compound Poisson with atom y=1, mass 2: full compensation gives
  E[X_T] = x0, jump counts are Poisson(2T);
* Ornstein-Uhlenbeck feedback mu(x) = -x: E[X_T] = x0 e^{-T},
  Var[X_T] = (1 - e^{-2T}) / 2;
* jump-to-origin at rate 1 from x0=3: X_T is 3 with probability e^{-T}
  and 0 otherwise, and G_T = 9 min(tau, T) so E[G_T] = 9 (1 - e^{-T});
* quadratic-cost feedback: with the stationary solve, the accumulated
  discounted cost plus discounted value is a martingale, so increment
  means vanish within Monte Carlo error.
"""

import numpy as np
import pytest

from jumpctl.dynamics import (
    AdmissibilityError,
    PathBundle,
    PolicyFieldSpec,
    SimConfig,
    bellman_series,
    characteristics_report,
    gm_left_side,
    payoff_estimate,
    simulate,
)
from jumpctl.lq import LQSpec, solve_lq
from jumpctl.measures import Action, AtomicMeasure, MeasureSupportError, ZeroMeasure


def _const(sigma, nu, mu, **kw):
    return PolicyFieldSpec.constant(Action(sigma=sigma, nu=nu, mu=mu), **kw)


FROZEN = _const(0.0, ZeroMeasure(1), 0.0)


def test_frozen_point_stays_put():
    cfg = SimConfig(x0=1.5, T=1.0, dt=0.01, n_paths=4, seed=0)
    b = simulate(FROZEN, cfg, q=0.5)
    assert b.states.shape == (4, 101, 1)
    assert np.all(b.states == 1.5)
    # gamma is exact for constant q (trapezoid of a constant)
    assert np.allclose(b.gamma, 0.5 * b.times[None, :], atol=1e-14)
    assert np.all(b.sup_xc == 0.0) and np.all(b.sup_xd == 0.0)
    assert b.jump_sizes.shape == (0, 1)
    assert b.G_int.tolist() == [0.0] * 4


def test_running_cost_trapezoid():
    # integral of e^{-s/2} over [0, 1] = 2 (1 - e^{-1/2})
    cfg = SimConfig(x0=0.0, T=1.0, dt=0.01, n_paths=2, seed=0)
    b = simulate(FROZEN, cfg, f=1.0, q=0.5)
    target = 2.0 * (1.0 - np.exp(-0.5))
    assert abs(b.cost_disc[0] - target) < 1e-5
    assert np.all(b.cost_disc == b.cost_run[:, -1])


def test_brownian_moments():
    pol = _const(1.0, ZeroMeasure(1), 0.0)
    n = 100_000
    cfg = SimConfig(x0=2.0, T=1.0, dt=0.05, n_paths=n, seed=11)
    b = simulate(pol, cfg)
    xT = b.states[:, -1, 0]
    se_mean = 1.0 / np.sqrt(n)
    assert abs(xT.mean() - 2.0) < 3 * se_mean
    assert abs(xT.var(ddof=1) - 1.0) < 3 * np.sqrt(2.0 / (n - 1))
    # continuous martingale part dominates its terminal value
    assert np.all(b.sup_xc >= np.abs(xT - 2.0) - 1e-12)
    assert np.all(b.sup_xd == 0.0)


def test_compound_poisson_compensated():
    nu = AtomicMeasure(1, locations=[[1.0]], masses=[2.0])
    pol = _const(0.0, nu, 0.0)
    n = 20_000
    cfg = SimConfig(x0=0.5, T=1.0, dt=0.01, n_paths=n, seed=23)
    b = simulate(pol, cfg)
    xT = b.states[:, -1, 0]
    # Var[X_T] = T * int y^2 nu = 2
    assert abs(xT.mean() - 0.5) < 3 * np.sqrt(2.0 / n)
    counts = b.jump_counts[:, -1]
    assert abs(counts.mean() - 2.0) < 3 * np.sqrt(2.0 / n)
    assert abs(counts.var(ddof=1) - 2.0) / 2.0 < 0.1
    assert np.all(np.diff(b.jump_counts, axis=1) >= 0)
    # all sizes are the atom
    assert np.allclose(b.jump_sizes, 1.0)
    assert np.allclose(b.G_int, 2.0)


def test_combined_diffusion_and_jumps():
    nu = AtomicMeasure(1, locations=[[1.5]], masses=[0.6])
    pol = _const(0.8, nu, 0.4)
    n = 20_000
    cfg = SimConfig(x0=1.0, T=1.0, dt=0.005, n_paths=n, seed=37)
    b = simulate(pol, cfg)
    xT = b.states[:, -1, 0]
    var = 0.8**2 + 0.6 * 1.5**2  # sigma^2 + int y^2 nu
    assert abs(xT.mean() - 1.4) < 3 * np.sqrt(var / n)
    assert abs(xT.var(ddof=1) - var) / var < 0.1


def test_seed_determinism_bitwise():
    nu = AtomicMeasure(1, locations=[[1.0]], masses=[1.0])
    pol = _const(0.5, nu, 0.1)
    cfg = SimConfig(x0=0.0, T=0.5, dt=0.01, n_paths=500, seed=99)
    b1 = simulate(pol, cfg, f=lambda X: X[:, 0] ** 2, q=1.0)
    b2 = simulate(pol, cfg, f=lambda X: X[:, 0] ** 2, q=1.0)
    assert np.array_equal(b1.states, b2.states)
    assert np.array_equal(b1.jump_sizes, b2.jump_sizes)
    assert np.array_equal(b1.cost_run, b2.cost_run)
    b3 = simulate(pol, SimConfig(x0=0.0, T=0.5, dt=0.01, n_paths=500, seed=100))
    assert not np.array_equal(b1.states, b3.states)


def test_store_every_coarsens_storage_only():
    pol = _const(1.0, ZeroMeasure(1), -0.2)
    mk = lambda s: SimConfig(x0=1.0, T=1.0, dt=0.01, n_paths=64, seed=5, store_every=s)
    fine = simulate(pol, mk(1), f=lambda X: X[:, 0] ** 2, q=0.3)
    coarse = simulate(pol, mk(7), f=lambda X: X[:, 0] ** 2, q=0.3)
    # identical RNG stream: terminal quantities agree bit for bit
    assert np.array_equal(fine.states[:, -1], coarse.states[:, -1])
    assert np.array_equal(fine.gamma[:, -1], coarse.gamma[:, -1])
    assert np.array_equal(fine.cost_disc, coarse.cost_disc)
    assert coarse.times[-1] == 1.0
    assert coarse.times.size == 16  # steps 0,7,...,98 plus the endpoint
    assert np.array_equal(coarse.states[:, 3], fine.states[:, 21])


def test_truncated_drift_and_covariance_exact():
    pol = _const(0.7, ZeroMeasure(1), 0.3)
    cfg = SimConfig(x0=0.0, T=2.0, dt=0.01, n_paths=32, seed=1, u=0.2)
    b = simulate(pol, cfg)
    rep = characteristics_report(b)
    # no jumps: B^h = (u + mu) t exactly; constant sigma: C_T = sigma^T sigma T
    assert rep.bh_gap < 1e-12
    assert rep.c_gap < 1e-10
    assert b.C.shape == (b.times.size, 1, 1)
    assert rep.c_total[0, 0] == pytest.approx(0.49 * 2.0, abs=1e-10)
    assert rep.n_jumps == 0


def test_characteristics_histogram_single_atom():
    nu = AtomicMeasure(1, locations=[[2.0]], masses=[1.0])
    pol = _const(0.0, nu, 0.0)
    n = 20_000
    cfg = SimConfig(x0=0.0, T=1.0, dt=0.01, n_paths=n, seed=3)
    b = simulate(pol, cfg)
    rep = characteristics_report(b)
    assert rep.jump_rate_expected == 1.0
    assert abs(rep.jump_rate_observed - 1.0) < 3.0 / np.sqrt(n)
    assert rep.hist_expected.sum() == pytest.approx(n * 1.0)
    assert rep.max_z is not None and rep.max_z < 3.0
    assert rep.hist_counts.sum() == rep.n_jumps


def test_characteristics_need_recording():
    cfg = SimConfig(
        x0=0.0, T=0.1, dt=0.01, n_paths=2, seed=0, record_characteristics=False
    )
    b = simulate(FROZEN, cfg)
    with pytest.raises(ValueError, match="record"):
        characteristics_report(b)


def test_jump_to_origin_decay():
    pol = PolicyFieldSpec.jump_to_origin(rate=1.0, sigma=0.0, dim=1)
    n = 4000
    cfg = SimConfig(x0=3.0, T=4.0, dt=0.01, n_paths=n, seed=7)
    b = simulate(pol, cfg)
    xT = b.states[:, -1, 0]
    # absorbing once at the origin: X_T in {0, 3}
    assert set(np.round(np.unique(xT), 12).tolist()) <= {0.0, 3.0}
    p_stay = np.exp(-4.0)
    se = np.sqrt(p_stay * (1 - p_stay) / n)
    # small extra allowance for the per-step thinning bias O(rate^2 dt)
    assert abs(xT.mean() - 3.0 * p_stay) < 3 * 3.0 * se + 2e-3
    # G_T = 9 min(tau, T): E = 9 (1 - e^{-4})
    g_target = 9.0 * (1.0 - np.exp(-4.0))
    assert abs(b.G_int.mean() - g_target) < 0.45
    # |x0| > 1 and the post-jump state is 0, so B^h vanishes identically
    rep = characteristics_report(b)
    assert rep.bh_gap < 1e-12
    assert np.all(b.jump_sizes[:, 0] == -3.0)


def test_jump_to_origin_action_field():
    pol = PolicyFieldSpec.jump_to_origin(rate=2.0, sigma=1.0, dim=1)
    acts = pol.action_at(np.array([[0.0], [1.5]]))
    assert isinstance(acts[0].nu, ZeroMeasure)
    assert acts[1].nu.locations[0, 0] == -1.5
    assert acts[1].nu.masses[0] == 2.0
    assert acts[1].mu[0] == -3.0
    assert pol.rate_cap() == 2.0


def test_linear_feedback_ou_moments():
    pol = PolicyFieldSpec.linear_feedback(gain=[[1.0]], offset=0.0, sigma=1.0)
    n = 20_000
    cfg = SimConfig(x0=2.0, T=2.0, dt=0.002, n_paths=n, seed=13, store_every=50)
    b = simulate(pol, cfg)
    xT = b.states[:, -1, 0]
    mean_t = 2.0 * np.exp(-2.0)
    var_t = 0.5 * (1.0 - np.exp(-4.0))
    assert abs(xT.mean() - mean_t) < 3 * np.sqrt(var_t / n)
    assert abs(xT.var(ddof=1) - var_t) / var_t < 0.05
    acts = pol.action_at(np.array([[0.5], [-2.0]]))
    assert acts[0].mu[0] == -0.5 and acts[1].mu[0] == 2.0


def _lq_setup():
    spec = LQSpec(
        lam=[[1.0]], theta=[[1.0]], q=1.0,
        dispersion_candidates=[(1.0, ZeroMeasure(1))],
    )
    sol = solve_lq(spec)
    pol = PolicyFieldSpec.linear_feedback(
        gain=sol.Q, offset=sol.v, sigma=sol.sigma_hat, nu=sol.nu_hat
    )
    qq = float(sol.Q[0, 0])

    def f_fn(X):
        x = X[:, 0]
        mu = sol.v[0] - qq * x
        return x**2 + mu**2

    return sol, pol, f_fn


def test_bellman_series_is_martingale_for_lq_optimum():
    sol, pol, f_fn = _lq_setup()
    n = 20_000
    cfg = SimConfig(x0=1.0, T=1.0, dt=0.001, n_paths=n, seed=41, store_every=100)
    b = simulate(pol, cfg, f=f_fn, q=1.0)
    S = bellman_series(lambda X: sol.value(X), b)
    assert np.allclose(S[:, 0], sol.value(np.array([1.0])), atol=1e-13)
    for j in range(1, S.shape[1]):
        inc = S[:, j] - S[:, 0]
        se = inc.std(ddof=1) / np.sqrt(n)
        assert abs(inc.mean()) < 3 * se, f"drift at t={b.times[j]}: {inc.mean():.2e}"


def test_bellman_series_recompute_matches_recorded():
    cfg = SimConfig(x0=1.5, T=1.0, dt=0.01, n_paths=3, seed=0)
    b = simulate(FROZEN, cfg, f=1.0, q=0.5)
    phi = lambda X: X[:, 0] ** 2
    S_rec = bellman_series(phi, b)
    S_new = bellman_series(phi, b, f=1.0, q=0.5)
    assert np.allclose(S_rec, S_new, atol=1e-12)


def test_payoff_estimate_constant_cost():
    # f = c, q = q0: value c/q0; the truncation tail is covered by the bound
    cfg = SimConfig(x0=0.0, T=10.0, dt=0.02, n_paths=16, seed=2)
    est = payoff_estimate(
        FROZEN, cfg, f=2.0, q=0.8, f_growth=(2.0, 0.0), delta_q=0.8
    )
    assert est.std_error < 1e-12
    assert abs(est.estimate - 2.0 / 0.8) <= est.tail_bound + 1e-4
    assert est.tail_bound < 5e-3


def test_payoff_estimate_zero_cost():
    cfg = SimConfig(x0=1.0, T=1.0, dt=0.05, n_paths=8, seed=2)
    est = payoff_estimate(FROZEN, cfg, f=None, q=1.0, tail_mode="none")
    assert est == (0.0, 0.0, 0.0)


def test_payoff_estimate_matches_lq_value():
    sol, pol, f_fn = _lq_setup()
    c_f = 1.0 + float(sol.Q[0, 0]) ** 2
    cfg = SimConfig(x0=1.0, T=5.0, dt=0.002, n_paths=10_000, seed=17, store_every=250)
    est = payoff_estimate(
        pol, cfg, f=f_fn, q=1.0, f_growth=(c_f, 2.0), delta_q=1.0
    )
    target = sol.value(np.array([1.0]))
    assert abs(est.estimate - target) <= 3 * est.std_error + est.tail_bound


def test_payoff_growth_mode_needs_envelope():
    cfg = SimConfig(x0=0.0, T=1.0, dt=0.1, n_paths=4, seed=0)
    with pytest.raises(ValueError, match="f_growth"):
        payoff_estimate(FROZEN, cfg, f=1.0, q=1.0)
    with pytest.raises(ValueError, match="tail_mode"):
        payoff_estimate(FROZEN, cfg, f=1.0, q=1.0, tail_mode="exact")


def test_declared_rate_bound_enforced():
    nu = AtomicMeasure(1, locations=[[1.0]], masses=[2.0])
    pol = _const(0.0, nu, 0.0)
    cfg = SimConfig(x0=0.0, T=1.0, dt=0.01, n_paths=4, seed=0, lambda_max=1.0)
    with pytest.raises(AdmissibilityError, match="thinning bound"):
        simulate(pol, cfg)


def test_growth_certificate_violation_raises():
    # mu(x) = 3x gives lhs 9x^2 + 1 > 4 (1 + x^2) once |x| > sqrt(3/5)
    pol = PolicyFieldSpec.linear_feedback(
        gain=[[-3.0]], offset=0.0, sigma=1.0, growth_K=4.0, growth_p=2.0
    )
    cfg = SimConfig(x0=2.0, T=1.0, dt=1.0 / 64, n_paths=8, seed=0)
    with pytest.raises(AdmissibilityError, match="growth certificate"):
        simulate(pol, cfg)


def test_blowup_guard():
    pol = PolicyFieldSpec.linear_feedback(gain=[[-40.0]], offset=0.0, sigma=0.0)
    cfg = SimConfig(x0=1.0, T=2.0, dt=0.05, n_paths=4, seed=0)
    with pytest.raises(AdmissibilityError, match="blow-up"):
        simulate(pol, cfg)


@pytest.mark.parametrize("locations, masses", [
    ([[0.0]], [1.0]),             # atom at the origin
    ([[1.0], [-1.0]], [1.0, -0.5]),  # a negative mass, positive total
    ([[1.0]], [-1.0]),            # negative total mass: no jumps would be drawn
])
@pytest.mark.parametrize("kind", ["constant", "linear"])
def test_malformed_measure_rejected_before_stepping(kind, locations, masses):
    nu = AtomicMeasure(1, locations=locations, masses=masses)
    if kind == "constant":
        pol = _const(0.5, nu, 0.0)
    else:
        pol = PolicyFieldSpec.linear_feedback(gain=[[1.0]], offset=0.0, sigma=0.5, nu=nu)
    cfg = SimConfig(x0=0.0, T=0.5, dt=0.01, n_paths=8, seed=0)
    with pytest.raises(MeasureSupportError):
        simulate(pol, cfg)


def test_one_column_matmul_is_product_plus_zero():
    # the 1-D simulator computes x @ s.T as x * s + 0.0; pin that identity,
    # signed zeros, underflow, overflow and NaN included
    from jumpctl.dynamics import _matmul_into

    rng = np.random.default_rng(4)
    x = rng.standard_normal((257, 1)) * 10.0 ** rng.integers(-320, 300, (257, 1))
    x[:9, 0] = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -0.3]
    for s in (0.0, -0.0, 0.6, -1.3, 5e-324, 1e300, np.inf, np.nan):
        S = np.array([[s]])
        with np.errstate(all="ignore"):
            want = x @ S.T
            got = _matmul_into(x, S.T, np.empty_like(x))
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), s


def test_negative_zero_start_becomes_positive_zero_after_a_step():
    # -0.0 in x0 and u: the snapshot at t=0 keeps it, later states are +0.0
    pol = _const(0.0, ZeroMeasure(1), -0.0)
    cfg = SimConfig(x0=-0.0, T=0.05, dt=0.01, n_paths=3, seed=0, u=-0.0)
    b = simulate(pol, cfg)
    assert np.all(np.signbit(b.states[:, 0]))
    assert not np.any(np.signbit(b.states[:, 1:]))


def _inadmissible_cases():
    atom2 = AtomicMeasure(1, locations=[[1.0]], masses=[2.0])
    cfg = lambda **kw: SimConfig(**{"x0": 0.0, "T": 1.0, "dt": 0.1, "n_paths": 4,
                                    "seed": 0, **kw})
    return {
        "rate-linear": (PolicyFieldSpec.linear_feedback([[1.0]], 0.0, 1.0, nu=atom2),
                        cfg(lambda_max=1.0), "thinning bound"),
        "rate-jump_origin": (PolicyFieldSpec.jump_to_origin(rate=2.0),
                             cfg(lambda_max=1.0), "thinning bound"),
        "rate-callable": (
            PolicyFieldSpec.from_action_callable(lambda x: Action(0.0, atom2, 0.0)),
            cfg(lambda_max=1.0), "thinning bound"),
        "blowup-constant": (_const(0.0, ZeroMeasure(1), 1e10), cfg(), "blow-up"),
        "blowup-jump_origin": (PolicyFieldSpec.jump_to_origin(rate=0.5, sigma=1e11),
                               cfg(), "blow-up"),
        # |sigma|^2 = 9 > 1 * (1 + 0)
        "growth-constant": (_const(3.0, ZeroMeasure(1), 0.0, growth_K=1.0, growth_p=2.0),
                            cfg(), "growth certificate"),
        # (2 * 3)^2 + 1 + 2 * 9 = 55 > 1 * (1 + 9)
        "growth-jump_origin": (
            PolicyFieldSpec.jump_to_origin(rate=2.0, growth_K=1.0, growth_p=2.0),
            cfg(x0=3.0), "growth certificate"),
    }


@pytest.mark.parametrize("case", sorted(_inadmissible_cases()))
def test_admissibility_checks_fire_on_every_shape(case):
    # the tests above cover the constant rate bound and linear feedback's
    # blow-up and growth checks; each policy shape steps its own code
    policy, cfg, match = _inadmissible_cases()[case]
    with pytest.raises(AdmissibilityError, match=match):
        simulate(policy, cfg)


def test_callable_policy_slow_path():
    nu = AtomicMeasure(1, locations=[[1.0]], masses=[0.5])
    act = Action(sigma=1.0, nu=nu, mu=0.2)
    fast = PolicyFieldSpec.constant(act)
    slow = PolicyFieldSpec.from_action_callable(lambda x: act)
    mk = lambda s: SimConfig(x0=0.0, T=0.5, dt=0.01, n_paths=400, seed=s)
    bf = simulate(fast, mk(8))
    bs = simulate(slow, mk(8))
    # different RNG consumption pattern: compare distributions, not bits
    comb = np.sqrt(bf.states[:, -1, 0].var() / 400 + bs.states[:, -1, 0].var() / 400)
    assert abs(bf.states[:, -1, 0].mean() - bs.states[:, -1, 0].mean()) < 4 * comb
    assert bs.c_per_path and bs.C.shape == (400, bs.times.size, 1, 1)
    assert np.allclose(bs.C[:, -1, 0, 0], 0.5)
    assert slow.action_at(np.array([[3.0]]))[0] is act


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        SimConfig(x0=0.0, T=-1.0, dt=0.1, n_paths=1, seed=0)
    with pytest.raises(ValueError, match="positive"):
        SimConfig(x0=0.0, T=1.0, dt=0.0, n_paths=1, seed=0)
    with pytest.raises(ValueError, match="n_paths"):
        SimConfig(x0=0.0, T=1.0, dt=0.1, n_paths=0, seed=0)
    with pytest.raises(ValueError, match="store_every"):
        SimConfig(x0=0.0, T=1.0, dt=0.1, n_paths=1, seed=0, store_every=0)
    with pytest.raises(ValueError, match="lambda_max"):
        SimConfig(x0=0.0, T=1.0, dt=0.1, n_paths=1, seed=0, lambda_max=0.0)


def test_policy_table_lookup():
    from jumpctl.hjb import Grid, HJBProblem, PolicyTable

    grid = Grid.regular(-1.0, 1.0, 17)
    a0 = Action(sigma=1.0, nu=ZeroMeasure(1), mu=0.0)
    a1 = Action(sigma=1.0, nu=AtomicMeasure(1, [[1.0]], [0.7]), mu=-1.0)
    prob = HJBProblem(f=lambda x: x**2, q=1.0, delta_q=1.0, b_q=1.0, actions=(a0, a1))
    idx = np.where(grid.axes[0] < 0.0, 0, 1)  # switch at the origin node
    table = PolicyTable(grid=grid, action_index=idx)
    pol = PolicyFieldSpec.from_policy_table(table, prob)
    assert pol.fn(-0.9) is a0
    assert pol.fn(0.3) is a1
    assert pol.rate_cap() == pytest.approx(0.7)


def test_gm_left_side_values():
    nu = AtomicMeasure(1, locations=[[2.0]], masses=[1.5])
    a = Action(sigma=3.0, nu=nu, mu=-1.0)
    # |mu|^2 + |sigma|^2 + mass * max(4, 4) = 1 + 9 + 6
    assert gm_left_side(a, 2.0) == pytest.approx(16.0)
    pol = PolicyFieldSpec.jump_to_origin(rate=2.0, sigma=1.0, dim=1)
    lhs = pol.growth_left(np.array([[3.0]]), 2.0)
    # (2*3)^2 + 1 + 2 * 9
    assert lhs[0] == pytest.approx(55.0)


# ------------------------------------------------------ frozen-seed contract

_BUNDLE_ARRAYS = ("states", "gamma", "cost_run", "Bh", "C", "jump_counts", "jump_sizes",
                  "jump_paths", "jump_times", "sup_xc", "sup_xd", "G_int")


def _digest_cases():
    from jumpctl.measures import DensityGridMeasure

    def cfg(**kw):
        base = dict(x0=0.0, T=0.5, dt=0.01, n_paths=300, seed=2024, store_every=3)
        base.update(kw)
        return SimConfig(**base)

    quad = lambda X: np.sum(X * X, axis=1)
    two_atoms = AtomicMeasure(1, locations=[[0.4], [-1.6]], masses=[1.2, 0.5])
    atoms_2d = AtomicMeasure(2, locations=[[0.5, -0.2], [-1.3, 0.9]], masses=[0.8, 0.4])
    density = DensityGridMeasure(dim=1, lo=[0.2], hi=[1.4], shape=(6,),
                                 values=[0.5, 1.0, 1.5, 1.0, 0.5, 0.25])

    def callable_action(x):
        return Action(sigma=0.6, nu=AtomicMeasure(1, [[0.7]], [0.9]), mu=-0.5 * x)

    return {
        "constant_one_atom": (
            _const(0.5, AtomicMeasure(1, [[1.0]], [1.5]), 0.1), cfg(), None, None),
        "constant_two_atoms_thinned": (
            _const(0.3, two_atoms, -0.2), cfg(lambda_max=2.5, u=0.05), None, 0.7),
        "linear_with_f_q": (
            PolicyFieldSpec.linear_feedback(gain=[[1.3]], offset=0.2, sigma=0.8,
                                            nu=AtomicMeasure(1, [[-0.6]], [1.1])),
            cfg(x0=1.0, u=0.1), quad, lambda X: 1.0 + 0.1 * X[:, 0] ** 2),
        "jump_to_origin": (
            PolicyFieldSpec.jump_to_origin(rate=1.5, sigma=0.7, dim=1, growth_K=20.0,
                                           growth_p=2.0),
            cfg(x0=2.0, lambda_max=2.0), quad, 0.5),
        "linear_2d_correlated": (
            PolicyFieldSpec.linear_feedback(gain=[[1.0, 0.3], [-0.2, 0.8]], offset=[0.1, -0.1],
                                            sigma=[[0.7, 0.2], [0.1, 0.5]], nu=atoms_2d,
                                            growth_K=50.0, growth_p=2.0),
            cfg(x0=[0.5, -0.5], n_paths=200), quad, 1.0),
        "constant_density_jitter": (
            _const(0.4, density, 0.0), cfg(), None, None),
        "callable": (
            PolicyFieldSpec.from_action_callable(callable_action, rate_bound=1.2),
            cfg(n_paths=40, lambda_max=1.2), quad, 0.3),
    }


# sha256 over (name, dtype, shape, bytes) of every array in _BUNDLE_ARRAYS, in
# order, recorded before the vectorised shapes were made to step in place.
# Float bits depend on numpy's kernels; these were taken with numpy 2.4 on x86-64.
_FROZEN_DIGESTS = {
    "callable": "ead33806c16f1afe0e48ec59cd37b7b8273341ff29ebe210f4b73a4d2c63ca47",
    "constant_density_jitter": "04b0e6c987bf328548de889b34e9758ab51f428c8b06b307b50d528157ef01ab",
    "constant_one_atom": "7f3ec432da73fc50175c3783c3b1a9c1918c39de2c4b4dd7472a04badc47a919",
    "constant_two_atoms_thinned":
        "b02f72ba557bf944e3ead5620a346823c7698c1454ec2814006c4e077ed7162a",
    "jump_to_origin": "a9fbe3686dfe60143f8960ab4fbfe5c09ec558ea9728c7d1688507fb48f4dfed",
    "linear_2d_correlated": "a85c480d731124e10c089b65b2c66625f73f69b65a98cbcf8c14342ec3657a41",
    "linear_with_f_q": "a08cb1495761924045ef630a5928a153f34e25d32cd5508117681812f3d92d31",
}


def _bundle_digest(bundle) -> str:
    import hashlib

    h = hashlib.sha256()
    for name in _BUNDLE_ARRAYS:
        arr = np.ascontiguousarray(getattr(bundle, name))
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(_digest_cases()))
def test_simulate_frozen_seed_digests(case):
    policy, cfg, f, q = _digest_cases()[case]
    assert _bundle_digest(simulate(policy, cfg, f=f, q=q)) == _FROZEN_DIGESTS[case]
