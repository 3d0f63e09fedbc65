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
    payoff_estimate,
    simulate,
)
from jumpctl.lq import LQSpec, solve_lq
from jumpctl.measures import (
    Action,
    AtomicMeasure,
    DensityGridMeasure,
    MeasureSupportError,
    RelocationKernel,
    ZeroMeasure,
    moment_functional,
    total_mass,
)
from per_state_actions import jump_to_origin_action


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


def test_characteristics_histogram_skipped_for_2d_density():
    # a 2-D cell's jitter spreads |y| in a way the report does not integrate, so
    # it predicts no histogram and says so, as for a state-dependent measure
    nu = DensityGridMeasure(dim=2, lo=[-1.0, -1.0], hi=[1.0, 1.0], shape=(4, 4), values=np.ones((4, 4)),
                            eps=0.3)
    b = simulate(_const(np.zeros((2, 2)), nu, [0.0, 0.0]),
                 SimConfig(x0=[0.0, 0.0], T=1.0, dt=0.01, n_paths=200, seed=3))
    rep = characteristics_report(b)
    assert rep.n_jumps > 0 and rep.jump_rate_expected == pytest.approx(4.0)
    assert rep.hist_expected is None and rep.max_z is None
    assert any("histogram prediction skipped" in m for m in rep.messages)


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
    # one constant action whose relocation kernel is read per row: no mass at
    # the origin, the rate off it, and its mean joins the drift applied
    pol = PolicyFieldSpec.jump_to_origin(rate=2.0, sigma=1.0, dim=1)
    X = np.array([[0.0], [1.5]])
    mu, group, pairs = pol.coefficients(X)
    assert pol.kind == "constant" and group.tolist() == [0, 0] and len(pairs) == 1
    assert mu[:, 0].tolist() == [0.0, 0.0]
    mass, y = pairs[0][1].at(X)
    assert mass.tolist() == [0.0, 2.0] and y[1, 0] == -1.5
    assert (mu + mass[:, None] * y)[:, 0].tolist() == [0.0, -3.0]
    assert pol.rate_cap() == 2.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_relocation_rows_match_the_norm_reference(dim):
    # a kernel's masses and its rows' B^h and G increments add the squared
    # columns left to right; they must be the bits of np.linalg.norm and
    # np.add.reduce, on the target, within 1e-12 of it and at |y| = 1, where
    # |y|^2 may read 1 + ulp while |y| rounds to 1 (so the root is kept)
    from jumpctl.dynamics import _StepModel

    rng = np.random.default_rng(21)
    y = rng.standard_normal((3000, dim)) * 10.0 ** rng.integers(-14, 2, (3000, 1))
    y[1000:2000] /= np.linalg.norm(y[1000:2000], axis=1)[:, None]
    y[:4], y[4 : 4 + dim] = 0.0, np.eye(dim)
    X, rate, dt, u = -y, 1.7, 0.01, np.full(dim, 0.3)  # jump to the origin: y = 0 - x
    pol = PolicyFieldSpec.jump_to_origin(rate, sigma=0.5, dim=dim)
    mass, y_at = pol.action.nu.at(X)
    r, sq = np.linalg.norm(y, axis=1), np.add.reduce(y * y, axis=1)
    assert np.array_equal(y_at, y) and (r < 1e-12).sum() > 4 and (r == 1.0).sum() > dim
    assert np.array_equal(mass, np.where(r < 1e-12, 0.0, rate))
    if dim > 1:
        assert ((r <= 1.0) != (sq <= 1.0)).any()
    model = _StepModel(pol, np.zeros(dim), u, dt, None)
    model._increments(X, np.zeros((len(X), dim)))
    mean = mass[:, None] * y
    bh = (u + np.zeros((len(X), dim)) + mean * (r <= 1.0)[:, None]) * dt
    assert np.array_equal(model.bh_dt, bh)
    assert np.array_equal(model.g_dt, model.pair_g_dt + mass * sq * dt)
    # coefficient_norms forms |mu + mean| and |y| from the same sums
    for p in (2.0, 3.0):
        d, _, j = pol.coefficient_norms(X, p)
        assert np.array_equal(d, np.linalg.norm(np.zeros((len(X), dim)) + mean, axis=1))
        assert np.array_equal(j, 0.0 + mass * np.maximum(r**2, r**p))


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
    assert pol.coefficients(np.array([[0.5], [-2.0]]))[0][:, 0].tolist() == [-0.5, 2.0]


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
    # a callable that returns one Action everywhere is one row group, and one
    # group makes the constant shape's draws and arithmetic, bit for bit
    nu = AtomicMeasure(1, locations=[[1.0]], masses=[0.5])
    act = Action(sigma=1.0, nu=nu, mu=0.2)
    fast = PolicyFieldSpec.constant(act)
    slow = PolicyFieldSpec.from_action_callable(lambda x: act)
    for lam in (None, 0.9):  # the clock at the jump rate, then above it (thinned)
        cfg = SimConfig(x0=0.0, T=0.5, dt=0.01, n_paths=400, seed=8, lambda_max=lam)
        bf, bs = simulate(fast, cfg), simulate(slow, cfg)
        for name in _BUNDLE_ARRAYS:
            if name != "C":
                assert np.array_equal(getattr(bf, name), getattr(bs, name)), name
    assert bs.c_per_path and bs.C.shape == (400, bs.times.size, 1, 1)
    assert np.allclose(bs.C[:, -1, 0, 0], 0.5)
    mu, group, pairs = slow.coefficients(np.array([[3.0], [-1.0]]))
    assert mu[:, 0].tolist() == [0.2, 0.2] and group.tolist() == [0, 0]
    assert pairs[0][0].tolist() == [[1.0]] and pairs[0][1].masses.tolist() == [0.5]
    assert pairs[0][1].locations.tolist() == [[1.0]]


@pytest.mark.parametrize("dim", [1, 2])
def test_one_action_steps_alike_in_every_shape(dim):
    # one (sigma, nu, mu) as a constant action, as linear feedback with gain 0
    # and as a callable that returns it everywhere (one row group) takes the
    # same path, so the bundles agree bit for bit; in 2-D a row group's einsum
    # and the shared shapes' matmul may differ in the last bits
    sigma = np.array([[0.7, 0.2], [0.1, 0.5]])[:dim, :dim]
    nu = AtomicMeasure(dim, [[0.5, -0.2][:dim], [-1.3, 0.9][:dim]], [0.8, 0.4])
    mu = np.array([0.3, -0.1])[:dim]
    act = Action(sigma=sigma, nu=nu, mu=mu)
    cfg = SimConfig(x0=np.full(dim, 0.5), T=0.5, dt=0.01, n_paths=300, seed=12, store_every=3,
                    lambda_max=1.5)  # above the jump mass 1.2, so the clock is thinned
    const = simulate(PolicyFieldSpec.constant(act), cfg)
    linear = simulate(PolicyFieldSpec.linear_feedback(np.zeros((dim, dim)), mu, sigma, nu=nu), cfg)
    group = simulate(PolicyFieldSpec.from_action_callable(lambda x: act), cfg)
    assert const.jump_sizes.shape[0] > 50 and group.c_per_path and not const.c_per_path
    for name in _BUNDLE_ARRAYS:
        a, b, c = (getattr(bundle, name) for bundle in (const, linear, group))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        if name == "C":
            a = np.broadcast_to(a, c.shape)
        if dim == 1:
            assert np.array_equal(a, c), name
        else:
            np.testing.assert_allclose(c, a, rtol=1e-12, atol=1e-14, err_msg=name)


def test_solved_tables_step_as_row_groups():
    from functools import partial

    from jumpctl.hjb import Grid, HJBProblem, PolicyTable, solve_stationary

    n, T = 2000, 1.0
    # product LQ table: the solved drift is the Riccati feedback v - Q x on the
    # nodes, so X_T has the Ornstein-Uhlenbeck moments of that feedback
    sol, _, _ = _lq_setup()
    grid = Grid.regular(-4.0, 4.0, 161)
    prob = HJBProblem(f=lambda x, a: x**2 + float(a.mu @ a.mu), q=1.0, delta_q=1.0, b_q=1.0,
                      sigma_nu_pairs=((1.0, ZeroMeasure(1)),),
                      mu_lattice=np.linspace(-4.0, 4.0, 41))
    _, table, rep = solve_stationary(prob, grid)
    assert rep.converged
    b = simulate(PolicyFieldSpec.from_policy_table(table, prob),
                 SimConfig(x0=1.0, T=T, dt=0.01, n_paths=n, seed=31))
    k, v = float(sol.Q[0, 0]), float(sol.v[0])
    mean = np.exp(-k * T) + v / k * (1.0 - np.exp(-k * T))
    var = (1.0 - np.exp(-2.0 * k * T)) / (2.0 * k)
    xT = b.states[:, -1, 0]
    assert abs(xT.mean() - mean) < 4 * np.sqrt(var / n)
    assert abs(xT.var(ddof=1) - var) < 4 * var * np.sqrt(2.0 / (n - 1))
    assert np.allclose(b.C[:, -1, 0, 0], T, rtol=1e-12)

    # list table: jump to origin at rate r on x >= 1.5, and two Actions with
    # the same sigma on the rest: a compensated symmetric compound Poisson
    # action around the origin, where relocated paths land, and a drift on
    # x < -2.  A path from x0 = 3 is still out at T with probability
    # exp(-r T), and then X_T = 3 + s_out W_T.  Each row on the callable
    # entry is its own group, so this ensemble is kept small.
    n, T, r, s_out, s_in = 600, 0.5, 2.0, 0.05, 0.2
    still = Action(sigma=s_in, nu=AtomicMeasure(1, [[0.2], [-0.2]], [0.25, 0.25]), mu=0.0)
    drift_up = Action(sigma=s_in, nu=ZeroMeasure(1), mu=1.0)
    relocate = partial(jump_to_origin_action, rate=r, sigma=s_out)
    prob = HJBProblem(f=lambda x, a: x**2, q=1.0, delta_q=1.0, b_q=1.0,
                      actions=(still, drift_up, relocate))
    x = grid.axes[0]
    table = PolicyTable(grid=grid, action_index=np.where(x >= 1.5, 2, np.where(x < -2.0, 1, 0)))
    b = simulate(PolicyFieldSpec.from_policy_table(table, prob),
                 SimConfig(x0=3.0, T=T, dt=0.025, n_paths=n, seed=32))
    xT = b.states[:, -1, 0]
    out = xT > 1.5
    p_out = np.exp(-r * T)
    assert abs(out.mean() - p_out) < 4 * np.sqrt(p_out * (1.0 - p_out) / n)
    assert abs(xT[out].mean() - 3.0) < 4 * s_out * np.sqrt(T / out.sum())
    # jumps are recorded in time order, so a path's first one is its
    # relocation; C grows at s_out^2 until then and at s_in^2 after
    paths, first = np.unique(b.jump_paths, return_index=True)
    assert np.allclose(b.jump_sizes[first, 0], -3.0, atol=0.5)
    tau = np.full(n, T)
    tau[paths] = b.jump_times[first]
    want = s_out**2 * tau + s_in**2 * (T - tau)
    assert np.allclose(b.C[:, -1, 0, 0], want, rtol=1e-10, atol=0.0)


def test_kernel_entry_of_a_table_steps_as_one_row_group():
    # a relocation kernel entry is one row group, read per row: its rows
    # relocate to the origin once however many arrivals a step has, and a
    # path from x0 = 3 is still out at T with probability exp(-r T)
    from jumpctl.hjb import Grid, HJBProblem, PolicyTable

    n, T, dt, r = 2000, 0.5, 0.025, 2.0
    grid = Grid.regular(-4.0, 4.0, 81)
    still = Action(sigma=0.2, nu=AtomicMeasure(1, [[0.2], [-0.2]], [0.25, 0.25]), mu=0.0)
    relocate = Action(sigma=0.05, nu=RelocationKernel(1, r), mu=0.0)
    prob = HJBProblem(f=lambda x, a: x**2, q=1.0, delta_q=1.0, b_q=1.0, actions=(still, relocate))
    table = PolicyTable(grid=grid, action_index=(grid.axes[0] >= 1.5).astype(np.intp))
    pol = PolicyFieldSpec.from_policy_table(table, prob)
    X = np.array([[3.0], [0.0], [2.0]])
    mu, group, pairs = pol.coefficients(X)
    assert group.tolist() == [0, 1, 0] and pairs[0][1] is relocate.nu
    mass, y = relocate.nu.at(X)  # the kernel's mean joins the drift on its rows
    applied = mu + np.where(group == 0, mass, 0.0)[:, None] * y
    assert applied[:, 0].tolist() == [-6.0, 0.0, -4.0] and pol.rate_cap() == r
    b = simulate(pol, SimConfig(x0=3.0, T=T, dt=dt, n_paths=n, seed=33))
    out = b.states[:, -1, 0] > 1.5
    p_out = np.exp(-r * T)
    assert abs(out.mean() - p_out) < 4 * np.sqrt(p_out * (1.0 - p_out) / n)
    moved = b.jump_sizes[:, 0] < -1.0  # the relocations; the other jumps are +-0.2
    assert np.unique(b.jump_paths[moved]).size == moved.sum() == n - out.sum()
    assert np.allclose(b.jump_sizes[moved, 0], -3.0, atol=0.5)


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
    # each row takes the nearest node (h = 1/8, the origin is node 8),
    # clipped to the grid; the groups are the table's candidates
    X = np.array([[-0.9], [0.3], [-0.07], [-0.06], [-5.0], [5.0]])
    mu, group, pairs = pol.coefficients(X)
    assert mu[:, 0].tolist() == [0.0, -1.0, 0.0, -1.0, 0.0, -1.0]
    assert [total_mass(pairs[g][1]) for g in group] == [0.0, 0.7, 0.0, 0.7, 0.0, 0.7]
    assert group.tolist() == [0, 1, 0, 1, 0, 1]
    (_, nu0), (sig1, nu1) = (pairs[g] for g in group[:2])
    assert sig1.tolist() == [[1.0]] and nu1.masses.tolist() == [0.7]
    assert isinstance(nu0, ZeroMeasure)
    assert pol.rate_cap() == pytest.approx(0.7)


def test_gm_left_side_values():
    nu = AtomicMeasure(1, locations=[[2.0]], masses=[1.5])
    pol = _const(3.0, nu, -1.0)
    # |mu|^2 + |sigma|^2 + mass * max(4, 4) = 1 + 9 + 6
    assert pol.growth_left(np.array([[0.7]]), 2.0)[0] == pytest.approx(16.0)
    pol = PolicyFieldSpec.jump_to_origin(rate=2.0, sigma=1.0, dim=1)
    lhs = pol.growth_left(np.array([[3.0]]), 2.0)
    # (2*3)^2 + 1 + 2 * 9
    assert lhs[0] == pytest.approx(55.0)


def _coefficient_cases():
    """One policy of each shape in 1-D and 2-D, jump measures with atoms."""
    cases = {}
    for dim in (1, 2):
        sig = np.array([[0.8, 0.3], [-0.2, 1.1]])[:dim, :dim]
        nu = AtomicMeasure(dim, [[0.5, -1.5][:dim], [-2.0, 0.4][:dim]], [0.7, 0.4])
        gain = np.array([[1.2, -0.4], [0.3, 0.9]])[:dim, :dim]

        def field(x, dim=dim, sig=sig):
            x = np.atleast_1d(x)
            loc = np.full(dim, 1.0 + float(x @ x))
            return Action(sig * (1.0 + abs(x[0])), AtomicMeasure(dim, [loc], [0.5]), np.sin(x))

        cases[f"constant-{dim}d"] = _const(sig, nu, np.arange(1.0, dim + 1.0))
        cases[f"linear-{dim}d"] = PolicyFieldSpec.linear_feedback(gain, 0.25, sig, nu=nu)
        cases[f"jump_origin-{dim}d"] = PolicyFieldSpec.jump_to_origin(1.7, sig, dim=dim)
        cases[f"callable-{dim}d"] = PolicyFieldSpec.from_action_callable(field)
    return cases


@pytest.mark.parametrize("case", sorted(_coefficient_cases()))
def test_coefficient_norms_match_actions(case):
    pol = _coefficient_cases()[case]
    dim = 1 if case.endswith("1d") else 2
    X = np.random.default_rng(5).normal(scale=1.5, size=(9, dim))
    X[0] = 0.0  # the origin, where jump to origin degenerates to the zero measure
    rows, group, pairs = pol.coefficients(X)
    # a relocation kernel is compared with its action at each row's state
    acts = [jump_to_origin_action(x, pairs[g][1].rate, pairs[g][0])
            if isinstance(pairs[g][1], RelocationKernel) else Action(*pairs[g], m)
            for x, g, m in zip(X, group, rows)]
    mu = np.array(rows)  # the drift applied: a relocation kernel adds its mean
    for g, (_, nu) in enumerate(pairs):
        if isinstance(nu, RelocationKernel):
            mass, y = nu.at(X[group == g])
            mu[group == g] += mass[:, None] * y
    assert mu.shape == X.shape
    for p in (2.0, 3.0):
        d, s, j = pol.coefficient_norms(X, p)
        lhs = pol.growth_left(X, p)
        for i, a in enumerate(acts):
            np.testing.assert_allclose(mu[i], a.mu, rtol=1e-13, atol=1e-15)
            assert d[i] == pytest.approx(np.linalg.norm(a.mu), rel=1e-13, abs=1e-15)
            assert s[i] == pytest.approx(np.linalg.norm(a.sigma), rel=1e-13)
            assert j[i] == pytest.approx(moment_functional(a.nu, p), rel=1e-13)
            want = np.linalg.norm(a.mu) ** p + np.linalg.norm(a.sigma) ** p + moment_functional(a.nu, p)
            assert lhs[i] == pytest.approx(want, rel=1e-13)


def test_coefficient_norms_read_the_small_jump_covariance():
    # ||F||_F^2 = tr C = sigma^2 + Sigma_eps: the small jumps count as diffusion
    box = dict(dim=1, lo=[-1.0], hi=[1.0], shape=(20,), values=np.full(20, 2.4), eps=0.5)
    X = np.array([[0.0], [1.3]])
    plain = _const(0.3, DensityGridMeasure(**box), 0.0).coefficient_norms(X, 2.0)
    small = _const(0.3, DensityGridMeasure(**box, small_jump_cov=[[0.2]]), 0.0).coefficient_norms(X, 2.0)
    assert plain[1].tolist() == [0.3, 0.3]
    assert small[1] == pytest.approx(np.sqrt(0.09 + 0.2), rel=1e-14)
    assert np.array_equal(plain[2], small[2])


def test_second_characteristic_is_sigma_sigma_T():
    # the increment sigma xi sqrt(dt) has covariance sigma sigma^T dt, so the
    # recorded C, the report's prediction and Cov(X_T) must all agree on it;
    # for this non-normal sigma, sigma^T sigma differs by 0.02-0.03 per entry
    sigma = np.array([[0.7, 0.2], [0.1, 0.5]])
    want = sigma @ sigma.T
    b = simulate(_const(sigma, ZeroMeasure(2), [0.0, 0.0]),
                 SimConfig(x0=[0.0, 0.0], T=1.0, dt=0.05, n_paths=20_000, seed=17,
                           store_every=20))
    assert np.allclose(b.C[-1], want, rtol=1e-12, atol=0.0)
    assert characteristics_report(b).c_gap < 1e-12
    emp = np.cov(b.states[:, -1, :], rowvar=False)
    # SE of the (0, 0) entry is 0.53 sqrt(2 / n) = 0.0053; sigma^T sigma is off by 0.033
    assert np.max(np.abs(emp - want)) < 0.02
    slow = PolicyFieldSpec.from_action_callable(
        lambda x: Action(sigma=sigma, nu=ZeroMeasure(2), mu=np.zeros(2)))
    b = simulate(slow, SimConfig(x0=[0.0, 0.0], T=0.2, dt=0.05, n_paths=5, seed=3))
    assert np.allclose(b.C[:, -1], 0.2 * want, rtol=1e-12, atol=0.0)


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
    small_jumps = DensityGridMeasure(dim=1, lo=[-1.0], hi=[1.0], shape=(20,), values=np.full(20, 2.4),
                                     eps=0.5, small_jump_cov=[[0.2]])

    def callable_action(x):
        return Action(sigma=0.6, nu=AtomicMeasure(1, [[0.7]], [0.9]), mu=-0.5 * x)

    from jumpctl.hjb import Grid, HJBProblem, PolicyTable

    grid = Grid.regular(-4.0, 4.0, 81)
    kernel_prob = HJBProblem(f=lambda x, a: x**2, q=1.0, delta_q=1.0, b_q=1.0, actions=(
        Action(sigma=0.3, nu=two_atoms, mu=-0.2),
        Action(sigma=0.2, nu=RelocationKernel(1, 1.5), mu=0.1)))
    # the kernel entry holds |x| <= 1, where its jumps to the origin are small jumps in B^h
    kernel_table = PolicyTable(grid=grid, action_index=(abs(grid.axes[0]) <= 1.0).astype(np.intp))

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
        "constant_density_small_jump_cov": (
            _const(0.3, small_jumps, 0.1), cfg(), quad, 0.5),
        "callable": (
            PolicyFieldSpec.from_action_callable(callable_action, rate_bound=1.2),
            cfg(n_paths=40, lambda_max=1.2), quad, 0.3),
        "table_kernel_entry": (
            PolicyFieldSpec.from_policy_table(kernel_table, kernel_prob),
            cfg(x0=0.5, n_paths=200), quad, 0.5),
        "callable_zero_rate_declared": (
            PolicyFieldSpec.from_action_callable(
                lambda x: Action(sigma=0.6, nu=ZeroMeasure(1), mu=-0.5 * x)),
            cfg(n_paths=40, lambda_max=1.2), quad, 0.3),
    }


# sha256 over (name, dtype, shape, bytes) of every array in _BUNDLE_ARRAYS, in
# order, recorded before the vectorised shapes were made to step in place;
# linear_2d_correlated re-pinned when C became int sigma sigma^T ds (its other
# eleven arrays kept their bytes), and callable when callables began to step
# as row groups, with the vectorised shapes' draw order (it had drawn poisson,
# then standard_normal, then one uniform per arrival). Float bits depend on
# numpy's kernels; these were taken with numpy 2.4 on x86-64.  table_kernel_entry
# and callable_zero_rate_declared were taken when every shape came to step by
# one path: a kernel row's B^h increment became ((u + mu - big) + small) dt, as
# a constant kernel action's was, and a row group's clock stopped running on a
# declared bound alone when no row has jump mass.  constant_density_small_jump_cov
# was taken when the simulator came to step with the Cholesky factor of
# C = sigma sigma^T + Sigma_eps.
_FROZEN_DIGESTS = {
    "callable": "f78ca2ec357eb89c3c3f01050eca706748cdf900b57fcdb60ea1fe150bf86b5c",
    "callable_zero_rate_declared":
        "b7bcb0c72a5901f8a694b2391517db5d360bf01fcf7d3e150877e15336c9fbb1",
    "constant_density_jitter": "04b0e6c987bf328548de889b34e9758ab51f428c8b06b307b50d528157ef01ab",
    "constant_density_small_jump_cov":
        "b4f79631412da7558fe8c03c1c8ebd5796bc14f35038c8e454aca916d2d777a6",
    "constant_one_atom": "7f3ec432da73fc50175c3783c3b1a9c1918c39de2c4b4dd7472a04badc47a919",
    "constant_two_atoms_thinned":
        "b02f72ba557bf944e3ead5620a346823c7698c1454ec2814006c4e077ed7162a",
    "jump_to_origin": "a9fbe3686dfe60143f8960ab4fbfe5c09ec558ea9728c7d1688507fb48f4dfed",
    "linear_2d_correlated": "6efae56cc36af537e665f614f51dec3da43ab3a587400676196bb4e770847ac5",
    "linear_with_f_q": "a08cb1495761924045ef630a5928a153f34e25d32cd5508117681812f3d92d31",
    "table_kernel_entry": "c7d1ea10f56e812c4dcb3e5e21aeca3e49f64a6c34d6888d54622cf9cc7be2da",
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


@pytest.mark.parametrize("case", sorted(_digest_cases()))
def test_costs_leave_the_paths_alone(case):
    # no draw depends on f or q, so runs at one seed that differ only in their
    # costs share their paths bit for bit: verify reads a test's own cost
    # from such a second run
    policy, cfg, f, q = _digest_cases()[case]
    quartic = lambda X: 1.0 + np.sum(X * X, axis=1) ** 2
    a, b = (simulate(policy, cfg, f=f, q=q, marks=[0.25]),
            simulate(policy, cfg, f=quartic, q=0.3, marks=[0.25]))
    for name in ("times", "states", "Bh", "C", "jump_sizes", "jump_paths", "jump_times",
                 "sup_xc", "sup_xd", "G_int"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert all(np.array_equal(x, y) for t in a.marks for x, y in zip(a.marks[t], b.marks[t]))
    assert not np.array_equal(a.cost_run, b.cost_run)


def test_until_is_the_shorter_run():
    # every shape draws step by step in a fixed order, so a run to T = 4 with
    # a mark at 1 holds the run to T = 1 at the same seed as its prefix; the
    # step sizes agree (1/100 and 4/400 are one double)
    from dataclasses import replace
    from functools import partial

    from jumpctl.hjb import Grid, HJBProblem, PolicyTable

    quad = lambda X: np.sum(X * X, axis=1)
    grid = Grid.regular(-4.0, 4.0, 81)
    prob = HJBProblem(f=lambda x, a: x**2, q=1.0, delta_q=1.0, b_q=1.0, actions=(
        Action(sigma=0.3, nu=AtomicMeasure(1, [[0.4], [-0.4]], [0.5, 0.5]), mu=-0.5),
        partial(jump_to_origin_action, rate=1.5, sigma=0.2)))
    table = PolicyTable(grid=grid, action_index=(grid.axes[0] >= 1.0).astype(np.intp))
    cases = {**_digest_cases(), "policy_table": (
        PolicyFieldSpec.from_policy_table(table, prob),
        SimConfig(x0=2.0, T=0.5, dt=0.01, n_paths=60, seed=5, store_every=3), None, None)}
    for name, (policy, cfg, f, q) in cases.items():
        f, q = f or quad, q or 0.5
        short = simulate(policy, replace(cfg, T=1.0), f=f, q=q)
        prefix = simulate(policy, replace(cfg, T=4.0), f=f, q=q, marks=[1.0]).until(1.0)
        for arr in _BUNDLE_ARRAYS + ("times",):
            a, b = getattr(prefix, arr), getattr(short, arr)
            assert a.dtype == b.dtype and a.shape == b.shape, (name, arr)
            assert a.tobytes() == b.tobytes(), (name, arr)
        assert prefix.dt_eff == short.dt_eff and prefix.cfg.T == 1.0
    # the frozen-seed digests above pin the runs without marks

    # a mark between steps stands for the nearest one, which joins the lattice
    b = simulate(FROZEN, SimConfig(x0=0.0, T=1.0, dt=0.1, n_paths=3, seed=0, store_every=4),
                 marks=[0.52])
    assert np.allclose(b.times, [0.0, 0.4, 0.5, 0.8, 1.0])
    assert b.until(0.52).times[-1] == b.times[2] and b.until(1.0).states.shape == (3, 5, 1)
    with pytest.raises(ValueError, match="neither a mark"):
        b.until(0.6)
    with pytest.raises(ValueError, match=r"\(0, T\]"):
        simulate(FROZEN, SimConfig(x0=0.0, T=1.0, dt=0.1, n_paths=3, seed=0), marks=[1.5])


def test_arrival_counts_are_numpy_poisson():
    # the thinning clock's counts are read from uniform blocks; they must be
    # numpy's Poisson draws bit for bit, with the generator left where
    # rng.poisson leaves it (the frozen digests above use only 300 paths)
    from jumpctl.dynamics import _arrivals, _chains

    # adjacent candidates (> floor): 0.6 * 0.7 <= 0.5, so the draw at 0 has one
    # arrival and the candidate at 1 ends it; the run at 3 reads 0.9 * 0.6 > 0.5,
    # then * 0.3 <= 0.5 (two arrivals); the block ends inside the draw at 7
    starts, counts, end = _chains(np.array([0.6, 0.7, 0.1, 0.9, 0.6, 0.3, 0.2, 0.8]), 0.5)
    assert starts.tolist() == [0, 3] and counts.tolist() == [1, 2] and end == 7

    # below lam = 0.08 the counts come from uniform blocks, and at 0.079 a
    # block of 20,000 runs short and grows; from lam = 0.08 on _arrivals calls
    # rng.poisson, which switches from the multiplication method to PTRS at 10
    for lam in (1e-6, 1e-3, 0.0016, 0.002, 0.05, 0.079, 0.3, 1.0, 3.0, 9.5, 12.0):
        for n in (1, 7, 1000, 20_000):
            for seed in range(30):
                ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = ref.poisson(lam, n)
                rows, counts = _arrivals(rng, lam, n)
                assert np.array_equal(rows, np.flatnonzero(want)), (lam, n, seed)
                assert np.array_equal(counts, want[rows]), (lam, n, seed)
                # binomial draws nothing for a zero count: thinning the arrival
                # rows is thinning every row
                p = np.random.default_rng(seed + 100).random(n)
                assert np.array_equal(rng.binomial(counts, p[rows]), ref.binomial(want, p)[rows])
                assert rng.random() == ref.random(), (lam, n, seed)
