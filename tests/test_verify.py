"""Verifier tests against closed-form policies.

Oracles used below:

* scalar quadratic-cost solve (lam = theta = q = 1): B solves
  B^2 + B - 1 = 0, value Bx^2 + B, feedback mu = -Bx; under the optimal
  feedback the cost-plus-value series is a martingale, under the
  uncontrolled action its drift is (1 - B) x^2 e^{-t} > 0 away from 0;
* bounded phi == 1 with constant discount q0: m(t) = e^{-q0 t} exactly,
  so the fitted decay rate equals q0 to rounding;
* phi(x) = e^{sqrt(2) x} + x^2 + 1 under the plain Brownian action with
  unit discount: E[e^{-t} phi(X_t)] = e^{-t}(t + 1 + x0^2) + e^{sqrt(2)x0},
  which plateaus at a positive constant, so no positive decay rate is
  certifiable;
* constant action: int_0^T Q_s ds = T (|mu| + ||sigma||^2 + moment term)
  exactly.
"""

import json

import numpy as np
import pytest

from jumpctl.dynamics import (
    PathBundle,
    PolicyFieldSpec,
    SimConfig,
    bellman_series,
    simulate,
)
from jumpctl.lq import LQSpec, solve_lq
from jumpctl.measures import Action, AtomicMeasure, ZeroMeasure
from jumpctl.verify import (
    TestReport as VerifierReport,
)
from jumpctl.verify import (
    dynkin_test,
    growth_certificate_check,
    h2_integrability_check,
    moment_bound_report,
    submartingale_test,
    transversality_test,
)


def _const(sigma, nu, mu, **kw):
    return PolicyFieldSpec.constant(Action(sigma=sigma, nu=nu, mu=mu), **kw)


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

    def f_opt(X):
        x = X[:, 0]
        mu = sol.v[0] - qq * x
        return x**2 + mu**2

    return sol, pol, f_opt


def test_report_serializes():
    rep = VerifierReport(
        name="demo", passed=True,
        statistics={"arr": np.arange(3.0), "val": np.float64(1.5)},
        thresholds={"z": 3.0}, n_samples=7, messages=("note",),
    )
    data = json.loads(rep.to_json())
    assert data["passed"] is True
    assert data["statistics"]["arr"] == [0.0, 1.0, 2.0]
    assert data["n_samples"] == 7


def test_submartingale_constant_series():
    # f = 0, phi constant, q = 0: S is literally constant along paths
    pol = _const(1.0, ZeroMeasure(1), 0.0)
    cfg = SimConfig(x0=0.0, T=1.0, dt=0.02, n_paths=1200, seed=4)
    b = simulate(pol, cfg, q=0.0)
    S = bellman_series(lambda X: np.full(len(X), 5.0), b)
    rep = submartingale_test(S, b, pairs=[(0.2, 0.8)], mode="martingale")
    assert rep.passed
    rep2 = submartingale_test(S, b, pairs=[(0.2, 0.8)], mode="sub")
    assert rep2.passed


def test_submartingale_needs_ensemble():
    pol = _const(1.0, ZeroMeasure(1), 0.0)
    cfg = SimConfig(x0=0.0, T=1.0, dt=0.1, n_paths=100, seed=0)
    b = simulate(pol, cfg, q=1.0)
    S = bellman_series(lambda X: X[:, 0], b)
    with pytest.raises(ValueError, match="minimum"):
        submartingale_test(S, b, pairs=[(0.2, 0.8)])
    with pytest.raises(ValueError, match="mode"):
        submartingale_test(np.zeros((2000, b.times.size)), b, [(0.2, 0.8)], mode="x")


def test_submartingale_modes_optimal_vs_suboptimal():
    sol, opt_pol, f_opt = _lq_setup()
    phi = lambda X: sol.value(X)
    pairs = [(0.25, 0.75), (0.5, 1.0)]
    n = 20_000
    mk = lambda seed: SimConfig(
        x0=1.0, T=1.0, dt=0.002, n_paths=n, seed=seed, store_every=25
    )
    b_opt = simulate(opt_pol, mk(101), f=f_opt, q=1.0)
    S_opt = bellman_series(phi, b_opt)
    assert submartingale_test(S_opt, b_opt, pairs, mode="martingale").passed
    assert submartingale_test(S_opt, b_opt, pairs, mode="sub").passed

    # drift-free action is suboptimal: drift (1 - B) x^2 e^{-t} > 0
    sub_pol = _const(1.0, ZeroMeasure(1), 0.0)
    b_sub = simulate(sub_pol, mk(102), f=lambda X: X[:, 0] ** 2, q=1.0)
    S_sub = bellman_series(phi, b_sub)
    rep_sub = submartingale_test(S_sub, b_sub, pairs, mode="sub")
    assert rep_sub.passed
    rep_mart = submartingale_test(S_sub, b_sub, pairs, mode="martingale")
    assert not rep_mart.passed
    worst = max(
        abs(bin_["z"])
        for pair in rep_mart.statistics["pairs"]
        for bin_ in pair["bins"]
        if not bin_["excluded"]
    )
    assert worst > 3.0


def test_submartingale_flags_undersampled_bins():
    pol = _const(1.0, ZeroMeasure(1), 0.0)
    cfg = SimConfig(x0=0.0, T=1.0, dt=0.02, n_paths=1500, seed=6)
    b = simulate(pol, cfg, q=1.0)
    S = bellman_series(lambda X: X[:, 0] ** 2, b)
    rep = submartingale_test(S, b, pairs=[(0.2, 0.8)], n_bins=8, min_bin_count=10_000)
    assert not rep.passed
    assert any("undersampled" in msg for msg in rep.messages)


def test_transversality_bounded_phi_exact_rate():
    pol = _const(1.0, ZeroMeasure(1), 0.0)
    cfg = SimConfig(x0=0.0, T=3.0, dt=0.05, n_paths=200, seed=1)
    rep = transversality_test(simulate(pol, cfg, q=0.7), lambda X: np.ones(len(X)))
    assert rep.passed
    assert abs(rep.statistics["rate"] - 0.7) < 1e-6
    assert rep.statistics["eventually_decreasing"]
    assert any("not equivalent" in m for m in rep.messages)


def test_transversality_lq_quadratic_passes():
    sol, pol, _ = _lq_setup()
    cfg = SimConfig(x0=1.5, T=3.0, dt=0.005, n_paths=5000, seed=21, store_every=12)
    rep = transversality_test(simulate(pol, cfg, q=1.0), lambda X: sol.value(X))
    assert rep.passed
    assert rep.statistics["rate"] > 0.5


def test_transversality_fails_on_exponential_growth():
    # m(t) = e^{-t}(t + 1) + 1 plateaus at 1: over a long enough window
    # there is no certifiable decay rate, and the heavy-tailed samples of
    # e^{sqrt(2) X_t - t} make the tail estimates noisy as well
    pol = _const(1.0, ZeroMeasure(1), 0.0)

    def phi(X):
        x = X[:, 0]
        return np.exp(np.sqrt(2.0) * x) + x**2 + 1.0

    cfg = SimConfig(x0=0.0, T=6.0, dt=0.01, n_paths=20_000, seed=33, store_every=30)
    rep = transversality_test(simulate(pol, cfg, q=1.0), phi)
    assert not rep.passed
    assert rep.statistics["max_path_share"] > 0.05


def test_h2_constant_action_exact():
    nu = AtomicMeasure(1, locations=[[2.0]], masses=[0.5])
    pol = _const(1.0, nu, -1.0)
    cfg = SimConfig(x0=0.0, T=2.0, dt=0.02, n_paths=50, seed=5)
    b = simulate(pol, cfg)
    rep = h2_integrability_check(b, p=2.0)
    assert rep.passed
    # Q = |mu| + sigma^2 + 0.5 * max(4, 4) = 4, integral = 8 on every path
    assert rep.statistics["integral_max"] == pytest.approx(8.0, abs=1e-12)
    assert rep.statistics["moment_p_half"] == pytest.approx(8.0, abs=1e-12)
    assert rep.statistics["mean_jump_part"] == pytest.approx(4.0, abs=1e-12)


def test_h2_feedback_moment_stable_across_horizons():
    _, pol, _ = _lq_setup()
    moments = []
    for T in (1.0, 2.0):
        cfg = SimConfig(x0=1.0, T=T, dt=0.01, n_paths=2000, seed=12, store_every=5)
        rep = h2_integrability_check(simulate(pol, cfg), p=2.0)
        assert rep.passed
        moments.append(rep.statistics["moment_p_half"])
    assert moments[1] / moments[0] < 2.5


def _fake_bundle(states, policy):
    n, K, dim = states.shape
    times = np.linspace(0.0, 1.0, K)
    cfg = SimConfig(x0=states[0, 0], T=1.0, dt=times[1], n_paths=n, seed=0)
    zeros = np.zeros((n, K))
    return PathBundle(
        times=times, states=states, gamma=zeros.copy(), cost_run=zeros.copy(),
        Bh=np.zeros((n, K, dim)), C=np.zeros((K, dim, dim)),
        jump_sizes=np.zeros((0, dim)), jump_paths=np.zeros(0, dtype=np.int64),
        jump_times=np.zeros(0), sup_xc=np.zeros(n), sup_xd=np.zeros(n),
        G_int=np.zeros(n), policy=policy, cfg=cfg, u=np.zeros(dim), dt_eff=times[1],
    )


def test_h2_flags_certificate_violation_on_visited_states():
    # simulate spot-checks the certificate only every few steps; the audit
    # here re-checks every stored state, so plant one offending snapshot
    pol = PolicyFieldSpec.linear_feedback(
        gain=[[-3.0]], offset=0.0, sigma=1.0, growth_K=4.0, growth_p=2.0
    )
    states = np.zeros((4, 3, 1))
    states[2, 1, 0] = 2.0  # lhs = 37 > K (1 + 4) = 20
    rep = h2_integrability_check(_fake_bundle(states, pol), p=2.0)
    assert not rep.passed
    assert any("certificate" in m for m in rep.messages)


def test_growth_certificate_constant_and_feedback():
    nu = AtomicMeasure(1, locations=[[1.0]], masses=[1.0])
    pol = _const(1.0, nu, 0.5)
    # constant left side 0.25 + 1 + 1 = 2.25
    assert growth_certificate_check(pol, (-5.0, 5.0), K=2.25, p=2.0).passed
    assert not growth_certificate_check(pol, (-5.0, 5.0), K=2.0, p=2.0).passed

    sol, fb, _ = _lq_setup()
    qn = float(np.linalg.norm(sol.Q))
    vn = float(np.linalg.norm(sol.v))
    K = 2.0 * (qn**2 + vn**2) + float(np.linalg.norm(sol.sigma_hat)) ** 2
    rep = growth_certificate_check(fb, (-10.0, 10.0), K=max(K, 1.0), p=2.0)
    assert rep.passed


def test_growth_certificate_rejects_superlinear_drift():
    pol = PolicyFieldSpec.from_action_callable(
        lambda x: Action(sigma=1.0, nu=ZeroMeasure(1), mu=x**2)
    )
    rep = growth_certificate_check(pol, (-5.0, 5.0), K=10.0, p=2.0)
    assert not rep.passed
    assert rep.statistics["worst_ratio"] > 1.0
    assert abs(rep.statistics["worst_point"][0]) == 5.0


class _Bump:
    """(1 - (x/c)^2)^3 on |x| <= c, twice continuously differentiable."""

    def __init__(self, c):
        self.c = c
        self.name = f"bump{c:g}"

    def fn(self, X):
        u = X[:, 0] / self.c
        return np.where(np.abs(u) <= 1.0, (1.0 - u**2) ** 3, 0.0)

    def grad(self, X):
        u = X[:, 0] / self.c
        inside = np.abs(u) <= 1.0
        g = np.where(inside, -6.0 * u * (1.0 - u**2) ** 2 / self.c, 0.0)
        return g[:, None]

    def hess(self, X):
        u = X[:, 0] / self.c
        inside = np.abs(u) <= 1.0
        h = np.where(
            inside,
            (-6.0 * (1.0 - u**2) ** 2 + 24.0 * u**2 * (1.0 - u**2)) / self.c**2,
            0.0,
        )
        return h[:, None, None]


def test_dynkin_battery_constant_action():
    nu = AtomicMeasure(1, locations=[[0.5]], masses=[1.0])
    pol = _const(0.8, nu, 0.2)
    cfg = SimConfig(x0=0.0, T=1.0, dt=0.005, n_paths=5000, seed=9, store_every=4)
    b = simulate(pol, cfg)
    rep = dynkin_test(b, [_Bump(2.0), _Bump(3.0)], t_points=[0.25, 0.5, 1.0])
    assert rep.passed
    assert len(rep.statistics["checks"]) == 6
    assert all(abs(c["z"]) <= 3.0 for c in rep.statistics["checks"])

    # the battery stores time-major; its statistics are bitwise those of the
    # path-major (n, K) arrays filled one column per snapshot
    from jumpctl.generator import _generator

    a, (n, K, _), checks = pol.action, b.states.shape, iter(rep.statistics["checks"])
    for g in (_Bump(2.0), _Bump(3.0)):
        vals, gen = np.empty((n, K)), np.empty((n, K))
        for j in range(K):
            vals[:, j], gen[:, j] = _generator(g, b.states[:, j, :], (a.mu, a.sigma), a.nu, b.u)
        integral = np.zeros((n, K))
        integral[:, 1:] = np.cumsum(0.5 * (gen[:, :-1] + gen[:, 1:]) * np.diff(b.times), axis=1)
        M = vals - vals[:, :1] - integral
        for t in (0.25, 0.5, 1.0):
            col, c = M[:, int(np.argmin(np.abs(b.times - t)))], next(checks)
            assert c["mean"] == float(col.mean()) and c["se"] == float(col.std(ddof=1) / np.sqrt(n))


def test_dynkin_battery_jump_to_origin():
    # jump to the origin is a constant action with a relocation kernel, whose
    # jump term the generator reads per state; at the wrong rate it is caught
    from dataclasses import replace

    pol = PolicyFieldSpec.jump_to_origin(rate=1.5, sigma=0.8, dim=1)
    b = simulate(pol, SimConfig(x0=1.5, T=1.0, dt=0.005, n_paths=5000, seed=9, store_every=4))
    rep = dynkin_test(b, [_Bump(2.0), _Bump(3.0)], t_points=[0.25, 0.5, 1.0])
    assert rep.passed and len(rep.statistics["checks"]) == 6
    slow = replace(b, policy=PolicyFieldSpec.jump_to_origin(rate=0.5, sigma=0.8, dim=1))
    assert not dynkin_test(slow, [_Bump(2.0), _Bump(3.0)], t_points=[0.25, 0.5, 1.0]).passed
    with pytest.raises(ValueError, match="fixed measure"):
        moment_bound_report([b], q=2.0)


def _max_z(rep):
    return max(abs(c["z"]) for c in rep.statistics["checks"])


def test_dynkin_battery_linear_feedback():
    # the drift offset - gain x moves with the state; the battery reads it per
    # row, and the same paths read with the drift's sign flipped fail
    from dataclasses import replace

    nu = AtomicMeasure(1, locations=[[0.5]], masses=[1.0])
    pol = PolicyFieldSpec.linear_feedback(gain=[[1.0]], offset=0.3, sigma=0.8, nu=nu)
    b = simulate(pol, SimConfig(x0=1.0, T=1.0, dt=0.005, n_paths=5000, seed=9, store_every=4))
    fields, t_points = [_Bump(2.0), _Bump(3.0)], [0.25, 0.5, 1.0]
    rep = dynkin_test(b, fields, t_points)
    assert rep.passed and len(rep.statistics["checks"]) == 6 and _max_z(rep) <= 3.0
    flipped = PolicyFieldSpec.linear_feedback(gain=[[-1.0]], offset=-0.3, sigma=0.8, nu=nu)
    wrong = dynkin_test(replace(b, policy=flipped), fields, t_points)
    assert not wrong.passed and _max_z(wrong) > 50.0


def _example1_table_policy():
    """Example 1 (f = x^2, q = 1) solved on |x| <= 4: a policy table whose rows
    step as two groups, the diffusion alone and the jump to the origin (a
    relocation kernel)."""
    from jumpctl.hjb import Grid, HJBProblem, solve_stationary
    from jumpctl.measures import RelocationKernel

    acts = (Action(sigma=1.0, nu=ZeroMeasure(1), mu=0.0),
            Action(sigma=1.0, nu=RelocationKernel(1, 1.0), mu=0.0))
    prob = HJBProblem(f=lambda x, a: x**2, q=1.0, delta_q=1.0, b_q=1.0, actions=acts)
    _, table, report = solve_stationary(prob, Grid.regular(-4.0, 4.0, 161))
    assert report.converged
    return PolicyFieldSpec.from_policy_table(table, prob)


def test_dynkin_battery_solved_table():
    # the table jumps everywhere but on the node at the origin, so paths near
    # it read the diffusion alone: every snapshot has both row groups
    from dataclasses import replace

    pol = _example1_table_policy()
    b = simulate(pol, SimConfig(x0=1.5, T=1.0, dt=0.005, n_paths=5000, seed=9, store_every=4))
    _, group, pairs = pol.coefficients(b.states[:, 5, :])
    assert len(pairs) == 2 and np.unique(group).size == 2
    fields, t_points = [_Bump(2.0), _Bump(3.0)], [0.25, 0.5, 1.0]
    rep = dynkin_test(b, fields, t_points)
    assert rep.passed and len(rep.statistics["checks"]) == 6 and _max_z(rep) <= 3.0
    # read as the diffusion alone, the jumps are not compensated
    diffusion = PolicyFieldSpec.constant(Action(sigma=1.0, nu=ZeroMeasure(1), mu=0.0))
    assert not dynkin_test(replace(b, policy=diffusion), fields, t_points).passed


def test_dynkin_battery_row_groups_match_whole_batches():
    # each group's rows are bitwise the rows of the generator evaluated on the
    # whole snapshot under that group's pair: splitting by group adds no rounding
    from jumpctl.generator import _generator

    pol, g = _example1_table_policy(), _Bump(2.0)
    b = simulate(pol, SimConfig(x0=1.5, T=0.2, dt=0.01, n_paths=2000, seed=3))
    (n, K, _), t_points = b.states.shape, [0.1, 0.2]
    vals, gen = np.empty((K, n)), np.empty((K, n))
    for j in range(K):
        X = b.states[:, j, :]
        mu, group, pairs = pol.coefficients(X)
        for k, (sigma, nu) in enumerate(pairs):
            rows = group == k
            v, L = _generator(g, X, (mu, sigma), nu, b.u)
            vals[j, rows], gen[j, rows] = v[rows], L[rows]
    integral = np.zeros((K, n))
    integral[1:] = np.cumsum(0.5 * (gen[:-1] + gen[1:]) * np.diff(b.times)[:, None], axis=0)
    M = vals - vals[:1] - integral
    checks = dynkin_test(b, [g], t_points).statistics["checks"]
    for t, c in zip(t_points, checks):
        row = M[int(np.argmin(np.abs(b.times - t)))]
        assert c["mean"] == float(row.mean()) and c["se"] == float(row.std(ddof=1) / np.sqrt(n))


def _small_jump_density():
    """Level 2.4 on [-1, 1] with the jumps |y| <= 0.5 cut out: what they carried
    is Sigma_eps = 2.4 * 2 * 0.5^3 / 3 = 0.2, against sigma^2 = 0.09 below."""
    from jumpctl.measures import DensityGridMeasure

    return DensityGridMeasure(dim=1, lo=[-1.0], hi=[1.0], shape=(20,), values=np.full(20, 2.4),
                              eps=0.5, small_jump_cov=[[0.2]])


def test_dynkin_battery_small_jump_covariance(monkeypatch):
    # the generator reads C = sigma^2 + Sigma_eps, and so must the simulator's
    # Brownian part; stepped with sigma alone, the same seed fails the battery
    from jumpctl import dynamics, measures

    pol = _const(0.3, _small_jump_density(), 0.0)
    cfg = SimConfig(x0=0.0, T=1.0, dt=0.005, n_paths=5000, seed=9, store_every=4)
    fields, t_points = [_Bump(2.0), _Bump(3.0)], [0.25, 0.5, 1.0]
    rep = dynkin_test(simulate(pol, cfg), fields, t_points)
    assert rep.passed and len(rep.statistics["checks"]) == 6 and _max_z(rep) <= 3.0
    monkeypatch.setattr(dynamics, "_covariance",
                        lambda sigma, nu: (measures._covariance(sigma, nu)[0], sigma))
    wrong = dynkin_test(simulate(pol, cfg), fields, t_points)
    assert not wrong.passed and _max_z(wrong) > 5.0


def test_solved_value_matches_payoff_with_small_jump_covariance():
    # one action, f = x^2, q = 1: V(x) = x^2 + sigma^2 + Sigma_eps + int y^2 nu(dy),
    # and the paths under that action (the solved policy) must pay V(0) within
    # 3 SE; without Sigma_eps they would pay 0.2 less, about 10 SE
    from jumpctl.dynamics import payoff_estimate
    from jumpctl.hjb import Grid, HJBProblem, solve_stationary
    from jumpctl.measures import second_moment_matrix

    nu = _small_jump_density()
    prob = HJBProblem(f=lambda x, a: x**2, q=1.0, delta_q=1.0, b_q=1.0,
                      actions=(Action(sigma=0.3, nu=nu, mu=0.0),))
    phi, _, report = solve_stationary(prob, Grid.regular(-8.0, 8.0, 161))
    exact = 0.09 + 0.2 + second_moment_matrix(nu)[0, 0]
    assert report.converged and abs(phi.value(0.0) - exact) < 0.01
    cfg = SimConfig(x0=0.0, T=7.0, dt=0.01, n_paths=8000, seed=12, store_every=100)
    est = payoff_estimate(PolicyFieldSpec.constant(prob.actions[0]), cfg,
                          f=lambda X: X[:, 0] ** 2, q=1.0, f_growth=(1.0, 2.0), delta_q=1.0)
    assert abs(est.estimate - phi.value(0.0)) <= 3 * est.std_error + est.tail_bound
    assert 0.2 > 6 * est.std_error


def test_moment_bound_ratio_stable():
    nu = AtomicMeasure(1, locations=[[1.5]], masses=[0.8])
    pol = _const(0.0, nu, 0.0)
    bundles = [
        simulate(pol, SimConfig(x0=0.0, T=T, dt=0.01, n_paths=4000, seed=44))
        for T in (1.0, 2.0, 4.0)
    ]
    rep = moment_bound_report(bundles, q=2.0)
    assert rep.passed
    assert all(0.5 <= r <= 2.0 for r in rep.statistics["relative_to_first"])


def test_moment_bound_reads_any_policy_with_one_fixed_measure():
    # linear feedback moves the drift but keeps one measure on every path, so
    # its bound has the closed form; a row-group table (no one measure) and a
    # relocation kernel (a measure that moves with the state) are refused
    nu = AtomicMeasure(1, locations=[[1.5]], masses=[0.8])
    pol = PolicyFieldSpec.linear_feedback(gain=[[0.5]], offset=0.0, sigma=0.3, nu=nu)
    bundles = [simulate(pol, SimConfig(x0=0.0, T=T, dt=0.01, n_paths=4000, seed=44))
               for T in (1.0, 2.0, 4.0)]
    rep = moment_bound_report(bundles, q=2.0)
    assert rep.passed and len(rep.statistics["rows"]) == 3
    for other in (_example1_table_policy(), PolicyFieldSpec.jump_to_origin(rate=1.0)):
        with pytest.raises(ValueError, match="one fixed measure"):
            moment_bound_report([_fake_bundle(np.zeros((4, 3, 1)), other)], q=2.0)


@pytest.mark.parametrize("G_at_4, passed", [(4.0, False), (8.0, True)])
def test_moment_bound_fails_when_the_ratio_leaves_a_factor_2(G_at_4, passed):
    # T = 1, 2, 4 with the atom inside the unit ball (H_T = 0), so at q = 2
    # each ratio is E sup_xd^2 / E G_T: 1/1, 4/4, then 16/4 = 4 (fails) or
    # 16/8 = 2, the edge of [0.5, 2], which passes; all of it exact in floats
    from dataclasses import replace

    pol = _const(0.0, AtomicMeasure(1, locations=[[0.5]], masses=[1.0]), 0.0)
    base = _fake_bundle(np.zeros((4, 3, 1)), pol)
    bundles = [replace(base, times=base.times * T, sup_xd=np.full(4, sup), G_int=np.full(4, G))
               for T, sup, G in ((1.0, 1.0, 1.0), (2.0, 2.0, 4.0), (4.0, 4.0, G_at_4))]
    rep = moment_bound_report(bundles, q=2.0)
    assert [row["T"] for row in rep.statistics["rows"]] == [1.0, 2.0, 4.0]
    assert rep.statistics["relative_to_first"] == [1.0, 1.0, 16.0 / G_at_4]
    assert rep.passed is passed


def test_moment_bound_input_validation():
    pol = _const(1.0, ZeroMeasure(1), 0.0)
    b = simulate(pol, SimConfig(x0=0.0, T=1.0, dt=0.1, n_paths=10, seed=0))
    with pytest.raises(ValueError, match="at least 2"):
        moment_bound_report([b], q=1.0)
    with pytest.raises(ValueError, match="jump activity"):
        moment_bound_report([b], q=2.0)
    with pytest.raises(ValueError, match="at least one bundle"):
        moment_bound_report([], q=2.0)
