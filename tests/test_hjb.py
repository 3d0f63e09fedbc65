"""Grid solver: interpolation/tails, policy iteration, finite horizon."""

import copy
import hashlib
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings, strategies as st

from jumpctl import hjb
from jumpctl.generator import AnalyticField, apply_generator
from jumpctl.hjb import (
    ConvergenceReport,
    Grid,
    HJBProblem,
    PolicyTable,
    SchemeWarning,
    SolverError,
    ValueField,
    _factorise,
    _Generator,
    interior_mask,
    policy_evaluation,
    policy_improvement,
    solve_finite_horizon,
    solve_stationary,
)
from jumpctl.lq import LQSpec, solve_lq
from jumpctl.examples import example1_psi, example1_value
from jumpctl.measures import (
    Action,
    AtomicMeasure,
    MeasureSupportError,
    RelocationKernel,
    ZeroMeasure,
)
from per_state_actions import jump_to_origin_action
from jumpctl.verify import dpp_report

B_HAT = (np.sqrt(13.0) - 3.0) / 2.0


def brownian_action(mu=0.0):
    return Action(sigma=1.0, nu=ZeroMeasure(1), mu=mu)


def jump_origin_entry(x):
    # jump-to-origin control with compensating drift; degenerates to the
    # plain diffusion action at the origin itself
    if abs(x) <= 1e-12:
        return brownian_action()
    return Action(sigma=1.0, nu=AtomicMeasure(1, [[-x]], [1.0]), mu=-x)


def singleton_problem(f, qd, action=None, q_growth=2):
    return HJBProblem(
        f=f, q=qd, delta_q=qd, b_q=qd,
        actions=(action if action is not None else brownian_action(),),
        q_growth=q_growth,
    )


def example1_problem(qd=1.0):
    return HJBProblem(
        f=lambda x, a: x**2, q=qd, delta_q=qd, b_q=qd,
        actions=(brownian_action(), jump_origin_entry), q_growth=2,
    )


def lq_product_problem(lam=1.0, theta=1.0, qd=3.0, lattice=None):
    lattice = np.linspace(-3.0, 3.0, 41) if lattice is None else lattice

    def f(x, a):
        return lam * x**2 + theta * float(a.mu[0]) ** 2

    return HJBProblem(
        f=f, q=qd, delta_q=qd, b_q=qd,
        sigma_nu_pairs=((1.0, ZeroMeasure(1)),), mu_lattice=lattice, q_growth=2,
    )


# ---------------------------------------------------------------------------
# grid and field plumbing


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid.regular(0.0, 0.0, 32)
    with pytest.raises(ValueError):
        Grid.regular(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        Grid.regular([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [16, 16, 16])
    g = Grid.regular([-1.0, 0.0], [1.0, 2.0], [17, 16])
    assert g.dim == 2 and g.n_nodes == 17 * 16
    assert g.h[0] == pytest.approx(0.125)


def test_field_requires_finite_values():
    g = Grid.regular(-1.0, 1.0, 17)
    with pytest.raises(ValueError):
        ValueField(grid=g, values=np.full(17, np.nan))
    with pytest.raises(ValueError):
        ValueField(grid=g, values=-np.ones(17), nonneg=True)


def test_interpolation_exact_on_affine():
    g = Grid.regular(-2.0, 3.0, 21)
    fld = ValueField(grid=g, values=2.0 * g.axes[0] + 1.0, q_growth=1)
    xs = np.array([-1.97, 0.013, 2.5, 3.0, -2.0])
    assert np.abs(fld.value(xs) - (2.0 * xs + 1.0)).max() < 1e-12


def test_tail_extrapolation_exact_on_quadratic():
    g = Grid.regular(-2.0, 2.0, 33)
    fld = ValueField(grid=g, values=g.axes[0] ** 2, q_growth=2)
    assert fld.value(3.0) == pytest.approx(9.0, abs=1e-9)
    assert fld.value(-2.7) == pytest.approx(2.7**2, abs=1e-9)
    assert fld.tail_residual < 1e-10
    assert max(fld._tails.degree.values()) <= 2


def test_tail_cubic_needs_declared_degree():
    g = Grid.regular(-2.0, 2.0, 33)
    x = g.axes[0]
    exact = ValueField(grid=g, values=x**3, q_growth=3)
    assert exact.value(2.5) == pytest.approx(2.5**3, abs=1e-8)
    capped = ValueField(grid=g, values=x**3, q_growth=2)
    assert capped.tail_residual > 1e-4  # quadratic band fit cannot carry x^3


def test_field_eval_2d_bilinear():
    g = Grid.regular([-1.0, 0.0], [1.0, 2.0], [17, 19])
    X = g.nodes()

    def f(p):
        return 2.0 + 3.0 * p[:, 0] - p[:, 1] + 0.5 * p[:, 0] * p[:, 1]

    fld = ValueField(grid=g, values=f(X).reshape(g.shape), q_growth=2)
    pts = np.array([[0.3, 1.1], [-0.99, 0.02], [1.0, 2.0]])
    assert np.abs(fld.value(pts) - f(pts)).max() < 1e-12
    out = np.array([[1.4, 1.0]])  # beyond hi on axis 0
    assert fld.value(out)[0] == pytest.approx(f(out)[0], abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0), x=st.floats(-1.99, 1.99))
def test_interpolation_reproduces_affine_property(a, b, x):
    g = Grid.regular(-2.0, 2.0, 23)
    fld = ValueField(grid=g, values=a * g.axes[0] + b, q_growth=1)
    assert fld.value(x) == pytest.approx(a * x + b, abs=1e-10)


def test_interior_mask():
    g = Grid.regular(-1.0, 1.0, 17)
    m = interior_mask(g)
    assert m.sum() == 15 and not m[0] and not m[-1]


# ---------------------------------------------------------------------------
# problem validation


def test_problem_needs_exactly_one_action_mode():
    with pytest.raises(ValueError):
        HJBProblem(f=0.0, q=1.0, delta_q=1.0, b_q=1.0)
    with pytest.raises(ValueError):
        HJBProblem(
            f=0.0, q=1.0, delta_q=1.0, b_q=1.0,
            actions=(brownian_action(),),
            sigma_nu_pairs=((1.0, ZeroMeasure(1)),), mu_lattice=np.linspace(-1, 1, 5),
        )
    with pytest.raises(ValueError):
        HJBProblem(f=0.0, q=1.0, delta_q=0.0, b_q=1.0, actions=(brownian_action(),))
    with pytest.raises(ValueError):
        HJBProblem(
            f=0.0, q=1.0, delta_q=1.0, b_q=1.0,
            sigma_nu_pairs=((1.0, ZeroMeasure(1)),),
            mu_lattice=np.array([0.0, 0.5, 2.0]),  # non-uniform
        )


def test_negative_running_cost_rejected():
    g = Grid.regular(-1.0, 1.0, 17)
    prob = singleton_problem(lambda x, a: x, 1.0)  # signed cost
    pol = PolicyTable(grid=g, action_index=np.zeros(17, dtype=int))
    with pytest.raises(ValueError, match="nonnegative"):
        policy_evaluation(pol, prob, g)


def test_discount_bound_enforced():
    g = Grid.regular(-1.0, 1.0, 17)
    prob = HJBProblem(
        f=0.0, q=lambda x, a: 1.0 + np.abs(x), delta_q=1.0, b_q=1.5,
        actions=(brownian_action(),),
    )
    pol = PolicyTable(grid=g, action_index=np.zeros(17, dtype=int))
    with pytest.raises(ValueError, match="declared bounds"):
        policy_evaluation(pol, prob, g)


# ---------------------------------------------------------------------------
# policy evaluation


def test_evaluation_zero_cost():
    g = Grid.regular(-2.0, 2.0, 33)
    prob = singleton_problem(0.0, 1.0)
    pol = PolicyTable(grid=g, action_index=np.zeros(g.n_nodes, dtype=int))
    phi = policy_evaluation(pol, prob, g)
    assert np.abs(phi.values).max() < 1e-12


def test_evaluation_constant_cost_with_jumps():
    # f = q * c makes phi == c; the nonlocal part must annihilate constants
    g = Grid.regular(-2.0, 2.0, 33)
    act = Action(sigma=1.0, nu=AtomicMeasure(1, [[0.7], [-1.3]], [0.5, 0.25]), mu=0.2)
    prob = singleton_problem(lambda x, a: 2.0 * 1.5, 2.0, action=act)
    pol = PolicyTable(grid=g, action_index=np.zeros(g.n_nodes, dtype=int))
    phi = policy_evaluation(pol, prob, g)
    assert np.abs(phi.values - 1.5).max() < 1e-10


def test_evaluation_exact_on_quadratic_resolvent():
    # singleton Brownian action, f = x^2, q = 1: phi = x^2 + 1 solves the
    # equation exactly, and every stencil ingredient is exact on quadratics
    g = Grid.regular(-4.0, 4.0, 101)
    prob = singleton_problem(lambda x, a: x**2, 1.0)
    pol = PolicyTable(grid=g, action_index=np.zeros(g.n_nodes, dtype=int))
    phi = policy_evaluation(pol, prob, g)
    assert np.abs(phi.values - (g.axes[0] ** 2 + 1.0)).max() < 1e-9


def test_evaluation_2d_exact_quadratic():
    g = Grid.regular([-2.0, -2.0], [2.0, 2.0], [21, 17])
    act = Action(sigma=np.eye(2), nu=ZeroMeasure(2), mu=[0.0, 0.0])
    prob = HJBProblem(
        f=lambda x, a: x[:, 0] ** 2 + x[:, 1] ** 2, q=1.0, delta_q=1.0, b_q=1.0,
        actions=(act,),
    )
    pol = PolicyTable(grid=g, action_index=np.zeros(g.n_nodes, dtype=int))
    phi = policy_evaluation(pol, prob, g)
    X = g.nodes()
    target = (X[:, 0] ** 2 + X[:, 1] ** 2 + 2.0).reshape(g.shape)
    assert np.abs(phi.values - target).max() < 1e-8


def test_evaluation_lq_feedback_matches_closed_form():
    sol = solve_lq(LQSpec(lam=1.0, theta=1.0, q=3.0,
                          dispersion_candidates=[(1.0, ZeroMeasure(1))]))
    gain = sol.Q[0, 0]

    def feedback(x):
        return Action(sigma=1.0, nu=ZeroMeasure(1), mu=-gain * x)

    g = Grid.regular(-6.0, 6.0, 201)
    prob = HJBProblem(
        f=lambda x, a: x**2 + float(a.mu[0]) ** 2, q=3.0, delta_q=3.0, b_q=3.0,
        actions=(feedback,), q_growth=2,
    )
    pol = PolicyTable(grid=g, action_index=np.zeros(g.n_nodes, dtype=int))
    phi = policy_evaluation(pol, prob, g)
    x = g.axes[0]
    keep = np.abs(x) <= 2.0
    err = np.abs(phi.values[keep] - sol.value(x[keep].reshape(-1, 1)))
    assert err.max() / np.abs(sol.value(x[keep].reshape(-1, 1))).max() < 1e-2


def test_sparse_lu_failures_raise_solver_error():
    with pytest.raises(SolverError, match="singular"):
        _factorise(sp.csc_matrix((3, 3)), 1e-8)
    solve = _factorise(sp.identity(3, format="csc"), 1e-8)
    assert np.array_equal(solve(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])
    with pytest.raises(SolverError, match="residual"):
        solve(np.array([1.0, np.nan, 3.0]))


def test_scheme_warning_on_correlated_diffusion():
    g = Grid.regular([-1.0, -1.0], [1.0, 1.0], [16, 16])
    act = Action(sigma=np.array([[1.0, 0.5], [0.0, 1.0]]), nu=ZeroMeasure(2), mu=[0.0, 0.0])
    prob = HJBProblem(f=0.0, q=1.0, delta_q=1.0, b_q=1.0, actions=(act,))
    pol = PolicyTable(grid=g, action_index=np.zeros(g.n_nodes, dtype=int))
    with pytest.warns(SchemeWarning):
        policy_evaluation(pol, prob, g)


def test_assembly_agrees_with_generator_module():
    # with drift equal to the measure mean the first-order part cancels and
    # the discrete integrand matches the analytic generator on a quadratic
    g = Grid.regular(-4.0, 4.0, 81)  # h = 0.1, atoms land on nodes
    nu = AtomicMeasure(1, [[0.5], [-1.0]], [1.0, 0.5])
    mu = float(nu.masses @ nu.locations[:, 0])
    act = Action(sigma=1.0, nu=nu, mu=mu)
    prob = singleton_problem(lambda x, a: x**2, 1.0, action=act)
    phi = ValueField(grid=g, values=g.axes[0] ** 2 + 1.0, q_growth=2)
    best, _ = _Generator(prob, g).improve(phi.values.ravel())[:2]
    fld = AnalyticField(lambda x: x[0] ** 2 + 1.0,
                        grad=lambda x: np.array([2.0 * x[0]]),
                        hess=lambda x: np.array([[2.0]]))
    i = 40  # x = 0, interior, all jump destinations on nodes
    x = g.axes[0][i]
    want = apply_generator(act, fld, x) - (x**2 + 1.0) + x**2  # L phi - q phi + f
    assert best[i] == pytest.approx(want, abs=1e-9)
    # a solved grid field as the generator's input: the diffusion-only value
    # x^2 + 1, read through the field's own interpolation; central differences
    # of its spacing h are exact on its node values
    brown = singleton_problem(lambda x, a: x**2, 1.0)
    pol = PolicyTable(grid=g, action_index=np.zeros(g.n_nodes, dtype=int))
    solved = policy_evaluation(pol, brown, g)
    best, _ = _Generator(prob, g).improve(solved.values.ravel())[:2]
    want = apply_generator(act, solved, np.array([x])) - solved.value(np.array([x])) + x**2
    assert want == pytest.approx(0.75, abs=1e-6)  # L(x^2 + 1) - (x^2 + 1) + x^2 at 0
    assert best[i] == pytest.approx(want, abs=1e-6)


# ---------------------------------------------------------------------------
# policy improvement


def test_improvement_singleton():
    g = Grid.regular(-2.0, 2.0, 33)
    prob = singleton_problem(lambda x, a: x**2, 1.0)
    phi = ValueField(grid=g, values=g.axes[0] ** 2, q_growth=2)
    pol = policy_improvement(phi, prob, g)
    assert np.all(pol.action_index == 0)


def test_improvement_empty_action_set():
    with pytest.raises(ValueError):
        HJBProblem(f=0.0, q=1.0, delta_q=1.0, b_q=1.0, actions=())


def test_improvement_selects_jump_to_origin_far_out():
    g = Grid.regular(-6.0, 6.0, 121)
    prob = example1_problem()
    v = g.axes[0] ** 2 / 2.0 + 0.5
    phi = ValueField(grid=g, values=v, q_growth=2)
    pol = policy_improvement(phi, prob, g)
    x = g.axes[0]
    far = np.abs(x) >= 1.0
    assert np.all(pol.action_index[far] == 1)
    assert pol.action_index[np.argmin(np.abs(x))] == 0  # tie at the origin


def test_improvement_lq_drift_near_feedback():
    sol = solve_lq(LQSpec(lam=1.0, theta=1.0, q=3.0))
    gain = sol.Q[0, 0]
    g = Grid.regular(-6.0, 6.0, 201)
    lattice = np.linspace(-3.0, 3.0, 41)
    prob = lq_product_problem(lattice=lattice)
    phi = ValueField(grid=g, values=B_HAT * g.axes[0] ** 2 + B_HAT / 3.0, q_growth=2)
    pol = policy_improvement(phi, prob, g)
    cell = lattice[1] - lattice[0]
    inner = interior_mask(g)
    target = -gain * g.axes[0]
    assert np.abs(pol.mu[inner, 0] - target[inner]).max() <= cell


def atoms_2d_problem():
    # the benchmark's 2-D LQ family: a pure diffusion and a smaller diffusion
    # with two atoms, over a 13 x 13 drift lattice
    pairs = (
        (np.eye(2), ZeroMeasure(2)),
        (0.5 * np.eye(2), AtomicMeasure(2, [[0.5, 0.0], [0.0, -0.5]], [1.0, 1.0])),
    )
    prob = HJBProblem(
        f=lambda x, a: np.sum(x**2, axis=1) + float(a.mu @ a.mu), q=3.0, delta_q=3.0, b_q=3.0,
        sigma_nu_pairs=pairs, mu_lattice=(np.linspace(-3.0, 3.0, 13),) * 2, q_growth=2,
    )
    return prob, pairs


def _list_case():
    g = Grid.regular(-6.0, 6.0, 121)
    x = g.axes[0]
    return example1_problem(), g, x**2 / 2.0 + 0.5 + 0.1 * np.sin(3.0 * x)


def _product_case():
    g = Grid.regular(-6.0, 6.0, 121)
    x = g.axes[0]
    return lq_product_problem(), g, B_HAT * x**2 + B_HAT / 3.0 + 0.05 * np.cos(2.0 * x)


def _product_2d_case():
    g = Grid.regular([-3.0, -3.0], [3.0, 3.0], [21, 21])
    X = g.nodes()
    return atoms_2d_problem()[0], g, 2.0 + np.cos(1.5 * X[:, 0]) + 0.3 * X[:, 1] ** 2


@pytest.mark.parametrize("case", [_list_case, _product_case, _product_2d_case])
def test_improvement_matches_evaluation_operator(case):
    # one discrete generator: the minimised integrand is L_pol phi - q phi + f
    # with the rows policy evaluation assembles for the chosen policy
    prob, g, phi = case()
    gen = _Generator(prob, g)
    best, pol, _ = gen.improve(phi)
    l, qvec, fvec = gen.operator(pol)
    assert np.abs(best - (_sparse_L(gen, l) @ phi - qvec * phi + fvec)).max() <= 1e-12
    assert len(np.unique(pol.action_index)) == prob.n_candidates  # rows of every candidate


@pytest.mark.parametrize("case", [_list_case, _product_case, _product_2d_case])
def test_improvement_costs_equal_recomputed_ones(case):
    # the q/f that improvement hands to evaluation are exactly the ones
    # evaluation computes from the policy alone
    prob, g, phi = case()
    gen = _Generator(prob, g)
    _, pol, costs = gen.improve(phi)
    (ls, qs, fs), (lr, qr, fr) = gen.operator(pol, costs), gen.operator(pol)
    assert np.array_equal(qs, qr) and np.array_equal(fs, fr)
    assert np.array_equal(ls, lr)


def _sparse_L(gen, l):
    """The generator L whose entries ``operator`` returns on the CSC layout."""
    n = gen.grid.n_nodes
    L = sp.csc_matrix((l, gen.indices, gen.indptr), shape=(n, n))
    L.eliminate_zeros()
    return L


def _reference_operator(gen, pol):
    """L by sparse products and adds: diag(rows) K_j per candidate, then
    diag(b+) D+_k and diag(b-) D-_k per axis."""
    n, dim = gen.grid.n_nodes, gen.grid.dim
    L = sp.csr_matrix((n, n))
    mu, m1 = np.zeros((n, dim)), np.zeros((n, dim))
    for j, cand in enumerate(gen.cands):
        rows = pol.action_index == j
        L = L + sp.diags(rows.astype(float)) @ cand.K
        mu[rows] = cand.mu[rows] if pol.mu is None else pol.mu[rows]
        m1[rows] = cand.m1[rows]
    b = gen.u + mu - m1
    for k in range(dim):
        L = L + sp.diags(np.maximum(b[:, k], 0.0)) @ gen.Dp[k]
        L = L + sp.diags(np.minimum(b[:, k], 0.0)) @ gen.Dm[k]
    L = L.tocsr()
    L.eliminate_zeros()
    return L


def _correlated_2d_problem():
    pairs = (
        (np.array([[1.0, 0.0], [0.6, 0.8]]), ZeroMeasure(2)),
        (0.5 * np.eye(2), AtomicMeasure(2, [[0.5, 0.0], [0.0, -0.5]], [1.0, 1.0])),
    )
    return HJBProblem(
        f=lambda x, a: np.sum(x**2, axis=1) + float(a.mu @ a.mu), q=3.0, delta_q=3.0, b_q=3.0,
        sigma_nu_pairs=pairs, mu_lattice=(np.linspace(-3.0, 3.0, 13),) * 2, q_growth=2,
    )


_OPERATOR_CASES = {
    "pure_drift_1d": lambda: (
        HJBProblem(f=lambda x, a: x**2, q=1.0, delta_q=1.0, b_q=1.0,
                   sigma_nu_pairs=((0.0, ZeroMeasure(1)),), mu_lattice=np.linspace(-2.0, 2.0, 9)),
        Grid.regular(-6.0, 6.0, 121),
    ),
    "list_1d_jump_origin": lambda: (example1_problem(), Grid.regular(-6.0, 6.0, 121)),
    "product_1d": lambda: (lq_product_problem(), Grid.regular(-6.0, 6.0, 121)),
    "product_2d_atoms": lambda: (atoms_2d_problem()[0], Grid.regular([-3.0, -3.0], [3.0, 3.0], [21, 21])),
    "product_2d_correlated": lambda: (_correlated_2d_problem(), Grid.regular([-2.0, -3.0], [2.0, 3.0], [17, 23])),
}


@pytest.mark.filterwarnings("ignore::jumpctl.hjb.SchemeWarning", "ignore:corner extrapolation")
@pytest.mark.parametrize("case", sorted(_OPERATOR_CASES))
def test_fixed_pattern_operator_matches_sparse_products(case, monkeypatch):
    # the operator scatters into one fixed layout and must give the bits of the
    # sparse-product sum
    built = []
    make_candidate = _Generator._candidate

    def recording(self, groups, costs):
        cand = make_candidate(self, groups, costs)
        built.append((cand.K.indices.copy(), cand.K.data.copy()))
        return cand

    monkeypatch.setattr(_Generator, "_candidate", recording)
    prob, g = _OPERATOR_CASES[case]()
    gen = _Generator(prob, g)
    # the pattern is read from K as stored: sorting K in place would reorder K @ phi
    assert len(built) == len(gen.cands)
    for (indices, data), cand in zip(built, gen.cands):
        assert np.array_equal(cand.K.indices, indices) and np.array_equal(cand.K.data, data)
    for pos in gen.pos:  # data[pos] += v drops a repeated position
        assert np.unique(pos).size == pos.size
    pol = _random_policy(prob, g, len(gen.cands))
    l, _, _ = gen.operator(pol)
    assert _sparse_L(gen, l).toarray().tobytes() == _reference_operator(gen, pol).toarray().tobytes()


def _random_policy(prob, g, ncand):
    """Every candidate somewhere, the rest at random; in product mode random drifts,
    a tenth of them zero."""
    rng = np.random.default_rng(8)
    n = g.n_nodes
    idx = np.concatenate([np.arange(ncand), rng.integers(0, ncand, n - ncand)])
    mu = None
    if prob.mode == "product":
        lo, hi = [ax[0] for ax in prob.mu_lattice], [ax[-1] for ax in prob.mu_lattice]
        mu = rng.uniform(lo, hi, (n, g.dim))
        mu[rng.random(n) < 0.1] = 0.0
    return PolicyTable(grid=g, action_index=rng.permutation(idx), mu=mu)


@pytest.mark.filterwarnings("ignore::jumpctl.hjb.SchemeWarning", "ignore:corner extrapolation")
@pytest.mark.parametrize("case", sorted(_OPERATOR_CASES))
def test_system_matches_the_sparse_route(case):
    # the evaluation system q - L and the time-step system I - dt L, assembled
    # straight into CSC, are scipy's sparse differences of the sparse-product L
    # converted to CSC: the same entries (exact zeros dropped), order and bits
    prob, g = _OPERATOR_CASES[case]()
    gen = _Generator(prob, g)
    pol = _random_policy(prob, g, len(gen.cands))
    l, qvec, _ = gen.operator(pol)
    ref = _reference_operator(gen, pol)
    eye = sp.identity(g.n_nodes, format="csr")
    for got, want in ((gen.system(l, 1.0, 0.01), eye - 0.01 * ref),
                      (gen.system(l, qvec, 1.0), sp.diags(qvec) - ref)):
        want = want.tocsc()
        assert got.format == "csc"
        if case == "pure_drift_1d":  # the unused upwind side leaves zeros to drop
            assert got.nnz < l.size
        for part in ("indptr", "indices", "data"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part


def _fresh_solve(M, rhs):
    return splu(M).solve(rhs).view(np.int64)


def _relocation_case():
    g = Grid.regular(-6.0, 6.0, 121)
    return _jump_to_origin_problems(1)[0], g, g.axes[0] ** 2 + 0.3 * np.cos(2.0 * g.axes[0])


@pytest.mark.parametrize("case", [_list_case, _relocation_case, _product_case, _product_2d_case])
def test_reused_column_order_solves_as_a_fresh_splu(case):
    # COLAMD's column order depends on the sparsity pattern only: a system on a
    # pattern the generator has ordered before is factorised with its columns
    # gathered into that order, and must solve to the bits of a fresh
    # splu(M).solve. The time-step (I - dt L) and evaluation (q - L) systems of
    # the policies improved from six fields cover the 1-D ghost rows' tail
    # bands, Example 1's per-state jumps, a relocation kernel and the 2-D atoms.
    prob, g, phi = case()
    gen = _Generator(prob, g)
    rng = np.random.default_rng(7)
    for k in range(6):
        field = (1.0 + 0.2 * k) * phi + 0.05 * rng.standard_normal(g.n_nodes)
        _, pol, costs = gen.improve(field)
        l, qvec, fvec = gen.operator(pol, costs)
        for M, rhs in ((gen.system(l, 1.0, 0.02), field), (gen.system(l, qvec, 1.0), fvec)):
            assert np.array_equal(gen.factorise(M, 1e-8)(rhs).view(np.int64), _fresh_solve(M, rhs))
    assert gen.factorisations == 12 and 1 <= gen.orderings < 12
    assert gen.order[2].base is None  # a view of perm_c would keep its whole LU factor alive


def test_a_changed_pattern_gets_a_new_column_order():
    # the zero-drift policy drops every upwind entry, so its pattern differs
    # from an improved policy's; each change of pattern orders anew (one order
    # is kept), a repeat of the last pattern reuses it
    prob, g, phi = _product_2d_case()
    gen = _Generator(prob, g)
    zero = PolicyTable(grid=g, action_index=np.zeros(g.n_nodes, dtype=int), mu=np.zeros((g.n_nodes, 2)))
    moved = gen.improve(phi)[1]
    systems = [gen.system(gen.operator(pol)[0], 1.0, 0.05) for pol in (zero, moved, moved, zero)]
    assert systems[0].nnz < systems[1].nnz
    counts = []
    for M in systems:
        assert np.array_equal(gen.factorise(M, 1e-8)(phi).view(np.int64), _fresh_solve(M, phi))
        counts.append((gen.orderings, gen.factorisations))
    assert counts == [(1, 1), (2, 2), (2, 3), (3, 4)]


@pytest.mark.parametrize("case", [_list_case, _product_case, _product_2d_case])
def test_an_earlier_solve_survives_a_later_factorisation(case):
    # systems on one pattern share its index arrays, but each owns its data: a
    # solve returned before a later factorise on that pattern still solves, and
    # checks its residual against, its own system
    prob, g, phi = case()
    gen = _Generator(prob, g)
    l = gen.operator(gen.improve(phi)[1])[0]
    first = gen.system(l, 1.0, 0.02)
    want = _fresh_solve(first, phi)
    solve = gen.factorise(first, 1e-8)
    later = gen.system(l, 1.0, 0.5)
    assert later.indices is first.indices and later.indptr is first.indptr
    assert np.array_equal(gen.factorise(later, 1e-8)(phi).view(np.int64), _fresh_solve(later, phi))
    assert (gen.orderings, gen.factorisations) == (1, 2)
    assert np.array_equal(solve(phi).view(np.int64), want)


def test_singular_systems_raise_with_and_without_a_kept_order():
    # a column of explicit zeros keeps the pattern and makes the system exactly
    # singular: the reused order and a fresh ordering both raise SolverError.
    # S shares M's index arrays, as the systems on one pattern do, by which
    # factorise knows the pattern it has ordered
    prob, g, phi = _product_case()
    gen = _Generator(prob, g)
    M = gen.system(gen.operator(gen.improve(phi)[1])[0], 1.0, 0.05)
    gen.factorise(M, 1e-8)
    data = M.data.copy()
    data[M.indptr[40] : M.indptr[41]] = 0.0
    S = copy.copy(M)
    S.data = data
    for fresh in (False, True):
        with pytest.raises(SolverError, match="singular"):
            (_Generator(prob, g) if fresh else gen).factorise(S, 1e-8)
    assert (gen.orderings, gen.factorisations) == (1, 2)


class CountingCost:
    """f(x, a) = x^2 + mu^2, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x, a):
        self.calls += 1
        return x**2 + float(a.mu[0]) ** 2


def test_running_cost_called_once_per_chosen_action():
    # improvement calls f once per lattice point and once per refined drift;
    # evaluation reuses those values instead of calling f at the same drifts
    g = Grid.regular(-3.0, 3.0, 41)
    lattice = np.linspace(-2.0, 2.0, 9)
    f = CountingCost()
    prob = HJBProblem(
        f=f, q=3.0, delta_q=3.0, b_q=3.0,
        sigma_nu_pairs=((1.0, ZeroMeasure(1)),), mu_lattice=lattice, q_growth=2,
    )
    per_sweep = g.n_nodes + lattice.size
    solve_finite_horizon(prob, h=g.axes[0] ** 2, T=1.0, n_steps=20, grid=g)
    assert 0 < f.calls <= 20 * per_sweep
    f.calls = 0
    _, _, rep = solve_stationary(prob, g)
    assert rep.converged
    assert 0 < f.calls <= 1 + rep.iterations * per_sweep  # plus the initial evaluation


class QuadCost:
    """f = |x|^2 + mu' theta mu, as a plain f(x, a) and as row-batched ``rows``."""

    def __init__(self, theta):
        self.theta = np.atleast_2d(np.asarray(theta, float))
        self.calls = self.row_calls = 0

    def __call__(self, x, a):
        self.calls += 1
        return (x**2 if x.ndim == 1 else np.sum(x**2, axis=1)) + float(a.mu @ self.theta @ a.mu)

    def rows(self, x, sigma, nu, mu):
        self.row_calls += 1
        return (x**2 if x.ndim == 1 else np.sum(x**2, axis=1)) + np.vecdot(mu @ self.theta, mu)


class QDiscount:
    """q = 2 + 1 / (1 + x_0^2 + mu_0^2), within [2, 3], plain and row-batched."""

    def __init__(self):
        self.calls = self.row_calls = 0

    def __call__(self, x, a):
        self.calls += 1
        x0 = x if x.ndim == 1 else x[:, 0]
        return 2.0 + 1.0 / (1.0 + x0 * x0 + a.mu[0] * a.mu[0])

    def rows(self, x, sigma, nu, mu):
        self.row_calls += 1
        x0 = x if x.ndim == 1 else x[:, 0]
        return 2.0 + 1.0 / (1.0 + x0 * x0 + mu[:, 0] * mu[:, 0])


def _row_batched_case(dim):
    """(grid, theta, callable q?, pairs, lattice): 1-D with a callable q, 2-D with atoms."""
    if dim == 1:
        g = Grid.regular(-3.0, 3.0, 61)
        return g, [[1.5]], True, ((1.0, ZeroMeasure(1)),), (np.linspace(-2.0, 2.0, 17),)
    g = Grid.regular([-3.0, -3.0], [3.0, 3.0], [21, 21])
    lattice = (np.linspace(-3.0, 3.0, 13),) * 2
    return g, [[1.0, 0.3], [0.3, 2.0]], False, atoms_2d_problem()[1], lattice


@pytest.mark.parametrize("dim", [1, 2])
def test_row_batched_cost_matches_per_action_calls(dim):
    # a cost with .rows solves bit-identically to the same cost as a plain f(x, a);
    # the solver calls .rows per block of lattice columns and pair, and never f(x, a)
    g, theta, q_callable, pairs, lattice = _row_batched_case(dim)
    f, f_twin = QuadCost(theta), QuadCost(theta)
    q, q_twin = (QDiscount(), QDiscount()) if q_callable else (3.0, 3.0)
    kw = dict(delta_q=2.0 if q_callable else 3.0, b_q=3.0, sigma_nu_pairs=pairs,
              mu_lattice=lattice, q_growth=2)
    batched = HJBProblem(f=f, q=q, **kw)
    plain = HJBProblem(f=lambda x, a: f_twin(x, a),
                       q=(lambda x, a: q_twin(x, a)) if q_callable else 3.0, **kw)
    counted = [f, q] if q_callable else [f]
    n_lat = int(np.prod([len(ax) for ax in lattice]))
    blocks = -(-n_lat // max(1, 2**15 // g.n_nodes))
    assert blocks == (1 if dim == 1 else 3)  # the 2-D case spans three blocks of columns
    per_sweep = len(pairs) * 2 * blocks

    (phi_b, pol_b, rep), (phi_p, pol_p, _) = solve_stationary(batched, g), solve_stationary(plain, g)
    assert rep.converged
    assert np.array_equal(phi_b.values, phi_p.values)
    assert np.array_equal(pol_b.action_index, pol_p.action_index)
    assert np.array_equal(pol_b.mu, pol_p.mu)
    for c in counted:  # the initial evaluation, then at most iterations + 1 sweeps
        assert c.calls == 0 and 0 < c.row_calls <= len(pairs) + (rep.iterations + 1) * per_sweep
        c.row_calls = 0
    sol_b = solve_finite_horizon(batched, h=1.0, T=0.5, n_steps=6, grid=g)
    sol_p = solve_finite_horizon(plain, h=1.0, T=0.5, n_steps=6, grid=g)
    assert np.array_equal(sol_b.values, sol_p.values)
    for c in counted:
        assert c.calls == 0 and 0 < c.row_calls <= 6 * per_sweep
    assert f_twin.calls > 0


def _count_rows(cost, sizes):
    """Wrap a product cost's ``rows`` to record the row count of every call."""
    rows = cost.rows

    def counted(x, sigma, nu, mu):
        sizes.append(len(mu))
        return rows(x, sigma, nu, mu)

    cost.rows = counted


@pytest.mark.parametrize("n_lat, n_steps, blocks", [(41, 400, 1), (401, 20, 2)])
def test_lattice_blocks_evaluated_once_per_pair_and_solve(n_lat, n_steps, blocks):
    # every block of a lattice scan, one (41 columns x 101 nodes) or two (401 x
    # 101 rows, blocks of 324 and 77 columns), has q and f evaluated on it once
    # per pair and solve, and read back at every later step, as the tables stay
    # within the budget. The other calls are refinements, one row per node at most.
    g = Grid.regular(-3.0, 3.0, 101)
    f, q = QuadCost([[1.0]]), QDiscount()
    sizes = {"f": [], "q": []}
    _count_rows(f, sizes["f"])
    _count_rows(q, sizes["q"])
    pairs = ((1.0, ZeroMeasure(1)), (0.5, ZeroMeasure(1)))
    prob = HJBProblem(f=f, q=q, delta_q=2.0, b_q=3.0, sigma_nu_pairs=pairs,
                      mu_lattice=np.linspace(-2.0, 2.0, n_lat), q_growth=2)
    sol = solve_finite_horizon(prob, h=0.0, T=1.0, n_steps=n_steps, grid=g)
    assert np.all(np.isfinite(sol.values))
    for calls in sizes.values():
        lattice = [m for m in calls if m > g.n_nodes]
        assert len(lattice) == blocks * len(pairs)
        assert sum(lattice) == len(pairs) * n_lat * g.n_nodes  # one whole-lattice scan
        assert len(calls) > len(lattice)  # and refinements


@pytest.mark.parametrize("dim, budget", [(1, 0), (2, 0), (2, 100_000)])
def test_lattice_tables_keep_the_bits_within_the_budget(monkeypatch, dim, budget):
    # a solve that keeps no lattice table (budget 0) or fills the budget partway
    # (two pairs x three blocks of 74, 74 and 21 columns x 441 nodes of f, 149,058
    # entries in all) gives the bits of one that keeps every table; the kept
    # entries never pass the budget
    g, theta, q_callable, pairs, lattice = _row_batched_case(dim)
    prob = HJBProblem(f=QuadCost(theta), q=QDiscount() if q_callable else 3.0,
                      delta_q=2.0 if q_callable else 3.0, b_q=3.0, sigma_nu_pairs=pairs,
                      mu_lattice=lattice, q_growth=2)
    ref_phi, ref_pol, _ = solve_stationary(prob, g)
    ref_fin = solve_finite_horizon(prob, h=1.0, T=0.5, n_steps=6, grid=g)
    kept, block = [], _Generator._lattice_block

    def recorded(gen, s, c0, mus):
        out = block(gen, s, c0, mus)
        kept.append((gen.kept, len(gen.tables)))
        return out

    monkeypatch.setattr(hjb, "_TABLE_BUDGET", budget)
    monkeypatch.setattr(_Generator, "_lattice_block", recorded)
    phi, pol, _ = solve_stationary(prob, g)
    fin = solve_finite_horizon(prob, h=1.0, T=0.5, n_steps=6, grid=g)
    assert np.array_equal(phi.values, ref_phi.values)
    assert np.array_equal(pol.action_index, ref_pol.action_index)
    assert np.array_equal(pol.mu, ref_pol.mu)
    assert np.array_equal(fin.values, ref_fin.values)
    assert max(k for k, _ in kept) <= budget
    tables = max(t for _, t in kept)
    assert tables == 0 if budget == 0 else 0 < tables < len(pairs) * 3


def _per_column_best_drift(gen, s, phi, dp, dm):
    """``_Generator._best_drift`` as it formed the drift before the per-axis terms:
    the upwind parts of u + combos[c] - m1 on every node, and their drift, per
    block of lattice columns; q and f evaluated per block without the tables."""
    cand, n = gen.cands[s], gen.grid.n_nodes
    lat, combos, lshape = gen.prob.mu_lattice, gen.combos, gen.lshape
    base = cand.K @ phi

    def drift(parts, dp, dm):
        return sum(parts[2 * k] * dp[k] + parts[2 * k + 1] * dm[k] for k in range(len(dp)))

    Iall = np.empty((combos.shape[0], n))
    I_best = q_best = f_best = None
    best_flat = np.zeros(n, dtype=int)
    every, width = np.arange(n), max(1, 2**15 // n)
    for c0 in range(0, combos.shape[0], width):
        mus = combos[c0 : c0 + width]
        qv, fv = (v.reshape(len(mus), n) for v in
                  gen._pair_costs(s, np.repeat(mus, n, axis=0), np.tile(every, len(mus))))
        parts = hjb._upwind(gen.u + mus[:, None, :] - cand.m1)
        Iall[c0 : c0 + len(mus)] = I = base + drift(parts, dp, dm) - qv * phi + fv
        if I_best is None:
            I_best, q_best, f_best = I[0].copy(), qv[0].copy(), fv[0].copy()
        j = np.argmin(np.where(np.isnan(I), np.inf, I), axis=0)
        r = np.flatnonzero(I[j, every] < I_best)
        j = j[r]
        I_best[r], best_flat[r], q_best[r], f_best[r] = I[j, r], c0 + j, qv[j, r], fv[j, r]
    cmulti = np.unravel_index(best_flat, lshape)
    strides = np.array([int(np.prod(lshape[r + 1 :])) for r in range(len(lshape))])
    mu_ref = combos[best_flat].copy()
    for r, ax in enumerate(lat):
        rows = np.nonzero((cmulti[r] > 0) & (cmulti[r] < len(ax) - 1))[0]
        flat0 = best_flat[rows]
        I_m, I_0, I_p = (Iall[flat0 + d * strides[r], rows] for d in (-1, 0, 1))
        denom, step = I_p - 2.0 * I_0 + I_m, ax[1] - ax[0]
        ok = denom > 1e-300
        off = np.zeros(len(rows))
        off[ok] = np.clip(0.5 * (I_m[ok] - I_p[ok]) / denom[ok] * step, -step, step)
        use = ok & (off != 0.0)
        mu_ref[rows[use], r] += off[use]
    i = np.nonzero(np.any(mu_ref != combos[best_flat], axis=1))[0]
    parts = hjb._upwind(gen.u + mu_ref[i] - cand.m1[i])
    qv, fv = gen._pair_costs(s, mu_ref[i], i)
    val = base[i] + drift(parts, [d[i] for d in dp], [d[i] for d in dm]) - qv * phi[i] + fv
    better = val <= I_best[i]
    b = i[better]
    I_best[b], q_best[b], f_best[b] = val[better], qv[better], fv[better]
    mu_ref[i[~better]] = combos[best_flat[i[~better]]]
    return mu_ref, I_best, q_best, f_best


@pytest.mark.parametrize("dim", [1, 2])
def test_best_drift_matches_the_per_column_reference(dim):
    # the drift term formed per lattice axis and gathered per block gives the
    # bits of the upwind parts formed per lattice column: a 13 x 5 lattice with
    # u != 0 and an atomic pair (m1 != 0) over four blocks of 19 columns, and a
    # 41-point 1-D lattice over three blocks at n = 2,001, as example 3 solves
    if dim == 1:
        g, pairs = Grid.regular(-6.0, 6.0, 2001), ((1.0, ZeroMeasure(1)),)
        prob = HJBProblem(f=QuadCost([[1.0]]), q=3.0, delta_q=3.0, b_q=3.0, sigma_nu_pairs=pairs,
                          mu_lattice=np.linspace(-4.0, 4.0, 41), u=0.3, q_growth=2)
    else:
        g = Grid.regular([-3.0, -3.0], [3.0, 3.0], [41, 41])
        prob = HJBProblem(f=QuadCost([[1.0, 0.3], [0.3, 2.0]]), q=QDiscount(), delta_q=2.0,
                          b_q=3.0, sigma_nu_pairs=atoms_2d_problem()[1], u=[0.25, -0.4],
                          mu_lattice=(np.linspace(-3.0, 3.0, 13), np.linspace(-1.0, 1.0, 5)),
                          q_growth=2)
    gen = _Generator(prob, g)
    blocks = -(-len(gen.combos) // max(1, 2**15 // g.n_nodes))
    assert blocks == (3 if dim == 1 else 4)
    assert dim == 1 or np.any(gen.cands[1].m1 != 0.0)
    x = g.nodes()
    rng = np.random.default_rng(23)
    for sweep in range(2):  # the second reads the kept upwind parts and q/f tables
        phi = np.sum(x * x, axis=1) + 0.5 * np.sin(3.0 * x[:, 0]) + 0.1 * rng.standard_normal(len(x))
        dp, dm = [D @ phi for D in gen.Dp], [D @ phi for D in gen.Dm]
        for s in range(len(gen.cands)):
            got, ref = gen._best_drift(s, phi, dp, dm), _per_column_best_drift(gen, s, phi, dp, dm)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))


class TableCost:
    """f read from a (node, lattice column) table on a square grid; the column
    is given by the signs of the drift."""

    def __init__(self, table, axis):
        self.table, self.axis = table, axis

    def __call__(self, x, a):
        return self.rows(x, None, None, np.tile(a.mu, (len(x), 1)))

    def rows(self, x, sigma, nu, mu):
        i, j = (np.searchsorted(self.axis, x[:, k]) for k in (0, 1))
        return self.table[i * len(self.axis) + j, 2 * (mu[:, 0] > 0) + (mu[:, 1] > 0)]


def test_lattice_argmin_keeps_first_minimum_and_nan_rule():
    # with phi = 0 the integrand is f itself; a 2 x 2 drift lattice leaves no
    # room for refinement, and 8,281 nodes split its 4 columns into blocks of
    # 3 and 1. The choice must follow the per-column running argmin: column 0
    # seeds it, later columns replace it only when strictly smaller, a NaN
    # never replaces, and a NaN in column 0 sticks (the node then gets no action).
    g = Grid.regular([-1.0, -1.0], [1.0, 1.0], [91, 91])
    rng = np.random.default_rng(3)
    table = rng.integers(0, 3, (g.n_nodes, 4)).astype(float)
    table[rng.random(table.shape) < 0.2] = np.nan
    prob = HJBProblem(f=TableCost(table, g.axes[0]), q=1.0, delta_q=1.0, b_q=1.0,
                      sigma_nu_pairs=((np.eye(2), ZeroMeasure(2)),),
                      mu_lattice=([-1.0, 1.0], [-1.0, 1.0]), q_growth=2)
    best, pol, (_, f_best) = _Generator(prob, g).improve(np.zeros(g.n_nodes))
    ref, col = np.full(g.n_nodes, np.nan), np.zeros(g.n_nodes, dtype=int)
    for c in range(4):
        upd = (table[:, c] < ref) | (c == 0)
        ref[upd], col[upd] = table[upd, c], c
    chosen = ~np.isnan(ref)
    assert 0 < chosen.sum() < g.n_nodes
    assert np.array_equal(best, np.where(chosen, ref, np.inf))
    assert np.array_equal(f_best, ref, equal_nan=True)
    signs = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    assert np.array_equal(pol.mu[chosen], signs[col[chosen]])


def test_lattice_axes_must_match_the_grid():
    # a 3-axis drift lattice on a 2-D grid used to fail in a reshape
    g = Grid.regular([-1.0, -1.0], [1.0, 1.0], [16, 16])
    prob = HJBProblem(f=lambda x, a: 1.0, q=1.0, delta_q=1.0, b_q=1.0,
                      sigma_nu_pairs=((np.eye(2), ZeroMeasure(2)),),
                      mu_lattice=([-1.0, 1.0],) * 3, q_growth=2)
    with pytest.raises(ValueError, match="drift lattice has 3 axes, grid 2"):
        solve_stationary(prob, g)


# ---------------------------------------------------------------------------
# stationary solves


def test_stationary_needs_a_sweep():
    g = Grid.regular(-2.0, 2.0, 33)
    with pytest.raises(ValueError, match="max_iters"):
        solve_stationary(singleton_problem(lambda x, a: x**2, 1.0), g, max_iters=0)


def test_stationary_singleton_equals_evaluation():
    g = Grid.regular(-2.0, 2.0, 33)
    prob = singleton_problem(lambda x, a: x**2, 1.0)
    pol0 = PolicyTable(grid=g, action_index=np.zeros(g.n_nodes, dtype=int))
    direct = policy_evaluation(pol0, prob, g)
    phi, pol, rep = solve_stationary(prob, g)
    assert rep.converged
    assert np.abs(phi.values - direct.values).max() < 1e-12


def test_stationary_lq_matches_closed_form():
    g = Grid.regular(-6.0, 6.0, 201)
    prob = lq_product_problem()
    phi, pol, rep = solve_stationary(prob, g, tol=1e-8)
    assert rep.converged
    x = g.axes[0]
    keep = np.abs(x) <= 2.0
    target = B_HAT * x**2 + B_HAT / 3.0
    rel = np.abs(phi.values[keep] - target[keep]).max() / np.abs(target[keep]).max()
    assert rel < 1e-2
    assert rep.max_pointwise_increase <= 1e-8 * max(1.0, np.abs(phi.values).max())


def _lq_1d_error(num):
    sol = solve_lq(LQSpec(lam=1.0, theta=1.0, q=3.0,
                          dispersion_candidates=[(1.0, ZeroMeasure(1))]))
    g = Grid.regular(-6.0, 6.0, num)
    phi, _, rep = solve_stationary(lq_product_problem(lattice=np.linspace(-4.0, 4.0, 41)), g)
    assert rep.converged
    x = g.axes[0]
    keep = np.abs(x) <= 2.0
    err = np.abs(phi.values[keep] - sol.value(x[keep].reshape(-1, 1))).max()
    return err, rep


def test_lq_refinement_is_first_order_and_monotone():
    # first order in h against the Riccati value, up to 6,401 nodes
    errs = []
    for num in (401, 1601, 6401):
        err, rep = _lq_1d_error(num)
        assert rep.max_pointwise_increase <= 1e-10  # Howard's iterates decrease
        errs.append(err)
    orders = np.log(np.array(errs[:-1]) / np.array(errs[1:])) / np.log(4.0)
    assert np.all(orders >= 0.9), (errs, orders)


def test_solves_past_2048_nodes():
    err, _ = _lq_1d_error(2049)
    assert err < 1e-3
    prob, pairs = atoms_2d_problem()
    g = Grid.regular([-3.0, -3.0], [3.0, 3.0], [61, 61])
    phi, _, rep = solve_stationary(prob, g)
    assert rep.converged
    sol = solve_lq(LQSpec(lam=np.eye(2), theta=np.eye(2), q=3.0, dispersion_candidates=pairs))
    X = g.nodes()
    keep = np.max(np.abs(X), axis=1) <= 1.5
    ref = sol.value(X[keep])
    rel = np.max(np.abs(phi.values.ravel()[keep] - ref) / np.maximum(1.0, np.abs(ref)))
    assert rel < 5e-2


def test_stationary_example1_exact_on_quadratic():
    g = Grid.regular(-6.0, 6.0, 241)
    prob = example1_problem()
    phi, pol, rep = solve_stationary(prob, g, tol=1e-10)
    assert rep.converged
    x = g.axes[0]
    target = x**2 / 2.0 + 0.5
    keep = np.abs(x) <= 4.0
    rel = np.abs(phi.values[keep] - target[keep]).max() / np.abs(target[keep]).max()
    assert rel < 2e-2
    # jump control active away from the origin (strict improvement there)
    tol_sel = 1e-8
    psi_excess = x**2 / 2.0  # psi(x) - psi(0)
    must_jump = psi_excess > tol_sel
    assert np.all(pol.action_index[must_jump] == 1)
    assert rep.max_pointwise_increase <= 1e-10  # Howard's iterates decrease


def _jump_to_origin_problems(dim):
    """Example 1's two actions, the jump to the origin once as a relocation
    kernel entry and once as the per-state callable."""
    f = (lambda x, a: x**2) if dim == 1 else (lambda x, a: np.sum(x**2, axis=1))
    brown = Action(sigma=np.eye(dim), nu=ZeroMeasure(dim), mu=np.zeros(dim))
    kernel = Action(sigma=np.eye(dim), nu=RelocationKernel(dim, 1.0), mu=np.zeros(dim))
    per_state = partial(jump_to_origin_action, rate=1.0, sigma=np.eye(dim))
    return [HJBProblem(f=f, q=1.0, delta_q=1.0, b_q=1.0, actions=(brown, entry), q_growth=2)
            for entry in (kernel, per_state)]


@pytest.mark.parametrize("grid", [
    Grid.regular(-6.0, 6.0, 121),
    # the middle node is 4.4e-16, not 0: both forms put no mass there (the 1e-12 rule)
    Grid.regular(-3.3, 3.3, 101),
    Grid(lo=(-3.3, -3.0), hi=(3.3, 3.0), num=(101, 25)),
], ids=["1d", "1d_near_zero_node", "2d"])
def test_relocation_kernel_matches_per_state_jump_to_origin(grid):
    # one kernel candidate over all nodes assembles the entries, costs and
    # solution of one per-state action per node, bit for bit
    probs = _jump_to_origin_problems(grid.dim)
    gens = [_Generator(prob, grid) for prob in probs]
    assert all(np.array_equal(getattr(gens[0], a), getattr(gens[1], a)) for a in ("indices", "indptr"))
    pol = PolicyTable(grid=grid, action_index=np.random.default_rng(3).integers(0, 2, grid.n_nodes))
    for got, want in zip(gens[0].operator(pol), gens[1].operator(pol)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    (phi, table, rep), (phi_ref, table_ref, rep_ref) = (solve_stationary(p, grid) for p in probs)
    assert rep.converged and rep.iterations == rep_ref.iterations
    assert np.array_equal(phi.values.view(np.int64), phi_ref.values.view(np.int64))
    assert np.array_equal(table.action_index, table_ref.action_index)


def _example1_orders(prob, coeffs, grids):
    """Orders of the solver's relative error on |x|_inf <= 3 against the exact
    Example 1 value at the nodes of each grid in turn."""
    errors = []
    for grid in grids:
        phi, _, rep = solve_stationary(prob, grid)
        assert rep.converged
        ref = example1_value(example1_psi(coeffs, 1.0, grid), 1.0).values
        inner = np.all(np.abs(grid.nodes()) <= 3.0, axis=1).reshape(grid.shape)
        errors.append(np.max(np.abs(phi.values - ref)[inner] / np.maximum(1.0, np.abs(ref[inner]))))
    return np.log2(np.array(errors[:-1]) / np.array(errors[1:]))


def test_example1_solver_is_second_order():
    # f = 1 + x^4 (the x^2 case is exact and shows no order): the relative error
    # against the exact value falls by 4x per doubling
    coeffs = [1.0, 0.0, 0.0, 0.0, 1.0]
    prob = HJBProblem(f=lambda x, a: 1.0 + x**4, q=1.0, delta_q=1.0, b_q=1.0, q_growth=4,
                      actions=(brownian_action(), Action(1.0, RelocationKernel(1, 1.0), 0.0)))
    orders = _example1_orders(prob, coeffs, [Grid.regular(-6.0, 6.0, n) for n in (121, 241, 481, 961)])
    assert np.all(orders >= 1.8), orders


def test_example1_solver_is_second_order_in_2d():
    # the separable cost f(x) = sum_i (1/2 + x_i^4) has the exact value
    # psi + psi(0)/q with psi(x) = sum_i P(x_i) under the 2-D relocation kernel
    coeffs = [0.5, 0.0, 0.0, 0.0, 1.0]
    prob = HJBProblem(f=lambda x, a: np.sum(0.5 + x**4, axis=1), q=1.0, delta_q=1.0, b_q=1.0,
                      q_growth=4,
                      actions=(Action(np.eye(2), ZeroMeasure(2), np.zeros(2)),
                               Action(np.eye(2), RelocationKernel(2, 1.0), np.zeros(2))))
    orders = _example1_orders(prob, coeffs, [Grid.regular((-6.0, -6.0), (6.0, 6.0), (n, n))
                                             for n in (31, 61, 121)])
    assert np.all(orders >= 1.8), orders


def test_stationary_residual_sign():
    g = Grid.regular(-6.0, 6.0, 121)
    prob = example1_problem()
    phi, pol, rep = solve_stationary(prob, g, tol=1e-10)
    assert rep.converged
    assert rep.residual <= 1e-7
    best, _ = _Generator(prob, g).improve(phi.values.ravel())[:2]
    inner = interior_mask(g)
    assert best[inner].min() >= -1e-7


def test_stationary_comparison_in_cost():
    g = Grid.regular(-4.0, 4.0, 65)
    lo, _, _ = solve_stationary(example1_problem(), g)
    prob_hi = HJBProblem(
        f=lambda x, a: x**2 + 0.5, q=1.0, delta_q=1.0, b_q=1.0,
        actions=(brownian_action(), jump_origin_entry), q_growth=2,
    )
    hi, _, _ = solve_stationary(prob_hi, g)
    assert np.all(hi.values >= lo.values - 1e-10)


def test_stationary_nonconvergence_reported():
    g = Grid.regular(-4.0, 4.0, 65)
    phi, pol, rep = solve_stationary(example1_problem(), g, tol=1e-14, max_iters=1)
    assert not rep.converged
    assert rep.messages
    assert np.all(np.isfinite(phi.values))


_BAD_ATOMS = {"negative_mass": ([[0.5]], [-1.0]), "origin_atom": ([[0.0]], [1.0]),
              "nan_location": ([[np.nan]], [1.0])}


@pytest.mark.parametrize("entry", ["action", "callable"])
@pytest.mark.parametrize("bad", sorted(_BAD_ATOMS))
def test_list_mode_rejects_malformed_measures(bad, entry):
    # a list entry's measure is read through the validated support, so a
    # malformed one stops the solve instead of entering the operator
    locations, masses = _BAD_ATOMS[bad]
    action = Action(sigma=1.0, nu=AtomicMeasure(1, locations, masses), mu=0.0)
    prob = HJBProblem(
        f=lambda x, a: x**2, q=1.0, delta_q=1.0, b_q=1.0,
        actions=(brownian_action(), action if entry == "action" else lambda x: action),
    )
    with pytest.raises(MeasureSupportError):
        solve_stationary(prob, Grid.regular(-3.0, 3.0, 61))


def test_solved_field_tail_is_polynomial():
    g = Grid.regular(-6.0, 6.0, 201)
    phi, _, _ = solve_stationary(lq_product_problem(), g)
    assert max(phi._tails.degree.values()) <= 2
    assert phi.tail_residual <= 1e-6 * max(1.0, np.abs(phi.values).max())


# ---------------------------------------------------------------------------
# finite horizon


def test_finite_horizon_pure_discount_exact():
    g = Grid.regular(-2.0, 2.0, 33)
    act = Action(sigma=0.0, nu=ZeroMeasure(1), mu=0.0)
    prob = singleton_problem(0.0, 3.0, action=act)
    sol = solve_finite_horizon(prob, h=2.5, T=1.0, n_steps=37, grid=g)
    expect = 2.5 * np.exp(-3.0 * 1.0)
    assert np.abs(sol.values[0] - expect).max() < 1e-12
    assert sol.times[0] == 0.0 and sol.times[-1] == 1.0


def test_finite_horizon_one_step_identity():
    # one backward step with f == 0 solves (I - dt L) phi0 = e^{-q dt} h
    g = Grid.regular(-2.0, 2.0, 33)
    prob = singleton_problem(0.0, 1.5)
    hvals = g.axes[0] ** 2
    sol = solve_finite_horizon(prob, h=hvals, T=0.25, n_steps=1, grid=g)
    pol = PolicyTable(grid=g, action_index=np.zeros(g.n_nodes, dtype=int))
    gen = _Generator(prob, g)
    L = _sparse_L(gen, gen.operator(pol)[0])
    lhs = (np.eye(g.n_nodes) - 0.25 * L.toarray()) @ sol.values[0].ravel()
    rhs = np.exp(-1.5 * 0.25) * hvals
    assert np.abs(lhs - rhs).max() < 1e-10


def test_finite_horizon_correlated_2d_warns():
    # known defect, pinned rather than hidden: a correlated diffusion makes
    # I - dt L non-monotone and this instance diverges (842.7 at the origin
    # against a stationary 1.89); the SchemeWarning is its only signal until
    # a monotone wide stencil replaces the cross-derivative rows
    g = Grid.regular([-2.0, -2.0], [2.0, 2.0], [21, 21])
    act = Action(sigma=np.array([[1.0, 0.3], [0.0, 1.0]]), nu=ZeroMeasure(2), mu=np.zeros(2))
    prob = singleton_problem(lambda x, a: np.sum(x**2, axis=1), 1.0, action=act)
    with pytest.warns(SchemeWarning):
        solve_finite_horizon(prob, h=0.0, T=2.0, n_steps=20, grid=g)


def test_finite_horizon_approaches_stationary():
    g = Grid.regular(-4.0, 4.0, 65)
    prob = singleton_problem(lambda x, a: x**2, 1.0)
    stat, _, _ = solve_stationary(prob, g)
    keep = np.abs(g.axes[0]) <= 2.0

    def gap(T, n):
        sol = solve_finite_horizon(prob, h=0.0, T=T, n_steps=n, grid=g)
        return np.abs(sol.values[0][keep] - stat.values[keep]).max()

    g1, g2, g4 = gap(1.0, 100), gap(2.0, 200), gap(4.0, 400)
    assert g2 < g1 and g4 < g2
    assert gap(8.0, 800) < 5e-2  # transient e^{-qT} has died off by T = 8


def test_finite_horizon_input_validation():
    g = Grid.regular(-2.0, 2.0, 33)
    prob = singleton_problem(0.0, 1.0)
    with pytest.raises(ValueError):
        solve_finite_horizon(prob, h=1.0, T=0.0, n_steps=4, grid=g)
    with pytest.raises(ValueError):
        solve_finite_horizon(prob, h=lambda x: -np.ones_like(x), T=1.0, n_steps=4, grid=g)


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# sha256 of the solver's value (and policy) bytes on numpy 2.4.6 / scipy 1.17.1.
# Every bundled config is 1-D, so these are the pins on 2-D bits: a change in
# the order in which the operator, K @ phi or the LU factor sum their entries
# moves them while every tolerance-based test still passes.
_SOLVER_DIGESTS = {
    "stationary_2d_values": "883fbbbab5c9eeaea20fdf8910de5265bd14f028aad25333a5f6d48fda267576",
    "stationary_2d_mu": "ae5552263714219e07396c3a325b0de42b0c17b2a1b67278c0f4ec178e630e35",
    "stationary_2d_index": "07d34f72fa2eb8b18b38092dfb3bb5364429d5008739c6290d61fd68d500a2b0",
    "finite_2d_product": "9d40a8f01b7ba0cac4560412f2f4bf1d2e7ad598c09f67e4bb6a9c626d089be2",
    "finite_1d_list": "30ddf11a71ed2c3b053e422b9cf1c6c6d3473c9d5dc43797d6fb600acba77990",
}


def test_solver_frozen_digests():
    g2 = Grid.regular([-3.0, -3.0], [3.0, 3.0], [21, 21])
    prob = atoms_2d_problem()[0]
    phi, pol, rep = solve_stationary(prob, g2)
    assert rep.converged
    fin2 = solve_finite_horizon(prob, h=lambda x: np.sum(x**2, axis=1), T=0.5, n_steps=10, grid=g2)
    g1 = Grid.regular(-6.0, 6.0, 121)
    fin1 = solve_finite_horizon(example1_problem(), h=lambda x: x**2, T=1.0, n_steps=20, grid=g1)
    got = {
        "stationary_2d_values": _sha(phi.values),
        "stationary_2d_mu": _sha(pol.mu),
        "stationary_2d_index": _sha(pol.action_index),
        "finite_2d_product": _sha(fin2.values),
        "finite_1d_list": _sha(fin1.values),
    }
    assert got == _SOLVER_DIGESTS


def _finite_list_kernel():
    # Example 1's two actions with the jump to the origin as one relocation
    # kernel entry, as the CLI's builtin jump_to_origin reads it
    g = Grid.regular(-6.0, 6.0, 121)
    return solve_finite_horizon(_jump_to_origin_problems(1)[0], h=lambda x: 1.0 + np.cos(x),
                                T=4.0, n_steps=40, grid=g)


def _finite_2d_multiblock():
    # a 13 x 9 drift lattice scanned in two blocks (101 and 16 columns of 323
    # nodes), a callable discount (so q is tabulated and e^{-q dt} changes with
    # the policy) and a cost whose control part goes through np.matmul
    g = Grid.regular([-3.0, -2.5], [3.0, 2.5], [19, 17])
    prob = HJBProblem(f=QuadCost([[1.0, 0.3], [0.3, 2.0]]), q=QDiscount(), delta_q=2.0, b_q=3.0,
                      sigma_nu_pairs=atoms_2d_problem()[1],
                      mu_lattice=(np.linspace(-3.0, 3.0, 13), np.linspace(-2.0, 2.0, 9)), q_growth=2)
    return solve_finite_horizon(prob, h=lambda x: np.sum(x**2, axis=1), T=0.5, n_steps=8, grid=g)


# sha256 of the value slices of two backward solves that no bundled config
# runs: the list-mode step with a relocation kernel, and the 2-D product step
# whose lattice scan spans several blocks
_FINITE_DIGESTS = {
    "list_kernel": ("47f0b402472d94b4db2bd8dbb9fc77ec5237396d2a901fbbe2bbe861ef9bcbfa",
                    _finite_list_kernel),
    "product_2d_multiblock": ("e914bf1daa5428e92513989c004dce92aff8d6bec740b5634e36959ff2ec2af5",
                              _finite_2d_multiblock),
}


@pytest.mark.parametrize("case", sorted(_FINITE_DIGESTS))
def test_finite_horizon_step_digests(case):
    pin, solve = _FINITE_DIGESTS[case]
    assert _sha(solve().values) == pin


def test_dpp_residual_zero_horizon():
    g = Grid.regular(-2.0, 2.0, 33)
    prob = singleton_problem(lambda x, a: x**2, 1.0)
    phi = ValueField(grid=g, values=g.axes[0] ** 2 + 1.0, q_growth=2)
    assert dpp_report(phi, prob, t=0.0, n_paths=10, seed=0).residual == 0.0


def test_dpp_gap_vanishes_on_resolvent():
    # phi = x^2 + 1 is the exact one-action value, so the programming
    # principle holds with equality; the Monte Carlo gap is pure noise
    # plus O(h^2) interpolation of the terminal value.
    g = Grid.regular(-2.0, 2.0, 33)
    prob = singleton_problem(lambda x, a: x**2, 1.0)
    phi = ValueField(grid=g, values=g.axes[0] ** 2 + 1.0, q_growth=2)
    rep = dpp_report(phi, prob, t=0.75, n_paths=4000, seed=314, dt=0.01)
    for entry in rep.per_probe:
        assert abs(entry["gap"]) <= 3 * entry["se"] + 0.01
    # deterministic given the seed
    assert dpp_report(phi, prob, t=0.75, n_paths=400, seed=9, dt=0.01).residual == \
        dpp_report(phi, prob, t=0.75, n_paths=400, seed=9, dt=0.01).residual


def test_dpp_detects_missing_control():
    # the controlled value x^2/2 + 1/2 needs the jump-to-origin action;
    # with it in the trial set the gap is noise, without it the gap is
    # strictly positive at probes away from the origin.
    from jumpctl.dynamics import PolicyFieldSpec

    g = Grid.regular(-2.0, 2.0, 33)
    prob = example1_problem()
    phi = ValueField(grid=g, values=0.5 * g.axes[0] ** 2 + 0.5, q_growth=2)
    brown = PolicyFieldSpec.constant(brownian_action())
    relocate = PolicyFieldSpec.jump_to_origin(rate=1.0, sigma=1.0, dim=1)
    full = dpp_report(
        phi, prob, t=0.6, n_paths=1500, seed=77, dt=0.012,
        policies=[brown, relocate],
    )
    for entry in full.per_probe:
        assert entry["gap"] >= -(3 * entry["se"] + 0.01)
        assert abs(entry["gap"]) <= 3 * entry["se"] + 0.02
    starved = dpp_report(
        phi, prob, t=0.6, n_paths=1500, seed=77, dt=0.012, policies=[brown]
    )
    assert starved.residual > 0.2
