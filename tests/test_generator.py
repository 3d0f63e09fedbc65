import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpctl.generator import AnalyticField, DomainError, apply_generator
from jumpctl.hjb import Grid, ValueField
from jumpctl.measures import (
    Action,
    AtomicMeasure,
    DensityGridMeasure,
    RelocationKernel,
    ZeroMeasure,
    second_moment_matrix,
)
from per_state_actions import jump_to_origin_action


def quad_field(m, b=0.0, c=0.0):
    """1-D field m x^2 + b x + c with analytic derivatives."""
    return AnalyticField(
        fn=lambda x: m * np.asarray(x)[..., 0] ** 2 + b * np.asarray(x)[..., 0] + c,
        grad=lambda x: np.atleast_1d(2 * m * np.asarray(x)[..., 0] + b),
        hess=lambda x: np.array([[2 * m]]),
    )


def local_term(mu, sigma, g, x, u=None):
    """The local part of L: the generator of an action with no jumps."""
    return apply_generator(Action(sigma, ZeroMeasure(np.size(mu)), mu), g, x, u=u)


def jump_term(nu, g, x):
    """The jump part of L (with nu's Sigma_eps): the generator with sigma = 0, mu = 0."""
    return apply_generator(Action(np.zeros((nu.dim, nu.dim)), nu, np.zeros(nu.dim)), g, x)


# ---------------------------------------------------------------- local term


def test_local_term_linear_field_kills_hessian():
    g = AnalyticField(fn=lambda x: np.asarray(x)[..., 0])
    # any sigma: Hessian of a linear map vanishes; (u + mu) grad = 0.5
    assert local_term(0.3, 7.0, g, x=1.7, u=0.2) == pytest.approx(0.5, abs=1e-7)


def test_local_term_quadratic():
    g = quad_field(1.0)
    # 0.5 * sigma^2 * g'' = 0.5 * 4 * 2 = 4 at mu = u = 0
    assert local_term(0.0, 2.0, g, x=1.0) == pytest.approx(4.0, abs=1e-6)


def test_local_term_sin_analytic_vs_finite_difference():
    analytic = AnalyticField(
        fn=lambda x: np.sin(np.asarray(x)[..., 0]),
        grad=lambda x: np.atleast_1d(np.cos(np.asarray(x)[..., 0])),
        hess=lambda x: np.array([[-np.sin(np.asarray(x)[..., 0])]]),
    )
    fd_only = AnalyticField(fn=lambda x: np.sin(np.asarray(x)[..., 0]))
    va = local_term(1.0, 1.0, analytic, x=0.0)
    vf = local_term(1.0, 1.0, fd_only, x=0.0)
    assert va == pytest.approx(1.0, abs=1e-12)  # cos 0 - 0.5 sin 0
    assert vf == pytest.approx(va, abs=1e-6)


def test_finite_difference_is_second_order():
    # a grid field is differenced with its own spacing: on exp's node values
    # the step halves from 41 to 81 nodes on [-2, 2], and the error falls ~4x
    errs = []
    for num in (41, 81):
        grid = Grid.regular(-2.0, 2.0, num)
        field = ValueField(grid=grid, values=np.exp(grid.axes[0]))
        errs.append(abs(local_term(1.0, 1.0, field, x=0.0) - 1.5))  # exact: e^0 + 0.5 e^0
    assert errs[1] < errs[0] / 3.0


def test_domain_box_enforced():
    g = AnalyticField(fn=lambda x: np.asarray(x)[..., 0] ** 2, domain=([-1.0], [1.0]))
    with pytest.raises(DomainError):
        local_term(0.0, 1.0, g, x=3.0)
    # the box is checked on the whole batch, so one bad row is enough
    with pytest.raises(DomainError, match="3"):
        local_term(0.0, 1.0, g, x=np.array([[0.0], [0.5], [3.0]]))


# ----------------------------------------------------------------- jump term


def test_jump_term_linear_field_vanishes():
    g = AnalyticField(
        fn=lambda x: 3.0 * np.asarray(x)[..., 0] + 1.0,
        grad=lambda x: np.array([3.0]),
        hess=lambda x: np.array([[0.0]]),
    )
    nu = AtomicMeasure(dim=1, locations=[[2.0], [-0.7]], masses=[1.0, 4.0])
    assert jump_term(nu, g, x=0.3) == pytest.approx(0.0, abs=1e-10)


def test_jump_term_quadratic_exact():
    # (x+2)^2 - x^2 - 2*2x = 4, independent of x
    g = quad_field(1.0)
    nu = AtomicMeasure(dim=1, locations=[[2.0]], masses=[1.0])
    for x in (-1.3, 0.0, 2.5):
        assert jump_term(nu, g, x=x) == pytest.approx(4.0, abs=1e-9)


def test_jump_term_quartic_frozen_value():
    # g = x^4 at x=1 with a unit atom at y=1: 2^4 - 1 - 4*1 = 11
    g = AnalyticField(
        fn=lambda x: np.asarray(x)[..., 0] ** 4,
        grad=lambda x: np.atleast_1d(4.0 * np.asarray(x)[..., 0] ** 3),
        hess=lambda x: np.atleast_2d(12.0 * np.asarray(x)[..., 0] ** 2),
    )
    nu = AtomicMeasure(dim=1, locations=[[1.0]], masses=[1.0])
    assert jump_term(nu, g, x=1.0) == pytest.approx(11.0, abs=1e-9)


def test_jump_term_zero_measure():
    assert jump_term(ZeroMeasure(dim=1), quad_field(2.0), x=1.0) == 0.0


def test_small_jump_split_matches_exact_for_quadratics():
    # a grid field splits at twice its spacing (0.2 here): the raw difference
    # of a 1e-8 jump underflows, the Taylor surrogate is exact for quadratics
    grid = Grid.regular(-2.0, 2.0, 41)
    g = ValueField(grid=grid, values=1.5 * grid.axes[0] ** 2)
    nu = AtomicMeasure(dim=1, locations=[[1e-8]], masses=[1.0])
    assert jump_term(nu, g, x=1.0) == pytest.approx(1.5 * 1e-16, rel=1e-6)


def test_positive_maximum_principle_at_bump_peak():
    # compactly supported bump with its max at 0; the compensator-free jump
    # part at the peak is non-positive since g(y) <= g(0)
    def bump(x):
        t = np.asarray(x)[..., 0]
        out = np.where(np.abs(t) < 2.0, np.cos(np.pi * t / 4.0) ** 2, 0.0)
        return out

    g = AnalyticField(fn=bump)
    nu = AtomicMeasure(dim=1, locations=[[1.0], [-0.5], [3.0]], masses=[1.0, 2.0, 1.0])
    assert jump_term(nu, g, x=np.array([0.0])) <= 1e-10


# ------------------------------------------------------------ full generator


@pytest.mark.parametrize("dim", [1, 2])
def test_relocation_kernel_generator(dim):
    # L g = u . grad g + (1/2) tr(sigma^T Hess g sigma) + rate (g(target) - g(x)):
    # the kernel's mean in the drift cancels its compensator; no jump on the target
    g = AnalyticField(fn=lambda X: np.sum(np.sin(X) + 0.3 * X**2, axis=-1),
                      grad=lambda X: np.cos(X) + 0.6 * X,
                      hess=lambda X: np.einsum("...i,ij->...ij", 0.6 - np.sin(X), np.eye(dim)))
    sigma, u = np.array([[0.8, 0.3], [-0.2, 1.1]])[:dim, :dim], np.array([0.2, -0.4])[:dim]
    for target in (np.zeros(dim), np.array([0.5, -1.0])[:dim]):
        a = Action(sigma, RelocationKernel(dim, 1.5, target), np.zeros(dim))
        X = np.random.default_rng(6).normal(scale=2.0, size=(9, dim))
        X[0], X[1] = target, target + 1e-13
        hess = g.hess(X)
        local = g.grad(X) @ u + 0.5 * np.einsum("mij,ij->m", hess, sigma @ sigma.T)
        jump = np.where(np.arange(9) < 2, 0.0, 1.5 * (g.fn(target) - g.fn(X)))
        np.testing.assert_allclose(apply_generator(a, g, X, u=u), local + jump, rtol=0.0, atol=1e-12)
    # at the origin it is the per-state jump to the origin
    want = [apply_generator(jump_to_origin_action(x, 1.5, sigma), g, x, u=u) for x in X]
    np.testing.assert_allclose(apply_generator(Action(sigma, RelocationKernel(dim, 1.5), np.zeros(dim)),
                                               g, X, u=u), want, rtol=0.0, atol=1e-12)


def test_apply_generator_null_action():
    a = Action(sigma=0.0, nu=ZeroMeasure(dim=1), mu=0.0)
    g = quad_field(3.0, b=-1.0, c=0.5)
    assert apply_generator(a, g, x=0.7) == pytest.approx(0.0, abs=1e-12)


def test_apply_generator_frozen_hand_value():
    # g = x^2, sigma=1, unit atom at 1, mu=0.5, u=0, x=2:
    # drift 2*0.5*2 = 2, diffusion 0.5*1*2 = 1, jump (x+1)^2-x^2-2x = 1
    a = Action(
        sigma=1.0,
        nu=AtomicMeasure(dim=1, locations=[[1.0]], masses=[1.0]),
        mu=0.5,
    )
    assert apply_generator(a, quad_field(1.0), x=2.0) == pytest.approx(4.0, abs=1e-9)


def hjb_integrand(a, phi, x, f_val, q_val):
    """L^a phi(x) - q phi(x) + f, the quantity the Bellman equation minimises over actions."""
    return apply_generator(a, phi, x) - q_val * phi.value(np.atleast_1d(x)) + f_val


def test_hjb_integrand_zero_field_zero_cost():
    zero = AnalyticField(fn=lambda x: 0.0 * np.asarray(x)[..., 0])
    a = Action(sigma=1.0, nu=ZeroMeasure(dim=1), mu=1.0)
    assert hjb_integrand(a, zero, x=0.5, f_val=0.0, q_val=2.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_hjb_integrand_on_grid_field_default_scheme():
    # a grid field's default difference step is its spacing: a 1e-5 step at
    # the node x = 0.3 would difference the interpolant across its kink
    g = Grid.regular(-2.0, 2.0, 41)
    phi = ValueField(grid=g, values=g.axes[0] ** 2 + 1.0, q_growth=2)
    a = Action(sigma=1.0, nu=AtomicMeasure(dim=1, locations=[[0.5]], masses=[1.0]), mu=0.5)
    # drift 0.5 * 0.6 + diffusion 1 + jump 0.25 - phi 1.09 + f 0.09
    assert hjb_integrand(a, phi, x=0.3, f_val=0.09, q_val=1.0) == pytest.approx(0.55, abs=1e-9)


# ---------------------------------------------------------------- properties


@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-2, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_generator_linearity(alpha, beta, x):
    a = Action(
        sigma=1.3,
        nu=AtomicMeasure(dim=1, locations=[[1.0], [-2.0]], masses=[0.5, 0.25]),
        mu=-0.4,
    )
    g1, g2 = quad_field(1.0, b=2.0), quad_field(-0.5, b=0.0, c=3.0)
    combo = AnalyticField(
        fn=lambda z: alpha * g1.fn(z) + beta * g2.fn(z),
        grad=lambda z: alpha * g1.grad(z) + beta * g2.grad(z),
        hess=lambda z: alpha * g1.hess(z) + beta * g2.hess(z),
    )
    lhs = apply_generator(a, combo, x=x)
    rhs = alpha * apply_generator(a, g1, x=x) + beta * apply_generator(a, g2, x=x)
    assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


def test_generator_adds_small_jump_covariance_to_the_two_terms():
    # Sigma_eps reaches L only through C = sigma sigma^T + Sigma_eps, so it is
    # in the jump part (sigma = 0, C = Sigma_eps) and the local and jump parts
    # add up to L; it adds (1/2) tr(Sigma_eps H), here 0.5 * 0.2 * 1.6
    box = dict(dim=1, lo=[-1.0], hi=[1.0], shape=(20,), values=np.full(20, 2.4), eps=0.5)
    plain, small = DensityGridMeasure(**box), DensityGridMeasure(**box, small_jump_cov=[[0.2]])
    g = quad_field(0.8, b=-1.0)
    x = np.array([[-0.4], [0.0], [1.1]])
    for nu in (plain, small):
        parts = local_term(0.5, 0.3, g, x=x) + jump_term(nu, g, x=x)
        np.testing.assert_allclose(apply_generator(Action(0.3, nu, 0.5), g, x=x), parts, rtol=1e-14)
    np.testing.assert_allclose(jump_term(small, g, x=x) - jump_term(plain, g, x=x), 0.16, rtol=1e-13)


@given(st.floats(min_value=-2, max_value=2), st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_jump_term_on_quadratics_equals_second_moment_contraction(x, m):
    nu = AtomicMeasure(dim=1, locations=[[1.0], [-0.3]], masses=[m, 2 * m])
    g = quad_field(0.8, b=-1.0, c=2.0)
    expected = 0.8 * second_moment_matrix(nu)[0, 0]
    assert jump_term(nu, g, x=x) == pytest.approx(expected, rel=1e-10)


# ------------------------------------------------------------------ batches


def _bits(v):
    return np.asarray(v, float).view(np.int64)


def test_batch_rows_match_point_calls():
    # a point is a batch of one row and every sum runs within a row, so row i
    # of a batch is bitwise the call at X[i]; on grid fields each measure has
    # atoms on both sides of the small-jump split (Taylor surrogate and raw
    # difference), analytic fields take the raw difference for every jump
    g1 = Grid.regular(-2.0, 2.0, 41)
    g2 = Grid.regular([-2.0, -2.0], [2.0, 2.0], [21, 21])
    n2 = g2.nodes()
    cases = {
        "analytic-1d": quad_field(1.3, b=-0.4, c=0.2),
        "analytic-2d": AnalyticField(
            fn=lambda x: np.sin(x[..., 0]) * np.cos(0.5 * x[..., 1]) + x[..., 0] * x[..., 1],
            grad=lambda x: np.stack([np.cos(x[..., 0]) * np.cos(0.5 * x[..., 1]) + x[..., 1],
                                     -0.5 * np.sin(x[..., 0]) * np.sin(0.5 * x[..., 1])
                                     + x[..., 0]], axis=-1),
            hess=lambda x: np.stack([
                np.stack([-np.sin(x[..., 0]) * np.cos(0.5 * x[..., 1]),
                          -0.5 * np.cos(x[..., 0]) * np.sin(0.5 * x[..., 1]) + 1.0], axis=-1),
                np.stack([-0.5 * np.cos(x[..., 0]) * np.sin(0.5 * x[..., 1]) + 1.0,
                          -0.25 * np.sin(x[..., 0]) * np.cos(0.5 * x[..., 1])], axis=-1),
            ], axis=-2)),
        "fd-2d": AnalyticField(fn=lambda x: np.exp(0.3 * x[..., 0] - 0.2 * x[..., 1] ** 2)),
        "grid-1d": ValueField(grid=g1, values=np.cos(g1.axes[0]) + g1.axes[0] ** 2),
        "grid-2d": ValueField(grid=g2, values=np.cos(n2[:, 0]) * (1.0 + n2[:, 1] ** 2)),
    }
    rng = np.random.default_rng(5)
    for name, field in cases.items():
        dim = 2 if name.endswith("2d") else 1
        # grid fields split at twice their spacing: 0.2 in 1-D, 0.4 in 2-D
        locs = [[0.1], [-0.6]] if dim == 1 else [[0.1, -0.05], [-0.6, 0.4]]
        sigma = 0.7 if dim == 1 else np.array([[0.7, 0.2], [0.1, 0.5]])
        a = Action(sigma=sigma, nu=AtomicMeasure(dim, locs, [1.2, 0.5]), mu=np.full(dim, 0.3))
        u = np.full(dim, -0.1)
        for m in (1, 2, 17, 64):
            X = rng.uniform(-1.0, 1.0, size=(m, dim))
            batch = apply_generator(a, field, X, u=u)
            assert batch.shape == (m,)
            points = [apply_generator(a, field, x, u=u) for x in X]
            assert all(isinstance(p, float) for p in points)
            assert np.array_equal(_bits(batch), _bits(points)), (name, m)
