import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpctl.measures import (
    Action,
    AtomicMeasure,
    DensityGridMeasure,
    DivergenceError,
    MeasureSupportError,
    UnsupportedMeasureError,
    ZeroMeasure,
    _moments,
    _support_points,
    moment_functional,
    sample_jumps,
    second_moment_matrix,
    tail_moment,
    total_mass,
    validate_Mp,
)


def uniform_density_1d(lo, hi, level, n_cells=4096, eps=0.0):
    return DensityGridMeasure(
        dim=1, lo=[lo], hi=[hi], shape=(n_cells,), values=np.full(n_cells, level), eps=eps
    )


# ---------------------------------------------------------------- validation


def test_zero_measure_always_valid():
    assert validate_Mp(ZeroMeasure(dim=1), 2.0) is True
    assert validate_Mp(ZeroMeasure(dim=3), 7.5) is True


def test_single_atom_valid_with_functional_4():
    nu = AtomicMeasure(dim=1, locations=[[2.0]], masses=[1.0])
    assert validate_Mp(nu, 2.0) is True
    assert moment_functional(nu, 2.0) == pytest.approx(4.0)


def test_atom_at_origin_is_structural_error_not_false():
    nu = AtomicMeasure(dim=1, locations=[[0.0]], masses=[1.0])
    with pytest.raises(MeasureSupportError):
        validate_Mp(nu, 2.0)


def test_negative_mass_is_structural_error():
    nu = AtomicMeasure(dim=1, locations=[[1.0]], masses=[-0.5])
    with pytest.raises(MeasureSupportError):
        validate_Mp(nu, 2.0)


def test_p_below_two_rejected():
    with pytest.raises(ValueError):
        validate_Mp(ZeroMeasure(dim=1), 1.5)


def test_measure_arrays_are_read_only_copies():
    locs, masses = np.array([[1.0], [-2.0]]), np.array([0.5, 1.0])
    lo, hi, values = np.array([0.5]), np.array([1.5]), np.ones(8)
    atoms = AtomicMeasure(dim=1, locations=locs, masses=masses)
    density = DensityGridMeasure(dim=1, lo=lo, hi=hi, shape=(8,), values=values)
    # the caller's arrays stay writable, and writing them leaves the measures alone
    for a in (locs, masses, lo, hi, values):
        a *= -1.0
    assert np.array_equal(atoms.locations, [[1.0], [-2.0]])
    assert np.array_equal(atoms.masses, [0.5, 1.0])
    assert density.lo[0] == 0.5 and density.hi[0] == 1.5 and np.all(density.values == 1.0)
    # the measures' own arrays, and the support read from them, reject a write
    for a in (atoms.locations, atoms.masses, density.lo, density.hi, density.values,
              *_support_points(atoms), *_support_points(density)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_support_is_checked_once_and_kept_only_when_valid():
    for nu in (ZeroMeasure(dim=2), AtomicMeasure(dim=1, locations=[[2.0]], masses=[1.0]),
               uniform_density_1d(-1.0, 1.0, 1.0, n_cells=6, eps=0.2)):
        first = _support_points(nu)
        assert _support_points(nu) is first
    for nu in (AtomicMeasure(dim=1, locations=[[0.0]], masses=[1.0]),
               AtomicMeasure(dim=1, locations=[[1.0]], masses=[-0.5]),
               AtomicMeasure(dim=1, locations=[[np.nan]], masses=[1.0]),
               uniform_density_1d(0.5, 1.5, -1.0, n_cells=6)):
        for read in (_support_points, _support_points, total_mass, _moments,
                     second_moment_matrix, lambda m: validate_Mp(m, 2.0)):
            with pytest.raises(MeasureSupportError):
                read(nu)


# ------------------------------------------------------------------- moments


def test_moment_functional_single_atom_p3():
    # single atom at y=2, mass 1: max(4, 8) = 8
    nu = AtomicMeasure(dim=1, locations=[[2.0]], masses=[1.0])
    assert moment_functional(nu, 3.0) == pytest.approx(8.0)


def test_moment_functional_small_atom_p4():
    # |y| < 1 so the quadratic branch dominates: max(0.25, 0.0625) = 0.25
    nu = AtomicMeasure(dim=1, locations=[[0.5]], masses=[1.0])
    assert moment_functional(nu, 4.0) == pytest.approx(0.25)


def test_moment_functional_density_uniform_12():
    # integral_1^2 y^2 dy = 7/3; midpoint quadrature with 4096 cells is
    # within its O(h^2) error model, well under 1e-8
    nu = uniform_density_1d(1.0, 2.0, 1.0)
    assert moment_functional(nu, 2.0) == pytest.approx(7.0 / 3.0, abs=1e-8)


def test_second_moment_matrix_zero():
    assert np.array_equal(second_moment_matrix(ZeroMeasure(dim=2)), np.zeros((2, 2)))


def test_second_moment_matrix_single_atom_2d():
    nu = AtomicMeasure(dim=2, locations=[[1.0, 0.0]], masses=[2.0])
    assert np.allclose(second_moment_matrix(nu), [[2.0, 0.0], [0.0, 0.0]])


def test_second_moment_matrix_symmetric_pair():
    nu = AtomicMeasure(dim=1, locations=[[1.0], [-1.0]], masses=[1.0, 1.0])
    assert np.allclose(second_moment_matrix(nu), [[2.0]])


def test_first_and_tail_moments():
    nu = AtomicMeasure(dim=1, locations=[[2.0], [-1.0]], masses=[1.0, 0.5])
    assert _moments(nu).m1 == pytest.approx([1.5])
    # only |y| > 1 contributes to the tail
    assert tail_moment(nu, 3.0) == pytest.approx(8.0)


def test_total_mass_atomic():
    nu = AtomicMeasure(dim=1, locations=[[2.0], [-1.0]], masses=[1.0, 0.5])
    assert total_mass(nu) == pytest.approx(1.5)
    assert total_mass(ZeroMeasure(dim=1)) == 0.0


def test_total_mass_density_level3():
    # density 3 on [1,2]: mass 3 exactly for uniform values
    nu = uniform_density_1d(1.0, 2.0, 3.0)
    assert total_mass(nu) == pytest.approx(3.0, abs=1e-12)


def test_total_mass_warns_when_box_touches_origin_without_eps():
    nu = DensityGridMeasure(
        dim=1, lo=[-1.0], hi=[1.0], shape=(64,), values=np.ones(64), eps=0.0
    )
    with pytest.warns(RuntimeWarning):
        total_mass(nu)


# ------------------------------------------------------------------ sampling


def test_sample_degenerate_atom():
    nu = AtomicMeasure(dim=1, locations=[[2.0]], masses=[1.0])
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert sample_jumps(nu, rng, 1)[0] == pytest.approx([2.0])


def test_sample_symmetric_atoms_mean_within_3se():
    nu = AtomicMeasure(dim=1, locations=[[1.0], [-1.0]], masses=[1.0, 1.0])
    rng = np.random.default_rng(1)
    draws = sample_jumps(nu, rng, 10**5)
    se = 1.0 / np.sqrt(10**5)  # jump values are +-1, unit variance
    assert abs(draws.mean()) < 3 * se


def test_sample_density_uniform_mean_within_3se():
    nu = uniform_density_1d(1.0, 2.0, 1.0, n_cells=256)
    rng = np.random.default_rng(2)
    draws = sample_jumps(nu, rng, 10**5)
    se = np.sqrt(1.0 / 12.0) / np.sqrt(10**5)
    assert abs(draws.mean() - 1.5) < 3 * se


def test_sample_zero_mass_unsupported():
    with pytest.raises(UnsupportedMeasureError):
        sample_jumps(ZeroMeasure(dim=1), np.random.default_rng(0), 1)


def test_mass_and_sampling_do_not_read_the_second_moment():
    # the second moment of an atom at 1e200 overflows; its mass and its law do not
    nu = AtomicMeasure(dim=1, locations=[[1e200]], masses=[1.0])
    with np.errstate(over="ignore"):
        assert total_mass(nu) == 1.0
        assert sample_jumps(nu, np.random.default_rng(0), 2).tolist() == [[1e200], [1e200]]
        with pytest.raises(DivergenceError, match="second moment"):
            _moments(nu).m2
        # a mass whose sum overflows reads inf, and sampling refuses it
        huge = AtomicMeasure(dim=1, locations=[[1.0], [2.0]], masses=[1e308, 1e308])
        assert total_mass(huge) == np.inf
        with pytest.raises(UnsupportedMeasureError, match="finite total mass"):
            sample_jumps(huge, np.random.default_rng(0), 1)


def test_sample_second_moments_match_matrix():
    nu = AtomicMeasure(dim=2, locations=[[1.0, 0.5], [-0.5, 1.0]], masses=[1.0, 3.0])
    rng = np.random.default_rng(3)
    draws = sample_jumps(nu, rng, 2 * 10**5)
    emp = draws.T @ draws / draws.shape[0]
    target = second_moment_matrix(nu) / total_mass(nu)
    # 3-SE style envelope per entry, SE of products is O(1/sqrt(N))
    assert np.all(np.abs(emp - target) < 3 * 1.5 / np.sqrt(draws.shape[0]))


# ---------------------------------------------------------------- properties


@st.composite
def atomic_measures(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=4))
    locs = draw(
        st.lists(
            st.lists(
                st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                min_size=dim,
                max_size=dim,
            ),
            min_size=k,
            max_size=k,
        )
    )
    locs = np.asarray(locs)
    norms = np.linalg.norm(locs, axis=1)
    locs[norms < 1e-3] = 1.0  # keep support away from the origin
    masses = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    return AtomicMeasure(dim=dim, locations=locs, masses=masses)


@given(atomic_measures(), st.floats(min_value=1e-3, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_mass_scaling_is_exactly_linear(nu, c):
    scaled = AtomicMeasure(dim=nu.dim, locations=nu.locations, masses=c * nu.masses)
    assert total_mass(scaled) == pytest.approx(c * total_mass(nu), rel=1e-12)
    assert moment_functional(scaled, 3.0) == pytest.approx(
        c * moment_functional(nu, 3.0), rel=1e-12
    )
    assert np.allclose(
        second_moment_matrix(scaled), c * second_moment_matrix(nu), rtol=1e-12
    )


@given(atomic_measures())
@settings(max_examples=60, deadline=None)
def test_second_moment_matrix_is_psd(nu):
    m = second_moment_matrix(nu)
    assert np.allclose(m, m.T)
    assert np.linalg.eigvalsh(m).min() >= -1e-12


@given(atomic_measures(), st.floats(min_value=2.0, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_moment_functional_dominates_second_moment_trace(nu, p):
    # max(|y|^2, |y|^p) >= |y|^2 pointwise, so the functional dominates tr(M)
    assert moment_functional(nu, p) >= np.trace(second_moment_matrix(nu)) - 1e-12


# -------------------------------------------------------------------- action


def test_action_shape_normalisation_and_validation():
    a = Action(sigma=1.0, nu=AtomicMeasure(dim=1, locations=[[1.0]], masses=[1.0]), mu=0.5)
    assert a.sigma.shape == (1, 1)
    assert a.mu.shape == (1,)
    assert validate_Mp(a.nu, 2.0) is True


def test_covariance_adds_small_jump_cov_and_factors_it():
    from jumpctl.measures import _covariance

    sigma = np.array([[0.7, 0.0], [0.3, 0.2]])
    box = dict(dim=2, lo=[-1.0, -1.0], hi=[1.0, 1.0], shape=(4, 4), values=np.ones(16), eps=0.3)
    # without Sigma_eps, C is sigma sigma^T and the simulator steps with sigma itself
    for nu in (None, ZeroMeasure(2), DensityGridMeasure(**box)):
        C, F = _covariance(sigma, nu)
        assert np.array_equal(C, sigma @ sigma.T) and F is sigma
    small = np.array([[0.04, 0.01], [0.01, 0.02]])
    C, F = _covariance(sigma, DensityGridMeasure(**box, small_jump_cov=small))
    assert np.array_equal(C, sigma @ sigma.T + small)
    assert np.allclose(F @ F.T, C, rtol=1e-14) and np.array_equal(F, np.tril(F))
    # C singular: zero sigma with a rank-one Sigma_eps still factors
    C, F = _covariance(np.zeros((2, 2)), DensityGridMeasure(**box, small_jump_cov=[[0.0, 0.0], [0.0, 0.3]]))
    assert np.allclose(F @ F.T, C, atol=1e-15) and C[1, 1] == 0.3


# the shape cases (1x1 and 3x3 on a 2-D measure) run through the CLI in tests/test_cli.py
@pytest.mark.parametrize("cov", [[[1.0, 0.5], [0.4, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
                                 [[np.nan, 0.0], [0.0, 1.0]]], ids=["asymmetric", "indefinite", "nan"])
def test_small_jump_cov_must_be_symmetric_psd(cov):
    with pytest.raises(ValueError, match="small_jump_cov"):
        DensityGridMeasure(dim=2, lo=[-1.0, -1.0], hi=[1.0, 1.0], shape=(4, 4), values=np.ones(16),
                           small_jump_cov=cov)


def test_action_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        Action(sigma=np.eye(2), nu=ZeroMeasure(dim=1), mu=[0.0, 0.0])
