"""Numerical toolkit for controlled jump processes.

Evaluates controlled Levy-type generators, solves the associated
integro-differential Bellman equations by policy iteration, simulates the
controlled paths, and statistically verifies the martingale structure that
characterises optimality. Closed-form benchmark problems (jump-to-origin
control and quadratic control) ship as exact oracles.

The public names below load with their module on first use (PEP 562), so
importing the package alone imports none of the modules.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "dynamics": "AdmissibilityError CharacteristicsReport PathBundle PayoffEstimate "
                "PolicyFieldSpec SimConfig bellman_series characteristics_report payoff_estimate "
                "simulate",
    "examples": "BoundaryError BracketError Example1Spec Example2Solution example1_psi "
                "example1_value example2_free_boundary example2_phi_b",
    "generator": "AnalyticField DomainError apply_generator",
    "hjb": "ConvergenceReport FiniteHorizonSolution Grid HJBProblem PolicyTable SchemeWarning "
           "SolverError ValueField interior_mask policy_evaluation policy_improvement "
           "solve_finite_horizon solve_stationary",
    "lq": "LQSolution LQSpec RiccatiSolveError lq_assemble minimal_dispersion optimal_feedback "
          "riccati_residual solve_lq solve_riccati",
    "measures": "Action AtomicMeasure DensityGridMeasure DivergenceError JumpMeasure "
                "MeasureSupportError RelocationKernel UnsupportedMeasureError ZeroMeasure "
                "moment_functional sample_jumps second_moment_matrix tail_moment total_mass "
                "validate_Mp",
    "verify": "DppReport TestReport costs_along dpp_report dynkin_test growth_certificate_check "
              "h2_integrability_check moment_bound_report submartingale_test transversality_test",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
