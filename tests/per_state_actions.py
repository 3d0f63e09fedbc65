"""Per-state reference actions the tests compare the relocation kernel against.

The solver and the simulator take jump to the origin as one constant action,
``Action(sigma, RelocationKernel(dim, rate), 0)``; these build the same jump
one state at a time, as an atomic measure, so a test can check the kernel
state by state.
"""

import numpy as np

from jumpctl.measures import Action, AtomicMeasure, ZeroMeasure


def jump_to_origin_action(x, rate: float, sigma) -> Action:
    """Jump straight to the origin from state ``x`` at ``rate``.

    The jump measure is ``rate * delta_{-x}`` and the drift ``-rate * x``
    equals its mean, so drift and compensator cancel.  At the origin
    (|x| < 1e-12) and at rate zero the measure and the drift are zero.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = x.size
    if rate == 0.0 or np.linalg.norm(x) < 1e-12:
        return Action(sigma, ZeroMeasure(dim), np.zeros(dim))
    nu = AtomicMeasure(dim, locations=-x[None, :], masses=[rate])
    return Action(sigma, nu, -rate * x)


def example1_policy(x: float) -> Action:
    """Example 1's optimal action at state ``x``: unit diffusion and a
    unit-rate jump to the origin."""
    return jump_to_origin_action(float(x), 1.0, 1.0)
