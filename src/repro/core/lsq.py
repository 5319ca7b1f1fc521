"""Levenberg-Marquardt for the Section 4 calibration fits.

Both fits -- the 25 GMA parameters against 266 board samples (4.1-B)
and the 12 mapping parameters against 30 aligned samples (4.2) -- are
small dense non-linear least-squares problems.  This solver handles
them with numpy alone, so a calibrating process never imports
``scipy.optimize`` (most of a cold start's import time and resident
memory).

The method is MINPACK's: damped Gauss-Newton steps in variables scaled
by the running maximum of the Jacobian's column norms, with the
damping adapted from the ratio of actual to predicted cost reduction
(Nielsen's rule).  One SVD per Jacobian serves every damping trial.
It stops when a step changes the scaled parameters by at most
:data:`XTOL` relative, or the cost by at most :data:`FTOL` relative
(``least_squares``' ``xtol`` and ``ftol`` as the fits have always set
them), and otherwise after :data:`MAX_NFEV_PER_PARAM` residual
evaluations per parameter, returning the best point.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Residuals = Callable[[np.ndarray], np.ndarray]
Jacobian = Callable[[np.ndarray, np.ndarray], np.ndarray]

XTOL = 1e-15
FTOL = 1e-15
#: ``least_squares``' default ``max_nfev`` for ``method="lm"``, per
#: parameter.
MAX_NFEV_PER_PARAM = 100

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


def forward_steps(x: np.ndarray) -> np.ndarray:
    """Forward-difference steps ``sqrt(eps) * sign(x) * max(1, |x|)``.

    The rule of ``least_squares``' ``'2-point'`` scheme, rounded so
    that ``x + h`` is exactly representable.
    """
    sign = np.where(x >= 0.0, 1.0, -1.0)
    return (x + _SQRT_EPS * sign * np.maximum(1.0, np.abs(x))) - x


def forward_jacobian(fun_rows: Residuals) -> Jacobian:
    """A forward-difference Jacobian from a residual over stacked points.

    ``fun_rows`` maps a (k, n) stack of parameter vectors to their
    (k, m) residuals; the Jacobian at ``x`` evaluates all n perturbed
    points ``x + h_j e_j`` in that one call.
    """
    def jacobian(x: np.ndarray, f: np.ndarray) -> np.ndarray:
        steps = forward_steps(x)
        moved = fun_rows(x + np.diag(steps))
        return ((moved - f) / steps[:, None]).T
    return jacobian


def levenberg_marquardt(fun: Residuals, x0: np.ndarray,
                        jac: Jacobian) -> np.ndarray:
    """The ``x`` minimizing ``0.5 * |fun(x)|^2``, searched from ``x0``.

    ``jac(x, f)`` returns the (m, n) Jacobian at ``x``, where
    ``f = fun(x)`` (see :func:`forward_jacobian`).
    At most ``MAX_NFEV_PER_PARAM * n`` calls of ``fun`` are made outside
    the Jacobian.  A trial step whose cost is not finite is never taken.
    """
    x = np.array(x0, dtype=float)
    f = fun(x)
    if not np.isfinite(f).all():
        raise ValueError("the residual at the initial point is not finite")
    cost = 0.5 * float(f @ f)
    nfev, budget = 1, MAX_NFEV_PER_PARAM * x.size
    scale = np.zeros(x.size)
    damping, growth = 1e-3, 2.0
    while nfev < budget and cost > 0.0:
        jacobian = jac(x, f)
        scale = np.maximum(scale, np.linalg.norm(jacobian, axis=0))
        diag = np.where(scale > 0.0, scale, 1.0)
        u, s, vt = np.linalg.svd(jacobian / diag, full_matrices=False)
        uf = u.T @ f
        while nfev < budget:
            filtered = uf / (s * s + damping)
            step = -(vt.T @ (s * filtered)) / diag
            predicted = 0.5 * float(uf @ uf - (damping * filtered)
                                    @ (damping * filtered))
            trial = fun(x + step)
            nfev += 1
            trial_cost = 0.5 * float(trial @ trial)
            actual = cost - trial_cost
            done = (np.linalg.norm(diag * step)
                    <= XTOL * np.linalg.norm(diag * x)
                    or (abs(actual) <= FTOL * cost
                        and predicted <= FTOL * cost))
            # A NaN or infinite trial cost makes this false.
            accepted = actual > 0.0
            if accepted:
                x, f, cost = x + step, trial, trial_cost
                ratio = actual / predicted if predicted > 0.0 else 1.0
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                growth = 2.0
            else:
                damping *= growth
                growth *= 2.0
            if done:
                return x
            if accepted:
                break
    return x
