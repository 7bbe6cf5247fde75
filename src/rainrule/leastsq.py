"""Deterministic damped Gauss-Newton solver for small nonlinear fits.

Both nonlinear models in this package (the three-parameter normal curve and
the two-parameter exponential resource curve) are fitted with the same
routine: Gauss-Newton steps with Levenberg-style damping on the normal-matrix
diagonal.  The damping factor starts at 1e-3, grows x10 on a rejected step
and shrinks /10 on an accepted one.  There is no randomness anywhere, so a
given problem always produces bit-identical results.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["FitOutcome", "damped_gauss_newton"]

_LAMBDA_START = 1e-3
_LAMBDA_GROW = 10.0
_LAMBDA_SHRINK = 10.0
_LAMBDA_MAX = 1e12
_REL_TOL = 1e-10
_MAX_ITER = 500


@dataclass(frozen=True)
class FitOutcome:
    """Solution of a damped Gauss-Newton run."""

    params: np.ndarray
    rss: float
    iterations: int
    converged: bool


def damped_gauss_newton(
    residuals: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    p0: np.ndarray,
    *,
    accept: Callable[[np.ndarray], bool],
) -> FitOutcome:
    """Minimise ``sum(residuals(p)**2)`` starting from ``p0``.

    ``accept`` vetoes candidate parameter vectors (e.g. to keep a scale
    parameter positive); a vetoed step is treated like an increase in RSS,
    so the damping grows and a shorter step is tried.  Convergence is
    declared when the relative RSS change of an accepted step falls below
    1e-10; the run stops unconverged after 500 iterations.
    """
    p = np.asarray(p0, dtype=float).copy()
    r = residuals(p)
    rss = float(r @ r)
    lam = _LAMBDA_START
    moved = True

    for iteration in range(1, _MAX_ITER + 1):
        if moved:  # the normal equations at p; a rejected step leaves them as they are
            jac = jacobian(p)
            normal = jac.T @ jac
            downhill = -(jac.T @ r)
            diag = np.diag(normal).copy()
            diag[diag <= 0.0] = 1.0
            damping = np.diag(diag)
            moved = False

        try:
            step = np.linalg.solve(normal + lam * damping, downhill)
        except np.linalg.LinAlgError:
            lam = min(lam * _LAMBDA_GROW, _LAMBDA_MAX)
            continue

        candidate = p + step
        if not accept(candidate):
            lam = min(lam * _LAMBDA_GROW, _LAMBDA_MAX)
            if lam >= _LAMBDA_MAX:
                return FitOutcome(p, rss, iteration, False)
            continue

        r_new = residuals(candidate)
        rss_new = float(r_new @ r_new)
        if rss_new <= rss:
            change = rss - rss_new
            p, r, rss, moved = candidate, r_new, rss_new, True
            lam = lam / _LAMBDA_SHRINK
            if change <= _REL_TOL * max(rss, np.finfo(float).tiny):
                return FitOutcome(p, rss, iteration, True)
        else:
            lam = min(lam * _LAMBDA_GROW, _LAMBDA_MAX)
            if lam >= _LAMBDA_MAX:
                # no downhill step exists at any damping: local optimum
                return FitOutcome(p, rss, iteration, True)

    return FitOutcome(p, rss, _MAX_ITER, False)
