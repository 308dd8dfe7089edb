"""Residual measurement and exponent fitting.

Residuals Delta(x) = exact - rhs of the three main asymptotics are
collected on deterministic geometric x-grids by explicit_grid, which
pairs the exact sums with explicit.explicit_rows, the one kernel of the
three right-hand sides, and their effective exponent is estimated by
least squares on (log x, log |Delta|).  Oscillatory
residuals make pointwise exponent claims fragile, so all acceptance
statements are phrased on RMS over grids and slope bands, never on
single points.

The effective exponent parameter of the sharpened error term is

    b_star = min(B, 1 - c1 / min(q^eps, (log x)^(4/5))),

with three constants: c1 = 1 (the source leaves c1 unspecified), eps =
1/7 (the choice made in its own final optimization) and B = 1/2, the
largest real part of a zero, since every zero computed in the validated
envelope has beta = 1/2.  b_star < B is the formula at work (for q < 128
it is below 1/2 at every x, since q^eps < 2), and is not logged.  Either
branch can take it to 0 or below: q^eps for q = 1, (log x)^(4/5) for
x <= e.  That degenerate value is returned as-is and logged with the
branch that set it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .explicit import ExplicitRow, explicit_rows
from .goldbach import restricted_sum, s_grid
from .lfunc import ZeroSet
from .numtheory import SieveTable

logger = logging.getLogger(__name__)

B_STAR_C1 = 1.0
B_STAR_EPSILON = 1.0 / 7.0
B_STAR_B = 0.5  # every computed zero in the envelope has beta = 1/2


@dataclass(frozen=True)
class FitResult:
    exponent: float
    intercept: float
    rms: float
    n_samples: int
    x_range: tuple[float, float]


def geometric_grid(x_min: float, x_max: float, points: int = 25) -> np.ndarray:
    """Deterministic log-spaced grid (no randomness anywhere) whose end
    points are exactly x_min and x_max."""
    if not x_min < x_max:
        raise ValueError("need x_min < x_max")
    if not x_min > 0:
        raise ValueError(f"x_min must be positive for a log-spaced grid, got {x_min}")
    if points < 2:
        raise ValueError(f"a grid needs at least 2 points, got {points}")
    xs = np.exp(np.linspace(math.log(x_min), math.log(x_max), points))
    xs[0], xs[-1] = x_min, x_max  # exp(log(x)) can land an ulp below x
    return xs


def explicit_grid(mode: str, q: int, classes: tuple[int, ...], xs: np.ndarray,
                  sieve: SieveTable, zero_sets: dict[str, ZeroSet],
                  T: float) -> list[ExplicitRow]:
    """The exact sum on the grid against the mode's explicit formula
    (explicit.explicit_rows), one row per x:

    thm11, thm12 (classes (a, b)): S(x; q, a, b)
    thm14 (classes (c,)):          restricted_sum(x; q, c)
    """
    xs = np.asarray(xs, dtype=np.float64)
    sums = restricted_sum if mode == "thm14" else s_grid
    exact = sums(xs, q, *classes, sieve)
    return explicit_rows(mode, q, classes, xs.tolist(), exact.tolist(), zero_sets, T)


def rms(residuals: list[tuple[float, float]]) -> float:
    if not residuals:
        return 0.0
    return math.sqrt(sum(d * d for _, d in residuals) / len(residuals))


def fit_exponent(residuals: list[tuple[float, float]]) -> FitResult:
    """Least-squares slope of log |Delta| against log x.

    Samples with |Delta| < 1e-9 are excluded (they sit at the rounding
    floor); at least 8 surviving samples across >= 2 decades required.
    """
    pts = [(x, abs(d)) for x, d in residuals if abs(d) >= 1e-9]
    if len(pts) < 8:
        raise ValueError(f"only {len(pts)} usable samples (need 8)")
    lx = np.log10([x for x, _ in pts])
    if lx.max() - lx.min() < 2.0:
        raise ValueError("x range spans fewer than 2 decades")
    ld = np.log([d for _, d in pts])
    lxn = np.log([x for x, _ in pts])
    slope, intercept = np.polyfit(lxn, ld, 1)
    fitted = slope * lxn + intercept
    resid = float(np.sqrt(np.mean((ld - fitted) ** 2)))
    return FitResult(
        exponent=float(slope),
        intercept=float(intercept),
        rms=resid,
        n_samples=len(pts),
        x_range=(float(min(x for x, _ in pts)), float(max(x for x, _ in pts))),
    )


def b_star(q: int, x: float) -> float:
    """min(B, 1 - c1/min(q^eps, (log x)^(4/5))) with the module's
    constants B_STAR_B, B_STAR_C1 and B_STAR_EPSILON.

    A value <= 0 is degenerate: it is logged, naming the branch of the
    inner min that set it, and returned as-is.
    """
    if x <= 1:
        raise ValueError("x must exceed 1")
    lx = math.log(x)
    denom = min(q ** B_STAR_EPSILON, lx ** 0.8) if lx > 0 else 0.0
    if denom <= 0:
        raise ValueError("degenerate: log x <= 0")
    eta = B_STAR_C1 / denom
    val = min(B_STAR_B, 1.0 - eta)
    if val <= 0:
        branch = "q^eps" if denom == q ** B_STAR_EPSILON else "(log x)^(4/5)"
        logger.warning(
            "b_star degenerate: 1 - c1/%s = %.4f <= 0 at q=%d, x=%g",
            branch, val, q, x,
        )
    return val
