"""Farey-arc contour evaluation of series coefficients, and the nu-indexed
decomposition of the arc sum as a measurable diagnostic.

``coefficient_by_contour`` reconstructs the n-th coefficient of a series from
its values on the circle of radius exp(-2 pi / N^2), N = floor(sqrt(n)),
dissected along the order-N Farey arcs.  Evaluators receive (h, k, z) so both
the direct-summation route and the Gauss-sum transformed route can reduce
rational phases exactly.

The nu-decomposition (``i_nu_contributions``) uses the same per-coordinate
Gauss-sum factor as the transformed evaluators (``analytic._gauss_factor``),
tabulated once per node and indexed by each nu.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Sequence

import numpy as np

from .analytic import (_arc_z, _gauss_factor, _unit_phase, _window_entry,
                       complex_quad, false_theta_eval_direct_arc,
                       false_theta_eval_transformed, theta_eval_direct_arc,
                       theta_eval_transformed)
from .arith import gauss_sum_table
from .farey import arcs, rho_congruence
from .series import FULL_J

__all__ = [
    "ContourConfig",
    "ContourResult",
    "ArcEvaluator",
    "coefficient_by_contour",
    "series_evaluator",
    "transformed_evaluator",
    "constant_evaluator",
    "i_nu_contributions",
    "reconstruct_by_nu",
    "ExponentFit",
    "error_exponent_fit",
    "kloosterman_h_sum",
]

ArcEvaluator = Callable[[int, int, complex], complex]


@dataclass(frozen=True)
class ContourConfig:
    """Settings for one contour run."""

    n: int
    mode: str = "direct"  # "direct" | "transformed" (informational)
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"need n >= 0, got {self.n}")

    @property
    def N(self) -> int:
        return max(1, isqrt(self.n))


@dataclass(frozen=True)
class ContourResult:
    value: complex
    num_arcs: int
    quad_error: float
    n: int
    N: int


def coefficient_by_contour(evaluator: ArcEvaluator, n: int,
                           config: ContourConfig | None = None,
                           skip_arcs: Sequence[tuple[int, int]] = ()) -> ContourResult:
    """Arc-sum reconstruction of the n-th coefficient.

    The evaluator is called as evaluator(h, k, z) and must return the series
    value at tau = (h + i z)/k.  Arcs are summed in (k, h) order so reruns are
    bit-identical.  ``skip_arcs`` removes named (h, k) arcs (mutation tests).
    """
    config = config or ContourConfig(n=n)
    if config.n != n:
        raise ValueError("config.n must match n")
    N = config.N
    skip = set(skip_arcs)
    all_arcs = sorted(arcs(N), key=lambda a: (a.k, a.h))
    total = 0.0 + 0.0j
    err = 0.0
    used = 0
    # exp(2 pi n z/k) = exp(2 pi n/N^2) exp(-2 pi i n Phi): the constant
    # amplitude is pulled out so the quadrature works at unit scale
    amp = math.exp(2 * math.pi * n / N**2)
    per_arc_tol = max(config.tol / (max(1, len(all_arcs)) * amp), 1e-14)
    for arc in all_arcs:
        if (arc.h, arc.k) in skip:
            continue
        used += 1
        h, k = arc.h, arc.k

        def integrand(phi: float) -> complex:
            return evaluator(h, k, _arc_z(k, N, phi)) * \
                cmath.exp(-2j * cmath.pi * n * phi)

        lo = -float(arc.theta_left)
        hi = float(arc.theta_right)
        val, e = complex_quad(integrand, lo, hi, points=[0.0],
                              tol=per_arc_tol)
        total += _unit_phase(-n * h, k) * amp * val
        err += amp * e
    return ContourResult(value=total, num_arcs=used, quad_error=err, n=n,
                         N=N)


def constant_evaluator() -> ArcEvaluator:
    """Evaluator of the constant series 1 (orthogonality test target)."""
    return lambda h, k, z: 1.0


def nu_terms_for(n: int) -> int:
    """Shifted-pair count that keeps the nu-sum tail negligible after the
    exp(2 pi n/N^2) amplification of the widest arcs."""
    N = max(1, isqrt(n))
    if N <= 2:
        return 64
    return 24


def _prefactor(r: int, M: int, alpha_sum: int, h: int, k: int,
               z: complex) -> complex:
    # q^(-r^2 alpha_sum/(2M)) at q = e(tau), tau = (h+iz)/k, with the rational
    # phase reduced exactly
    c = r * r * alpha_sum
    den = 2 * M * k
    return _unit_phase(-h * c, den) * cmath.exp(2 * cmath.pi * z * c / den)


def series_evaluator(r: int, M: int, alpha: tuple[int, int, int, int],
                     J: frozenset[int] | set[int]) -> ArcEvaluator:
    """Direct-summation evaluator of the J-indexed product series.

    Each factor is the defining one-dimensional sum with a certified Gaussian
    tail; no modular transformation is involved.
    """
    J = frozenset(J)

    def f(h: int, k: int, z: complex) -> complex:
        out = _prefactor(r, M, sum(alpha), h, k, z)
        for j, a in enumerate(alpha, start=1):
            if j in J:
                out *= theta_eval_direct_arc(r, 2 * M, 2 * a, h, k, z)
            else:
                out *= false_theta_eval_direct_arc(r, M, 2 * a, h, k, z)
        return out

    return f


def transformed_evaluator(r: int, M: int, alpha: tuple[int, int, int, int],
                          J: frozenset[int] | set[int],
                          nu_terms: int = 24) -> ArcEvaluator:
    """Evaluator of the same product via the Gauss-sum expansions near each
    cusp (theta factors by the modular inversion, sign-weighted factors with
    their principal-value correction).

    Pointwise errors are amplified by exp(2 pi n / N^2) in the contour sum,
    so callers working at small N should raise nu_terms (see
    ``nu_terms_for``).
    """
    J = frozenset(J)

    def f(h: int, k: int, z: complex) -> complex:
        out = _prefactor(r, M, sum(alpha), h, k, z)
        for j, a in enumerate(alpha, start=1):
            if j in J:
                out *= theta_eval_transformed(r, M, a, h, k, z)
            else:
                out *= false_theta_eval_transformed(r, M, a, h, k, z,
                                                    nu_terms=nu_terms)
        return out

    return f


# ---------------------------------------------------------------------------
# the nu-indexed decomposition of the arc sum
# ---------------------------------------------------------------------------

def i_nu_contributions(r: int, M: int, alpha: tuple[int, int, int, int],
                       J: frozenset[int] | set[int],
                       nus: Sequence[tuple[int, int, int, int]], n: int,
                       nodes: int = 48) -> dict[tuple[int, int, int, int], complex]:
    """Arc-sum contributions indexed by nu, sharing quadrature nodes and
    nu-sum tables across all requested nu (fixed Gauss-Legendre rule per arc).

    At each node, every coordinate's Gauss-sum factor (``_gauss_factor``,
    with the window entry at nu_j = 0 off J) is tabulated once per
    (alpha_j, in J) over nu_j = 0..max and indexed by each nu.
    """
    J = frozenset(J)
    if J == FULL_J:
        raise ValueError("the nu-decomposition needs at least one factor off J")
    N = max(1, isqrt(n))
    alpha_sum = sum(alpha)
    glx, glw = np.polynomial.legendre.leggauss(nodes)
    keys = [tuple(nu) for nu in nus]
    out: dict[tuple[int, int, int, int], complex] = {nu: 0.0 + 0.0j
                                                     for nu in keys}
    c_shift = r * r * alpha_sum / (2.0 * M)
    coords = [(a, j in J) for j, a in enumerate(alpha, start=1)]
    nu_max = max((max(nu) for nu in keys), default=0)
    for arc in sorted(arcs(N), key=lambda a: (a.k, a.h)):
        h, k = arc.h, arc.k
        lo, hi = -float(arc.theta_left), float(arc.theta_right)
        mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
        phase_n = _unit_phase(-n * h, k)
        for x, wgt in zip(glx.tolist(), glw.tolist()):
            z = _arc_z(k, N, mid + half * x)
            tables = {}
            for a, in_J in set(coords):
                tab = _gauss_factor(r, M, a, h, k, z, in_J, nu_max).tolist()
                if not in_J:
                    tab[0] = _window_entry(r, M, a, h, k, z)
                tables[a, in_J] = tab
            t1, t2, t3, t4 = (tables[c] for c in coords)
            base = cmath.exp(2 * cmath.pi * (n + c_shift) * z / k) / \
                (k * k * z * z)
            coef = phase_n * wgt * half * base
            for nu in keys:
                out[nu] += coef * (t1[nu[0]] * t2[nu[1]] * t3[nu[2]]
                                   * t4[nu[3]])
    return out


def nu_norm_cap_for(n: int, M: int, alpha: tuple[int, int, int, int]) -> float:
    """Norm cap that keeps the dropped Gaussian tail below 1e-6 after the
    exp(2 pi n/N^2) amplification (envelope exp(-pi nu^2 Re(1/z)/(4 M k a)),
    Re(1/z)/k >= 1/2 on every arc)."""
    N = max(1, isqrt(n))
    amax = max(alpha)
    need = (8.0 * M * amax / math.pi) * (
        2.0 * math.pi * n / N**2 + math.log(50.0 / 1e-6))
    return min(16.0, math.ceil(math.sqrt(max(need, 1.0))))


def reconstruct_by_nu(r: int, M: int, alpha: tuple[int, int, int, int],
                      J: frozenset[int] | set[int],
                      n: int) -> tuple[complex, dict]:
    """Sum the weighted nu-contributions with ||nu|| <= ``nu_norm_cap_for``,
    the cap that keeps the dropped tail below 1e-6.

    Weights: 1/(16 M^2 prod sqrt(alpha_j)) times 1/2 per vanishing nu_j.
    Returns (value, per-nu breakdown).
    """
    norm_cap = nu_norm_cap_for(n, M, alpha)
    cap = int(norm_cap)
    nus = [(a, b, c, d)
           for a in range(cap + 1) for b in range(cap + 1)
           for c in range(cap + 1) for d in range(cap + 1)
           if a * a + b * b + c * c + d * d <= norm_cap**2]
    contrib = i_nu_contributions(r, M, alpha, J, nus, n)
    pref = 1.0 / (16.0 * M * M * math.prod(math.sqrt(a) for a in alpha))
    total = 0.0 + 0.0j
    for nu, val in contrib.items():
        weight = pref * 0.5 ** sum(1 for c in nu if c == 0)
        total += weight * val
    return total, contrib


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log|error| against log n."""

    slope: float
    intercept: float
    stderr: float
    n_points: int
    all_zero: bool = False

    @property
    def band(self) -> tuple[float, float]:
        return (self.slope - 2 * self.stderr, self.slope + 2 * self.stderr)


def error_exponent_fit(ns: Sequence[float], errors: Sequence[float]) -> ExponentFit:
    """Fit |error| ~ C n^s by least squares in log-log coordinates.

    Zero errors are dropped; if everything is zero the agreement is exact and
    the fit reports that instead of a slope.
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.abs(np.asarray(errors, dtype=float))
    mask = (errors > 0) & (ns > 0)
    if not mask.any():
        return ExponentFit(slope=0.0, intercept=0.0, stderr=0.0,
                           n_points=0, all_zero=True)
    x = np.log(ns[mask])
    y = np.log(errors[mask])
    if len(x) < 2:
        return ExponentFit(slope=0.0, intercept=float(y[0]), stderr=0.0,
                           n_points=1)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    dof = max(len(x) - 2, 1)
    resid = y - A @ coef
    s2 = float(resid @ resid) / dof
    sxx = float(((x - x.mean()) ** 2).sum())
    stderr = math.sqrt(s2 / sxx) if sxx > 0 else 0.0
    return ExponentFit(slope=slope, intercept=intercept, stderr=stderr,
                       n_points=int(len(x)))


def kloosterman_h_sum(n: int, k: int, M: int,
                      alpha: tuple[int, int, int, int],
                      d: tuple[int, int, int, int], rho_max: int,
                      N: int) -> complex:
    """Exact h-sum of Gauss-sum products over reduced h with rho(h) <= rho_max.

    The magnitude of these sums is what the dissection's cancellation controls;
    this helper exposes them for profiling against the shape
    k^(2+7/8) gcd(n,k)^(1/4) with a fitted constant.
    """
    total = 0.0 + 0.0j
    for h in range(k):
        if math.gcd(h, k) != 1:
            continue
        if rho_congruence(h, k, N) > rho_max:
            continue
        term = _unit_phase(-n * h, k)
        for a, dj in zip(alpha, d):
            term *= gauss_sum_table((2 * M * a * h) % k, k)[dj % k]
        total += term
    return total
