"""Farey-arc contour evaluation of series coefficients, and the nu-indexed
decomposition of the arc sum as a measurable diagnostic.

``coefficient_by_contour`` reconstructs the n-th coefficient of a series from
its values on the circle of radius exp(-2 pi / N^2), N = floor(sqrt(n)),
dissected along the order-N Farey arcs.  Evaluators receive (h, k, z) so both
the direct-summation route and the Gauss-sum transformed route can reduce
rational phases exactly; h and k are (A, 1) integer columns of a level's
arcs and z the (A, 2m) array of their rule nodes, one arc per row, and the
evaluator returns the series values there as an array of z's shape.  The
direct evaluator (``series_evaluator``) makes one lattice walk per distinct
alpha_j and call, over all rows at once, which gives both the theta factor
(j in J) and the sign-weighted factor (j not in J) of that alpha_j; the
transformed one (``transformed_evaluator``) makes one Gauss-sum expansion
per distinct (alpha_j, j in J) factor and call, over all rows at once.

Both drivers walk the arcs in (k, h) order with m-point Gauss-Legendre rules
on [-theta_left, 0] and [0, theta_right], split where the integrand peaks
(``_arc_walk``, ``_arc_rule``).  The contour runs by level: at each rule
size m = 16, 32, ... it makes one evaluator call for every arc not yet
stopped, and each arc stops once two of its rules agree to its share of the
tolerance, stop converging (the evaluator's roundoff floor, once m has a
few nodes per period of e(-n phi) on the wider side) or reach m = 1024;
``quad_error`` sums exp(2 pi n/N^2) times each arc's last difference.  The
rules are ``analytic._legendre``'s, the ones the lemma-5 integrals run.  The
nu-decomposition takes m = 24 and contracts its per-arc nu-sum tables over
the nodes (``_nu_contraction``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Sequence

import numpy as np

from .analytic import (_arc_z, _gauss_factor, _lattice_sum, _legendre,
                       _transformed_sum, _unit_phase)
from .arith import gauss_sum_table
from .farey import _arc_columns, rho_congruence
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

# evaluator(h, k, z): the series at tau = (h + i z)/k for one level of arcs,
# h and k (A, 1) integer columns and z the (A, 2m) complex array of their
# rule nodes (one arc per row), returned as an array of z's shape
ArcEvaluator = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


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


def _arc_walk(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arcs of ``farey.arcs(N)`` in (k, h) order as columns: h and k as
    (A, 1) int64 arrays and sides = [-theta_left, theta_right] as an (A, 2)
    array, each side one true division of integers, so the correctly
    rounded value of its exact ``farey.FareyArc`` fraction."""
    h, k, _, k1, _, k2, _ = _arc_columns(N).T
    sides = np.stack([-1 / (k * (k + k1)), 1 / (k * (k + k2))], axis=1)
    order = np.lexsort((h, k))
    return h[order, None], k[order, None], sides[order]


def _arc_rule(sides: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(phi, weights) of the m-point rules on [-theta_left, 0] and
    [0, theta_right], concatenated: one arc's sides (2,) give 2m nodes, an
    (A, 2) array of sides gives (A, 2m) rows."""
    x, w = _legendre(m)
    shape = sides.shape[:-1] + (-1,)
    return ((sides[..., None] * x).reshape(shape),
            (abs(sides)[..., None] * w).reshape(shape))


def coefficient_by_contour(evaluator: ArcEvaluator, n: int,
                           config: ContourConfig | None = None,
                           skip_arcs: Sequence[tuple[int, int]] = ()) -> ContourResult:
    """Arc-sum reconstruction of the n-th coefficient.

    The rules double by level: at each m = 16, 32, ... the evaluator is
    called once as evaluator(h, k, z) for every arc still refining, h and k
    their (A, 1) columns and z their (A, 2m) rows of rule nodes, and must
    return the series values at tau = (h + i z)/k in z's shape.  Each arc
    stops by its own test, so it runs the same rules as it would alone.
    Arcs are summed in (k, h) order so reruns are bit-identical.
    ``skip_arcs`` removes named (h, k) arcs (mutation tests).
    """
    config = config or ContourConfig(n=n)
    if config.n != n:
        raise ValueError("config.n must match n")
    N = config.N
    h, k, sides = _arc_walk(N)
    if skip_arcs:
        skip = set(skip_arcs)
        keep = [arc not in skip
                for arc in zip(h[:, 0].tolist(), k[:, 0].tolist())]
        h, k, sides = h[keep], k[keep], sides[keep]
    # exp(2 pi n z/k) = exp(2 pi n/N^2) exp(-2 pi i n Phi): the constant
    # amplitude is pulled out so the rules work at unit scale
    amp = math.exp(2 * math.pi * n / N**2)
    per_arc_tol = max(config.tol / (max(len(k), 1) * amp), 1e-14)
    # a difference that stops falling is the roundoff floor only once the
    # rule has a few nodes per period of e(-n phi) on the wider side
    stall_m = 4 * n * abs(sides).max(axis=1)
    val = np.zeros(len(k), dtype=complex)
    diff = np.full(len(k), math.inf)
    live, m = np.arange(len(k)), 16
    while live.size:
        phi, w = _arc_rule(sides[live], m)
        f = evaluator(h[live], k[live], _arc_z(k[live], N, phi))
        new = (w * np.exp(-2j * np.pi * n * phi) * f).sum(axis=1)
        if m > 16:
            # hypot, as abs() of a Python complex (numpy's complex abs can
            # differ in the last bit)
            delta = new - val[live]
            d = np.hypot(delta.real, delta.imag)
            stop = ((d <= per_arc_tol) | (m >= 1024)
                    | ((d >= diff[live]) & (m >= stall_m[live])))
            diff[live] = d
        else:
            stop = np.zeros(live.size, dtype=bool)
        val[live] = new
        live, m = live[~stop], 2 * m
    total, err = 0j, 0.0
    for phase, v, d in zip(_unit_phase(-n * h[:, 0], k[:, 0]).tolist(),
                           val.tolist(), diff.tolist()):
        total += phase * amp * v
        err += amp * d
    return ContourResult(value=total, num_arcs=len(k), quad_error=err)


def constant_evaluator() -> ArcEvaluator:
    """Evaluator of the constant series 1 (orthogonality test target)."""
    return lambda h, k, z: np.ones(np.shape(z))


def nu_terms_for(n: int) -> int:
    """The shifted-pair count the principal-value window once needed at
    index n.  The window is now summed to its Gaussian tail, so
    ``transformed_evaluator`` ignores the value; the function is kept for
    existing callers and will be deleted (ROADMAP item 8)."""
    return 64 if isqrt(n) <= 2 else 24


def _prefactor(r: int, M: int, alpha_sum: int, h, k, z):
    # q^(-r^2 alpha_sum/(2M)) at q = e(tau), tau = (h+iz)/k, with the rational
    # phase reduced exactly; h, k ints or columns broadcast against z
    c = r * r * alpha_sum
    den = 2 * M * k
    return _unit_phase(-h * c, den) * np.exp(2 * np.pi * z * c / den)


def _product_evaluator(r: int, M: int, alpha: tuple[int, int, int, int],
                       J: frozenset[int] | set[int], factors) -> ArcEvaluator:
    """The J-indexed product: the prefactor times the factors of the four
    coordinates, factors(keys, h, k, z) giving a dict from each distinct
    (alpha_j, j in J) key to its factor over all of a level's z."""
    J = frozenset(J)
    coords = [(a, j in J) for j, a in enumerate(alpha, start=1)]
    keys = set(coords)

    def f(h: np.ndarray, k: np.ndarray, z: np.ndarray) -> np.ndarray:
        table = factors(keys, h, k, z)
        out = _prefactor(r, M, sum(alpha), h, k, z)
        for c in coords:
            out *= table[c]
        return out

    return f


def series_evaluator(r: int, M: int, alpha: tuple[int, int, int, int],
                     J: frozenset[int] | set[int]) -> ArcEvaluator:
    """Direct-summation evaluator of the J-indexed product series.

    Each factor is the defining one-dimensional sum with a certified Gaussian
    tail; no modular transformation is involved.  The theta factor (j in J)
    and the sign-weighted factor (j not in J) of one alpha_j share every
    term, so each distinct alpha_j is one lattice walk per call, over every
    arc and node of the level, that gives both.
    """
    def factors(keys, h, k, z):
        sums = {a: _lattice_sum(r, 2 * M, 2 * a, h, k, z, 1e-16)
                for a in {a for a, _ in keys}}
        return {(a, in_J): sums[a][0 if in_J else 1] for a, in_J in keys}

    return _product_evaluator(r, M, alpha, J, factors)


def transformed_evaluator(r: int, M: int, alpha: tuple[int, int, int, int],
                          J: frozenset[int] | set[int],
                          nu_terms: int = 24) -> ArcEvaluator:
    """Evaluator of the same product via the Gauss-sum expansions near each
    cusp (theta factors by the modular inversion, a nu-sum in 1/z;
    sign-weighted factors as the Fourier series in z of their
    principal-value window), each to its Gaussian tail.  Each distinct
    (alpha_j, j in J) factor is one ``_transformed_sum`` per call, over every
    arc and node of the level, and each arc's value equals its value alone.

    ``nu_terms`` is ignored (the window has no shifted-pair truncation); it
    is kept for existing callers and will be deleted (ROADMAP item 8).
    """
    def factors(keys, h, k, z):
        return {(a, in_J): _transformed_sum(r, M, a, h, k, z, in_J)
                for a, in_J in keys}

    return _product_evaluator(r, M, alpha, J, factors)


# ---------------------------------------------------------------------------
# the nu-indexed decomposition of the arc sum
# ---------------------------------------------------------------------------

def _nu_index(keys: list[tuple]) -> np.ndarray:
    """The nu vectors as a (len(keys), 4) index array; ValueError unless
    every one is four non-negative integers."""
    if not keys:
        return np.zeros((0, 4), dtype=np.intp)
    try:
        idx = np.array(keys)
    except ValueError:  # vectors of different lengths
        idx = None
    if (idx is None or idx.shape[1:] != (4,) or idx.dtype.kind not in "iu"
            or idx.min() < 0):
        raise ValueError("every nu must be four non-negative integers")
    return idx.astype(np.intp, copy=False)


def _nu_contraction(r: int, M: int, alpha: tuple[int, int, int, int],
                    J: frozenset[int], idx: np.ndarray, n: int) -> np.ndarray:
    """The contributions of the rows of the (count, 4) index array idx, in
    its order: one ``_gauss_factor`` table t_c of each distinct
    (alpha_j, in J) over nu_j = 0..max and all arcs and nodes, then per arc
    and requested nu_1 = a one contraction over the nodes i of
    base_i t1[a, i] t2[nu_2, i] (t3 t4)[(nu_3, nu_4), i] into every
    (nu_2, nu_3, nu_4) up to the largest entry requested with that nu_1,
    from which the requested entries are gathered."""
    if J == FULL_J:
        raise ValueError("the nu-decomposition needs at least one factor off J")
    N = max(1, isqrt(n))
    acc = np.zeros(len(idx), dtype=complex)
    c_shift = r * r * sum(alpha) / (2.0 * M)
    coords = [(a, j in J) for j, a in enumerate(alpha, start=1)]
    width = int(idx.max(initial=0)) + 1
    # per requested nu_1: the positions in acc, the extent of its
    # (nu_2, nu_3, nu_4) cube and the requested entries of its contraction
    groups = []
    for a in np.unique(idx[:, 0]).tolist():
        rows = np.flatnonzero(idx[:, 0] == a)
        size = int(idx[rows, 1:].max()) + 1
        groups.append((a, rows, size, idx[rows, 1],
                       idx[rows, 2] * size + idx[rows, 3]))
    hs, ks, sides = _arc_walk(N)
    phi, w = _arc_rule(sides, 24)
    z = _arc_z(ks, N, phi)
    # one (nu, arc, node) table per distinct coordinate, and each arc's base
    tables = {c: _gauss_factor(r, M, c[0], hs, ks, z, c[1], width - 1)
              for c in set(coords)}
    bases = (_unit_phase(-n * hs, ks) * w) * np.exp(
        2 * np.pi * (n + c_shift) * z / ks) / (ks * ks * z * z)
    for i, base in enumerate(bases):
        t1, t2, t3, t4 = (tables[c][:, i] for c in coords)
        t34 = t3[:, None] * t4
        # np.einsum (not @) runs its own loops and maps no BLAS buffers
        for a, rows, size, b, cd in groups:
            block = np.einsum("bi,ci->bc", t2[:size] * (base * t1[a]),
                              t34[:size, :size].reshape(size * size, -1))
            acc[rows] += block[b, cd]
    return acc


def i_nu_contributions(r: int, M: int, alpha: tuple[int, int, int, int],
                       J: frozenset[int] | set[int],
                       nus: Sequence[tuple[int, int, int, int]],
                       n: int) -> dict[tuple[int, int, int, int], complex]:
    """Arc-sum contributions indexed by nu, sharing quadrature nodes and
    nu-sum tables across all requested nu (24 nodes per side), contracted
    over the nodes once per requested nu_1 (``_nu_contraction``).  Every nu
    must be four non-negative integers (ValueError otherwise)."""
    keys = [tuple(nu) for nu in nus]
    acc = _nu_contraction(r, M, alpha, frozenset(J), _nu_index(keys), n)
    return dict(zip(keys, acc.tolist()))


def nu_norm_cap_for(n: int, M: int, alpha: tuple[int, int, int, int]) -> int:
    """Norm cap that keeps the dropped Gaussian tail below 1e-6 after the
    exp(2 pi n/N^2) amplification (envelope exp(-pi nu^2 Re(1/z)/(4 M k a)),
    Re(1/z)/k >= 1/2 on every arc).

    It bounds the tail only, not the roundoff of the kept terms: at N = 1
    the contributions grow with n and cancel, and at (r, M, J, n) =
    (1, 2, {1,2,3}, 3) contributions up to 1.1e11 leave 8.2e-6 of roundoff
    in the sum."""
    N = max(1, isqrt(n))
    amax = max(alpha)
    need = (8.0 * M * amax / math.pi) * (
        2.0 * math.pi * n / N**2 + math.log(50.0 / 1e-6))
    return math.ceil(math.sqrt(max(need, 1.0)))


def _nu_ball(cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The nu in {0..cap}^4 with ||nu|| <= cap as a (count, 4) index array,
    in the C order of the ball's mask (which is itertools.product's order),
    and their weights 1/2 per vanishing entry."""
    sq = np.arange(cap + 1) ** 2
    ball = np.nonzero((sq[:, None, None] + sq[:, None] + sq)[..., None]
                      <= cap * cap - sq)
    return np.stack(ball, axis=1), 0.5 ** sum(a == 0 for a in ball)


def reconstruct_by_nu(r: int, M: int, alpha: tuple[int, int, int, int],
                      J: frozenset[int] | set[int],
                      n: int) -> tuple[complex, dict]:
    """Sum the weighted nu-contributions with ||nu|| <= ``nu_norm_cap_for``,
    the cap that keeps the dropped tail below 1e-6.  The total can be
    further off than that: at N = 1 (n <= 3) the contributions cancel from
    up to 1.1e11 (at (1, 2, {1,2,3}, n = 3)), and their roundoff leaves
    8.2e-6.

    Weights: 1/(16 M^2 prod sqrt(alpha_j)) times 1/2 per vanishing nu_j.
    Returns (value, per-nu breakdown).
    """
    idx, weights = _nu_ball(nu_norm_cap_for(n, M, alpha))
    acc = _nu_contraction(r, M, alpha, frozenset(J), idx, n)
    pref = 1.0 / (16.0 * M * M * math.prod(math.sqrt(a) for a in alpha))
    total = pref * complex((weights * acc).sum())
    return total, dict(zip(zip(*idx.T.tolist()), acc.tolist()))


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
    the fit reports that instead of a slope.  Points that all share one n
    have no slope: the fit reports slope 0 and their mean log error.
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
    # the centred closed form of the least-squares line
    dx, dy = x - x.mean(), y - y.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx if sxx > 0 else 0.0
    resid = dy - slope * dx
    s2 = float(resid @ resid) / max(len(x) - 2, 1)
    stderr = math.sqrt(s2 / sxx) if sxx > 0 else 0.0
    return ExponentFit(slope=slope, intercept=float(y.mean() - slope * x.mean()),
                       stderr=stderr, n_points=int(len(x)))


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
