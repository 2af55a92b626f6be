"""Numerical evaluation of the theta-type sums near rational points, the
principal-value Gaussian integral that measures the obstruction to modularity
of the sign-weighted sums, and the auxiliary integral families used to
approximate it.

Conventions shared by everything below:

* an arc point is z = k (1/N^2 - i Phi) with Re z > 0; tau = (h + i z)/k;
* the Gaussian weight of the principal-value integral is exp(-pi x^2 V) with
  V = 1 / (4 M k alpha_j z), Re V > 0;
* complex square roots are principal (Re sqrt > 0 whenever Re of the
  argument is > 0), which is forced here since Re z > 0.

The theta sums are evaluated in two ways, both on one Gaussian-series
kernel: ``_gaussian_walk`` advances exp(x nu^2) along nu = a + s j by its
second-difference recurrence (an exact exponential every ``_RESEED``
terms, O(entries) memory) and ``_gaussian_sum`` sums it against per-term
coefficients.  Both take a scalar z or an array of them (a contour level's
arcs as rows of rule nodes, h and k as (A, 1) integer columns), and reduce
every rational phase exactly in integers:

* direct summation runs through ``_lattice_sum``, one walk that gives the
  two-sided and the sign-weighted sum together (the two ``*_direct_arc``
  evaluators each pick one; the contour's direct evaluator takes both);
* the Gauss-sum transformation runs on the per-nu factor
  g(nu) [T(nu) +- T(-nu)], T(d) = e(r d/(2Mk)) G(...; k), tabulated for the
  circle-method nu-decomposition (``_gauss_factor``); off J its nu = 0
  entry is the principal-value window ``_window_entry``: lemma 5.8's
  cotangent completed to an exact sine series (``_window_sum``), a Fourier
  and a residue series mod 2Mk, with no Faddeeva function.  The transformed
  evaluators (``_transformed_sum``) sum one series a factor: on J the
  nu-sum, off J the Fourier series alone (the residue series cancels the
  nu-sum).  Every series stops at each arc's own Gaussian cutoff, so no
  arc's value depends on the arcs sharing the call.

Two routes to the principal-value integral itself are provided, both on
the Gauss-Legendre rules of ``_legendre`` (the rules the contour runs) and
integrated by ``_gl_integral``, which doubles each piece's rule until two
rules agree:

* ``pv_integral``         -- the split form: residue term + a smooth middle
                             integral + two half-line tails;
* ``pv_integral_direct``  -- the symmetric-excision form
                             int_0^T [g(mu + t) - g(mu - t)]/t dt plus the
                             same half-residue.

The two are kept deliberately independent; tests require them to agree.
The nu-sum of principal values at one window index, ``nu_sum``, is
``_window_sum`` of a one-index table, so lemma 5.8's check reads the route
the evaluators run.  The Faddeeva closed form and QUADPACK's Cauchy-weight
principal value are the test oracle (``tests/oracles.py``); the package
depends on numpy alone.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import gauss_sum_table

__all__ = [
    "PVIntegralParams",
    "QuadratureError",
    "theta_eval_direct_arc",
    "false_theta_eval_direct_arc",
    "theta_eval_transformed",
    "false_theta_eval_transformed",
    "pv_integral",
    "pv_integral_direct",
    "j_integral",
    "j_trivial_bound",
    "j_recursion_residual",
    "lattice_window",
    "nu_sum",
    "cot_main_term",
]


class QuadratureError(RuntimeError):
    """A quadrature failed to reach the requested accuracy."""


def resolved_relative_error(a: complex, b: complex,
                            zero_floor: float = 1e-5) -> float:
    """|a - b| relative to max(|a|, |b|, zero_floor).

    The theta-type sums vanish identically at some cusps; both evaluation
    routes then cancel O(1) terms down to roundoff and the ratio of two
    numerical zeros is meaningless.  The transformation grids pass the sum
    of the moduli of the terms that cancel (``checks.transformation_pairs``);
    the default sits far below the genuine values of the grids.
    """
    return abs(a - b) / max(abs(a), abs(b), zero_floor)


def _arc_z(k, N: int, Phi):
    """The point z = k (1/N^2 - i Phi) on the order-N arc at denominator k;
    Phi may be a float or an array of them, and k an int or an integer array
    that broadcasts against Phi (an (A, 1) column of one level's arcs
    against their (A, 2m) rows of nodes)."""
    ks = np.asarray(k)
    if not np.all((1 <= ks) & (ks <= N)):
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    return k * (1.0 / N**2 - 1j * Phi)


@dataclass(frozen=True)
class PVIntegralParams:
    """Parameters of the principal-value Gaussian integral."""

    mu: int
    M: int
    alpha_j: int
    k: int
    z: complex
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.mu == 0:
            raise ValueError("mu must be a nonzero integer")
        if self.M < 1 or self.alpha_j < 1 or self.k < 1:
            raise ValueError("M, alpha_j, k must be positive integers")
        if self.z.real <= 0:
            raise ValueError(f"need Re z > 0, got z={self.z}")
        if self.delta is not None and not (0 < self.delta < abs(self.mu) / 2):
            raise ValueError(
                f"splitting parameter must satisfy 0 < delta < |mu|/2, got {self.delta}"
            )

    @property
    def gaussian_weight(self) -> complex:
        """V with integrand exp(-pi x^2 V); Re V > 0."""
        return 1.0 / (4.0 * self.M * self.k * self.alpha_j * self.z)

    @property
    def A(self) -> float:
        """pi mu^2 / (4 M k alpha_j |z|)."""
        return math.pi * self.mu**2 / (4.0 * self.M * self.k * self.alpha_j * abs(self.z))


def _unit_phase(num, den):
    """exp(2 pi i num/den) with the angle reduced exactly in integers; num
    and den are ints (a complex is returned) or integer arrays that
    broadcast (an array).  The angle is one correctly rounded division, so
    both give cmath.exp's value bit for bit."""
    return np.exp(1j * (2 * np.pi * (num % den) / den))


# ---------------------------------------------------------------------------
# the Gaussian-series kernel and direct summation of the defining series
# ---------------------------------------------------------------------------

def _gaussian_cutoff(decay: float, tol: float, floor: int) -> int:
    """The first integer nu >= floor at which exp(-decay nu^2) is below tol;
    past 10^7 (or with no decay) the sum is refused before any term."""
    reach = max(math.log(1 / tol), 0.0) / decay if decay > 0 else math.inf
    if reach >= 1e14:
        raise QuadratureError("Gaussian tail cutoff past 10^7 terms (Re z too small?)")
    return max(floor, math.isqrt(int(reach)) + 1)


# terms of ``_gaussian_walk``'s recurrence from one exact exponential to the
# next: its roundoff grows like the square of the count
_RESEED = 24


def _gaussian_walk(x: np.ndarray, a, s: int, steps: int):
    """exp(x nu^2) for nu = a + s j, j = 0..steps-1, in turn, at every entry
    of the complex array x (Re x < 0), a an int or an integer array that
    broadcasts against x.  Every ``_RESEED``-th term and its ratio
    exp(x (2 s nu + s^2)) to the next are exact exponentials; in between,
    the term is advanced by the ratio and the ratio by exp(2 s^2 x), two
    whole-array multiplies a term, the same arithmetic for every entry.
    The array yielded is updated in place by the next step."""
    lift = np.exp((2 * s * s) * x)
    for j in range(steps):
        if j % _RESEED:
            np.multiply(term, ratio, out=term)
            np.multiply(ratio, lift, out=ratio)
        else:
            nu = a + s * j
            term = np.exp((nu * nu) * x)
            ratio = np.exp((2 * s * nu + s * s) * x)
        yield term


def _gaussian_sum(coef: np.ndarray, x: np.ndarray, a, s: int) -> np.ndarray:
    """The sum over j of coef[j] exp(x (a + s j)^2), added in order of j, on
    ``_gaussian_walk``; the other axes of coef broadcast against x."""
    walk = _gaussian_walk(x, a, s, len(coef))
    acc = coef[0] * next(walk)
    tmp = np.empty_like(acc)
    for c, term in zip(coef[1:], walk):
        acc += np.multiply(c, term, out=tmp)
    return acc


def _lattice_sum(r: int, M: int, scale: int, h, k, z: np.ndarray,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The two-sided sum and the sign-weighted sum over nu = r mod M of
    sgn(nu)^s e(scale nu^2 h/(2 M k)) exp(-2 pi scale nu^2 z/(2 M k)), s = 0
    and 1 (the exponents nu^2/(2M) at tau = (h + i z)/k), at every entry of
    a complex array z (Re z > 0, checked); two arrays of z's shape.  h and k
    are ints or integer arrays that broadcast against z.

    One walk serves both sums, outward from the class in both directions at
    once: |nu| = a + M j with a = r (nu > 0) and a = M - r (nu < 0) on a
    leading axis of ``_gaussian_sum``, whose coefficients are the phases (a
    terms x arcs table); for r = 0 the nu = 0 term, 1, is taken apart and
    the upward direction starts at a = M.  Each direction runs through the
    first |nu| >= cut > M, the first nu whose damping is below tol at the
    smallest decay of all entries (pi scale/(M N^2) on every order-N arc).
    The sums are up + down and up - down, so the sign-weighted sums of r
    and -r are exact negatives and at r = M/2 exactly 0.
    """
    if not np.all(z.real > 0):
        raise ValueError(f"need Re z > 0, got z={z}")
    r %= M
    den = 2 * M * k
    x = (-2 * math.pi * scale / den) * z
    cut = _gaussian_cutoff(float(np.min(-x.real)), tol, M + 1)
    starts = (r or M, M - r)
    # the two directions on a leading axis, ahead of z's axes
    a = np.array(starts).reshape((2,) + (1,) * z.ndim)
    steps = max(len(range(b, cut + M, M)) for b in starts)
    nu = a + M * np.arange(steps).reshape((-1,) + (1,) * a.ndim)
    res = nu % den
    phase = np.exp((1j * (2 * np.pi / den))
                   * ((scale * h) % den * (res * res % den) % den))
    # a direction one step shorter than the other gets a zero phase last
    phase = np.where(nu - M < cut, phase, 0)
    up, down = _gaussian_sum(phase, x, a, M)
    two_sided = up + down
    if r == 0:
        two_sided += 1
    return two_sided, up - down


def _direct(r: int, M: int, scale: int, h, k, z, tol: float):
    """Both sums of ``_lattice_sum`` at a scalar z (two complexes, summed as
    a one-node array) or an array of z (two arrays of the same shape)."""
    za = np.asarray(z, dtype=complex)
    pair = _lattice_sum(r, M, scale, h, k, np.atleast_1d(za), tol)
    return tuple(complex(s[0]) for s in pair) if za.ndim == 0 else pair


def theta_eval_direct_arc(r: int, M: int, scale: int, h: int, k: int,
                          z, tol: float = 1e-16):
    """Two-sided theta sum (exponents nu^2/(2M), class nu = r mod M) at
    argument scale * tau, tau = (h + i z)/k, by direct summation with a
    certified Gaussian tail; the rational part of every phase is reduced
    exactly in integer arithmetic.  z is a complex or an array of them (one
    value each); h and k are ints, or integer arrays that broadcast
    against z (one arc per row).  h = 0, k = 1, z = -i tau gives the sum at
    a plain upper-half-plane point tau."""
    return _direct(r, M, scale, h, k, z, tol)[0]


def false_theta_eval_direct_arc(r: int, M: int, scale: int, h: int, k: int,
                                z, tol: float = 1e-16):
    """Sign-weighted theta sum (exponents nu^2/(4M), class nu = r mod 2M) at
    argument scale * tau, tau = (h + i z)/k, by direct summation with exact
    phase reduction; z and h = 0, k = 1, z = -i tau as for the two-sided
    sum."""
    return _direct(r, 2 * M, scale, h, k, z, tol)[1]


# ---------------------------------------------------------------------------
# transformed evaluation (Gauss-sum expansions valid near the cusp h/k)
# ---------------------------------------------------------------------------

# relative size of the first dropped term of every Gaussian series of the
# transformed route (the on-J nu-sum and both series of the window)
_GAUSS_TAIL = 1e-18


def _arc_rows(h, k, z) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """z's shape, then h and k as (A, 1) integer columns and z as the complex
    (A, nodes) array of their rows, one arc per row: ints h and k are one
    arc, whatever z's shape.  The transformed route takes either form."""
    k = np.reshape(k, (-1, 1))
    return (np.shape(z), np.reshape(h, (-1, 1)), k,
            np.asarray(z, complex).reshape(len(k), -1))


def _series_terms(rate: np.ndarray, floor: int, start: int):
    """The indices j = start, ... of a series in exp(-rate j^2) over the rows
    of the (A, nodes) array rate, and the (terms, A, 1) mask of each row's
    terms: through the first j >= floor damped below ``_GAUSS_TAIL`` at the
    row's slowest node."""
    decay = rate.real.min(1, keepdims=True)
    j = np.arange(start, _gaussian_cutoff(float(decay.min()), _GAUSS_TAIL, floor) + 1)
    # j within a row's own cutoff, max(floor, isqrt(reach) + 1)
    reach, j3 = np.floor(math.log(1 / _GAUSS_TAIL) / decay), j[:, None, None]
    return j, (j3 <= floor) | ((j3 - 1) ** 2 <= reach)


def _gauss_terms(r: int, M: int, alpha_j: int, h, k,
                 d: np.ndarray) -> np.ndarray:
    """T(d) = e(r d/(2 M k)) G(2 M alpha_j h, 2 r alpha_j h + d; k) for an
    integer array d that broadcasts against h and k, with the phase reduced
    exactly in integers; ``arith.gauss_sum_table`` of each distinct
    (2 M alpha_j h mod k, k) is built once and gathered."""
    a = 2 * M * alpha_j * h % k
    span = np.max(k) + 1
    keys, inv = np.unique(k * span + a, return_inverse=True)
    kk, aa = np.divmod(keys, span)
    table = np.concatenate(list(map(gauss_sum_table, aa.tolist(), kk.tolist())))
    first = (np.cumsum(kk) - kk)[inv].reshape(np.shape(a))
    return (_unit_phase(r * d, 2 * M * k)
            * table[first + (2 * r * alpha_j * h + d) % k])


def _gauss_pair(r: int, M: int, alpha_j: int, h, k, d: np.ndarray,
                sign: int) -> np.ndarray:
    """T(d) + sign T(-d) (``_gauss_terms``) for a 1-D integer array d."""
    t = _gauss_terms(r, M, alpha_j, h, k, np.concatenate([d, -d]))
    return t[..., :len(d)] + sign * t[..., len(d):]


def _gauss_factor(r: int, M: int, alpha_j: int, h, k, z,
                  in_J: bool, nu_max: int) -> np.ndarray:
    """F(nu) = g(nu) [T(nu) + T(-nu)] on J and g(nu) [T(nu) - T(-nu)] off J,
    with g(nu) = exp(-pi nu^2/(4 M k alpha_j z)), for nu = 0..nu_max on the
    first axis and z's shape after it; off J the nu = 0 entry is
    ``_window_entry``.  One coordinate of the expanded arc integrand, which
    the nu-decomposition multiplies across coordinates."""
    shape, h, k, z = _arc_rows(h, k, z)
    coef = _gauss_pair(r, M, alpha_j, h, k, np.arange(nu_max + 1),
                       1 if in_J else -1).T[..., None]
    g = _gaussian_walk(-np.pi / (4 * M * alpha_j * k * z), 0, 1, nu_max + 1)
    f = np.array([c * gj for c, gj in zip(coef, g)])
    if not in_J:
        f[0] = _window_entry(r, M, alpha_j, h, k, z)
    return f.reshape((nu_max + 1,) + shape)


def _fourier_series(dT: np.ndarray, M: int, alpha_j: int, k: np.ndarray,
                    z: np.ndarray) -> np.ndarray:
    """sum_{m>=1} D(m) exp(-pi alpha_j z m^2/(M k)) at the rows z of the
    column k (``_arc_rows``), D(m) = sum_{0<l<Mk} dT[l] sin(2 pi m l/L) =
    (i/2) FFT(dT)[m] over l < L = 2Mk, one FFT per distinct k; each row of
    dT, over l < W >= L, is odd mod its own L: dT[-l mod L] = -dT[l]."""
    y = np.pi * alpha_j / (M * k) * z
    m, keep = _series_terms(y, 1, 1)
    coef = np.empty(keep.shape, dtype=complex)
    for kk in np.unique(k).tolist():
        rows = k[:, 0] == kk
        D = 0.5j * np.fft.fft(dT[rows, :2 * M * kk])
        coef[:, rows, 0] = D[:, m % (2 * M * kk)].T
    return _gaussian_sum(coef * keep, -y, 1, 1)


def _window_sum(dT: np.ndarray, M: int, alpha_j: int, k: np.ndarray,
                z: np.ndarray) -> np.ndarray:
    """(2i/pi) sum over l = 1..Mk-1 of dT[l] S_l, where S_l is the nu-sum of
    principal-value integrals at the arguments l + L nu (L = 2Mk), at the
    rows z of the column k, dT as for ``_fourier_series``.

    Summed over mu = l (mod L), the kernel 1/(x - mu) of the principal
    values is (pi/L) cot(pi (x - l)/L), whose principal value is the sine
    series 2 sum_{m>=1} sin(2 pi m (x - l)/L); against the weight
    exp(-w x^2), w = pi/(4 M k alpha_j z), that gives

        S_l = -(2 pi/L) sqrt(pi/w) sum_{m>=1} sin(2 pi m l/L)
                  exp(-pi alpha_j z m^2/(M k))
              + pi i sum_nu sgn(l + L nu) exp(-w (l + L nu)^2).

    Lemma 5.8's ``cot_main_term`` is the limit of the first sum as z -> 0.
    The first is ``_fourier_series``; the second, over mu = |l + L nu| >= 1,
    has the coefficients dT[mu mod L] (dT[0] = dT[Mk] = 0).
    """
    fourier = _fourier_series(dT, M, alpha_j, k, z)
    w = np.pi / (4 * M * alpha_j * k * z)
    mu, keep = _series_terms(w, 1, 1)
    coef = np.take_along_axis(dT, mu % (2 * M * k), axis=1).T[..., None]
    residues = _gaussian_sum(coef * keep, -w, 1, 1)
    # (2i/pi) (-(2 pi/L) sqrt(pi/w)) = -(4i/(Mk)) sqrt(M k alpha_j z) and
    # (2i/pi) (pi i) = -2
    return ((-4j / (M * k)) * np.sqrt(M * alpha_j * k * z) * fourier
            - 2 * residues)


def _window_entry(r: int, M: int, alpha_j: int, h, k, z) -> np.ndarray:
    """The off-J nu = 0 entry of the factor: 2 (i/pi) sum_l T(l) S_l over
    the window l in [1-Mk, -1] u [1, Mk], where S_l is the nu-sum of
    principal-value integrals (the factor 2 is the eps-sum at nu = 0).

    T is periodic mod L = 2Mk and S_l odd in l, so S_{-l} = -S_l and S_Mk
    = 0 (its arguments Mk (2 Z + 1) are symmetric about 0): the window sum
    is ``_window_sum`` of the odd table T(l) - T(-l), l below the largest L.
    """
    shape, h, k, z = _arc_rows(h, k, z)
    dT = _gauss_pair(r, M, alpha_j, h, k, np.arange(2 * M * np.max(k)), -1)
    return _window_sum(dT, M, alpha_j, k, z).reshape(shape)


def _transformed_sum(r: int, M: int, alpha_j: int, h, k, z, in_J: bool):
    """One factor of the transformed route, one Gaussian series, each row to
    its own tail; a complex z gives a complex, an array of z (``_arc_rows``)
    an array of its shape.  On J: e(alpha_j h r^2/(2Mk)) / (2 sqrt(M k
    alpha_j z)) times the nu-sum of ``_gauss_factor`` (nu = 0 halved).  Off
    J that nu-sum, of T(nu) - T(-nu) = dT[nu mod 2Mk], cancels the residue
    series of half ``_window_entry`` identically, and the factor is
    e(alpha_j h r^2/(2Mk)) (-i/(Mk)) times ``_fourier_series`` of dT."""
    shape, h, k, z = _arc_rows(h, k, z)
    if (np.gcd(h, k) != 1).any():
        raise ValueError(f"need gcd(h,k)=1, got h={h.ravel()}, k={k.ravel()}")
    phase = _unit_phase(alpha_j * h * r * r, 2 * M * k)
    if in_J:
        w = np.pi / (4 * M * alpha_j * k * z)
        nus, keep = _series_terms(w, 9, 0)
        coef = _gauss_pair(r, M, alpha_j, h, k, nus, 1).T[..., None]
        coef[0] /= 2
        total = _gaussian_sum(coef * keep, -w, 0, 1)
        out = phase / (2 * np.sqrt(M * alpha_j * k * z)) * total
    else:
        dT = _gauss_pair(r, M, alpha_j, h, k, np.arange(2 * M * np.max(k)), -1)
        out = phase * (-1j / (M * k)) * _fourier_series(dT, M, alpha_j, k, z)
    return complex(out[0, 0]) if shape == () else out.reshape(shape)


def theta_eval_transformed(r: int, M: int, alpha_j: int, h, k, z):
    """Gauss-sum expansion of the two-sided theta sum for the class r mod 2M,
    at argument 2 alpha_j (h + i z)/k; z is a complex (the value is a
    complex) or an array of them, h and k ints or columns (``_arc_rows``).
    It matches theta_eval_direct_arc(r, 2M, 2*alpha_j, h, k, z)."""
    return _transformed_sum(r, M, alpha_j, h, k, z, True)


def false_theta_eval_transformed(r: int, M: int, alpha_j: int, h, k, z):
    """Gauss-sum expansion of the sign-weighted theta sum for the class
    r mod 2M, at argument 2 alpha_j (h + i z)/k; z, h and k as for the
    two-sided sum.

    The sign-weighted sum is not modular: its expansion is one Fourier
    series in z, with the sine transform of T(l) - T(-l) over the
    principal-value window as coefficients (``_transformed_sum``); the
    Gauss-sum second argument is 2 r alpha_j h + l, matching the
    quadratic-completion bookkeeping of the full product expansion.
    """
    return _transformed_sum(r, M, alpha_j, h, k, z, False)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules and the integrals on them
# ---------------------------------------------------------------------------

def _legendre_pair(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x) and P_{m-1}(x) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for j in range(2, m + 1):
        prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
    return cur, prev


@lru_cache(maxsize=None)
def _legendre(m: int) -> np.ndarray:
    """Nodes and weights (rows) of the m-point Gauss-Legendre rule on [0, 1].

    The nodes are x = cos(theta), by Newton's method in theta on P_m from
    theta = pi (i - 1/4)/(m + 1/2), with dP_m/dtheta = m (x P_m - P_{m-1})/
    sin(theta); the weights are 2/(sin(theta) P_m'(x))^2 at the converged
    nodes, P_m' with its x P_m term, which keeps them accurate to the
    roundoff of the recurrence out to the ends of the interval."""
    theta = np.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5)
    step = np.ones(m)
    while np.max(np.abs(step)) >= 1e-13:
        x = np.cos(theta)
        p, p_prev = _legendre_pair(m, x)
        step = p * np.sin(theta) / (m * (x * p - p_prev))
        theta -= step
    x = np.cos(theta)
    p, p_prev = _legendre_pair(m, x)
    weights = 2 * (np.sin(theta) / (m * (x * p - p_prev))) ** 2
    rule = np.array([(x + 1) / 2, weights / 2])
    rule.flags.writeable = False
    return rule


# the rules of ``_gl_integral``: 16, 32, ..., 1024 nodes a piece
_GL_SIZES = tuple(16 << i for i in range(7))


def _gl_integral(f, points, tol: float) -> tuple[complex, float]:
    """The integral of f over [points[0], points[-1]] and its error
    estimate.  f maps a real array of nodes to the complex array of its
    values.  Each piece between consecutive points runs the rules of
    ``_GL_SIZES`` in turn until two agree to tol (absolutely, or relative
    to a value above 1) or the largest has run; the estimate is the sum
    over pieces of the last two rules' difference."""
    total, err = 0j, 0.0
    for a, b in zip(points, points[1:]):
        prev = None
        for m in _GL_SIZES:
            x, w = _legendre(m)
            val = complex((b - a) * (w * f(a + (b - a) * x)).sum())
            if prev is not None:
                diff = abs(val - prev)
                if diff <= tol * max(1.0, abs(val)):
                    break
            prev = val
        total += val
        err += diff
    return total, err


# ---------------------------------------------------------------------------
# the principal-value integral
# ---------------------------------------------------------------------------

def pv_integral(params: PVIntegralParams, tol: float = 1e-11) -> complex:
    """Principal-value Gaussian integral by the split route.

    Pieces: the half-residue sgn(mu) pi i exp(-pi mu^2 V); the middle integral
    of (g(x) - g(0))/x over [-delta, delta] with g(x) = exp(-pi (x+mu)^2 V)
    (smooth; the removable singularity is handled analytically); and the two
    half-line tails sgn(mu) [int_delta^inf exp(-pi (x+|mu|)^2 V)/x dx -
    int_delta^inf exp(-pi (x-|mu|)^2 V)/x dx], the second split at its peak
    x = |mu|.
    """
    mu = params.mu
    w = cmath.pi * params.gaussian_weight  # integrand exp(-w x^2)
    delta = params.delta if params.delta is not None else abs(mu) / 4.0
    sgn = 1 if mu > 0 else -1
    g0 = cmath.exp(-w * mu * mu)
    residue = sgn * cmath.pi * 1j * g0

    def middle(x: np.ndarray) -> np.ndarray:
        # (g(x) - g(0))/x with g(x) = exp(-w (x+mu)^2) = g(0) exp(u); the
        # expm1 form handles the cancellation near x = 0, the plain
        # difference avoids overflow of exp(u) elsewhere
        u = -w * x * (2 * mu + x)
        with np.errstate(over="ignore", invalid="ignore"):
            near = g0 * np.expm1(u)
        return np.where(np.abs(u) < 1.0, near, np.exp(-w * (x + mu) ** 2) - g0) / x

    mid, err_mid = _gl_integral(middle, (-delta, delta), tol)

    amu = abs(mu)
    reach = math.sqrt(50.0 / w.real)
    up_plus = max(2 * delta, reach)  # (x + |mu|)^2 >= 50/Re w beyond this
    up_minus = amu + reach
    t_plus, err_p = _gl_integral(lambda x: np.exp(-w * (x + amu) ** 2) / x,
                                 (delta, up_plus), tol)
    t_minus, err_m = _gl_integral(lambda x: np.exp(-w * (x - amu) ** 2) / x,
                                  (delta, amu, up_minus), tol)
    total_err = err_mid + err_p + err_m
    if total_err > 1e-6:
        raise QuadratureError(
            f"pv_integral quadrature error estimate {total_err:.2e} too large")
    return residue + mid + sgn * (t_plus - t_minus)


def pv_integral_direct(params: PVIntegralParams, tol: float = 1e-11) -> complex:
    """The second route: the principal value as the symmetric-excision
    integral int_0^T [g(mu + t) - g(mu - t)]/t dt, g(x) = exp(-pi V x^2),
    plus the same half-residue sgn(mu) pi i g(mu).  The integrand is smooth
    at t = 0 and peaks at t = |mu|, where the quadrature splits; past
    T = |mu| + sqrt(60/Re(pi V)) both g's are below exp(-60)."""
    mu = params.mu
    w = cmath.pi * params.gaussian_weight
    amu = abs(mu)

    def excised(t: np.ndarray) -> np.ndarray:
        return (np.exp(-w * (mu + t) ** 2) - np.exp(-w * (mu - t) ** 2)) / t

    pv, err = _gl_integral(excised, (0.0, amu, amu + math.sqrt(60.0 / w.real)), tol)
    if err > 1e-6:
        raise QuadratureError(
            f"pv_integral_direct quadrature error estimate {err:.2e} too large")
    sgn = 1 if mu > 0 else -1
    return pv + sgn * cmath.pi * 1j * cmath.exp(-w * mu * mu)


# ---------------------------------------------------------------------------
# the auxiliary half-line integral family
# ---------------------------------------------------------------------------

def _factorial_c(d: int) -> int:
    return math.factorial(d - 1) if d >= 1 else 1


def j_integral(d: int, sign: int, A: float, z: complex,
               tol: float = 1e-12) -> complex:
    """C_d (z/(2A|z|))^(d-1) int_{1/2}^inf x^(-d) exp(-A (|z|/z)(x + sign)^2) dx.

    sign is +1 or -1; A > 0; Re z > 0.  Evaluated by ``_gl_integral``, split
    at x = 1 (the peak for sign = -1), with a cutoff where the Gaussian
    envelope falls below exp(-50).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if A <= 0 or d < 0:
        raise ValueError(f"need A > 0 and d >= 0, got A={A}, d={d}")
    if z.real <= 0:
        raise ValueError(f"need Re z > 0, got {z}")
    B = A * abs(z) / z  # Re B = A Re(z)/|z| > 0
    reach = math.sqrt(50.0 / B.real)
    upper = max(2.0, reach + (1.0 if sign == -1 else 0.0))

    val, err = _gl_integral(lambda x: x ** (-d) * np.exp(-B * (x + sign) ** 2),
                            (0.5, 1.0, upper), tol)
    if err > 1e-7:
        raise QuadratureError(f"j_integral error estimate {err:.2e} too large")
    pref = _factorial_c(d) * (z / (2 * A * abs(z))) ** (d - 1)
    return pref * val


def j_trivial_bound(d: int, A: float, z: complex) -> float:
    """2 sqrt(pi) C_d A^(1/2-d) / sqrt(|z| Re(1/z)) -- an absolute bound."""
    return 2 * math.sqrt(math.pi) * _factorial_c(d) * A ** (0.5 - d) / math.sqrt(
        abs(z) * (1 / z).real)


def j_recursion_residual(d: int, sign: int, A: float, z: complex) -> float:
    """Residual of the integration-by-parts recursion linking the d-1, d, d+1
    members of the family; zero in exact arithmetic."""
    if d < 1:
        raise ValueError(f"recursion needs d >= 1, got {d}")
    B = A * abs(z) / z
    jd = j_integral(d, sign, A, z)
    jdp = j_integral(d + 1, sign, A, z)
    jdm = j_integral(d - 1, sign, A, z)
    boundary = -math.factorial(d - 1) * (z / (A * abs(z))) ** d * cmath.exp(
        -B * (0.5 + sign) ** 2)
    rhs = -sign * (boundary + jdp + max(d - 1, 1) * (z / (2 * A * abs(z))) * jdm)
    scale = max(abs(jd), abs(jdp), abs(jdm), 1e-300)
    return abs(jd - rhs) / scale


# ---------------------------------------------------------------------------
# summing the principal-value integrals over the shifted lattice
# ---------------------------------------------------------------------------

def lattice_window(d: int) -> list[int]:
    """The index window [1-d, -1] union [1, d]."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return list(range(1 - d, 0)) + list(range(1, d + 1))


def nu_sum(ell: int, M: int, alpha_j: int, k: int, z: complex) -> complex:
    """S_l, the sum over nu in Z of the principal-value integrals at the
    arguments l + 2 M k nu, for a window index l in [1-Mk, -1] u [1, Mk] at
    a complex z.

    It is ``_window_sum`` of the odd table that is 1 at l and -1 at -l
    (mod 2Mk), times pi/(2i): the route the transformed evaluators run.  At
    l = Mk the arguments Mk (2 Z + 1) are symmetric about 0, and S_l is 0.
    """
    if ell == 0 or not 1 - M * k <= ell <= M * k:
        raise ValueError("window indices must lie in [1-Mk, -1] or [1, Mk]")
    table = np.zeros((1, 2 * M * k), dtype=complex)
    table[0, ell] += 1
    table[0, -ell] -= 1  # the table is 0 at l = Mk
    S = _window_sum(table, M, alpha_j, np.array([[k]]), np.full((1, 1), complex(z)))
    return complex(S[0, 0] * (np.pi / 2j))


def cot_main_term(ell: int, M: int, alpha_j: int, k: int, z: complex) -> complex:
    """-pi sqrt(alpha_j z/(M k)) cot(pi l/(2 M k)): the leading behavior of
    the nu-sum; finite for every admissible window index."""
    x = math.pi * ell / (2 * M * k)
    return -math.pi * cmath.sqrt(alpha_j * z / (M * k)) * (math.cos(x) / math.sin(x))
