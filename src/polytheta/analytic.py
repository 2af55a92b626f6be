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

The theta sums are evaluated in two ways, each by one kernel:

* direct summation runs through ``_lattice_sum``, one walk that gives the
  two-sided and the sign-weighted sum together (the two ``*_direct_arc``
  evaluators each pick one; the contour's direct evaluator takes both for
  one alpha_j).  It takes a scalar z (as a one-node array) or an array of
  them (the contour passes a level's arcs as rows of rule nodes, with h
  and k as integer columns), takes one tail cutoff up front from the
  smallest decay, reduces the phases of the walk exactly in integers (a
  terms x arcs table), and advances q^(nu^2) by its second-difference
  recurrence, two whole-array multiplies a term, in O(entries) memory;
* the Gauss-sum transformation runs through ``_gauss_factor``, the per-nu
  factor g(nu) [T(nu) +- T(-nu)] with T(d) = e(r d/(2Mk)) G(...; k).  The
  transformed evaluators sum it over nu; the circle-method nu-decomposition
  (``circle.i_nu_contributions``) multiplies it across the four coordinates.
  Off J its nu = 0 entry is the principal-value window sum
  ``_window_entry``, in the Fourier/residue form of ``_window_sum``: lemma
  5.8's cotangent completed to an exact sine series, so the window is two
  Gaussian series mod 2Mk (``_gauss_series``), with no Faddeeva function.
  Like the direct route it takes a scalar z or the array of one rule's
  nodes (nodes on the trailing axis of every table): T and the Fourier
  table are built once per call, every cutoff is taken from the node of
  smallest decay, and the exponentials run in blocks of at most
  ``_PV_CHUNK`` entries.

Three routes to the principal-value integral itself are provided:

* ``pv_integral``         -- the split form: residue term + a smooth middle
                             integral + two half-line tails (quadrature);
* ``pv_integral_direct``  -- symmetric-excision principal-value quadrature of
                             the defining integral (the independent oracle);
* ``pv_closed_form_batch`` -- Faddeeva-function closed form over an array
                             of mu (used by the nu-sums).

The first two are kept deliberately independent; tests require them to agree.
``pv_closed_form_batch`` and the nu-sums built on it (``nu_sum_batch``, with
digamma and Hurwitz-zeta tails) are the oracle of the window and the
lemma 5.8 check; the evaluators do not call them.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arith import gauss_sum_table

__all__ = [
    "PVIntegralParams",
    "QuadratureError",
    "complex_quad",
    "theta_eval_direct_arc",
    "false_theta_eval_direct_arc",
    "theta_eval_transformed",
    "false_theta_eval_transformed",
    "pv_integral",
    "pv_integral_direct",
    "pv_closed_form_batch",
    "j_integral",
    "j_trivial_bound",
    "j_recursion_residual",
    "lattice_window",
    "nu_sum",
    "nu_sum_batch",
    "cot_main_term",
]


class QuadratureError(RuntimeError):
    """A quadrature failed to reach the requested accuracy."""


def resolved_relative_error(a: complex, b: complex,
                            zero_floor: float = 1e-5) -> float:
    """|a - b| relative to max(|a|, |b|), floored for numerical zeros.

    The theta-type sums vanish identically at some cusps; both evaluation
    routes then cancel O(1) terms down to roundoff and the ratio of two
    numerical zeros is meaningless.  Values below the floor are compared
    absolutely against the floor instead (genuine values on the verification
    grids sit orders of magnitude above it).
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


def complex_quad(f, a: float, b: float, *, points: Sequence[float] | None = None,
                 tol: float = 1e-11) -> tuple[complex, float]:
    """Adaptive quadrature of a complex integrand; returns (value, error est)."""
    from scipy import integrate

    kw = {"limit": 200, "epsabs": tol, "epsrel": tol, "full_output": 1}
    if points is not None:
        pts = [p for p in points if a < p < b]
        if pts:
            kw["points"] = pts
    res_re = integrate.quad(lambda x: f(x).real, a, b, **kw)
    res_im = integrate.quad(lambda x: f(x).imag, a, b, **kw)
    return res_re[0] + 1j * res_im[0], res_re[1] + res_im[1]


def _unit_phase(num, den):
    """exp(2 pi i num/den) with the angle reduced exactly in integers; num
    and den are ints (a complex is returned) or integer arrays that
    broadcast (an array).  The angle is one correctly rounded division, so
    both give cmath.exp's value bit for bit."""
    return np.exp(1j * (2 * np.pi * (num % den) / den))


# ---------------------------------------------------------------------------
# direct summation of the defining series
# ---------------------------------------------------------------------------

def _gaussian_cutoff(decay: float, tol: float, floor: int) -> int:
    """The first integer nu >= floor at which exp(-decay nu^2) is below tol;
    past 10^7 (or with no decay) the sum is refused before any term."""
    reach = max(math.log(1 / tol), 0.0) / decay if decay > 0 else math.inf
    if reach >= 1e14:
        raise QuadratureError("Gaussian tail cutoff past 10^7 terms (Re z too small?)")
    return max(floor, math.isqrt(int(reach)) + 1)


def _lattice_sum(r: int, M: int, scale: int, h, k, z: np.ndarray,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The two-sided sum and the sign-weighted sum over nu = r mod M of
    sgn(nu)^s e(scale nu^2 h/(2 M k)) exp(-2 pi scale nu^2 z/(2 M k)), s = 0
    and 1, i.e. the exponents nu^2/(2M) at tau = (h + i z)/k with the
    rational part of every phase reduced exactly in integers, at every entry
    of a complex array z (Re z > 0, checked) of one or more axes; two arrays
    of z's shape.  h and k are ints or integer arrays that broadcast against
    z: a level of the contour passes one arc per row, h and k as (A, 1)
    columns against the (A, 2m) nodes.

    One walk serves both sums: they share every term and differ only in
    sgn(nu).  It goes outward from the class in both directions at once,
    |nu| = a + M j for j = 0, 1, ..., with a = r (nu > 0) and a = M - r
    (nu < 0); for r = 0 the nu = 0 term, 1, is taken apart and the upward
    direction starts at a = M.  Each direction runs up to and including the
    first |nu| >= cut, where cut > M is the first nu whose damping is below
    tol at the smallest decay over all entries (so every entry gets at
    least its own tail); the cutoff is taken before any term is summed.
    One cutoff and one walk serve every row: on the order-N arcs
    z = k (1/N^2 - i Phi), so the exponent is -pi scale nu^2 (1/N^2 - i Phi)/M
    and its decay pi scale/(M N^2) is the same on every arc; only the exact
    phase depends on the arc, as a (terms x arcs) table.

    q^(nu^2) = exp(nu^2 x), x = -2 pi scale z/(2 M k), follows its
    second-difference recurrence along each direction: three exponentials
    (the first term, the first ratio exp((2 a M + M^2) x) and the lift
    exp(2 M^2 x)) seed it, and each further term is two whole-array
    multiplies, so the result of every entry does not depend on how many
    rows or nodes share the call, and memory is O(entries).  Each direction
    has its own accumulator in walk order; the sums are then up + down and
    up - down.  The sign-weighted sums of the classes r and -r are exact
    negatives of each other, and at r = M/2 the sign-weighted sum is exactly
    0, because the two directions run the same arithmetic.
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
    term = np.exp((a * a) * x)
    ratio = np.exp((2 * M * a + M * M) * x)
    lift = np.exp((2 * M * M) * x)
    acc = np.zeros(term.shape, dtype=complex)
    tmp = np.empty_like(term)
    for i, ph in enumerate(phase):
        if i:
            np.multiply(term, ratio, out=term)
            np.multiply(ratio, lift, out=ratio)
        np.multiply(term, ph, out=tmp)
        np.add(acc, tmp, out=acc)
    up, down = acc
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

def _gauss_terms(r: int, M: int, alpha_j: int, h: int, k: int,
                 d: np.ndarray) -> np.ndarray:
    """T(d) = e(r d/(2 M k)) G(2 M alpha_j h, 2 r alpha_j h + d; k) for an
    integer array d, with the phase reduced exactly in integers."""
    gtab = gauss_sum_table((2 * M * alpha_j * h) % k, k)
    b0 = 2 * r * alpha_j * h
    den = 2 * M * k
    return np.exp((2j * np.pi / den) * ((r * d) % den)) * gtab[(b0 + d) % k]


def _by_node(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """v with one trailing unit axis per axis of z, so that it broadcasts
    against z (the nodes go on the trailing axis)."""
    return v.reshape(v.shape + (1,) * z.ndim)


def _gauss_factor(r: int, M: int, alpha_j: int, h: int, k: int, z,
                  in_J: bool, nu_max: int) -> np.ndarray:
    """F(nu) = g(nu) [T(nu) + T(-nu)] on J and g(nu) [T(nu) - T(-nu)] off J,
    with g(nu) = exp(-pi nu^2/(4 M k alpha_j z)), for nu = 0..nu_max; off J
    the nu = 0 entry is ``_window_entry``.  z is a complex or a 1-D array of
    them; the result has nu on its first axis and z's shape after it.

    One coordinate of the expanded arc integrand: the transformed evaluators
    sum it over nu (halving nu = 0), and the nu-decomposition multiplies it
    across coordinates.
    """
    z = np.asarray(z, dtype=complex)
    nus = np.arange(nu_max + 1)
    t = _gauss_terms(r, M, alpha_j, h, k, np.arange(-nu_max, nu_max + 1))
    plus, minus = t[nu_max:], t[nu_max::-1]
    g = np.exp(_by_node(nus * nus, z) * (-np.pi / (4 * M * k * alpha_j * z)))
    f = _by_node(plus + minus if in_J else plus - minus, z) * g
    if not in_J:
        f[0] = _window_entry(r, M, alpha_j, h, k, z)
    return f


# entries per array block of the node-wise series: (term, node) per
# exponential block of ``_gauss_series``, and (window index, shifted pair,
# node) per Faddeeva call of ``nu_sum_batch``; the block is cut along terms or
# nodes to at most this many entries (in ``nu_sum_batch``, one node at a time
# where the other axes alone are larger)
_PV_CHUNK = 8192

# relative size of the first dropped term of every Gaussian series of the
# transformed route (its nu-sum and both series of the window)
_GAUSS_TAIL = 1e-18


def _gauss_series(coef: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum over m >= 1 of coef[m mod L] exp(-y m^2), L = len(coef), at every
    entry of the complex array y (Re y > 0), through the first m whose
    damping is below ``_GAUSS_TAIL`` at the smallest Re y.  The nodes go in
    slices of at most ``_PV_CHUNK`` and the terms in chunks, so that every
    exponential block (terms x nodes) holds at most ``_PV_CHUNK`` entries."""
    cut = _gaussian_cutoff(float(np.min(y.real)), _GAUSS_TAIL, 1)
    nodes = y.reshape(-1)
    total = np.zeros(nodes.shape, dtype=complex)
    step = min(nodes.size, _PV_CHUNK)
    per = _PV_CHUNK // step
    for j in range(0, nodes.size, step):
        part = nodes[j:j + step]
        for i in range(1, cut + 1, per):
            m = np.arange(i, min(i + per, cut + 1))
            block = (-(m * m).astype(float))[:, None] * part
            np.exp(block, out=block)
            block *= coef[m % len(coef), None]
            total[j:j + step] += block.sum(axis=0)
    return total.reshape(y.shape)


def _window_sum(dT: np.ndarray, M: int, alpha_j: int, k: int,
                z: np.ndarray) -> np.ndarray:
    """(2i/pi) sum over l = 1..Mk-1 of dT[l] S_l, where S_l is the nu-sum of
    principal-value integrals at the arguments l + L nu (L = 2Mk) and dT a
    length-L table that is odd mod L (dT[-l mod L] = -dT[l]); an array of
    z's shape.

    Summed over mu = l (mod L), the kernel 1/(x - mu) of the principal
    values is (pi/L) cot(pi (x - l)/L), whose principal value is the sine
    series 2 sum_{m>=1} sin(2 pi m (x - l)/L); against the weight
    exp(-w x^2), w = pi/(4 M k alpha_j z), that gives

        S_l = -(2 pi/L) sqrt(pi/w) sum_{m>=1} sin(2 pi m l/L)
                  exp(-pi alpha_j z m^2/(M k))
              + pi i sum_nu sgn(l + L nu) exp(-w (l + L nu)^2).

    Lemma 5.8's ``cot_main_term`` is the limit of the first sum as z -> 0.
    Both sums are Gaussian series mod L: the first with the sine table
    D(m) = sum_l dT[l] sin(2 pi m l/L), each angle reduced exactly in
    integers, and the second, over mu = |l + L nu| >= 1, with dT[mu mod L]
    itself (dT is odd, and dT[0] = dT[Mk] = 0).  No Faddeeva function and
    no truncated sum over shifted pairs: every series runs to its Gaussian
    tail (``_gauss_series``).  The m-series decays like
    exp(-pi alpha_j m^2/(M N^2)) on every order-N arc, the residue series
    at least like exp(-pi mu^2/(8 M alpha_j)).
    """
    L = 2 * M * k
    ells = np.arange(1, M * k)
    j = np.arange(L)
    sines = np.sin(2 * np.pi * j / L)[(j[:, None] * ells) % L]
    # np.einsum (not @) runs its own loops and maps no BLAS buffers
    D = np.einsum("jl,l->j", sines, dT[ells])
    fourier = _gauss_series(D, np.pi * alpha_j / (M * k) * z)
    residues = _gauss_series(dT, np.pi / (4 * M * k * alpha_j * z))
    # (2i/pi) (-(2 pi/L) sqrt(pi/w)) = -(4i/(Mk)) sqrt(M k alpha_j z) and
    # (2i/pi) (pi i) = -2
    return ((-4j / (M * k)) * np.sqrt(M * k * alpha_j * z) * fourier
            - 2 * residues)


def _window_entry(r: int, M: int, alpha_j: int, h: int, k: int,
                  z) -> np.ndarray:
    """The off-J nu = 0 entry of the factor: 2 (i/pi) sum_l T(l) S_l over
    the window l in [1-Mk, -1] u [1, Mk], where S_l is the nu-sum of
    principal-value integrals (the factor 2 is the eps-sum at nu = 0); an
    array of z's shape.

    T is periodic mod L = 2Mk and S_l odd in l, so S_{-l} = -S_l and S_Mk
    = 0 (its arguments Mk (2 Z + 1) are symmetric about 0): the window sum
    is ``_window_sum`` of the odd table T(l) - T(-l), l = 0..L-1.
    """
    z = np.asarray(z, dtype=complex)
    L = 2 * M * k
    t = _gauss_terms(r, M, alpha_j, h, k, np.arange(L))
    return _window_sum(t - t[-np.arange(L) % L], M, alpha_j, k, z)


def _transformed_sum(r: int, M: int, alpha_j: int, h: int, k: int, z,
                     in_J: bool):
    """The prefactor e(alpha_j h r^2/(2Mk)) / (2 sqrt(M k alpha_j z)) times
    the nu-sum of ``_gauss_factor`` (nu = 0 halved), cut where the Gaussian
    envelope is below ``_GAUSS_TAIL`` at the node of smallest decay (each
    further term is below that share of the envelope at every node); off J
    the nu = 0 entry is ``_window_entry``.  A complex z gives a complex, a
    1-D array of z an array of the same shape."""
    if math.gcd(h, k) != 1:
        raise ValueError(f"need gcd(h,k)=1, got h={h}, k={k}")
    z = np.asarray(z, dtype=complex)
    pref = _unit_phase(alpha_j * h * r * r, 2 * M * k) / (
        2 * np.sqrt(M * k * alpha_j * z))
    # the first nu > 8 where |g(nu)| = exp(-Re(pi/(4 M k alpha_j z)) nu^2)
    # is below the tail share at every node
    decay = float(np.min((np.pi / (4 * M * k * alpha_j * z)).real))
    f = _gauss_factor(r, M, alpha_j, h, k, z, in_J,
                      _gaussian_cutoff(decay, _GAUSS_TAIL, 9))
    out = pref * (f[0] / 2 + f[1:].sum(axis=0))
    return complex(out) if out.ndim == 0 else out


def theta_eval_transformed(r: int, M: int, alpha_j: int, h: int, k: int, z):
    """Gauss-sum expansion of the two-sided theta sum for the class r mod 2M,
    at argument 2 alpha_j (h + i z)/k; z is a complex (the value is a
    complex) or a 1-D array of them (one value each).

    Matches theta_eval_direct_arc(r, 2M, 2*alpha_j, h, k, z) up to the Gaussian
    tail cutoff; cost is O(k) Gauss-sum table setup plus a handful of terms.
    """
    return _transformed_sum(r, M, alpha_j, h, k, z, True)


def false_theta_eval_transformed(r: int, M: int, alpha_j: int, h: int, k: int,
                                 z, nu_terms: int = 24):
    """Gauss-sum expansion of the sign-weighted theta sum for the class
    r mod 2M, at argument 2 alpha_j (h + i z)/k; z as for the two-sided sum.

    The sign-weighted sum is not modular; the expansion carries, besides the
    theta-like Gauss-sum part, a correction assembled from principal-value
    integrals (one nu-sum per window index l), which takes the place of the
    nu = 0 term (``_window_entry``).  The Gauss-sum second argument is
    2 r alpha_j h + l, matching the quadratic-completion bookkeeping of the
    full product expansion.

    ``nu_terms`` is ignored: the window has no shifted-pair truncation.  The
    argument is kept for existing callers and will be deleted (ROADMAP
    item 8).
    """
    return _transformed_sum(r, M, alpha_j, h, k, z, False)


# ---------------------------------------------------------------------------
# the principal-value integral
# ---------------------------------------------------------------------------

def _expm1_over(u: complex) -> complex:
    """(exp(u) - 1)/u, stable near u = 0."""
    if abs(u) < 1e-5:
        return 1 + u / 2 + u * u / 6 + u * u * u / 24
    return (cmath.exp(u) - 1) / u


def pv_integral(params: PVIntegralParams, tol: float = 1e-11) -> complex:
    """Principal-value Gaussian integral by the split route.

    Pieces: the half-residue sgn(mu) pi i exp(-pi mu^2 V); the middle integral
    of (g(x) - g(0))/x over [-delta, delta] with g(x) = exp(-pi (x+mu)^2 V)
    (smooth; the removable singularity is handled analytically); and the two
    half-line tails sgn(mu) [int_delta^inf exp(-pi (x+|mu|)^2 V)/x dx -
    int_delta^inf exp(-pi (x-|mu|)^2 V)/x dx].
    """
    mu, z = params.mu, params.z
    w = cmath.pi * params.gaussian_weight  # integrand exp(-w x^2)
    delta = params.delta if params.delta is not None else abs(mu) / 4.0
    if not (0 < delta < abs(mu) / 2):
        raise ValueError(f"need 0 < delta < |mu|/2, got delta={delta}")
    sgn = 1 if mu > 0 else -1
    g0 = cmath.exp(-w * mu * mu)
    residue = sgn * cmath.pi * 1j * g0

    def middle(x: float) -> complex:
        # (g(x) - g(0))/x with g(x) = exp(-w (x+mu)^2); the factored expm1
        # form handles the cancellation near x = 0, the plain difference
        # avoids overflow of exp(u) elsewhere
        u = -w * x * (2 * mu + x)
        if abs(u) < 1.0:
            return g0 * (-w) * (2 * mu + x) * _expm1_over(u)
        return (cmath.exp(-w * (x + mu) ** 2) - g0) / x

    mid, err_mid = complex_quad(middle, -delta, delta, tol=tol)

    amu = abs(mu)
    reach = math.sqrt(50.0 / w.real)

    def tail_plus(x: float) -> complex:
        return cmath.exp(-w * (x + amu) ** 2) / x

    def tail_minus(x: float) -> complex:
        return cmath.exp(-w * (x - amu) ** 2) / x

    up_plus = max(2 * delta, reach)  # (x + |mu|)^2 >= 50/Re w beyond this
    up_minus = amu + reach
    t_plus, err_p = complex_quad(tail_plus, delta, up_plus, tol=tol)
    t_minus, err_m = complex_quad(tail_minus, delta, up_minus,
                                  points=[amu], tol=tol)
    total_err = err_mid + err_p + err_m
    if total_err > 1e-6:
        raise QuadratureError(
            f"pv_integral quadrature error estimate {total_err:.2e} too large")
    return residue + mid + sgn * (t_plus - t_minus)


def pv_integral_direct(params: PVIntegralParams, tol: float = 1e-11) -> complex:
    """Independent oracle: symmetric-excision principal-value quadrature of
    the defining integral, plus the same half-residue term."""
    from scipy import integrate

    mu, z = params.mu, params.z
    w = cmath.pi * params.gaussian_weight
    L = max(math.sqrt(60.0 / w.real), 3.0 * abs(mu))
    kw = {"limit": 400, "epsabs": tol, "epsrel": tol,
          "weight": "cauchy", "wvar": float(mu), "full_output": 1}
    pv_re = integrate.quad(lambda x: cmath.exp(-w * x * x).real, -L, L, **kw)
    pv_im = integrate.quad(lambda x: cmath.exp(-w * x * x).imag, -L, L, **kw)
    pv = pv_re[0] + 1j * pv_im[0]
    sgn = 1 if mu > 0 else -1
    return pv + sgn * cmath.pi * 1j * cmath.exp(-w * mu * mu)


def pv_closed_form_batch(mus: np.ndarray, M: int, alpha_j: int, k: int,
                         z) -> np.ndarray:
    """Faddeeva-function closed form of the principal-value integral, for
    each entry of an array of nonzero integers mu, at a complex z (an array
    of mus' shape) or a 1-D array of z (mus' shape, then z's).

    With a = mu sqrt(pi V): pi i [(sgn(mu) + 1) exp(-a^2) - wofz(-a)],
    which is pi i sgn(mu) wofz(|mu| sqrt(pi V)) by wofz(-a) = 2 exp(-a^2) -
    wofz(a); one Faddeeva call per entry and no exponential.
    Odd in mu; asymptotically -2 sqrt(M k alpha_j z)/mu for large |mu|.
    """
    from scipy.special import wofz

    mus = np.asarray(mus)
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(np.pi / (4.0 * M * k * alpha_j * z))
    return _by_node(np.pi * 1j * np.sign(mus), z) * wofz(_by_node(np.abs(mus), z) * s)


# ---------------------------------------------------------------------------
# the auxiliary half-line integral family
# ---------------------------------------------------------------------------

def _factorial_c(d: int) -> int:
    return math.factorial(d - 1) if d >= 1 else 1


def j_integral(d: int, sign: int, A: float, z: complex,
               tol: float = 1e-12) -> complex:
    """C_d (z/(2A|z|))^(d-1) int_{1/2}^inf x^(-d) exp(-A (|z|/z)(x + sign)^2) dx.

    sign is +1 or -1; A > 0; Re z > 0.  Evaluated by adaptive quadrature with
    a cutoff where the Gaussian envelope falls below exp(-50).
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

    def f(x: float) -> complex:
        return x ** (-d) * cmath.exp(-B * (x + sign) ** 2)

    val, err = complex_quad(f, 0.5, upper, points=[1.0] if sign == -1 else None,
                            tol=tol)
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


def nu_sum_batch(ells: Sequence[int], M: int, alpha_j: int, k: int, z,
                 terms: int = 24) -> np.ndarray:
    """For each l in ells: the nu=0-halved sum over nu >= 0 and both signs of
    the principal-value integrals at arguments l +- 2 M k nu, at a complex z
    (an array over ells) or a 1-D array of z (ells on the first axis, z's
    shape after it).

    The first ``terms`` shifted pairs are evaluated with the closed form; the
    remainder is summed analytically from the 1/mu, 1/mu^3 and 1/mu^5
    asymptotics (digamma and Hurwitz-zeta tails).  The residual error decays like
    terms^(-4).
    """
    from scipy.special import digamma, zeta

    ells = np.asarray(list(ells), dtype=np.int64)
    if np.any(ells == 0) or np.any(np.abs(ells) > M * k) or np.any(ells < 1 - M * k):
        raise ValueError("window indices must lie in [1-Mk, -1] or [1, Mk]")
    z = np.asarray(z, dtype=complex)
    step = 2 * M * k
    nu = np.arange(1, terms + 1, dtype=np.int64)
    # arguments: l itself, then the +- pairs for nu = 1..terms
    mus = np.concatenate([
        ells[:, None],
        ells[:, None] + step * nu[None, :],
        ells[:, None] - step * nu[None, :],
    ], axis=1).astype(np.float64)
    nodes = z.reshape(-1)
    per = max(1, _PV_CHUNK // max(mus.size, 1))
    partial = np.concatenate(
        [pv_closed_form_batch(mus, M, alpha_j, k, nodes[i:i + per]).sum(axis=1)
         for i in range(0, nodes.size, per)], axis=1).reshape(ells.shape + z.shape)
    # analytic tails from the large-mu expansion: mainC/mu + cubicC/mu^3 +
    # quinticC/mu^5 + O(mu^-7); paired tails reduce to digamma and
    # Hurwitz-zeta differences
    Vc = 1.0 / (4.0 * M * k * alpha_j * z)
    sqVc = np.sqrt(Vc)
    mainC = -1.0 / sqVc
    cubicC = -1.0 / (2.0 * np.pi * Vc * sqVc)
    quinticC = -3.0 / (4.0 * np.pi**2 * Vc * Vc * sqVc)
    x = ells / step
    V1 = terms + 1
    tail = mainC / step * _by_node(digamma(V1 - x) - digamma(V1 + x), z)
    tail += cubicC / step**3 * _by_node(zeta(3, V1 + x) - zeta(3, V1 - x), z)
    tail += quinticC / step**5 * _by_node(zeta(5, V1 + x) - zeta(5, V1 - x), z)
    return partial + tail


def nu_sum(ell: int, M: int, alpha_j: int, k: int, z: complex,
           terms: int = 24) -> complex:
    """Scalar wrapper around nu_sum_batch for a single window index."""
    return complex(nu_sum_batch([ell], M, alpha_j, k, z, terms=terms)[0])


def cot_main_term(ell: int, M: int, alpha_j: int, k: int, z: complex) -> complex:
    """-pi sqrt(alpha_j z/(M k)) cot(pi l/(2 M k)): the leading behavior of
    the nu-sum; finite for every admissible window index."""
    x = math.pi * ell / (2 * M * k)
    return -math.pi * cmath.sqrt(alpha_j * z / (M * k)) * (math.cos(x) / math.sin(x))
