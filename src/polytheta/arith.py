"""Elementary arithmetic kernels: Gauss sums, divisor sums, characters, sieves.

Everything here is exact except the Gauss sums, which are complex sums of
unit-modulus terms evaluated in double precision after reducing all phases
modulo the denominator in integer arithmetic.

The divisor-sum tables (``sigma_table``, ``twisted8_table`` and
``jacobi_four_square_table``) share one sieve, ``_odd_divisor_sum``, over the
odd n alone.  Every divisor of an odd n is odd, and each odd divisor d <=
sqrt(n) is paired with its cofactor n/d, as in Dirichlet's hyperbola method,
so the odd half of a table to nmax takes about isqrt(nmax)/2 pairs of numpy
slice steps on half-length arrays.  The even n = 2^k m (m odd) are read off
their odd part by multiplicativity (Hardy & Wright, ch. XVI), one strided
lift in place per power of two:

* sigma(2^k m) = (2^(k+1) - 1) sigma(m);
* the (8/d)-twisted sum ignores 2^k, since (8/d) = 0 at every even d;
* r_4(m) = 8 sigma(m) and r_4(2^k m) = 24 sigma(m) for k >= 1.

Every table builder here and in ``counting`` takes nmax >= -1: nmax = -1 is
the empty int64 table, and a lower nmax raises ``ValueError``.
"""
from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

__all__ = [
    "gauss_sum",
    "gauss_sum_table",
    "divisors",
    "factorize",
    "divisor_sigma",
    "euler_phi",
    "kronecker",
    "twisted_divisor_sum_8",
    "sigma_table",
    "phi_table",
    "twisted8_table",
    "jacobi_four_square_table",
]


def gauss_sum(a: int, b: int, c: int) -> complex:
    """Quadratic exponential sum over residues mod c of e((a*l^2 + b*l)/c).

    The exponent a*l^2 + b*l is reduced mod c exactly before the complex
    exponential, so the result is accurate to a few ulp times c.
    """
    if c < 1:
        raise ValueError(f"modulus must be a positive integer, got {c}")
    a %= c
    b %= c
    ell = np.arange(c, dtype=np.int64)
    residues = (a * ell * ell + b * ell) % c
    return complex(np.exp((2j * np.pi / c) * residues).sum())


@lru_cache(maxsize=4096)
def gauss_sum_table(a: int, c: int) -> np.ndarray:
    """Array of gauss_sum(a, b, c) for b in 0..c-1.  Cached; treat as read-only."""
    if c < 1:
        raise ValueError(f"modulus must be a positive integer, got {c}")
    a %= c
    ell = np.arange(c, dtype=np.int64)
    base = np.exp((2j * np.pi / c) * ((a * ell * ell) % c))
    # G(a,b;c) = sum_l base_l e(b l/c): the inverse DFT of base, unscaled
    out = np.fft.ifft(base, norm="forward")
    out.setflags(write=False)
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at desk scale (n <= ~1e12)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def divisor_sigma(n: int) -> int:
    """Sum of the positive divisors of n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = 1
    for p, e in factorize(n).items():
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def euler_phi(n: int) -> int:
    """Euler totient."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D/n), with the full extension to n <= 0 and even n."""
    if n == 0:
        return 1 if D in (1, -1) else 0
    if D % 2 == 0 and n % 2 == 0:
        return 0
    t = 1
    if n < 0:
        n = -n
        if D < 0:
            t = -t
    while n % 2 == 0:
        n //= 2
        if D % 8 in (3, 5):
            t = -t
    # now n odd positive; standard Jacobi with reciprocity
    D %= n
    while D != 0:
        while D % 2 == 0:
            D //= 2
            if n % 8 in (3, 5):
                t = -t
        D, n = n, D
        if D % 4 == 3 and n % 4 == 3:
            t = -t
        D %= n
    return t if n == 1 else 0


def twisted_divisor_sum_8(n: int) -> int:
    """Divisor sum of n weighted by the Kronecker symbol (8/d)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return sum(kronecker(8, d) * d for d in divisors(n))


def _empty_table(nmax: int) -> bool:
    """Whether the table over 0 <= n <= nmax is empty (nmax = -1).

    The one size rule of the table builders here and in ``counting``:
    nmax = -1 gives an empty int64 table, and nmax < -1 is refused.
    """
    if nmax < -1:
        raise ValueError(f"table needs nmax >= -1, got nmax={nmax}")
    return nmax == -1


def _odd_divisor_sum(w_odd: np.ndarray, nmax: int) -> np.ndarray:
    """sum_{d|n} w(d) for the odd 1 <= n <= nmax, at index (n-1)/2, from the
    weights of odd k, w_odd[(k-1)/2] = w(k), as int64.

    Every divisor of an odd n is odd, so each n = d*q with d <= q is visited
    once from its smaller divisor, an odd d <= isqrt(nmax).  The odd q >= d
    step by 2 and their products d*q by 2d, that is by d in half-length
    arrays: the first slice adds the cofactor term w(q) for every q >= d, the
    second the divisor term w(d) for every q > d (q == d is one divisor).
    """
    out = np.zeros(len(w_odd), dtype=np.int64)
    for d in range(1, isqrt(max(nmax, 0)) + 1, 2):
        seg = out[d * d // 2::d]  # n = d*q for q = d, d + 2, d + 4, ...
        seg += w_odd[d // 2:d // 2 + len(seg)]
        out[d * d // 2 + d::d] += w_odd[d // 2]
    return out


def _sigma_odd(nmax: int) -> np.ndarray:
    """sigma(n) for the odd 1 <= n <= nmax, at index (n-1)/2."""
    return _odd_divisor_sum(np.arange(1, nmax + 1, 2, dtype=np.int64), nmax)


def _twisted8_odd(nmax: int) -> np.ndarray:
    """sum_{d|n} (8/d) d for the odd 1 <= n <= nmax, at index (n-1)/2."""
    # weight (8/k) k of odd k = 2i + 1: -k for k = 3, 5 (mod 8), i = 1, 2 (mod 4)
    w = np.arange(1, nmax + 1, 2, dtype=np.int64)
    w[1::4] *= -1
    w[2::4] *= -1
    return _odd_divisor_sum(w, nmax)


def _from_odd_part(odd_sieve, nmax: int, factor) -> np.ndarray:
    """int64 table f(n) for 0 <= n <= nmax (entry 0 set to 0) of an f with
    f(p*m) = factor(p) * f(m) for odd m and every power of two p >= 2.

    The odd entries come from ``odd_sieve(nmax)``.  The table is allocated
    only after the sieve has freed its weights, and the half-length array of
    odd entries is freed once copied in, so the peak is the table plus that
    one array.  Each p is then one strided lift in place, about log2(nmax) in
    all.
    """
    odd = odd_sieve(nmax)
    out = np.empty(nmax + 1, dtype=np.int64)
    out[1::2] = odd
    del odd
    out[0] = 0
    p = 2
    while p <= nmax:
        lifted = out[p::2 * p]
        np.multiply(out[1:2 * len(lifted):2], factor(p), out=lifted)
        p *= 2
    return out


def sigma_table(nmax: int) -> np.ndarray:
    """sigma(n) for 0 <= n <= nmax as int64 (index 0 unused, set to 0).

    The odd n are sieved on their own (``_odd_divisor_sum``); each even n =
    2^k m with m odd is then lifted by sigma(2^k m) = (2^(k+1) - 1) sigma(m).
    """
    if _empty_table(nmax):
        return np.zeros(0, dtype=np.int64)
    return _from_odd_part(_sigma_odd, nmax, lambda p: 2 * p - 1)


def phi_table(nmax: int) -> np.ndarray:
    """Euler phi(n) for 0 <= n <= nmax as int64 (index 0 set to 0): one
    strided step per prime p <= isqrt(nmax), whose powers leave ``rest`` 1 or
    the one prime factor of n above isqrt(nmax), applied in one last step."""
    if _empty_table(nmax):
        return np.zeros(0, dtype=np.int64)
    phi = np.arange(nmax + 1, dtype=np.int64)
    rest = phi.copy()
    for p in range(2, isqrt(nmax) + 1):
        if rest[p] == p:  # p prime: no smaller prime divides it
            phi[p::p] -= phi[p::p] // p
            pk = p
            while pk <= nmax:
                rest[pk::pk] //= p
                pk *= p
    big = np.flatnonzero(rest > 1)
    phi[big] -= phi[big] // rest[big]
    return phi


def twisted8_table(nmax: int) -> np.ndarray:
    """sum_{d|n} (8/d) d for 0 <= n <= nmax; even d contribute 0.

    The odd n are sieved on their own (``_odd_divisor_sum``); the twisted
    sum of an even n = 2^k m with m odd is that of m, since (8/d) = 0 for
    every even divisor d.
    """
    if _empty_table(nmax):
        return np.zeros(0, dtype=np.int64)
    return _from_odd_part(_twisted8_odd, nmax, lambda p: 1)


def jacobi_four_square_table(nmax: int) -> np.ndarray:
    """8 * sum of divisors of n not divisible by 4, for 0 <= n <= nmax.

    Entry 0 is set to 1 (the empty representation count), matching the number
    of ways to write 0 as a sum of four squares.  For odd m the divisors of m
    not divisible by 4 are all of them, and those of 2^k m (k >= 1) are the
    d and 2d with d | m: the table is 8 sigma(m) at m and 24 sigma(m) at 2^k m,
    lifted from the one odd sieve of ``sigma_table``.
    """
    if _empty_table(nmax):
        return np.zeros(0, dtype=np.int64)
    out = _from_odd_part(_sigma_odd, nmax, lambda p: 3)
    out *= 8
    out[0] = 1
    return out
