"""Elementary arithmetic kernels: Gauss sums, divisor sums, characters, sieves.

Everything here is exact except the Gauss sums, which are complex sums of
unit-modulus terms evaluated in double precision after reducing all phases
modulo the denominator in integer arithmetic.

The divisor-sum tables (``sigma_table``, ``twisted8_table`` and through them
``jacobi_four_square_table``) sieve by divisor pairs: every divisor d <= sqrt(n)
of n is paired with its cofactor n/d, as in Dirichlet's hyperbola method, so
a table to nmax takes isqrt(nmax) numpy slice steps instead of nmax.
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


def _divisor_pair_sum(w: np.ndarray) -> np.ndarray:
    """sum_{d|n} w[d] for 0 <= n < len(w) as int64 (index 0 set to 0).

    Each n = d*q with d <= q is visited once from its smaller divisor d <=
    isqrt(nmax): the first slice adds the cofactor term w[q] for every q >= d,
    the second the divisor term w[d] for every q > d (q == d is one divisor).
    """
    nmax = len(w) - 1
    out = np.zeros(nmax + 1, dtype=np.int64)
    for d in range(1, isqrt(max(nmax, 0)) + 1):
        out[d * d::d] += w[d:nmax // d + 1]
        out[d * d + d::d] += w[d]
    return out


def sigma_table(nmax: int) -> np.ndarray:
    """sigma(n) for 0 <= n <= nmax as int64 (index 0 unused, set to 0)."""
    return _divisor_pair_sum(np.arange(nmax + 1, dtype=np.int64))


def phi_table(nmax: int) -> np.ndarray:
    """Euler phi(n) for 0 <= n <= nmax as int64 (index 0 set to 0)."""
    phi = np.arange(nmax + 1, dtype=np.int64)
    phi[0] = 0
    for p in range(2, nmax + 1):
        if phi[p] == p:  # p prime (untouched so far)
            phi[p::p] -= phi[p::p] // p
    return phi


def twisted8_table(nmax: int) -> np.ndarray:
    """sum_{d|n} (8/d) d for 0 <= n <= nmax; even d contribute 0."""
    # weight (8/k) k: 0 for even k, -k for k = 3, 5 (mod 8), k otherwise
    w = np.arange(nmax + 1, dtype=np.int64)
    w[::2] = 0
    w[3::8] *= -1
    w[5::8] *= -1
    return _divisor_pair_sum(w)


def jacobi_four_square_table(nmax: int) -> np.ndarray:
    """8 * sum of divisors of n not divisible by 4, for 0 <= n <= nmax.

    Entry 0 is set to 1 (the empty representation count), matching the number
    of ways to write 0 as a sum of four squares.
    """
    sig = sigma_table(nmax)
    out = 8 * sig
    idx4 = np.arange(0, nmax + 1, 4)
    out[idx4] -= 32 * sig[idx4 // 4]
    out[0] = 1
    return out
