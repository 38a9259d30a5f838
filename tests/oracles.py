"""Independent oracles used by the test suite.

The coupling-coefficient oracles here are written directly from the
closed finite-sum forms using exact big-integer rational arithmetic
(fractions.Fraction), sharing no code with the package under test.
Every value is carried as sign * sqrt(rational) until the final float
conversion, so the only rounding is the last sqrt.

The photoproton distribution oracle is written from the partial-wave sum
of the amplitudes themselves, not from the package's Z-coefficient
interference terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np
from scipy.special import eval_legendre, lpmv, roots_legendre


class SqrtRational(NamedTuple):
    """Exact representation of sign * sqrt(square)."""

    sign: int
    square: Fraction

    def value(self) -> float:
        return self.sign * math.sqrt(float(self.square))

    @classmethod
    def zero(cls) -> "SqrtRational":
        return cls(0, Fraction(0))

    def __mul__(self, other: "SqrtRational") -> "SqrtRational":
        return SqrtRational(self.sign * other.sign, self.square * other.square)


def _as_fraction(x) -> Fraction:
    return Fraction(x)


def _fact(x: Fraction) -> int:
    """Factorial of a Fraction that must be a non-negative integer."""
    if x.denominator != 1 or x < 0:
        raise ValueError(f"factorial of non-integer or negative {x}")
    return math.factorial(int(x))

def _is_nonneg_int(x: Fraction) -> bool:
    return x.denominator == 1 and x >= 0


def _triangle_sq(a: Fraction, b: Fraction, c: Fraction) -> Fraction | None:
    """Delta(a,b,c)^2 as an exact rational, or None if the triad fails."""
    s1, s2, s3 = a + b - c, a - b + c, -a + b + c
    if not (_is_nonneg_int(s1) and _is_nonneg_int(s2) and _is_nonneg_int(s3)):
        return None
    return Fraction(
        _fact(s1) * _fact(s2) * _fact(s3), _fact(a + b + c + 1)
    )


def cg_exact(j1, m1, j2, m2, j, m) -> SqrtRational:
    """Clebsch-Gordan <j1 m1 j2 m2 | j m>, exact."""
    j1, m1, j2, m2, j, m = map(_as_fraction, (j1, m1, j2, m2, j, m))
    if m != m1 + m2:
        return SqrtRational.zero()
    if abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return SqrtRational.zero()
    if not ((j1 + m1).denominator == 1 and (j2 + m2).denominator == 1 and (j + m).denominator == 1):
        raise ValueError("projection not compatible with spin")
    tri = _triangle_sq(j1, j2, j)
    if tri is None:
        return SqrtRational.zero()
    pre_sq = (
        (2 * j + 1)
        * tri
        * _fact(j1 + m1) * _fact(j1 - m1)
        * _fact(j2 + m2) * _fact(j2 - m2)
        * _fact(j + m) * _fact(j - m)
    )
    k_lo = max(Fraction(0), j2 - j - m1, j1 - j + m2)
    k_hi = min(j1 + j2 - j, j1 - m1, j2 + m2)
    total = Fraction(0)
    k = k_lo
    while k <= k_hi:
        denom = (
            _fact(k)
            * _fact(j1 + j2 - j - k)
            * _fact(j1 - m1 - k)
            * _fact(j2 + m2 - k)
            * _fact(j - j2 + m1 + k)
            * _fact(j - j1 - m2 + k)
        )
        term = Fraction((-1) ** int(k), denom)
        total += term
        k += 1
    if total == 0:
        return SqrtRational.zero()
    sign = 1 if total > 0 else -1
    return SqrtRational(sign, pre_sq * total * total)


def six_j_exact(a, b, c, d, e, f) -> SqrtRational:
    """Wigner 6j {a b c; d e f}, exact."""
    a, b, c, d, e, f = map(_as_fraction, (a, b, c, d, e, f))
    tris = [
        _triangle_sq(a, b, c),
        _triangle_sq(a, e, f),
        _triangle_sq(d, b, f),
        _triangle_sq(d, e, c),
    ]
    if any(t is None for t in tris):
        return SqrtRational.zero()
    pre_sq = Fraction(1)
    for t in tris:
        pre_sq *= t
    t_lo = max(a + b + c, a + e + f, d + b + f, d + e + c)
    t_hi = min(a + b + d + e, b + c + e + f, a + c + d + f)
    total = Fraction(0)
    t = t_lo
    while t <= t_hi:
        denom = (
            _fact(t - a - b - c)
            * _fact(t - a - e - f)
            * _fact(t - d - b - f)
            * _fact(t - d - e - c)
            * _fact(a + b + d + e - t)
            * _fact(b + c + e + f - t)
            * _fact(a + c + d + f - t)
        )
        total += Fraction((-1) ** int(t) * _fact(t + 1), denom)
        t += 1
    if total == 0:
        return SqrtRational.zero()
    sign = 1 if total > 0 else -1
    return SqrtRational(sign, pre_sq * total * total)


def racah_w_exact(a, b, c, d, e, f) -> SqrtRational:
    """Racah W(abcd; ef) = (-1)^(a+b+c+d) {a b e; d c f}, exact."""
    a, b, c, d, e, f = map(_as_fraction, (a, b, c, d, e, f))
    phase_exp = a + b + c + d
    if phase_exp.denominator != 1:
        raise ValueError("W phase requires integer a+b+c+d")
    base = six_j_exact(a, b, e, d, c, f)
    phase = (-1) ** int(phase_exp)
    return SqrtRational(phase * base.sign, base.square)


def z_coeff_exact(l1, j1, l2, j2, s, big_l) -> SqrtRational:
    """Blatt-Biedenharn Z coefficient, exact (original real convention)."""
    l1, j1, l2, j2, s, big_l = map(_as_fraction, (l1, j1, l2, j2, s, big_l))
    if any(x.denominator != 1 for x in (l1, l2, big_l)):
        raise ValueError("orbital angular momenta must be integers")
    front_sq = (2 * l1 + 1) * (2 * l2 + 1) * (2 * j1 + 1) * (2 * j2 + 1)
    cg = cg_exact(l1, 0, l2, 0, big_l, 0)
    w = racah_w_exact(l1, j1, l2, j2, s, big_l)
    combined = cg * w
    return SqrtRational(combined.sign, Fraction(front_sq) * combined.square)


def legendre_project(evaluate, n_orders: int, n_nodes: int = 40) -> np.ndarray:
    """Project callable theta -> value onto P_0..P_{n_orders-1}.

    Gauss-Legendre quadrature in x = cos(theta); exact for polynomial
    integrands up to degree 2*n_nodes - 1.  Uses scipy's Legendre
    evaluation, independent of the package recurrence.
    """
    nodes, weights = roots_legendre(n_nodes)
    theta = np.arccos(nodes)
    values = np.asarray([evaluate(t) for t in theta], dtype=float)
    out = np.empty(n_orders)
    for order in range(n_orders):
        basis = eval_legendre(order, nodes)
        out[order] = (2 * order + 1) / 2.0 * np.sum(weights * basis * values)
    return out


def spherical_harmonic_at_zero_azimuth(l: int, m: int, theta: float) -> float:
    """Condon-Shortley Y_l^m(theta, phi = 0), real at phi = 0.

    scipy's lpmv carries the (-1)^m Condon-Shortley phase; a negative m
    uses Y_l^-m = (-1)^m conj(Y_l^m).
    """
    k = abs(m)
    norm = math.sqrt((2 * l + 1) / (4 * math.pi) * math.factorial(l - k) / math.factorial(l + k))
    value = norm * float(lpmv(k, l, math.cos(theta)))
    return (-1) ** k * value if m < 0 else value


_I_POWER = (1, 1j, -1, -1j)  # i**n via n mod 4


@cache
def _cg_value(j1: int, m1: int, j2: int, m2: int, j: int, m: int) -> float:
    return cg_exact(j1, m1, j2, m2, j, m).value()


def photoproton_distribution(theta: float, magnitude, weight) -> float:
    """W(theta) of protons evaporated after E1/E2 absorption on a spin-0 target.

    A photon of helicity lambda = +-1 along z forms the compound state
    J = L, M = lambda; it decays to a proton of orbital l' <= 2 and a
    residual nucleus of spin I' (l' and I' couple to L; the proton spin is
    left out):

      W = sum_pi sum_lambda sum_I' w(I') sum_ms |sum_{L, l'} a_{L l'}
          <l' lambda-ms, I' ms | L lambda> Y_l'^(lambda-ms)(theta, 0)|^2,
      a_{L l'} = i^L sqrt(2L + 1) * i^(-l') * magnitude(L, l').

    Phases:
    * i^L sqrt(2L + 1) is the E(L) term of a circularly polarised plane
      photon's multipole expansion;
    * i^(-l') is the partial-wave phase of the outgoing proton;
    * Clebsch-Gordan and Y_lm follow Condon and Shortley (``cg_exact``
      and :func:`spherical_harmonic_at_zero_azimuth`).

    Amplitudes interfere only within one residual parity
    pi = (-1)^(L + l'); the two parities, the residual spins I' and the
    helicities add incoherently.  ``magnitude(L, l')`` is real (0 drops
    the channel) and ``weight(I')`` is the residual-spin weight w(I').
    """
    total = 0.0
    for parity in (0, 1):
        channels = [(L, l) for L in (1, 2) for l in (0, 1, 2) if (L + l) % 2 == parity]
        for helicity in (-1, 1):
            for spin in range(5):  # I' <= L + l' <= 4
                for ms in range(-spin, spin + 1):
                    m = helicity - ms
                    amplitude = 0j
                    for L, l in channels:
                        if abs(m) > l:
                            continue
                        a = _I_POWER[(L - l) % 4] * math.sqrt(2 * L + 1) * magnitude(L, l)
                        cg = _cg_value(l, m, spin, ms, L, helicity)
                        amplitude += a * cg * spherical_harmonic_at_zero_azimuth(l, m, theta)
                    total += weight(spin) * abs(amplitude) ** 2
    return total
