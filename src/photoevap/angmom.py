"""Angular-momentum recoupling coefficients.

Quantum numbers are carried internally as doubled integers so half-integer
spins stay exact.  Public functions accept plain numbers (``1``, ``0.5``),
``fractions.Fraction`` or strings such as ``"3/2"``.

Clebsch-Gordan and 6j coefficients are evaluated from the closed Racah
sums (G. Racah, Phys. Rev. 62, 438 (1942)) in exact integer arithmetic:
the squared prefactor and every term are integer ratios, the terms are
summed over the lcm of their denominators, and the exact square is
rounded to float once before the one square root.
Arguments are converted to doubled integers once, at the public boundary;
the Clebsch-Gordan and 6j kernels are memoised on those integers with
:func:`functools.cache`, and every composite coefficient calls the kernels
directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

__all__ = [
    "clear_caches",
    "clebsch_gordan",
    "racah_w",
    "wigner_6j",
    "z_coeff",
]

_Spin = int | float | str | Fraction

_MAX_TWO_J = 40

def _doubled(value: _Spin) -> int:
    """Twice the numeric value, required to be integral."""
    if isinstance(value, bool):
        raise ValueError(f"not a spin value: {value!r}")
    if isinstance(value, int):
        return 2 * value
    try:
        two = 2 * Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"not a spin value: {value!r}") from exc
    if two.denominator != 1:
        raise ValueError(f"{value!r} is not an integer or half-integer")
    return int(two)


def _two_j(value: _Spin) -> int:
    """Doubled magnitude of a spin; rejects negative or oversized values."""
    two = _doubled(value)
    if two < 0:
        raise ValueError(f"spin magnitude must be non-negative, got {value!r}")
    if two > _MAX_TWO_J:
        raise ValueError(f"spins above j = {_MAX_TWO_J // 2} are not supported")
    return two


def clear_caches() -> None:
    _cg_two.cache_clear()
    _6j_two.cache_clear()


def _check_projection(two_j: int, two_m: int, label: str) -> None:
    # projection must share parity with j and satisfy |m| <= j
    if (two_j - two_m) % 2 != 0:
        raise ValueError(
            f"projection {label}: m and j differ by a non-integer "
            f"(two_j={two_j}, two_m={two_m})"
        )
    if abs(two_m) > two_j:
        raise ValueError(f"projection {label}: |m| exceeds j (two_j={two_j}, two_m={two_m})")


def _triangle_two(ta: int, tb: int, tc: int) -> bool:
    return abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0


def _signed_sqrt(pre_num: int, pre_den: int, terms: list[tuple[int, int]]) -> float:
    """sign(S) sqrt(pre_num / pre_den * S^2) for the exact sum S of num / den over terms.

    S is summed over the lcm of the denominators and the square is rounded
    to float once, by integer true division, before the one sqrt.
    """
    common = math.lcm(*(den for _, den in terms))
    total = sum(num * (common // den) for num, den in terms)
    if total == 0:
        return 0.0
    square = pre_num * total * total / (pre_den * common * common)
    return math.copysign(math.sqrt(square), total)


@cache
def _cg_two(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> float:
    """Clebsch-Gordan evaluation on doubled arguments."""
    if tm != tm1 + tm2 or not _triangle_two(tj1, tj2, tj):
        return 0.0
    f = math.factorial
    p1 = (tj1 + tj2 - tj) // 2
    b1 = (tj1 - tm1) // 2
    a2 = (tj2 + tm2) // 2
    c1 = (tj - tj2 + tm1) // 2
    c2 = (tj - tj1 - tm2) // 2
    # (2j+1) Delta(j1 j2 j)^2 (j1+m1)! (j1-m1)! (j2+m2)! (j2-m2)! (j+m)! (j-m)!
    pre_num = (tj + 1) * f(p1) * f((tj1 - tj2 + tj) // 2) * f((tj2 - tj1 + tj) // 2)
    for two_j, two_m in ((tj1, tm1), (tj2, tm2), (tj, tm)):
        pre_num *= f((two_j + two_m) // 2) * f((two_j - two_m) // 2)
    pre_den = f((tj1 + tj2 + tj) // 2 + 1)
    # k range keeps every factorial argument non-negative
    terms = [
        ((-1) ** k, f(k) * f(p1 - k) * f(b1 - k) * f(a2 - k) * f(c1 + k) * f(c2 + k))
        for k in range(max(0, -c1, -c2), min(p1, b1, a2) + 1)
    ]
    return _signed_sqrt(pre_num, pre_den, terms)


def clebsch_gordan(
    j1: _Spin, m1: _Spin, j2: _Spin, m2: _Spin, j: _Spin, m: _Spin
) -> float:
    """<j1 m1 j2 m2 | j m> in the Condon-Shortley convention.

    Returns 0 when m != m1 + m2 or the triangle rule fails.  A projection
    that violates |m| <= j or the integer/half-integer pairing raises
    ``ValueError``.
    """
    tj1, tj2, tj = _two_j(j1), _two_j(j2), _two_j(j)
    tm1, tm2, tm = _doubled(m1), _doubled(m2), _doubled(m)
    _check_projection(tj1, tm1, "(j1, m1)")
    _check_projection(tj2, tm2, "(j2, m2)")
    _check_projection(tj, tm, "(j, m)")
    return _cg_two(tj1, tm1, tj2, tm2, tj, tm)


@cache
def _6j_two(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> float:
    """6j evaluation {a b c; d e f} on doubled arguments."""
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    if not all(_triangle_two(*t) for t in triads):
        return 0.0
    f = math.factorial
    # product of the four Delta(x y z)^2 = (x+y-z)! (x-y+z)! (-x+y+z)! / (x+y+z+1)!
    pre_num = pre_den = 1
    for x, y, z in triads:
        pre_num *= f((x + y - z) // 2) * f((x - y + z) // 2) * f((y + z - x) // 2)
        pre_den *= f((x + y + z) // 2 + 1)
    sums = [(x + y + z) // 2 for x, y, z in triads]
    pairs = ((ta + tb + td + te) // 2, (tb + tc + te + tf) // 2, (tc + ta + tf + td) // 2)
    terms = []
    for t in range(max(sums), min(pairs) + 1):
        den = math.prod(f(t - s) for s in sums) * math.prod(f(p - t) for p in pairs)
        terms.append(((-1) ** t * f(t + 1), den))
    return _signed_sqrt(pre_num, pre_den, terms)


def wigner_6j(
    j1: _Spin, j2: _Spin, j3: _Spin, j4: _Spin, j5: _Spin, j6: _Spin
) -> float:
    """{j1 j2 j3; j4 j5 j6}; 0 when any of the four triads fails."""
    return _6j_two(*map(_two_j, (j1, j2, j3, j4, j5, j6)))


def _racah_two(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> float:
    """Racah W on doubled arguments; exactly 0.0 when the 6j vanishes."""
    six = _6j_two(ta, tb, te, td, tc, tf)
    if six == 0.0:
        return 0.0
    # a+b+c+d is integral whenever the triads allow a nonzero 6j
    phase = -1 if ((ta + tb + tc + td) // 2) % 2 else 1
    return phase * six


def racah_w(
    a: _Spin, b: _Spin, c: _Spin, d: _Spin, e: _Spin, f: _Spin
) -> float:
    """Racah W(a b c d; e f) = (-1)^(a+b+c+d) {a b e; d c f}."""
    return _racah_two(*map(_two_j, (a, b, c, d, e, f)))


def z_coeff(
    l1: _Spin, j1: _Spin, l2: _Spin, j2: _Spin, s: _Spin, big_l: _Spin
) -> float:
    """Blatt-Biedenharn Z coefficient (original phase, no i-power factor).

    Z = sqrt((2l1+1)(2l2+1)(2j1+1)(2j2+1)) <l1 0 l2 0|L 0> W(l1 j1 l2 j2; s L)

    Returns exactly 0 when l1 + l2 + L is odd or any triangle rule fails.
    The orbital arguments and L must be integers.
    """
    tl1, tl2, tL = _two_j(l1), _two_j(l2), _two_j(big_l)
    tj1, tj2, ts = _two_j(j1), _two_j(j2), _two_j(s)
    for name, two in (("l1", tl1), ("l2", tl2), ("L", tL)):
        if two % 2 != 0:
            raise ValueError(f"{name} must be an integer orbital momentum")
    # <l1 0 l2 0|L 0> is an exact +0.0 when l1 + l2 + L is odd
    cg0 = _cg_two(tl1, 0, tl2, 0, tL, 0)
    if cg0 == 0.0:
        return 0.0
    w = _racah_two(tl1, tj1, tl2, tj2, ts, tL)
    if w == 0.0:
        return 0.0
    norm = math.sqrt((tl1 + 1.0) * (tl2 + 1.0) * (tj1 + 1.0) * (tj2 + 1.0))
    return norm * cg0 * w

