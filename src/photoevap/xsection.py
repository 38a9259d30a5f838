"""Angular distribution of evaporation protons after photoabsorption.

The differential cross section is a Legendre series sum over interference
terms between the electric dipole and quadrupole entrance channels of a
spin-0 target, with exit proton orbitals l' <= 2.  Each term carries

* a geometric weight built from Clebsch-Gordan and Blatt-Biedenharn Z
  coefficients (photon coupling, entrance orbital l = L -+ 1, exit proton
  orbital l', residual spin I') in Huby's phase convention (Huby, Proc.
  Phys. Soc. A 67, 1103 (1954)), the one that reproduces the squared
  partial-wave amplitudes,
* a magnitude factor sqrt(A^a B^b C^c) holding the transmission-coefficient
  ratios (A: quadrupole/dipole photon, B: l'=1 / l'=0, C: l'=2 / l'=0),
* a correlation factor which is 1 for same-multipole terms and 1/(1+r)
  for dipole-quadrupole cross terms, r being the ratio of the dephasing
  width between the two entrance multipoles to the compound decay width.

Cross terms feed only odd Legendre orders, so the forward-backward
asymmetry of the distribution decays as 1/(1+r) while the even shape is
r-independent.  The series is normalised to c_0 = 1; absolute scale is a
per-dataset fit parameter elsewhere.  The channel set is fixed: a reduced
model is a face of the full one (A = 0 is E1 only, B = 0 or C = 0 drops
l' = 1 or l' = 2).

The 195 terms share 10 exponent rows (a, b, c, k) of one table P, so
the sum is c = M m with m_j = sqrt(A^a B^b C^c) (1+r)^-k, k = 1 on the
cross terms.  The residual-spin weight w(I') multiplies a geometry free
of it, so the real 5 x 10 matrix is M = sum_I' w(I') G[I'], where G[I']
groups the terms of spin I' by row of P; G is built once and M once per
configuration behind a bounded memo.

The module is pure Python, with no numpy: one model point is a few dozen
multiply-adds, which numpy's per-call overhead would cost more than it
saves.  M is a tuple of row tuples, the coefficients a tuple of floats,
which ``LegendreSeries.evaluate`` expands once per call to the power form
sigma = E(y) + x O(y), x = cos(theta), y = x^2 (even orders in E, odd in O):
one Horner pass per angle, within 32 eps sum |c_L| of the exact sum.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from operator import mul

from ._record import Record
from .angmom import clebsch_gordan, z_coeff
from .errors import DegenerateModelError

__all__ = [
    "ChannelConfig",
    "LegendreSeries",
    "ShapeParams",
    "TermAmplitude",
    "asymmetry",
    "enumerate_terms",
    "forward_backward_ratio",
    "legendre_coefficients",
    "raw_coefficients",
]

_PHOTON_SPIN = 1
_WEIGHTING_MODES = ("equal", "2I+1", "spin-cutoff")
_MULTIPOLES = (1, 2)  # E1 and E2 photon absorption
# exit proton orbitals; l' >= 3 is left out because its centrifugal
# barrier suppresses evaporation protons too strongly to matter
_EXIT_ORBITALS = (0, 1, 2)

MAX_ORDER = 4  # dipole+quadrupole entrance caps the series at P_4


class ShapeParams(Record):
    """Transmission ratios and dephasing-to-decay ratio of the model.

    A = T(E2)/T(E1), B = T(l'=1)/T(l'=0), C = T(l'=2)/T(l'=0),
    r = (dephasing width) / (compound decay width).
    """

    A: float
    B: float
    C: float
    r: float

    def __init__(self, A, B, C, r) -> None:
        self.__dict__.update(A=A, B=B, C=C, r=r)
        for name, value in self.__dict__.items():
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


class ChannelConfig(Record):
    """How the terms of the fixed channel set are summed over residual spins.

    residual_weighting: weight per allowed residual spin I' when summing
        microstates ("equal", "2I+1" or "spin-cutoff").
    spin_cutoff_sigma: cutoff parameter for the "spin-cutoff" mode.
    """

    residual_weighting: str
    spin_cutoff_sigma: float

    def __init__(self, residual_weighting="equal", spin_cutoff_sigma=2.0) -> None:
        self.__dict__.update(residual_weighting=residual_weighting, spin_cutoff_sigma=spin_cutoff_sigma)
        if self.residual_weighting not in _WEIGHTING_MODES:
            raise ValueError(f"residual_weighting must be one of {_WEIGHTING_MODES}, got {self.residual_weighting!r}")
        if not (self.spin_cutoff_sigma > 0 and math.isfinite(self.spin_cutoff_sigma)):
            raise ValueError(f"spin_cutoff_sigma must be positive, got {self.spin_cutoff_sigma!r}")


class TermAmplitude(Record):
    """One interference term of the multipole/exit-channel sum.

    L1, L2 are the photon multipole orders of the two interfering
    amplitudes, l1, l2 the entrance orbital momenta (L -+ 1), l1p, l2p
    the exit proton orbitals, Ip the residual spin and L the Legendre
    order the term feeds.  ``geometry`` is the full real coupling
    weight including the residual-spin weight.
    """

    L1: int
    L2: int
    l1: int
    l2: int
    l1p: int
    l2p: int
    Ip: int
    L: int
    geometry: float

    def __init__(self, L1, L2, l1, l2, l1p, l2p, Ip, L, geometry) -> None:
        self.__dict__.update(L1=L1, L2=L2, l1=l1, l2=l2, l1p=l1p, l2p=l2p, Ip=Ip, L=L, geometry=geometry)


def _residual_weight(config: ChannelConfig, spin: int) -> float:
    if config.residual_weighting == "equal":
        return 1.0
    if config.residual_weighting == "2I+1":
        return 2.0 * spin + 1.0
    sigma = config.spin_cutoff_sigma
    # divided step by step: 2 sigma^2 underflows to 0 for a tiny sigma
    return math.exp(-spin * (spin + 1) / 2.0 / sigma / sigma)


def enumerate_terms(config: ChannelConfig = ChannelConfig()) -> list[TermAmplitude]:
    """Every term passing the selection rules, in deterministic order.

    The list is closed under swapping the two amplitudes
    (L1, l1, l1p) <-> (L2, l2, l2p); swapped partners carry equal geometry.
    """
    terms = []
    for L1 in _MULTIPOLES:
        for L2 in _MULTIPOLES:
            # electric radiation couples to l = L -+ 1
            for l1 in (L1 - 1, L1 + 1):
                for l2 in (L2 - 1, L2 + 1):
                    for l1p in _EXIT_ORBITALS:
                        for l2p in _EXIT_ORBITALS:
                            # parity: exit parities must match the E(L) photon parities
                            if (l1p + l2p + L1 + L2) % 2:
                                continue
                            # l1 + l2, l1p + l2p and so lo and hi have the parity of L1 + L2:
                            # every order of the step-2 range passes both Z parity rules
                            lo = max(abs(L1 - L2), abs(l1 - l2), abs(l1p - l2p))
                            hi = min(L1 + L2, l1 + l2, l1p + l2p)
                            ip_lo = max(abs(l1p - L1), abs(l2p - L2))
                            ip_hi = min(l1p + L1, l2p + L2)
                            for ip in range(ip_lo, ip_hi + 1):
                                for order in range(lo, hi + 1, 2):
                                    geom = _geometry(L1, L2, l1, l2, l1p, l2p, ip, order)
                                    geom *= _residual_weight(config, ip)
                                    terms.append(
                                        TermAmplitude(L1, L2, l1, l2, l1p, l2p, ip, order, geom)
                                    )
    return terms


def _geometry(L1: int, L2: int, l1: int, l2: int, l1p: int, l2p: int, ip: int, order: int) -> float:
    # one sign for the photon phase i**(L2 - L1 + l1 - l2), (-1)**(Ip + 1) and Huby's
    # Zbar = i**(-l1 + l2 - L) Z on both Z factors.  The entrance orbitals cancel, which
    # leaves i**(L2 - L1 + l2p - l1p - 2L), an even power: the exit parity rule makes
    # l1p + l2p + L1 + L2 even
    exponent = (L2 - L1 + l2p - l1p) // 2 + ip + 1 - order
    return (
        clebsch_gordan(L1, -1, 1, 1, l1, 0)
        * clebsch_gordan(L2, -1, 1, 1, l2, 0)
        * (-1 if exponent % 2 else 1)
        * z_coeff(l1, L1, l2, L2, _PHOTON_SPIN, order)
        * z_coeff(l1p, L1, l2p, L2, ip, order)
    )


def _powers(term: TermAmplitude) -> tuple[int, int, int, int]:
    """Exponents (a, b, c, k) of the term's magnitude sqrt(A^a B^b C^c) (1+r)^-k.

    k = 1 on a dipole-quadrupole term, whose amplitudes decorrelate by
    1/(1+r); equal-multipole amplitudes stay fully correlated.
    """
    return (
        (term.L1 == 2) + (term.L2 == 2),
        (term.l1p == 1) + (term.l2p == 1),
        (term.l1p == 2) + (term.l2p == 2),
        int(term.L1 != term.L2),
    )


@cache
def _spin_geometry():
    """(G, P): the unweighted term sums and the exponent table, as tuples.

    G holds, sorted, the nonzero sums (I', L, j, g): g sums the
    geometries of the terms with residual spin I', Legendre order L and
    magnitude exponents (a, b, c, k) = P[j].
    """
    terms = enumerate_terms()
    powers = sorted({_powers(term) for term in terms})
    sums: dict[tuple[int, int, int], float] = {}
    for term in terms:
        key = (term.Ip, term.L, powers.index(_powers(term)))
        sums[key] = sums.get(key, 0.0) + term.geometry
    return tuple((*key, g) for key, g in sorted(sums.items()) if g), tuple(powers)


@lru_cache(maxsize=16)  # a few configurations used in turn stay resident; memory is flat in sigma
def _coefficient_matrix(config: ChannelConfig):
    """(M, P) with c = M m: M = sum_I' w(I') G[I'] as 5 row tuples of n.

    Column j holds the terms whose magnitude factor has the exponents
    (a, b, c, k) = P[j].  Only the nonzero entries of G are summed.  The
    value is immutable, so every caller shares the memoised one.
    """
    geometry, powers = _spin_geometry()
    rows = [[0.0] * len(powers) for _ in range(MAX_ORDER + 1)]
    for spin, order, j, value in geometry:
        rows[order][j] += _residual_weight(config, spin) * value
    return tuple(map(tuple, rows)), powers


def raw_coefficients(params: ShapeParams, config: ChannelConfig = ChannelConfig()) -> tuple[float, ...]:
    """Unnormalised real Legendre coefficients c_0..c_4 of the term sum.

    Even orders collect only same-multipole terms and are independent of
    r; odd orders collect only cross terms and scale as sqrt(A)/(1+r).
    A square or product of powers beyond the float range leaves inf or
    NaN, which :func:`legendre_coefficients` reports.
    """
    matrix, powers = _coefficient_matrix(config)
    A, B, C = ((1.0, x, x * x) for x in (params.A, params.B, params.C))  # every power is 0, 1 or 2
    damping = (1.0, 1.0 / (1.0 + params.r))
    magnitude = [math.sqrt(A[a] * B[b] * C[c]) * damping[k] for a, b, c, k in powers]
    return tuple(sum(map(mul, row, magnitude)) for row in matrix)


class LegendreSeries(Record):
    """sigma(theta) = sum_L c_L P_L(cos theta) with c_0 normalised to 1.

    ``coefficients`` holds exactly five finite values c_0..c_4.  ``scale``
    records the raw c_0 that was divided out (diagnostic only; absolute
    normalisation is carried by per-dataset fit norms).
    """

    coefficients: tuple[float, ...]
    scale: float

    def __init__(self, coefficients, scale=1.0) -> None:
        self.__dict__.update(coefficients=coefficients, scale=scale)
        if (n := len(self.coefficients)) != MAX_ORDER + 1:
            raise ValueError(f"series needs c_0..c_{MAX_ORDER} and no order above P_{MAX_ORDER}, got {n} values")
        if not all(map(math.isfinite, self.coefficients)):
            raise ValueError(f"coefficients must be finite, got {self.coefficients!r}")

    def evaluate(self, theta):
        """Series value at polar angle theta (radians).

        A number gives a float and an iterable of angles a list.  An angle
        outside [0, pi], NaN included, raises ``ValueError``.  One Horner pass
        in y = x^2 per angle, E(y) + x O(y), is within 32 eps sum |c_L|.
        """
        if getattr(theta, "ndim", None) == 1 and theta.dtype == float:  # float64 elements are floats
            theta = theta.tolist()
        try:
            angles = iter(theta)
        except TypeError:
            return self.evaluate((theta,))[0]
        c0, c1, c2, c3, c4 = self.coefficients
        # P_2 = (3y - 1)/2, P_3 = (5y - 3)x/2, P_4 = ((35y - 30)y + 3)/8
        e0, e2, e4 = c0 - 0.5 * c2 + 0.375 * c4, 1.5 * c2 - 3.75 * c4, 4.375 * c4
        o1, o3 = c1 - 1.5 * c3, 2.5 * c3
        cos, pi = math.cos, math.pi
        values = []
        for t in angles:
            if not 0.0 <= t <= pi:
                raise ValueError("theta must lie in [0, pi]")
            x = cos(t)
            y = x * x
            values.append(e0 + y * (e2 + y * e4) + x * (o1 + y * o3))
        return values


def legendre_coefficients(
    params: ShapeParams, config: ChannelConfig = ChannelConfig(), *, huby_phase: bool = False
) -> LegendreSeries:
    """c_0-normalised Legendre coefficients for the given params.

    A non-positive c_0 (possible only for pathological weightings) or a
    non-finite raw coefficient (A, B or C so large that a square or a
    product overflows) raises ``DegenerateModelError``.

    ``huby_phase`` is accepted and ignored: Huby's phase is the model's
    only convention, and the keyword stays until the benchmark, which
    still passes it, drops it.
    """
    raw = raw_coefficients(params, config)
    scale = raw[0]
    if scale <= 0.0:
        raise DegenerateModelError(f"non-positive isotropic coefficient c_0 = {scale:g}")
    try:
        return LegendreSeries(tuple(c / scale for c in raw), scale=scale)
    except ValueError:
        # an overflowing square or product leaves inf or NaN in raw, and so in the
        # normalised coefficients (inf / inf is NaN)
        raise DegenerateModelError(f"raw coefficients overflow at {params}") from None


def forward_backward_ratio(series: LegendreSeries) -> float:
    """U = forward / backward hemisphere yields of sigma(theta) sin(theta).

    Closed form from half-range Legendre integrals; the backward integral
    must be positive or the series is unphysical.
    """
    c0, c1, _, c3, _ = series.coefficients
    # forward row int_0^1 P_L dx = (P_{L-1}(0) - P_{L+1}(0)) / (2L + 1), 1 for L = 0,
    # that is (1, 1/2, 0, -1/8, 0); backward row int_-1^0 P_L dx = (-1)^L times it
    forward = c0 + 0.5 * c1 - 0.125 * c3
    backward = c0 - 0.5 * c1 + 0.125 * c3
    if backward <= 0.0:
        raise DegenerateModelError(f"non-positive backward yield {backward:g}")
    return forward / backward


def asymmetry(params: ShapeParams, config: ChannelConfig = ChannelConfig()) -> float:
    """Forward/backward asymmetry U of the model distribution."""
    return forward_backward_ratio(legendre_coefficients(params, config))
