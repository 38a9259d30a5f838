"""Recoupling coefficients against an exact rational oracle.

The oracle (tests/oracles.py) evaluates the same closed sums with
fractions.Fraction big-integer arithmetic and shares no code with the
package.  Both round one exact square to float and take one square root,
so Clebsch-Gordan, 6j and Racah W values must equal the oracle bit for
bit; only the Z coefficient, a product of floats, keeps a tolerance.  A
sample of oracle values is itself cross-checked against
sympy.physics.wigner in test_oracle_matches_sympy, keeping the two routes
honest.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import Rational
from sympy.physics.wigner import wigner_6j as sympy_6j

import oracles
from oracles import cg_exact, racah_w_exact, six_j_exact, z_coeff_exact
from photoevap import angmom, xsection
from photoevap.angmom import (
    clear_caches,
    clebsch_gordan,
    racah_w,
    wigner_6j,
    z_coeff,
)

ORACLE_TOL = 1e-13


def spins_up_to(two_j_max):
    return [Fraction(t, 2) for t in range(two_j_max + 1)]


def projections(j):
    two_j = int(2 * j)
    return [j - k for k in range(two_j + 1)]


# couplings at 2j in 20..40 whose exact value is 0 although every selection
# rule allows a nonzero one; doubled (j1, m1, j2, m2, j, m) and {a b c; d e f}
CG_ACCIDENTAL_ZEROS = [
    (39, 1, 40, -2, 39, -1),
    (27, 5, 35, -19, 24, -14),
    (36, -2, 37, 1, 37, -1),
    (24, -2, 22, 4, 24, 2),
    (20, 6, 25, -9, 21, -3),
]
SIX_J_ACCIDENTAL_ZEROS = [(20, 36, 20, 36, 22, 26), (37, 23, 36, 21, 21, 24)]


def halves(doubled):
    return [Fraction(t, 2) for t in doubled]


def high_spin_cg_cases(count=200, seed=20):
    """Seeded doubled (j1, m1, j2, m2, j, m), every 2j in 20..40, then the accidental zeros."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        tj1, tj2, tj = (int(t) for t in rng.integers(20, 41, 3))
        tm1 = 2 * int(rng.integers(0, tj1 + 1)) - tj1
        tm2 = 2 * int(rng.integers(0, tj2 + 1)) - tj2
        if angmom._triangle_two(tj1, tj2, tj) and abs(tm1 + tm2) <= tj:
            cases.append((tj1, tm1, tj2, tm2, tj, tm1 + tm2))
    return cases + CG_ACCIDENTAL_ZEROS


def high_spin_6j_cases(count=200, seed=40):
    """Seeded doubled {a b c; d e f} with all four triads allowed, then the accidental zeros."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        ta, tb, tc, td, te, tf = (int(t) for t in rng.integers(20, 41, 6))
        triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
        if all(angmom._triangle_two(*t) for t in triads):
            cases.append((ta, tb, tc, td, te, tf))
    return cases + SIX_J_ACCIDENTAL_ZEROS


class TestSpinParsing:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, 0), (1, 2), (0.5, 1), ("3/2", 3), (Fraction(5, 2), 5), (np.int64(3), 6)],
    )
    def test_doubled_forms(self, value, expected):
        assert angmom._two_j(value) == expected

    @pytest.mark.parametrize("bad", [0.3, "2/3", -1, -0.5, "spin", True, 1000])
    def test_rejects_non_spins(self, bad):
        with pytest.raises(ValueError):
            angmom._two_j(bad)


class TestClebschGordan:
    @pytest.mark.parametrize(
        "args,expected",
        [
            ((0.5, 0.5, 0.5, -0.5, 1, 0), math.sqrt(0.5)),
            ((1, 0, 1, 0, 2, 0), math.sqrt(2.0 / 3.0)),
            ((1, 0, 1, 0, 0, 0), -math.sqrt(1.0 / 3.0)),
            ((1, -1, 1, 1, 2, 0), math.sqrt(1.0 / 6.0)),
            (("3/2", "1/2", 1, -1, "1/2", "-1/2"), math.sqrt(1.0 / 6.0)),
            ((1, 1, 1, 1, 2, 2), 1.0),
            ((0, 0, 0, 0, 0, 0), 1.0),
        ],
    )
    def test_frozen_values(self, args, expected):
        assert clebsch_gordan(*args) == pytest.approx(expected, abs=1e-14)

    def test_selection_rules_give_exact_zero(self):
        assert clebsch_gordan(1, 1, 1, 0, 2, 0) == 0.0
        assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 1) == 0.0

    def test_invalid_projection_raises(self):
        with pytest.raises(ValueError):
            clebsch_gordan(1, 2, 1, 0, 2, 2)
        with pytest.raises(ValueError):
            clebsch_gordan(1, 0.5, 1, 0, 1, 0.5)

    def test_matches_exact_oracle_on_grid(self):
        checked = 0
        for j1 in spins_up_to(5):
            for j2 in spins_up_to(5):
                for j in spins_up_to(6):
                    if oracles._triangle_sq(j1, j2, j) is None:
                        continue
                    for m1 in projections(j1):
                        for m2 in projections(j2):
                            m = m1 + m2
                            if abs(m) > j:
                                continue
                            got = clebsch_gordan(j1, m1, j2, m2, j, m)
                            want = cg_exact(j1, m1, j2, m2, j, m).value()
                            assert got == want
                            checked += 1
        assert checked >= 500

    def test_matches_exact_oracle_at_high_spin(self):
        zeros = 0
        for case in high_spin_cg_cases():
            want = cg_exact(*halves(case)).value()
            assert clebsch_gordan(*halves(case)) == want, case
            zeros += want == 0.0
        assert zeros >= len(CG_ACCIDENTAL_ZEROS)

    def test_orthogonality(self):
        # sum over m1, m2 of C(J M) C(J' M') = delta_JJ' delta_MM'
        j1, j2 = Fraction(3, 2), 1
        couplings = [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
        for ja in couplings:
            for jb in couplings:
                for ma in projections(ja):
                    for mb in projections(jb):
                        total = 0.0
                        for m1 in projections(j1):
                            for m2 in projections(j2):
                                total += clebsch_gordan(j1, m1, j2, m2, ja, ma) * clebsch_gordan(
                                    j1, m1, j2, m2, jb, mb
                                )
                        want = 1.0 if (ja, ma) == (jb, mb) else 0.0
                        assert total == pytest.approx(want, abs=1e-12)

    @given(
        tj1=st.integers(0, 6),
        tj2=st.integers(0, 6),
        tj=st.integers(0, 8),
        data=st.data(),
    )
    def test_swap_symmetry(self, tj1, tj2, tj, data):
        if not angmom._triangle_two(tj1, tj2, tj):
            return
        tm1 = data.draw(st.integers(-tj1, tj1).filter(lambda t: (t - tj1) % 2 == 0))
        tm2 = data.draw(st.integers(-tj2, tj2).filter(lambda t: (t - tj2) % 2 == 0))
        if abs(tm1 + tm2) > tj:
            return
        j1, j2, j = Fraction(tj1, 2), Fraction(tj2, 2), Fraction(tj, 2)
        m1, m2 = Fraction(tm1, 2), Fraction(tm2, 2)
        direct = clebsch_gordan(j1, m1, j2, m2, j, m1 + m2)
        swapped = clebsch_gordan(j2, m2, j1, m1, j, m1 + m2)
        phase = (-1) ** ((tj1 + tj2 - tj) // 2)
        assert direct == pytest.approx(phase * swapped, abs=1e-14)

    @given(
        tj1=st.integers(0, 6),
        tj2=st.integers(0, 6),
        tj=st.integers(0, 8),
        data=st.data(),
    )
    def test_projection_negation_symmetry(self, tj1, tj2, tj, data):
        if not angmom._triangle_two(tj1, tj2, tj):
            return
        tm1 = data.draw(st.integers(-tj1, tj1).filter(lambda t: (t - tj1) % 2 == 0))
        tm2 = data.draw(st.integers(-tj2, tj2).filter(lambda t: (t - tj2) % 2 == 0))
        if abs(tm1 + tm2) > tj:
            return
        j1, j2, j = Fraction(tj1, 2), Fraction(tj2, 2), Fraction(tj, 2)
        m1, m2 = Fraction(tm1, 2), Fraction(tm2, 2)
        direct = clebsch_gordan(j1, m1, j2, m2, j, m1 + m2)
        negated = clebsch_gordan(j1, -m1, j2, -m2, j, -(m1 + m2))
        phase = (-1) ** ((tj1 + tj2 - tj) // 2)
        assert direct == pytest.approx(phase * negated, abs=1e-14)


class TestWigner6j:
    @pytest.mark.parametrize(
        "args,expected",
        [
            ((1, 1, 1, 1, 1, 1), 1.0 / 6.0),
            ((1, 1, 0, 1, 1, 1), -1.0 / 3.0),
            ((2, 1, 1, 1, 1, 1), 1.0 / 6.0),
            ((0.5, 0.5, 1, 0.5, 0.5, 1), 1.0 / 6.0),
        ],
    )
    def test_frozen_values(self, args, expected):
        assert wigner_6j(*args) == pytest.approx(expected, abs=1e-14)

    def test_triad_failure_gives_exact_zero(self):
        assert wigner_6j(1, 1, 3, 1, 1, 1) == 0.0
        assert wigner_6j(0.5, 0.5, 0.5, 0.5, 0.5, 0.5) == 0.0

    def test_zero_argument_reduction(self):
        # {a b c; 0 c b} = (-1)^(a+b+c) / sqrt((2b+1)(2c+1))
        for a, b, c in [(1, 1, 2), (2, Fraction(3, 2), Fraction(5, 2)), (0, 1, 1), (3, 2, 1)]:
            if oracles._triangle_sq(a, b, c) is None:
                continue
            got = wigner_6j(a, b, c, 0, c, b)
            phase = (-1) ** int(a + b + c)
            want = phase / math.sqrt((2 * b + 1) * (2 * c + 1))
            assert got == pytest.approx(want, abs=1e-14)

    def test_column_permutation_symmetry(self):
        cases = [
            (1, 2, 3, 2, 1, 2),
            (Fraction(3, 2), 1, Fraction(5, 2), 2, Fraction(1, 2), Fraction(3, 2)),
        ]
        for a, b, c, d, e, f in cases:
            base = wigner_6j(a, b, c, d, e, f)
            assert wigner_6j(b, a, c, e, d, f) == pytest.approx(base, abs=1e-14)
            assert wigner_6j(c, b, a, f, e, d) == pytest.approx(base, abs=1e-14)
            # swapping upper and lower entries in two columns
            assert wigner_6j(a, e, f, d, b, c) == pytest.approx(base, abs=1e-14)

    def test_matches_exact_oracle_on_grid(self):
        checked = 0
        grid = [Fraction(t, 2) for t in range(4)]
        for a in grid:
            for b in grid:
                for c in grid:
                    for d in grid:
                        for e in grid:
                            for f in grid:
                                got = wigner_6j(a, b, c, d, e, f)
                                want = six_j_exact(a, b, c, d, e, f).value()
                                assert got == want
                                checked += 1
        assert checked == 4**6

    def test_matches_exact_oracle_at_high_spin(self):
        zeros = 0
        for case in high_spin_6j_cases():
            want = six_j_exact(*halves(case)).value()
            assert wigner_6j(*halves(case)) == want, case
            zeros += want == 0.0
        assert zeros >= len(SIX_J_ACCIDENTAL_ZEROS)

    def test_orthogonality(self):
        # sum_x (2x+1) {a b x; c d p} {a b x; c d q} = delta_pq / (2p+1),
        # for p compatible with the fixed triads (a, d, p) and (b, c, p)
        a, b, c, d = 1, Fraction(3, 2), Fraction(3, 2), 1
        ps = [0, 1, 2]
        xs = spins_up_to(10)
        for p in ps:
            for q in ps:
                total = 0.0
                for x in xs:
                    total += (
                        (2 * x + 1)
                        * wigner_6j(a, b, x, c, d, p)
                        * wigner_6j(a, b, x, c, d, q)
                    )
                want = 1.0 / (2 * p + 1) if p == q else 0.0
                assert total == pytest.approx(want, abs=1e-12)


class TestRacahW:
    def test_matches_exact_oracle(self):
        grid = [Fraction(t, 2) for t in range(4)]
        for a in grid:
            for b in grid:
                for c in grid:
                    for d in grid:
                        if (a + b + c + d).denominator != 1:
                            continue
                        for e in grid:
                            for f in grid:
                                got = racah_w(a, b, c, d, e, f)
                                want = racah_w_exact(a, b, c, d, e, f).value()
                                assert got == want

    def test_matches_exact_oracle_at_high_spin(self):
        # W(a b c d; e f) reads the 6j {a b e; d c f}
        zeros = 0
        for ta, tb, te, td, tc, tf in high_spin_6j_cases():
            args = halves((ta, tb, tc, td, te, tf))
            want = racah_w_exact(*args).value()
            assert racah_w(*args) == want, args
            zeros += want == 0.0
        assert zeros >= len(SIX_J_ACCIDENTAL_ZEROS)

    def test_pair_swap_symmetry(self):
        # W(a b c d; e f) = W(b a d c; e f) = W(c d a b; e f)
        args = (1, Fraction(3, 2), 2, Fraction(3, 2), Fraction(1, 2), 2)
        a, b, c, d, e, f = args
        base = racah_w(a, b, c, d, e, f)
        assert base != 0.0
        assert racah_w(b, a, d, c, e, f) == pytest.approx(base, abs=1e-14)
        assert racah_w(c, d, a, b, e, f) == pytest.approx(base, abs=1e-14)


class TestZCoeff:
    @pytest.mark.parametrize(
        "args,expected",
        [
            ((0, 0.5, 2, 1.5, 0.5, 2), 2.0),
            ((1, 0.5, 1, 1.5, 0.5, 2), 2.0),
            ((1, 1.5, 3, 2.5, 0.5, 2), -math.sqrt(12.0 / 7.0)),
        ],
    )
    def test_frozen_values(self, args, expected):
        assert z_coeff(*args) == pytest.approx(expected, abs=1e-13)

    def test_odd_parity_gives_exact_zero(self):
        for value in (z_coeff(0, 0.5, 1, 0.5, 0.5, 2), z_coeff(1, 1.5, 2, 2.5, 0.5, 2)):
            assert value == 0.0
            assert math.copysign(1.0, value) == 1.0  # +0.0, never -0.0

    def test_non_integer_orbital_raises(self):
        with pytest.raises(ValueError):
            z_coeff(0.5, 0.5, 1, 1.5, 0.5, 1)
        with pytest.raises(ValueError):
            z_coeff(1, 0.5, 1, 1.5, 0.5, 1.5)

    def test_matches_exact_oracle(self):
        checked = 0
        s = Fraction(1, 2)
        for l1 in range(5):
            for l2 in range(5):
                for big_l in range(5):
                    for j1 in {abs(l1 - s), l1 + s}:
                        for j2 in {abs(l2 - s), l2 + s}:
                            got = z_coeff(l1, j1, l2, j2, s, big_l)
                            want = z_coeff_exact(l1, j1, l2, j2, s, big_l).value()
                            assert got == pytest.approx(want, abs=ORACLE_TOL)
                            checked += 1
        assert checked >= 250


class TestOracleSelfConsistency:
    def test_oracle_matches_sympy(self):
        # keeps the oracle honest through an unrelated implementation
        rng = np.random.default_rng(11)
        spins = [Fraction(t, 2) for t in range(6)]
        checked = 0
        while checked < 60:
            a, b, c, d, e, f = (spins[i] for i in rng.integers(0, len(spins), 6))
            try:
                want = float(
                    sympy_6j(*(Rational(x.numerator, x.denominator) for x in (a, b, c, d, e, f)))
                )
            except ValueError:
                # sympy raises on non-integral triads; the value is zero
                want = 0.0
            got = six_j_exact(a, b, c, d, e, f).value()
            assert got == pytest.approx(want, abs=1e-13)
            checked += 1


class TestCache:
    def test_cache_round_trip_is_bit_identical(self):
        clear_caches()
        args = (Fraction(3, 2), Fraction(1, 2), 1, 0, Fraction(3, 2), Fraction(1, 2))
        first = clebsch_gordan(*args)
        direct = angmom._cg_two.__wrapped__(3, 1, 2, 0, 3, 1)
        hits = angmom._cg_two.cache_info().hits
        cached = clebsch_gordan(*args)
        assert first == direct
        assert math.copysign(1.0, first) == math.copysign(1.0, direct)
        assert cached == first
        assert angmom._cg_two.cache_info().hits == hits + 1

    def test_clear_caches_empties(self):
        clebsch_gordan(1, 0, 1, 0, 2, 0)
        wigner_6j(1, 1, 1, 1, 1, 1)
        assert angmom._cg_two.cache_info().currsize
        assert angmom._6j_two.cache_info().currsize
        clear_caches()
        assert angmom._cg_two.cache_info().currsize == 0
        assert angmom._6j_two.cache_info().currsize == 0

    def test_cold_term_build_constructs_no_fraction(self, monkeypatch):
        # integer spins take the doubled-integer path from the boundary inwards
        constructed = []

        def counting_fraction(*args, **kwargs):
            constructed.append(args)
            return Fraction(*args, **kwargs)

        clear_caches()
        xsection._spin_geometry.cache_clear()
        monkeypatch.setattr(angmom, "Fraction", counting_fraction)
        assert xsection.enumerate_terms()
        assert constructed == []
