"""Acceptance gate: nine criteria, one verdict line each.

Run with ``pytest -v`` so every criterion shows as its own pass/fail
line; each test also prints an ``ACCEPTANCE <n> PASS|FAIL`` line
(visible with ``-s`` or on failure).  Tolerances and runtime caps are
asserted, not just reported.
"""

import math
import time
from fractions import Fraction

import numpy as np

from oracles import cg_exact, legendre_project, racah_w_exact, six_j_exact, z_coeff_exact
from photoevap.angmom import clebsch_gordan, racah_w, wigner_6j, z_coeff
from photoevap.fitkit import fit_angular, synth_dataset
from photoevap.thermo import (
    NucleusSpec,
    SpectrumPoint,
    exciton_report,
    fit_temperature,
    inverse_capture_xsec,
    scale_spectrum,
    timescales,
)
from photoevap.xsection import (
    ShapeParams,
    asymmetry,
    legendre_coefficients,
    raw_coefficients,
)

REFERENCE = ShapeParams(A=0.082, B=0.47, C=0.37, r=0.11)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_half_spins(rng, n, two_j_max=6):
    return [Fraction(int(t), 2) for t in rng.integers(0, two_j_max + 1, n)]


def test_criterion_1_coefficient_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    checked = 0

    cg_checked = 0
    while cg_checked < 250:  # Clebsch-Gordan with valid projections
        j1, j2, j = random_half_spins(rng, 3)
        m1 = j1 - Fraction(int(rng.integers(0, int(2 * j1) + 1)))
        m2 = j2 - Fraction(int(rng.integers(0, int(2 * j2) + 1)))
        m = m1 + m2
        if abs(m) > j or (j + m).denominator != 1:
            continue  # projection invalid for this j; both routes reject it
        got = clebsch_gordan(j1, m1, j2, m2, j, m)
        want = cg_exact(j1, m1, j2, m2, j, m).value()
        worst = max(worst, abs(got - want))
        cg_checked += 1
    checked += cg_checked

    for _ in range(150):  # 6j
        a, b, c, d, e, f = random_half_spins(rng, 6)
        worst = max(worst, abs(wigner_6j(a, b, c, d, e, f) - six_j_exact(a, b, c, d, e, f).value()))
        checked += 1

    w_checked = 0
    while w_checked < 100:  # Racah W (integral phase required)
        a, b, c, d, e, f = random_half_spins(rng, 6)
        if (a + b + c + d).denominator != 1:
            continue
        worst = max(worst, abs(racah_w(a, b, c, d, e, f) - racah_w_exact(a, b, c, d, e, f).value()))
        w_checked += 1
    checked += w_checked

    for _ in range(100):  # Z coefficients, integer orbitals with spin-1/2 partners
        l1, l2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        big_l = int(rng.integers(0, 5))
        s = Fraction(1, 2)
        j1 = abs(l1 - s) if rng.integers(0, 2) else l1 + s
        j2 = abs(l2 - s) if rng.integers(0, 2) else l2 + s
        worst = max(
            worst,
            abs(z_coeff(l1, j1, l2, j2, s, big_l) - z_coeff_exact(l1, j1, l2, j2, s, big_l).value()),
        )
        checked += 1

    # orthogonality sums
    ortho_worst = 0.0
    j1, j2 = Fraction(3, 2), 1
    for ja in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
        for jb in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
            for ma in [ja - k for k in range(int(2 * ja) + 1)]:
                if abs(ma) > jb:
                    continue  # projection impossible for jb; both sides zero
                total = 0.0
                for tm1 in range(-3, 4, 2):
                    m1 = Fraction(tm1, 2)
                    m2 = ma - m1
                    if abs(m2) > j2 or (j2 + m2).denominator != 1:
                        continue
                    total += clebsch_gordan(j1, m1, j2, m2, ja, ma) * clebsch_gordan(
                        j1, m1, j2, m2, jb, ma
                    )
                want = 1.0 if ja == jb else 0.0
                ortho_worst = max(ortho_worst, abs(total - want))
    a, b, c, d = 1, Fraction(3, 2), Fraction(3, 2), 1
    for p in (0, 1, 2):
        for q in (0, 1, 2):
            total = sum(
                (2 * x + 1) * wigner_6j(a, b, x, c, d, p) * wigner_6j(a, b, x, c, d, q)
                for x in [Fraction(t, 2) for t in range(11)]
            )
            want = 1.0 / (2 * p + 1) if p == q else 0.0
            ortho_worst = max(ortho_worst, abs(total - want))

    elapsed = time.perf_counter() - start
    ok = checked >= 500 and worst <= 1e-12 and ortho_worst <= 1e-12 and elapsed < 5.0
    verdict(
        1,
        ok,
        f"{checked} oracle comparisons, worst {worst:.2e}, "
        f"orthogonality worst {ortho_worst:.2e}, {elapsed:.2f}s",
    )


def random_params(rng, r=None):
    a, b, c = np.exp(rng.uniform(math.log(1e-2), math.log(10.0), 3))
    if r is None:
        r = float(np.expm1(rng.uniform(0.0, math.log1p(50.0))))
    return ShapeParams(A=float(a), B=float(b), C=float(c), r=r)


def test_criterion_2_model_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_imag = 0.0
    worst_const = 0.0
    worst_affine = 0.0
    worst_high = 0.0
    for _ in range(50):
        params = random_params(rng)
        raw = np.asarray(raw_coefficients(params))
        worst_imag = max(worst_imag, float(np.max(np.abs(raw.imag))) / abs(raw[0].real))

        # odd orders times (1+r) must not depend on r
        damped = []
        for r in (0.0, 0.4, 2.0, 9.0):
            varied = ShapeParams(A=params.A, B=params.B, C=params.C, r=r)
            vec = np.asarray(raw_coefficients(varied)).real
            damped.append((1.0 + r) * vec[[1, 3]])
        ref = np.abs(damped[0])
        scale = np.maximum(ref, 1e-30)
        for vec in damped[1:]:
            worst_const = max(worst_const, float(np.max(np.abs(vec - damped[0]) / scale)))

        # even orders must be affine in A
        a_values = (0.0, 1.0, 2.0, 3.5)
        vecs = [
            np.asarray(raw_coefficients(
                ShapeParams(A=a, B=params.B, C=params.C, r=params.r)
            )).real[[0, 2, 4]]
            for a in a_values
        ]
        slope = vecs[2] - vecs[1]
        for a, vec in zip(a_values, vecs):
            predicted = vecs[1] + (a - 1.0) * slope
            denom = np.maximum(np.abs(predicted), 1e-30)
            worst_affine = max(worst_affine, float(np.max(np.abs(vec - predicted) / denom)))

        # nothing above P_4 in the realised series
        series = legendre_coefficients(params)
        projected = legendre_project(series.evaluate, 9, n_nodes=19)
        worst_high = max(worst_high, float(np.max(np.abs(projected[5:]))))

    elapsed = time.perf_counter() - start
    ok = (
        worst_imag < 1e-10
        and worst_const < 1e-10
        and worst_affine < 1e-10
        and worst_high < 1e-10
        and elapsed < 5.0
    )
    verdict(
        2,
        ok,
        f"imag {worst_imag:.2e}, (1+r)*c_odd drift {worst_const:.2e}, "
        f"affine-in-A {worst_affine:.2e}, orders>=5 {worst_high:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_bohr_limit_symmetry():
    params = ShapeParams(A=REFERENCE.A, B=REFERENCE.B, C=REFERENCE.C, r=1e12)
    series = legendre_coefficients(params)
    theta = np.linspace(0.0, math.pi / 2, 200)
    asymmetric_part = np.abs(
        np.asarray(series.evaluate(theta)) - np.asarray(series.evaluate(math.pi - theta))
    )
    rel = float(np.max(asymmetric_part)) / series.evaluate(math.pi / 2)
    ok = rel < 1e-10
    verdict(3, ok, f"max |sigma(theta)-sigma(pi-theta)|/sigma(90deg) = {rel:.2e}")


def test_criterion_4_brute_force_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        params = random_params(rng)
        series = legendre_coefficients(params)
        projected = legendre_project(series.evaluate, 5, n_nodes=19)
        worst = max(worst, float(np.max(np.abs(projected - series.coefficients))))
    ok = worst < 1e-10
    verdict(4, ok, f"20 parameter sets, worst projected-coefficient error {worst:.2e}")


def test_criterion_5_fit_round_trip_and_coverage():
    start = time.perf_counter()
    thetas = np.linspace(30.0, 150.0, 10)
    norms = [1200.0, 950.0, 610.0]

    clean = synth_dataset(REFERENCE, norms, thetas, 0.0, None)
    result = fit_angular(clean, n_starts=16, tol=1e-12)
    rel = max(
        abs(result.params.A - REFERENCE.A) / REFERENCE.A,
        abs(result.params.B - REFERENCE.B) / REFERENCE.B,
        abs(result.params.C - REFERENCE.C) / REFERENCE.C,
        abs(result.params.r - REFERENCE.r) / REFERENCE.r,
    )
    round_trip_ok = rel < 1e-4 and result.chi2 < 1e-10

    covered = 0
    target = math.log1p(REFERENCE.r)
    for seed in range(100):
        noisy = synth_dataset(REFERENCE, norms, thetas, 0.05, seed)
        fit = fit_angular(noisy, n_starts=6, tol=1e-10)
        sigma = math.sqrt(max(fit.covariance[3, 3], 0.0))
        if abs(math.log1p(fit.params.r) - target) <= sigma:
            covered += 1

    elapsed = time.perf_counter() - start
    ok = round_trip_ok and covered >= 85 and elapsed < 60.0
    verdict(
        5,
        ok,
        f"zero-noise rel err {rel:.2e}, chi2 {result.chi2:.2e}, "
        f"1-sigma coverage {covered}/100, {elapsed:.1f}s",
    )


def test_criterion_6_exciton_numbers():
    low = exciton_report(208, 6.3)
    high = exciton_report(209, 14.0)
    ok = (
        abs(low.n_bar - 14.2) <= 0.3
        and abs(low.n_sigma - 2.66) <= 0.005
        and abs(low.t_low - 0.374) <= 0.01
        and abs(low.t_high - 0.547) <= 0.01
        and abs(high.t_low - 0.57) <= 0.01
        and abs(high.t_high - 0.78) <= 0.01
    )
    verdict(
        6,
        ok,
        f"n_bar {low.n_bar:.3f}, n_sigma {low.n_sigma:.3f}, "
        f"T [{low.t_low:.3f}, {low.t_high:.3f}] and [{high.t_low:.3f}, {high.t_high:.3f}] MeV",
    )


def test_criterion_7_timescales():
    report = timescales(0.11, 0.1, 2.0, 1e-16)
    ratio = report.tau_phase / report.tau_thermalization
    ok = (
        0.01 / 1.2 <= report.beta <= 0.01 * 1.2
        and abs(report.tau_phase - 6e-14) / 6e-14 <= 0.05
        and abs(report.tau_thermalization - 3e-22) / 3e-22 <= 0.15
        and 1e8 <= ratio < 1e9
        and 1e-6 <= report.t_heisenberg <= 1e-4
        and 1e15 <= report.n_eff <= 1e17
    )
    verdict(
        7,
        ok,
        f"beta {report.beta:.4g} eV, tau_ph {report.tau_phase:.3g}s, "
        f"tau_th {report.tau_thermalization:.3g}s, ratio {ratio:.2g}, "
        f"t_H {report.t_heisenberg:.2g}s, n_eff {report.n_eff:.2g}",
    )


def _spectrum_counts(eps, temperature):
    nucleus = NucleusSpec(208, 82)
    sigma = np.array([inverse_capture_xsec(nucleus, 0, e) for e in eps])
    return 1e5 * eps * sigma * np.exp(-eps / temperature), nucleus


def test_criterion_8_temperature_extraction():
    temperature = 0.55
    eps = np.arange(3.0, 8.01, 0.25)
    counts, nucleus = _spectrum_counts(eps, temperature)

    clean = [SpectrumPoint(float(e), float(c)) for e, c in zip(eps, counts)]
    fit = fit_temperature(scale_spectrum(clean, nucleus), eps_max=8.0)
    zero_noise_rel = abs(fit.temperature - temperature) / temperature

    within = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = counts * (1.0 + 0.05 * rng.standard_normal(eps.size))
        points = [
            SpectrumPoint(float(e), float(c), float(0.05 * t))
            for e, c, t in zip(eps, noisy, counts)
        ]
        noisy_fit = fit_temperature(scale_spectrum(points, nucleus), eps_max=8.0)
        if abs(noisy_fit.temperature - temperature) <= 3.0 * noisy_fit.temperature_err:
            within += 1

    # 3-sigma misses have ~0.3% probability per seed; demanding 97/100
    # keeps the check sharp without betting on every tail event
    ok = zero_noise_rel < 0.01 and within >= 97
    verdict(
        8,
        ok,
        f"zero-noise rel err {zero_noise_rel:.2e}, "
        f"3-standard-error containment {within}/100",
    )


def test_criterion_9_asymmetry_monotonicity():
    r_ladder = (0.0, 0.11, 0.5, 1.0, 10.0, 1e3)
    values = [
        asymmetry(ShapeParams(A=REFERENCE.A, B=REFERENCE.B, C=REFERENCE.C, r=r))
        for r in r_ladder
    ]
    monotone = all(a > b for a, b in zip(values, values[1:]))
    toward_unity = all(v > 1.0 for v in values)
    visible = abs(asymmetry(REFERENCE) - 1.0) > 0.05
    ok = monotone and toward_unity and visible
    verdict(
        9,
        ok,
        "U(r) = " + ", ".join(f"{v:.4f}" for v in values) + f"; |U-1| at reference {abs(values[1]-1.0):.3f}",
    )
