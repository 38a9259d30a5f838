"""Regenerate the bundled demonstration data.

Run from the repository root after installing the package:

    python3 sample_data/generate.py

Both files are synthetic.  The angular file draws three energy bins from
the model at A=0.082, B=0.47, C=0.37, r=0.11 with 5% Gaussian noise and
per-bin normalizations (seed 20260823).  The spectrum file draws counts
from eps * sigma_inv(eps) * exp(-eps/T) at T=0.55 MeV for proton capture
on a (208, 82) residual, with sqrt-N counting noise (same seed).

The bundled angular file was drawn under the 0.1.0 interference geometry;
the 0.2.0 model (Huby's phase) fits it jointly at chi-square 18.92 / 18.32
/ 18.11 (equal / 2I+1 / spin-cutoff, 23 dof).  This script now draws a
different angular file from the 0.2.0 model and the same spectrum file.
"""

from __future__ import annotations

import pathlib

import numpy as np

from photoevap import NucleusSpec, ShapeParams, inverse_capture_xsec, synth_dataset

SEED = 20260823
HERE = pathlib.Path(__file__).resolve().parent


def write_angular() -> None:
    params = ShapeParams(A=0.082, B=0.47, C=0.37, r=0.11)
    thetas = np.linspace(30.0, 150.0, 10)
    norms = [1200.0, 950.0, 610.0]
    labels = ["E55", "E65", "E75"]
    datasets = synth_dataset(
        params, norms, thetas, noise_frac=0.05, seed=SEED, bin_labels=labels
    )
    lines = ["bin_label,theta_deg,yield,err"]
    for ds in datasets:
        for theta, value, err in zip(ds.theta_deg, ds.yields, ds.errors):
            lines.append(f"{ds.bin_label},{theta:.6g},{value:.8g},{err:.8g}")
    (HERE / "angular_bi_gp.csv").write_text("\n".join(lines) + "\n")


def write_spectrum() -> None:
    rng = np.random.default_rng(SEED)
    nucleus = NucleusSpec(208, 82)
    temperature = 0.55
    eps = np.arange(2.0, 8.01, 0.25)
    sigma = np.array([inverse_capture_xsec(nucleus, 0, e) for e in eps])
    shape = eps * sigma * np.exp(-eps / temperature)
    counts = shape * (2.0e5 / shape.max())
    noisy = rng.normal(counts, np.sqrt(counts))
    noisy = np.clip(noisy, 1.0, None)
    err = np.sqrt(noisy)
    lines = ["eps_mev,counts,err"]
    lines.extend(
        f"{e:.6g},{c:.8g},{s:.8g}" for e, c, s in zip(eps, noisy, err)
    )
    (HERE / "spectrum_bi_gp.csv").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    write_angular()
    write_spectrum()
    print("wrote", HERE / "angular_bi_gp.csv")
    print("wrote", HERE / "spectrum_bi_gp.csv")
