"""The bundled sample files against what sample_data/generate.py writes.

The spectrum file is reproducible byte for byte.  The angular file was drawn
under the 0.1.0 interference geometry and is kept as drawn, so the script
now writes a different one on the same bins and angles.
"""

import importlib.util
from pathlib import Path

import pytest

SAMPLE_DIR = Path(__file__).resolve().parents[1] / "sample_data"


@pytest.fixture
def generate(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("generate", SAMPLE_DIR / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "HERE", tmp_path)
    return module


def test_spectrum_sample_is_reproduced_byte_for_byte(generate, tmp_path):
    generate.write_spectrum()
    name = "spectrum_bi_gp.csv"
    assert (tmp_path / name).read_bytes() == (SAMPLE_DIR / name).read_bytes()


def test_angular_sample_keeps_its_grid_and_not_its_yields(generate, tmp_path):
    generate.write_angular()
    name = "angular_bi_gp.csv"
    drawn = [line.split(",") for line in (tmp_path / name).read_text().splitlines()]
    bundled = [line.split(",") for line in (SAMPLE_DIR / name).read_text().splitlines()]
    assert [row[:2] for row in drawn] == [row[:2] for row in bundled]
    # every yield moves: each bin's model curve changed shape, not only its scale
    assert all(new[2] != old[2] for new, old in zip(drawn[1:], bundled[1:]))
