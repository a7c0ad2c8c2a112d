"""Each demo script runs to completion and prints what it promises."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# a line each demo must print, so a demo that stops early or goes quiet fails
EXPECT = {
    "01_error_correcting_code.py": "recovered m = 23 (true m = 23)",
    "02_embed_extract.py": "noisy extraction: 1100101001101110 (match: True)",
    "03_perceptual_fit.py": "construction kept 4 of 6 candidates",
    "04_keys_and_signatures.py": "asymmetric scheme with the public key: match",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(EXPECT)


@pytest.mark.parametrize("name", sorted(EXPECT))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert EXPECT[name] in capsys.readouterr().out
