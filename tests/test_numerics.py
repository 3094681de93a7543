"""Golden-section search and its bracketed global variant."""
import numpy as np
import pytest

from povmcert._numerics import bracketed_scan_max, golden_section_max


def test_golden_section_quadratic():
    x, fx = golden_section_max(lambda x: -((x - 0.3) ** 2), -1, 1, tol=1e-12)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert fx == pytest.approx(0.0, abs=1e-13)


def test_bracketed_scan_finds_global_max_of_multimodal():
    # two peaks; the taller one is narrow and off-center
    f = lambda x: np.exp(-200 * (x - 0.731) ** 2) * 1.0 + 0.8 * np.exp(-5 * (x + 0.4) ** 2)
    x, fx = bracketed_scan_max(f, -1, 1, subintervals=64, tol=1e-12)
    xs = np.linspace(-1, 1, 2_000_001)
    fs = f(xs)
    assert x == pytest.approx(xs[fs.argmax()], abs=1e-6)
    assert fx >= fs.max() - 1e-12


def test_bracketed_scan_endpoint_maximum():
    x, fx = bracketed_scan_max(lambda x: x, -1, 1)
    assert x == pytest.approx(1.0, abs=1e-9)
    x, fx = bracketed_scan_max(lambda x: -x, -1, 1)
    assert x == pytest.approx(-1.0, abs=1e-9)

