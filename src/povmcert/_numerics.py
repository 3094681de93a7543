"""Global 1-D maximization for the closed-form projective bounds.

`bracketed_scan_max` is plain golden-section search made global by
bracketing local maxima on a coarse grid first; the closed-form
projective bounds are smooth but can be bimodal in their 1-D reduction,
so a single golden run is not safe.
"""
from __future__ import annotations

import numpy as np

Array = np.ndarray

INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Maximize a unimodal scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    h = b - a
    if h <= tol:
        x = (a + b) / 2
        return x, float(f(x))
    c = b - INV_PHI * h
    d = a + INV_PHI * h
    fc, fd = float(f(c)), float(f(d))
    while h > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - INV_PHI * h
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INV_PHI * h
            fd = float(f(d))
    x = (a + b) / 2
    return x, float(f(x))


def bracketed_scan_max(
    f, lo: float, hi: float, *, subintervals: int = 64, tol: float = 1e-10
) -> tuple[float, float]:
    """Global 1-D maximization: bracket maxima on a grid, refine each by golden section."""
    xs = np.linspace(lo, hi, subintervals + 1)
    fs = np.array([float(f(x)) for x in xs])
    best = int(np.argmax(fs))
    best_x, best_f = float(xs[best]), float(fs[best])
    interior = np.nonzero((fs[1:-1] >= fs[:-2]) & (fs[1:-1] >= fs[2:]))[0] + 1
    brackets = [(xs[i - 1], xs[i + 1]) for i in interior]
    if fs[0] >= fs[1]:
        brackets.append((xs[0], xs[1]))
    if fs[-1] >= fs[-2]:
        brackets.append((xs[-2], xs[-1]))
    for a, b in brackets:
        x, fx = golden_section_max(f, a, b, tol)
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f
