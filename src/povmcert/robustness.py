"""Critical visibility: how much depolarizing noise a certification survives.

Depolarizing the preparations, rho -> v rho + (1-v) 1/2, scales every
preparation Bloch vector by v.  The witness is affine in those vectors:
the base part interpolates between its maximally mixed value a_rand,
the witness's `offset`, and its ideal value, while the penalty (zero for
an ideal strategy, exactly k on mixed preparations by POVM completeness)
contributes -k(1-v).  An ideal strategy seen through visibility v
therefore scores

    A(v) = v (a_q + k) + (1 - v)(a_rand - k),

and the visibility at which this drops to a bound B is

    v_crit = (B - a_rand + k) / (a_q - a_rand + k).

Sweeping k trades the tightness of the bound against the size of the
penalty; the sweep's minimum is the noise-robust operating point.
`visibility_curve` computes a sweep's see-saw bounds in one batch over
the whole k grid, where each k stops on its own rule.
"""
from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .optimize import (
    BOUND_SLOTS,
    CLOSED_FORM_PROJECTIVE,
    OptimizerConfig,
    projective_bound,
    projective_bounds_numeric,
    three_outcome_maxima,
)
from .witness import build_witness

log = logging.getLogger(__name__)

# the slots a visibility curve can take: the quantum slot is its A_q
BOUND_KINDS = BOUND_SLOTS[:2]

# matches the shipped sweep granularity; fine enough to localize the
# minimum to 0.01 in k
DEFAULT_K_GRID = tuple(round(0.01 * i, 2) for i in range(1, 101))


class CriticalVisibility(NamedTuple):
    value: float
    clamped: bool


def critical_visibility(k: float, bound: float, a_q: float, a_rand: float) -> CriticalVisibility:
    """Visibility at which a depolarized ideal strategy hits the bound.

    Clamps to [0, 1] (flagged and logged): a bound above a_q cannot be
    violated at any visibility, one below a_rand - k is violated even by
    noise alone.  A v within a few ulps of [0, 1] is rounding, as when a
    see-saw bound lands on a_q to the last digit: it is clipped unflagged.
    """
    for name, val in (("k", k), ("bound", bound), ("a_q", a_q), ("a_rand", a_rand)):
        if not np.isfinite(val):
            raise ValueError(f"{name} must be finite")
    if k < 0:
        raise ValueError("penalty weight k must be >= 0")
    denom = a_q - a_rand + k
    if denom <= 0:
        raise ValueError(
            f"a_q - a_rand + k = {denom:.6g} is not positive; no visibility scale"
        )
    v = (bound - a_rand + k) / denom
    ulps = 4 * np.finfo(float).eps
    clamped = not -ulps <= v <= 1.0 + ulps
    if clamped:
        log.warning("critical visibility %.6g outside [0, 1]; clamped", v)
    return CriticalVisibility(float(np.clip(v, 0.0, 1.0)), clamped)


@dataclass(frozen=True)
class VisibilityResult:
    """One point of a noise-robustness curve."""

    k: float
    bound_kind: str
    bound_value: float
    a_rand: float
    a_q: float
    v_crit: float
    clamped: bool
    heuristic: bool

    def __post_init__(self) -> None:
        if self.bound_kind not in BOUND_KINDS:
            raise ValueError(f"bound_kind must be one of {BOUND_KINDS}")
        if not 0.0 <= self.v_crit <= 1.0:
            raise ValueError("v_crit must lie in [0, 1]")


def visibility_curve(
    family: str,
    bound_kind: str,
    k_grid: Sequence[float] | None = None,
    config: OptimizerConfig | None = None,
) -> list[VisibilityResult]:
    """Critical visibility of one witness family across penalty weights.

    Per k: the requested bound (closed form where one exists, numeric
    search otherwise; `heuristic` records which), the family's quantum
    value, and the resulting v_crit.  The closed forms run per k; the
    numeric bounds of the whole grid run as one see-saw batch, where each
    k stops on its own rule and gets the result of a lone run.  One
    warning names every k whose search stopped unconverged.  Numeric-bound
    points inherit the usual caveat that a search can undershoot the true
    bound, which makes their v_crit an underestimate.
    """
    if bound_kind not in BOUND_KINDS:
        raise ValueError(f"bound_kind must be one of {BOUND_KINDS}")
    grid = DEFAULT_K_GRID if k_grid is None else tuple(float(k) for k in k_grid)
    if not grid:
        raise ValueError("k grid must be nonempty")
    config = config or OptimizerConfig()
    specs = [build_witness(family, k) for k in grid]
    if specs[0].quantum_max is None:
        raise ValueError(f"family {family!r} has no known quantum value")

    if bound_kind == "three-outcome":
        bounds = three_outcome_maxima(specs, config)
    elif family in CLOSED_FORM_PROJECTIVE:
        bounds = [projective_bound(spec, config) for spec in specs]
    else:
        bounds = projective_bounds_numeric(specs, config)
    unconverged = [repr(k) for k, res in zip(grid, bounds) if not res.diagnostics.get("converged", True)]
    if unconverged:
        log.warning("%s %s bound stopped unconverged at k = %s", family, bound_kind, ", ".join(unconverged))

    curve: list[VisibilityResult] = []
    for k, spec, res in zip(grid, specs, bounds):
        v = critical_visibility(k, res.value, spec.quantum_max, spec.offset)
        curve.append(
            VisibilityResult(
                k=k,
                bound_kind=bound_kind,
                bound_value=res.value,
                a_rand=spec.offset,
                a_q=spec.quantum_max,
                v_crit=v.value,
                clamped=v.clamped,
                heuristic=res.heuristic,
            )
        )
    return curve


def most_robust_point(curve: Sequence[VisibilityResult]) -> VisibilityResult:
    """The sweep point tolerating the most noise (smallest v_crit)."""
    if not curve:
        raise ValueError("curve is empty")
    return min(curve, key=lambda p: p.v_crit)


def visibility_curve_to_csv(curve: Sequence[VisibilityResult]) -> str:
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["k", "bound_kind", "bound", "v_crit"])
    for p in curve:
        w.writerow([repr(p.k), p.bound_kind, repr(p.bound_value), repr(p.v_crit)])
    return out.getvalue()
