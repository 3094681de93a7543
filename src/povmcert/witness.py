"""Prepare-and-measure witnesses over qubit strategies.

A scenario has X preparations, Y binary measurement settings, and one
extra setting realized by an O-outcome POVM.  A witness is the linear
functional

    A = sum_{x,y,b} c_{xyb} P(b | x, y)  -  k * sum_x P(b = x | x, povm)

of the observed table, with penalty weight k >= 0.  The penalty pairs
preparation x with POVM outcome x, so scenarios require X >= O.

Because every strategy here is a qubit strategy in Bloch form, the
binary part collapses to

    A_base = offset + sum_{x,y} D_{xy} (m_x . n_y),
    offset = (1/2) sum_{xyb} c_{xyb},    D_{xy} = (c_{xy0} - c_{xy1}) / 2,

with m_x the preparation Bloch vectors and n_y the observable axes.
`offset` is also the base value on maximally mixed preparations, which
the robustness module uses as the classical baseline.

Preparations come as one array M of shape (X, S, 3): the state
preparation x delivers during each setting.  S = 1 is one state for
every setting; S = Y + 1 is one state per binary setting followed by
the one seen by the POVM setting (per-setting depolarization and
re-positioned wave plates both take this form).  `bloch_values` is the
one batched witness evaluator on that format, with the batch axes last
as the see-saws hold their rows (M (X, S, 3, ...)), and
`probability_table` the one Born-table builder.  `bloch_linear_form`
restates the evaluator at fixed measurements as const + sum C * M, for
callers that score many M against one set of measurements.

A `Strategy` holds the same arrays for one explicit qubit strategy:
preparation Bloch vectors (X, 3), observable axes (Y, 3) and a `Povm`.

Three families ship as builders: a four-outcome witness maximized by a
tetrahedral (symmetric informationally complete) POVM, and two
three-outcome witnesses maximized by a trine POVM.  Their coefficient
tables and quantum maxima are fixed here; everything downstream treats
them as ordinary `WitnessSpec` values.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .qubit import Povm, observable_axes, state_vectors

Array = np.ndarray

SQ3 = np.sqrt(3.0)

# Tetrahedron of Bloch directions whose quarter-weight POVM is the
# four-outcome target, and the coplanar trine for the three-outcome ones.
TETRAHEDRON = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / SQ3
TRINE = np.array([[0.0, 0.0, -1.0], [-SQ3 / 2, 0.0, 0.5], [SQ3 / 2, 0.0, 0.5]])

ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class Scenario:
    """Table dimensions: X preparations, Y binary settings, O POVM outcomes."""

    preparations: int
    binary_settings: int
    povm_outcomes: int

    def __post_init__(self) -> None:
        if self.preparations < 1 or self.binary_settings < 1 or self.povm_outcomes < 2:
            raise ValueError("scenario dimensions out of range")
        if self.preparations < self.povm_outcomes:
            raise ValueError(
                "penalty pairs preparation x with POVM outcome x: need X >= O"
            )


@dataclass(frozen=True, eq=False)
class WitnessSpec:
    """Coefficient tensor c (shape (X, Y, 2)) plus penalty weight k.

    `quantum_max` is the known quantum value for shipped families and
    None for custom tensors; the quantum bound reports this value.
    """

    name: str
    scenario: Scenario
    coeffs: Array
    k: float
    quantum_max: float | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        expected = (self.scenario.preparations, self.scenario.binary_settings, 2)
        if c.shape != expected:
            raise ValueError(f"coefficient tensor must have shape {expected}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if not np.isfinite(self.k) or self.k < 0:
            raise ValueError(f"penalty weight k must be finite and >= 0, got {self.k}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # cached: the see-saw evaluates every iteration through these
    @cached_property
    def bloch_coeffs(self) -> Array:
        """D_{xy} = (c_{xy0} - c_{xy1}) / 2, the Bloch-form coupling matrix."""
        D = (self.coeffs[:, :, 0] - self.coeffs[:, :, 1]) / 2.0
        D.flags.writeable = False
        return D

    @cached_property
    def offset(self) -> float:
        """Base value on maximally mixed preparations."""
        return float(self.coeffs.sum()) / 2.0


@dataclass(frozen=True, eq=False)
class Strategy:
    """A full qubit strategy: preparations (X, 3), observable axes (Y, 3), POVM.

    The arrays are read-only copies; every preparation has |m| <= 1 and
    every axis is a unit vector.
    """

    preparations: Array
    binaries: Array
    povm: Povm

    def __post_init__(self) -> None:
        object.__setattr__(self, "preparations", state_vectors(self.preparations))
        object.__setattr__(self, "binaries", observable_axes(self.binaries))

    def to_dict(self) -> dict:
        return {
            "preparations": [[float(c) for c in m] for m in self.preparations],
            "binaries": [[float(c) for c in n] for n in self.binaries],
            "povm": self.povm.to_dict(),
        }


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Observed table: binary part (X, Y, 2) and POVM part (X, O).

    Error arrays, when present, hold one standard error per cell and
    share the shapes of their probability arrays.
    """

    binary: Array
    povm: Array
    binary_err: Array | None = None
    povm_err: Array | None = None

    def __post_init__(self) -> None:
        b = np.asarray(self.binary, dtype=float)
        p = np.asarray(self.povm, dtype=float)
        if b.ndim != 3 or b.shape[2] != 2:
            raise ValueError("binary part must have shape (X, Y, 2)")
        if p.ndim != 2 or p.shape[0] != b.shape[0]:
            raise ValueError("povm part must have shape (X, O) with matching X")
        for arr in (b, p):
            if not np.all(np.isfinite(arr)):
                raise ValueError("probabilities must be finite")
            if arr.min() < -1e-9 or arr.max() > 1 + 1e-9:
                raise ValueError("probabilities must lie in [0, 1]")
        if np.max(np.abs(b.sum(axis=2) - 1.0)) > ROW_SUM_TOL:
            raise ValueError("binary outcome rows must sum to 1")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise ValueError("povm outcome rows must sum to 1")
        object.__setattr__(self, "binary", b)
        object.__setattr__(self, "povm", p)
        for name, err, shape in (
            ("binary_err", self.binary_err, b.shape),
            ("povm_err", self.povm_err, p.shape),
        ):
            if err is not None:
                err = np.asarray(err, dtype=float)
                if err.shape != shape or err.min() < 0:
                    raise ValueError(f"{name} must be nonnegative with shape {shape}")
                object.__setattr__(self, name, err)

    @property
    def scenario(self) -> Scenario:
        return Scenario(self.binary.shape[0], self.binary.shape[1], self.povm.shape[1])

    @property
    def has_errors(self) -> bool:
        return self.binary_err is not None and self.povm_err is not None


class WitnessValue(NamedTuple):
    value: float
    stderr: float | None


def probability_table(M: Array, N: Array, weights: Array, blochs: Array) -> ProbabilityTable:
    """Exact Born-rule table, in Bloch form, for per-setting preparations.

    M (X, S, 3) as in the module docstring, observable axes N (Y, 3)
    and a POVM's weights (O,) and Bloch vectors (O, 3).
    """
    Y = N.shape[0]
    corr = np.einsum("xyi,yi->xy", M[:, :Y, :], N)
    binary = np.stack([(1 + corr) / 2, (1 - corr) / 2], axis=2)
    pov = weights[None, :] * (1.0 + M[:, -1, :] @ blochs.T)
    return ProbabilityTable(binary, pov)


def bloch_values(
    spec: WitnessSpec, M: Array, N: Array, weights: Array, blochs: Array, k: float | Array | None = None
) -> Array:
    """Witness values of a batch of qubit strategies in Bloch form, batch axes last.

    offset + sum_{xy} D_{xy} m_{xy} . n_y - k sum_x w_x (1 + p_x . m_x),
    with m_{xy} the state preparation x delivers during setting y.
    M (X, S, 3, ...), N (Y, 3, ...), weights (O, ...), blochs (O, 3, ...);
    the trailing axes broadcast and are the shape of the result.  k
    defaults to spec.k; an array of penalty weights broadcasts against
    the trailing axes (one k per strategy).
    """
    Y = spec.scenario.binary_settings
    O = spec.scenario.povm_outcomes
    base = np.einsum("xyi...,xy,yi...->...", M[:, :Y], spec.bloch_coeffs, N)
    overlap = np.einsum("oi...,oi...->o...", blochs, M[:O, -1])
    pen = np.einsum("o...,o...->...", weights, 1.0 + overlap)
    return spec.offset + base - (spec.k if k is None else k) * pen


def bloch_linear_form(
    spec: WitnessSpec, N: Array, weights: Array, blochs: Array
) -> tuple[float, Array]:
    """`bloch_values` at fixed measurements, as an affine form of M.

    Returns (const, C) with C of shape (X, Y + 1, 3), so that
    bloch_values(spec, M, N, weights, blochs) = const + sum C * M for
    any per-setting M (X, Y + 1, 3): const = offset - k sum_x w_x,
    C[x, y] = D_xy n_y on the binary settings, C[x, Y] = -k w_x p_x for
    x < O, and zero elsewhere.  N (Y, 3), weights (O,), blochs (O, 3).
    """
    Y = spec.scenario.binary_settings
    O = spec.scenario.povm_outcomes
    C = np.zeros((spec.scenario.preparations, Y + 1, 3))
    C[:, :Y] = spec.bloch_coeffs[:, :, None] * N
    C[:O, Y] = -spec.k * weights[:, None] * blochs
    return spec.offset - spec.k * float(np.sum(weights)), C


def evaluate_witness(spec: WitnessSpec, table: ProbabilityTable) -> WitnessValue:
    """Witness value on a table; propagates cell standard errors when present.

    Error propagation is first-order.  The two cells of a binary group
    are complementary (p_1 = 1 - p_0, so an ingested table has
    sigma_0 = sigma_1), so group (x, y) adds (c_xy0 - c_xy1)^2 sigma_xy0^2;
    the penalty adds k^2 sigma(x|x)^2 per preparation, whose POVM groups
    are independent:
    sigma_A^2 = sum_xy (c_xy0 - c_xy1)^2 sigma_xy0^2 + k^2 sum_x sigma(x|x)^2.
    """
    sc = table.scenario
    if sc != spec.scenario:
        raise ValueError(f"table scenario {sc} does not match witness scenario {spec.scenario}")
    O = sc.povm_outcomes
    diag = np.arange(O)
    value = float(np.sum(spec.coeffs * table.binary)) - spec.k * float(
        np.sum(table.povm[diag, diag])
    )
    stderr = None
    if table.has_errors:
        var = float(np.sum((spec.coeffs[..., 0] - spec.coeffs[..., 1]) ** 2 * table.binary_err[..., 0] ** 2))
        var += spec.k**2 * float(np.sum(table.povm_err[diag, diag] ** 2))
        stderr = float(np.sqrt(var))
    return WitnessValue(value, stderr)


# ---------------------------------------------------------------------------
# shipped witness families
# ---------------------------------------------------------------------------

# outcome table for the four-outcome witness: row x lists the rewarded
# binary outcome for settings y = 0, 1, 2
_SIC_CELLS = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])

SIC_QUANTUM_MAX = 0.5 * (1.0 + 1.0 / SQ3)
TRINE_QUANTUM_MAX = 5.0
SYM_TRINE_QUANTUM_MAX = 5.0 / 6.0


def sic_witness(k: float) -> WitnessSpec:
    """Four-outcome family: X=4 preparations, Y=3 binary settings, O=4.

    Coefficient 1/12 on one rewarded outcome per (x, y) cell; maximized
    at (1 + 1/sqrt3)/2 by tetrahedral preparations, Pauli observables,
    and the anti-aligned quarter-weight tetrahedral POVM.
    """
    c = np.zeros((4, 3, 2))
    for x in range(4):
        for y in range(3):
            c[x, y, _SIC_CELLS[x, y]] = 1.0 / 12.0
    return WitnessSpec("sic", Scenario(4, 3, 4), c, float(k), SIC_QUANTUM_MAX)


def trine_witness(k: float) -> WitnessSpec:
    """Three-outcome family with X=3, Y=2 and unnormalized coefficients.

    c_{xy b} = T_{xy} (-1)^b with T columns (1, 1, -1) and
    (sqrt3, -sqrt3, 0); quantum maximum 5.
    """
    T = np.array([[1.0, SQ3], [1.0, -SQ3], [-1.0, 0.0]])
    c = np.stack([T, -T], axis=2)
    return WitnessSpec("trine", Scenario(3, 2, 3), c, float(k), TRINE_QUANTUM_MAX)


def sym_trine_witness(k: float) -> WitnessSpec:
    """Symmetrized three-outcome family: X=Y=3, coefficient 1/9 on b = [x == y]."""
    c = np.zeros((3, 3, 2))
    for x in range(3):
        for y in range(3):
            c[x, y, 1 if x == y else 0] = 1.0 / 9.0
    return WitnessSpec("sym-trine", Scenario(3, 3, 3), c, float(k), SYM_TRINE_QUANTUM_MAX)


WITNESS_BUILDERS = {
    "sic": sic_witness,
    "trine": trine_witness,
    "sym-trine": sym_trine_witness,
}


def build_witness(name: str, k: float) -> WitnessSpec:
    try:
        return WITNESS_BUILDERS[name](k)
    except KeyError:
        raise ValueError(f"unknown witness family {name!r}; have {sorted(WITNESS_BUILDERS)}") from None

