"""Photonic-experiment layer: wave plates, counts, and certification reports.

Preparations are polarization states: |H> through a quarter-wave plate,
then a half-wave plate.  On the Bloch sphere (x = diagonal, y =
circular, z = H/V) the QWP sets the latitude sin(2q) and the HWP
reflects the in-plane angle, landing at the closed form

    (cos2q sin(4h - 2q), sin2q, cos2q cos(4h - 2q)),

which the published plate settings exploit to reach the tetrahedron and
the trine.  It is the right-handed convention: those settings give the
right-handed tetrahedron, while the mirrored one reproduces the same
table with y negated and is wrong here.

The noise model depolarizes preparations per measurement setting: each
binary setting carries the interference visibility of its nearest Pauli
basis, the POVM setting the mean of the three.  Measurements themselves
stay ideal; plate imperfections on the measurement side are not
separable from those visibilities without a full interferometer model.
This noise and the plate jitter of the systematics both act on the
state each preparation delivers during each setting, the per-setting
format of the witness module's evaluator, table builder and linear form.

Counts are independent Poisson draws.  Statistical errors propagate
sqrt(N) through the count ratios; the systematic error is the spread of
the noiseless witness value under normally distributed plate-angle
errors (the quoted 0.02 degree figure is a FWHM, converted to sigma by
/ 2.355).  At fixed measurements the witness is const + sum C . m over
the (preparation, setting) groups (`witness.bloch_linear_form`), and
the plate model projects onto each group's C in closed form:

    C . m = cos2q R sin(4h - 2q + phi) + C_y sin2q,
    R = hypot(C_x, C_z),  phi = atan2(C_z, C_x),

so the Monte Carlo scores a run with three sines or cosines per group
and never builds its Bloch vectors.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fidelity import EnvelopeCurve
from .optimize import BoundResult
from .qubit import Povm, observable_axes
from .sampling import RngStream
from .witness import (
    ProbabilityTable,
    WitnessSpec,
    bloch_linear_form,
    evaluate_witness,
    probability_table,
)

Array = np.ndarray

POVM_SETTING = "povm"

# published interference visibilities per Pauli basis
LAB_VISIBILITY_Z = 0.9991
LAB_VISIBILITY_X = 0.9931
LAB_VISIBILITY_Y = 0.9923

_FWHM_TO_SIGMA = 2.355

# wave-plate settings (hwp, qwp) in degrees for the tetrahedron preps
SIC_PLATE_ANGLES = (
    (20.07, 17.63),
    (24.93, -17.63),
    (-24.93, 17.63),
    (-20.07, -17.63),
)
# and for the trine preps (QWP at zero: linear polarization only)
TRINE_PLATE_ANGLES = ((0.0, 0.0), (30.0, 0.0), (-30.0, 0.0))

_MC_CHUNK = 4_096


def _blochs_from_angles(hwp_deg: Array, qwp_deg: Array) -> Array:
    """Bloch vectors of |H> through QWP(qwp) then HWP(hwp); appends axis 3.

    The closed form of the module docstring, for angle arrays of any
    shape (many perturbed angle sets are evaluated at once).
    """
    h = np.deg2rad(hwp_deg)
    q = np.deg2rad(qwp_deg)
    lat = np.cos(2 * q)
    plane = 4 * h - 2 * q
    return np.stack(
        [lat * np.sin(plane), np.sin(2 * q), lat * np.cos(plane)], axis=-1
    )


@dataclass(frozen=True)
class Visibilities:
    """Interference visibility per Pauli basis, in [0, 1]."""

    z: float = 1.0
    x: float = 1.0
    y: float = 1.0

    def __post_init__(self) -> None:
        for name in ("z", "x", "y"):
            v = getattr(self, name)
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"visibility {name} must lie in [0, 1]")

    def for_axis(self, axis: Array) -> float:
        """Visibility of the Pauli basis nearest to a measurement axis."""
        return (self.x, self.y, self.z)[int(np.argmax(np.abs(axis)))]

    def povm_setting(self) -> float:
        return (self.x + self.y + self.z) / 3.0

    def to_dict(self) -> dict:
        return {"z": self.z, "x": self.x, "y": self.y}


LAB_VISIBILITIES = Visibilities(z=LAB_VISIBILITY_Z, x=LAB_VISIBILITY_X, y=LAB_VISIBILITY_Y)


class CountsRecord(NamedTuple):
    """One detector group cell: setting y is a binary index or "povm"."""

    x: int
    y: int | str
    b: int
    n: int


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Plate angles, visibilities, ideal measurements, and budgets."""

    preparations: tuple[tuple[float, float], ...]  # (hwp_deg, qwp_deg) per x
    visibilities: Visibilities
    binaries: Array  # (Y, 3) unit observable axes, read-only
    povm: Povm
    photon_budget: float
    motor_fwhm_deg: float = 0.02

    def __post_init__(self) -> None:
        if not self.preparations:
            raise ValueError("need at least one preparation")
        for h, q in self.preparations:
            if not (np.isfinite(h) and np.isfinite(q)):
                raise ValueError("wave-plate angles must be finite")
        if not (np.isfinite(self.photon_budget) and self.photon_budget > 0):
            raise ValueError("photon budget must be positive")
        if not (np.isfinite(self.motor_fwhm_deg) and self.motor_fwhm_deg >= 0):
            raise ValueError("motor FWHM must be >= 0")
        object.__setattr__(self, "binaries", observable_axes(self.binaries))

    @property
    def prep_blochs(self) -> Array:
        angles = self.plate_angles
        return _blochs_from_angles(angles[:, 0], angles[:, 1])

    @property
    def plate_angles(self) -> Array:
        return np.array(self.preparations, dtype=float)

    def scenario_shape(self) -> tuple[int, int, int]:
        return (len(self.preparations), len(self.binaries), self.povm.outcomes)

    def to_dict(self) -> dict:
        budget = self.photon_budget
        return {
            "preparations": [
                {"hwp": float(h), "qwp": float(q)} for h, q in self.preparations
            ],
            "visibilities": self.visibilities.to_dict(),
            "budget": int(budget) if float(budget).is_integer() else float(budget),
            "motor_fwhm_deg": float(self.motor_fwhm_deg),
            "binaries": [[float(c) for c in n] for n in self.binaries],
            "povm": self.povm.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        vis = data["visibilities"]
        return cls(
            preparations=tuple(
                (float(p["hwp"]), float(p["qwp"])) for p in data["preparations"]
            ),
            visibilities=Visibilities(
                z=float(vis["z"]), x=float(vis["x"]), y=float(vis["y"])
            ),
            binaries=data["binaries"],
            povm=Povm.from_dict(data["povm"]),
            photon_budget=float(data["budget"]),
            motor_fwhm_deg=float(data.get("motor_fwhm_deg", 0.02)),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def sic_experiment(
    budget: float = 5_000_000, visibilities: Visibilities = LAB_VISIBILITIES
) -> ExperimentConfig:
    """Tetrahedral preparations, Pauli observables, anti-aligned POVM."""
    from .witness import TETRAHEDRON

    return ExperimentConfig(
        preparations=SIC_PLATE_ANGLES,
        visibilities=visibilities,
        binaries=np.eye(3),
        povm=Povm(np.full(4, 0.25), -TETRAHEDRON),
        photon_budget=budget,
    )


def trine_experiment(
    budget: float = 5_000_000, visibilities: Visibilities = LAB_VISIBILITIES
) -> ExperimentConfig:
    """Linear-polarization trine preps with the matching frame's observables.

    The plate table puts the preparations at minus the trine directions,
    so the value-5 frame has observables along the (renormalized)
    coefficient-weighted prep sums and the POVM on the trine itself.
    """
    sq3 = np.sqrt(3.0)
    from .witness import TRINE

    return ExperimentConfig(
        preparations=TRINE_PLATE_ANGLES,
        visibilities=visibilities,
        binaries=np.array([[sq3 / 2, 0.0, 0.5], [-0.5, 0.0, sq3 / 2]]),
        povm=Povm(np.full(3, 1.0 / 3.0), TRINE),
        photon_budget=budget,
    )


def expected_probabilities(cfg: ExperimentConfig) -> ProbabilityTable:
    """Exact outcome distributions of the modeled setup (no shot noise)."""
    vis = np.array(
        [cfg.visibilities.for_axis(n) for n in cfg.binaries]
        + [cfg.visibilities.povm_setting()]
    )
    M = cfg.prep_blochs[:, None] * vis[:, None]
    return probability_table(M, cfg.binaries, cfg.povm.weights, cfg.povm.blochs)


def _check_scenario(cfg: ExperimentConfig, spec: WitnessSpec) -> None:
    sc = spec.scenario
    expected = (sc.preparations, sc.binary_settings, sc.povm_outcomes)
    if cfg.scenario_shape() != expected:
        raise ValueError(
            f"config shape {cfg.scenario_shape()} does not match witness scenario {expected}"
        )


def simulate_counts(
    cfg: ExperimentConfig, spec: WitnessSpec, stream: RngStream
) -> list[CountsRecord]:
    """Poisson counts for every cell, mean budget times probability."""
    _check_scenario(cfg, spec)
    table = expected_probabilities(cfg)
    X, Y, O = cfg.scenario_shape()
    means = np.concatenate(
        [cfg.photon_budget * table.binary.ravel(), cfg.photon_budget * table.povm.ravel()]
    )
    draws = stream.generator().poisson(means)
    binary_n = draws[: X * Y * 2].reshape(X, Y, 2)
    povm_n = draws[X * Y * 2 :].reshape(X, O)
    records: list[CountsRecord] = []
    for x in range(X):
        for y in range(Y):
            for b in range(2):
                records.append(CountsRecord(x, y, b, int(binary_n[x, y, b])))
        for b in range(O):
            records.append(CountsRecord(x, POVM_SETTING, b, int(povm_n[x, b])))
    return records


def counts_to_csv(records: Sequence[CountsRecord]) -> str:
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["x", "y", "b", "n"])
    for r in records:
        w.writerow([r.x, r.y, r.b, r.n])
    return out.getvalue()


def counts_from_csv(text: str) -> list[CountsRecord]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or not {"x", "y", "b", "n"}.issubset(reader.fieldnames):
        raise ValueError("counts CSV needs columns x,y,b,n")
    records = []
    for row in reader:
        missing = [c for c in ("x", "y", "b", "n") if row[c] is None]
        if missing:
            raise ValueError(f"counts CSV line {reader.line_num} has no {','.join(missing)}")
        y_raw = row["y"].strip()
        y: int | str = POVM_SETTING if y_raw == POVM_SETTING else int(y_raw)
        records.append(CountsRecord(int(row["x"]), y, int(row["b"]), int(row["n"])))
    return records


def ingest_counts(records: Iterable[CountsRecord]) -> ProbabilityTable:
    """Count ratios with first-order Poisson errors.

    Per cell, p = n_b / N over its (x, setting) group and
    sigma^2 = n_b (N - n_b) / N^3, the ratio's variance under
    independent sqrt(n) fluctuations.
    """
    binary_cells: dict[tuple[int, int, int], int] = {}
    povm_cells: dict[tuple[int, int], int] = {}
    for r in records:
        if r.n < 0:
            raise ValueError(f"negative count in cell {r}")
        if r.x < 0 or r.b < 0:
            raise ValueError(f"negative index in cell {r}")
        if r.y == POVM_SETTING:
            povm_cells[(r.x, r.b)] = povm_cells.get((r.x, r.b), 0) + r.n
        else:
            if int(r.y) < 0:
                raise ValueError(f"negative index in cell {r}")
            key = (r.x, int(r.y), r.b)
            if r.b > 1:
                raise ValueError(f"binary outcome out of range in cell {r}")
            binary_cells[key] = binary_cells.get(key, 0) + r.n
    if not binary_cells or not povm_cells:
        raise ValueError("counts must cover binary and povm settings")
    X = max(x for x, _, _ in binary_cells) + 1
    Y = max(y for _, y, _ in binary_cells) + 1
    O = max(b for _, b in povm_cells) + 1

    n_bin = np.zeros((X, Y, 2))
    for (x, y, b), n in binary_cells.items():
        n_bin[x, y, b] = n
    n_povm = np.zeros((X, O))
    for (x, b), n in povm_cells.items():
        n_povm[x, b] = n
    if max(x for x, _ in povm_cells) + 1 != X:
        raise ValueError("povm settings cover different preparations than binaries")

    totals_bin = n_bin.sum(axis=2, keepdims=True)
    totals_povm = n_povm.sum(axis=1, keepdims=True)
    if totals_bin.min() <= 0 or totals_povm.min() <= 0:
        raise ValueError("every (preparation, setting) group needs at least one count")
    p_bin = n_bin / totals_bin
    p_povm = n_povm / totals_povm
    err_bin = np.sqrt(n_bin * (totals_bin - n_bin)) / totals_bin**1.5
    err_povm = np.sqrt(n_povm * (totals_povm - n_povm)) / totals_povm**1.5
    return ProbabilityTable(p_bin, p_povm, err_bin, err_povm)


def monte_carlo_systematic(
    cfg: ExperimentConfig, spec: WitnessSpec, runs: int, stream: RngStream
) -> float:
    """Spread of the noiseless witness under plate-angle jitter.

    Plates are re-positioned for every (preparation, setting) group, so
    each group draws its own independent normal angle errors with
    sigma = motor FWHM / 2.355.  That independence matters: with one
    draw per preparation shared across settings, the first-order terms
    cancel at the ideal configuration (the witness maximum is critical
    in every shared angle) and the spread collapses by three orders of
    magnitude.  The measurement side is left untouched (its
    imperfections live in the visibility model).  Returns the sample
    standard deviation of the witness value over the runs.

    Each run is scored through the projected plate model of the module
    docstring: R, phi, C_y and the nominal angles (in radians) are set
    up once, and a chunk of runs costs its normal draws and three
    sines or cosines per group, the same values as `_blochs_from_angles`
    scored by `bloch_values` up to rounding.
    """
    if runs < 100:
        raise ValueError("need at least 100 Monte Carlo runs")
    _check_scenario(cfg, spec)
    const, C = bloch_linear_form(spec, cfg.binaries, cfg.povm.weights, cfg.povm.blochs)
    settings = C.shape[1]
    C = C.reshape(-1, 3)  # one row per (preparation, setting) group
    amp = np.hypot(C[:, 0], C[:, 2])
    h, q = np.repeat(np.deg2rad(cfg.plate_angles), settings, axis=0).T
    two_q0 = 2 * q
    # plane angle plus phase, less 2q: the jittered 2q is subtracted per run
    plane0 = 4 * h + np.arctan2(C[:, 2], C[:, 0])
    sigma = np.deg2rad(cfg.motor_fwhm_deg / _FWHM_TO_SIGMA)
    # draws are taken chunk by chunk from one generator: the normal
    # stream does not depend on how it is split, and each run's sum
    # runs over its own row in the same order (a BLAS product would
    # round rows differently by their place in the chunk), so the
    # values do not depend on _MC_CHUNK
    gen = stream.generator()
    values = np.empty(runs)
    for lo in range(0, runs, _MC_CHUNK):
        hi = min(lo + _MC_CHUNK, runs)
        draws = gen.standard_normal(size=(hi - lo, len(C), 2))  # (hwp, qwp) errors
        two_q = draws[..., 1] * (2 * sigma)
        two_q += two_q0
        plane = draws[..., 0] * (4 * sigma)
        plane += plane0
        plane -= two_q
        np.sin(plane, out=plane)
        plane *= amp
        plane *= np.cos(two_q)
        np.sin(two_q, out=two_q)
        two_q *= C[:, 1]
        plane += two_q
        values[lo:hi] = plane.sum(axis=1)
    values += const
    return float(np.std(values, ddof=1))


@dataclass(frozen=True)
class WitnessReport:
    """Certification summary for one measured witness value."""

    witness: str
    k: float
    value: float
    stat_err: float
    syst_err: float
    bounds: dict[str, float]
    heuristic: dict[str, bool]
    verdicts: dict[str, bool]
    fidelity_estimate: float | None = None
    fidelity_basis: str = field(default="heuristic, sampling-based", repr=False)

    def to_dict(self) -> dict:
        return {
            "witness": self.witness,
            "k": self.k,
            "value": self.value,
            "stat_err": self.stat_err,
            "syst_err": self.syst_err,
            "bounds": dict(self.bounds),
            "heuristic": dict(self.heuristic),
            "verdicts": dict(self.verdicts),
            "fidelity_estimate": None
            if self.fidelity_estimate is None
            else {"min_fidelity": self.fidelity_estimate, "basis": self.fidelity_basis},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _bound_slot(kind: str) -> str | None:
    for slot in ("projective", "three-outcome", "quantum"):
        if kind.startswith(slot):
            return slot
    return None


def certify(
    table: ProbabilityTable,
    spec: WitnessSpec,
    bounds: Iterable[BoundResult],
    envelope: EnvelopeCurve | None = None,
    syst_err: float = 0.0,
) -> WitnessReport:
    """Evaluate a table against bounds and issue go/no-go verdicts.

    A verdict passes only when value minus both error bars clears its
    bound.  The four-outcome verdict needs the three-outcome bound and
    only exists for four-outcome scenarios.  The fidelity estimate is
    the envelope's floor at the measured value, when a curve is given.
    """
    if syst_err < 0 or not np.isfinite(syst_err):
        raise ValueError("systematic error must be finite and >= 0")
    slots: dict[str, BoundResult] = {}
    for b in bounds:
        slot = _bound_slot(b.kind)
        if slot is None:
            raise ValueError(f"bound kind {b.kind!r} not recognized")
        if slot in slots:
            raise ValueError(f"duplicate bound for slot {slot!r}")
        if not abs(b.k - spec.k) <= 1e-9:
            raise ValueError(
                f"bound {b.kind!r} was computed at k={b.k}, witness has k={spec.k}"
            )
        if not np.isfinite(b.value):
            raise ValueError(f"bound {b.kind!r} has a non-finite value {b.value}")
        slots[slot] = b
    if "projective" not in slots:
        raise ValueError("certification needs a projective bound")
    O = spec.scenario.povm_outcomes
    if O == 4 and "three-outcome" not in slots:
        raise ValueError("four-outcome certification needs a three-outcome bound")

    measured = evaluate_witness(spec, table)
    stat = measured.stderr if measured.stderr is not None else 0.0
    margin = measured.value - stat - syst_err

    verdicts = {
        "non_projective_certified": bool(margin > slots["projective"].value),
        "genuine_four_outcome_certified": bool(
            O == 4 and margin > slots["three-outcome"].value
        ),
    }
    estimate = envelope.floor_at(measured.value) if envelope is not None else None
    return WitnessReport(
        witness=spec.name,
        k=spec.k,
        value=float(measured.value),
        stat_err=float(stat),
        syst_err=float(syst_err),
        bounds={slot: float(b.value) for slot, b in slots.items()},
        heuristic={slot: bool(b.heuristic) for slot, b in slots.items()},
        verdicts=verdicts,
        fidelity_estimate=estimate,
    )
