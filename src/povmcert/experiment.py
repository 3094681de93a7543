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

    C . m = cos2q R sin(4h - 2q + phi) + C_y sin2q
          = R/2 sin(4h + phi) + R/2 sin(4h - 4q + phi) + C_y sin2q,
    R = hypot(C_x, C_z),  phi = atan2(C_z, C_x).

With (h, q) = nominal + sigma z, z ~ N(0, I_2), a group's term is
sum_i w_i sin(c_i + u_i . z), w = (R/2, R/2, C_y), and the covariance
of two such sines is exact:

    Cov_ij = 1/2 exp(-(|u_i|^2 + |u_j|^2) / 2)
             [cos(c_i - c_j) expm1(u_i . u_j) - cos(c_i + c_j) expm1(-u_i . u_j)].

Groups draw independently, so the spread is sqrt(sum_g w^T Cov w).
The expm1 form keeps full precision at small sigma, where
E[f^2] - E[f]^2 would cancel; it agrees with a 60 x 60 Gauss-Hermite
quadrature of the full Bloch plate model to about 1e-13 relative.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fidelity import EnvelopeCurve
from .optimize import BOUND_SLOTS, BoundResult
from .qubit import Povm, observable_axes, validate_povm
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
        report = validate_povm(self.povm)
        if not report.ok:
            raise ValueError(f"not a valid POVM: {report.violations}")

    @property
    def prep_blochs(self) -> Array:
        angles = self.plate_angles
        return _blochs_from_angles(angles[:, 0], angles[:, 1])

    @property
    def plate_angles(self) -> Array:
        return np.array(self.preparations, dtype=float)

    def scenario_shape(self) -> tuple[int, int, int]:
        return (len(self.preparations), len(self.binaries), self.povm.outcomes)

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
    names = reader.fieldnames
    if names is None or not {"x", "y", "b", "n"}.issubset(names):
        raise ValueError("counts CSV needs columns x,y,b,n")
    repeated = sorted({c for c in names if names.count(c) > 1})
    if repeated:
        raise ValueError(f"counts CSV header (line {reader.line_num}) repeats {','.join(repeated)}")
    records = []
    for row in reader:
        if None in row:
            raise ValueError(f"counts CSV line {reader.line_num} has more cells than its header")
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
    independent sqrt(n) fluctuations.  The cells of a group share their
    total, so the two cells of a binary group get the same sigma and move
    in opposite directions; `evaluate_witness` counts each group once.
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


def plate_systematic(cfg: ExperimentConfig, spec: WitnessSpec) -> float:
    """Standard deviation of the noiseless witness under plate-angle jitter.

    Plates are re-positioned for every (preparation, setting) group, so
    each group has its own independent normal angle errors with
    sigma = motor FWHM / 2.355.  That independence matters: with one
    error per preparation shared across settings, the first-order terms
    cancel at the ideal configuration (the witness maximum is critical
    in every shared angle) and the spread collapses by three orders of
    magnitude.  The measurement side is left untouched (its
    imperfections live in the visibility model).

    The value is exact, from the Gaussian covariance of the module
    docstring; one 3 x 3 kernel in the error directions u serves every
    group.
    """
    _check_scenario(cfg, spec)
    _, C = bloch_linear_form(spec, cfg.binaries, cfg.povm.weights, cfg.povm.blochs)
    settings = C.shape[1]
    C = C.reshape(-1, 3)  # one row per (preparation, setting) group
    h, q = np.repeat(np.deg2rad(cfg.plate_angles), settings, axis=0).T
    phase = 4 * h + np.arctan2(C[:, 2], C[:, 0])
    c = np.stack([phase, phase - 4 * q, 2 * q], axis=1)
    half = np.hypot(C[:, 0], C[:, 2]) / 2
    w = np.stack([half, half, C[:, 1]], axis=1)
    sigma = np.deg2rad(cfg.motor_fwhm_deg / _FWHM_TO_SIGMA)
    u = sigma * np.array([[4.0, 0.0], [4.0, -4.0], [0.0, 2.0]])  # per (hwp, qwp) error
    dot = u @ u.T
    norms = np.diag(dot)
    damp = 0.5 * np.exp(-(norms[:, None] + norms) / 2)
    cov = damp * (
        np.cos(c[:, :, None] - c[:, None, :]) * np.expm1(dot)
        - np.cos(c[:, :, None] + c[:, None, :]) * np.expm1(-dot)
    )
    var = np.einsum("gi,gij,gj->", w, cov, w)
    # a group whose C is aligned with its prep has an O(sigma^4) variance,
    # which rounding may leave a hair below zero
    return float(np.sqrt(max(var, 0.0)))


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
    qubit_consistent: bool | None
    verdicts: dict[str, bool]
    fidelity_estimate: float | None = None
    # why fidelity_estimate is None; None when there is an estimate
    fidelity_missing: str | None = None

    def to_dict(self) -> dict:
        return {
            "witness": self.witness,
            "k": self.k,
            "value": self.value,
            "stat_err": self.stat_err,
            "syst_err": self.syst_err,
            "bounds": dict(self.bounds),
            "heuristic": dict(self.heuristic),
            "qubit_consistent": self.qubit_consistent,
            "verdicts": dict(self.verdicts),
            "fidelity_estimate": None
            if self.fidelity_estimate is None
            else {
                "min_fidelity": self.fidelity_estimate,
                "basis": "heuristic, sampling-based",
                "read_at": self.value - self.stat_err - self.syst_err,
            },
            "fidelity_missing": self.fidelity_missing,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _bound_slot(kind: str) -> str | None:
    for slot in BOUND_SLOTS:
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
    bound.  Every verdict rests on the qubit assumption, so none passes
    when that lower point lies above the family's quantum maximum
    (`qubit_consistent` false; None for a family with no known
    maximum).  The four-outcome verdict needs the three-outcome bound
    and only exists for four-outcome scenarios.  A projective bound
    restricted to one outcome pair (diagnostics "assignment") is refused:
    a projective device may place its projectors on any pair, so only the
    maximum over pairs is a threshold.  The fidelity estimate is
    the envelope's floor at the same lower confidence point, the value
    minus both error bars, when a curve is given: the floor does not
    decrease with the value, so reading it at the value itself would be
    the optimistic end.  A qubit-inconsistent report gives none, since
    no qubit POVM reaches its read point, and `fidelity_missing` names
    the reason whenever the estimate is None.
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
        if slot == "projective" and "assignment" in b.diagnostics:
            raise ValueError(
                f"projective bound is restricted to outcomes {b.diagnostics['assignment']}; certify needs every pair"
            )
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
    consistent = None if spec.quantum_max is None else bool(margin <= spec.quantum_max)
    if consistent is False:
        verdicts = dict.fromkeys(verdicts, False)
    if envelope is None:
        estimate, missing = None, "no envelope given"
    elif consistent is False:
        estimate, missing = None, "qubit-inconsistent: value - stat - syst exceeds the quantum maximum"
    else:
        estimate = envelope.floor_at(margin)
        missing = None if estimate is not None else "no sampled envelope bin at or above the read point"
    return WitnessReport(
        witness=spec.name,
        k=spec.k,
        value=float(measured.value),
        stat_err=float(stat),
        syst_err=float(syst_err),
        bounds={slot: float(b.value) for slot, b in slots.items()},
        heuristic={slot: bool(b.heuristic) for slot, b in slots.items()},
        qubit_consistent=consistent,
        verdicts=verdicts,
        fidelity_estimate=estimate,
        fidelity_missing=missing,
    )
