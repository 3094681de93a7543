"""Qubit states, binary observables, and POVMs in Bloch form.

Conventions
-----------
A qubit state is stored as its Bloch vector r, with density operator
rho = (1/2)(I + r . sigma) and Pauli order sigma = (X, Y, Z).  A binary
observable n . sigma is stored as its unit axis n, outcome 0 being the
+1 eigenspace.  A POVM element is stored as a weight/direction pair
(w, n) with operator E = w (I + n . sigma); positivity is w >= 0 and
|n| <= 1, and a POVM is complete when sum_i w_i = 1 and
sum_i w_i n_i = 0.  Every object is an array: a POVM is its weights
(O,) and Bloch vectors (O, 3), and states and observables are (R, 3)
rows checked by `state_vectors` and `observable_axes`.  All
probabilities used elsewhere in the package reduce to inner products of
these vectors.

Extremal qubit POVMs come in three shapes: projective (two rank-one
orthogonal effects), three coplanar unit directions, and four unit
directions no three of which are coplanar.  `classify_extremal` names
which of these (if any) a valid POVM belongs to.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# validation tolerances; loosened deliberately for classification, where
# inputs come from iterative optimizers rather than exact constructions
NORM_TOL = 1e-9
COMPLETENESS_TOL = 1e-8
COPLANAR_TOL = 1e-7
UNIT_TOL = 1e-6
ZERO_WEIGHT = 1e-12


def _vectors(value, name: str) -> Array:
    """Read-only float copy of an (R, 3) array with finite entries."""
    v = np.array(value, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"{name} must have shape (R, 3), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    v.flags.writeable = False
    return v


def state_vectors(value) -> Array:
    """Bloch vectors of qubit states, (X, 3) with every |r| <= 1; read-only."""
    r = _vectors(value, "Bloch vectors")
    norms = np.linalg.norm(r, axis=1)
    if np.any(norms > 1.0 + NORM_TOL):
        raise ValueError(f"Bloch vector longer than 1: |r| = {norms.max()}")
    return r


def observable_axes(value) -> Array:
    """Unit axes of binary observables n . sigma, (Y, 3); read-only."""
    n = _vectors(value, "observable axes")
    off = np.abs(np.linalg.norm(n, axis=1) - 1.0)
    if np.any(off > UNIT_TOL):
        raise ValueError(f"observable axis must be unit length, |n| - 1 = {off.max()}")
    return n


@dataclass(frozen=True, eq=False)
class Povm:
    """Effects w_i (I + n_i . sigma): weights (O,) and Bloch vectors (O, 3).

    Both arrays are read-only copies.  Completeness and positivity are
    checked by `validate_povm`, not here.
    """

    weights: Array
    blochs: Array

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("POVM needs at least one element")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w.flags.writeable = False
        n = _vectors(self.blochs, "POVM Bloch vectors")
        if len(n) != w.size:
            raise ValueError("weights and blochs must have shapes (O,) and (O, 3)")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "blochs", n)

    @property
    def outcomes(self) -> int:
        return self.weights.size

    def to_dict(self) -> dict:
        return {
            "elements": [
                {"lambda": float(w), "bloch": [float(c) for c in n]}
                for w, n in zip(self.weights, self.blochs)
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Povm":
        elements = data["elements"]
        return cls([float(e["lambda"]) for e in elements], [e["bloch"] for e in elements])


@dataclass(frozen=True)
class PovmValidation:
    ok: bool
    violations: tuple[tuple[str, float], ...]


def validate_povm(povm: Povm) -> PovmValidation:
    """Check positivity of every effect and completeness of the set.

    Returns a report listing each violated constraint with its residual;
    `ok` is True when the list is empty.
    """
    violations: list[tuple[str, float]] = []
    w = povm.weights
    excess = np.linalg.norm(povm.blochs, axis=1) - 1.0
    for i in range(povm.outcomes):
        if w[i] < -ZERO_WEIGHT:
            violations.append((f"element {i}: negative weight", float(-w[i])))
        if excess[i] > NORM_TOL:
            violations.append((f"element {i}: Bloch direction longer than 1", float(excess[i])))
    total = float(w.sum()) - 1.0
    if abs(total) > COMPLETENESS_TOL:
        violations.append(("weights do not sum to 1", abs(total)))
    resid = float(np.linalg.norm(w @ povm.blochs))
    if resid > COMPLETENESS_TOL:
        violations.append(("weighted Bloch vectors do not sum to 0", resid))
    return PovmValidation(ok=not violations, violations=tuple(violations))


def classify_extremal(povm: Povm) -> str:
    """Name the extremal class of a valid POVM.

    Returns one of "projective", "extremal-3", "extremal-4" or
    "non-extremal".  Zero-weight effects are ignored.  Unit-direction and
    coplanarity checks use loose tolerances (1e-6 / 1e-7) so optimizer
    output classifies cleanly.
    """
    report = validate_povm(povm)
    if not report.ok:
        raise ValueError(f"not a valid POVM: {report.violations}")
    n = povm.blochs[povm.weights > ZERO_WEIGHT]
    all_unit = bool(np.all(np.abs(np.linalg.norm(n, axis=1) - 1.0) <= UNIT_TOL))
    if len(n) == 2:
        return "projective" if all_unit else "non-extremal"
    if len(n) == 3 and all_unit:
        if abs(np.linalg.det(n)) < COPLANAR_TOL:
            return "extremal-3"
        return "non-extremal"
    if len(n) == 4 and all_unit:
        triples = [np.delete(n, i, axis=0) for i in range(4)]
        if all(abs(np.linalg.det(t)) >= COPLANAR_TOL for t in triples):
            return "extremal-4"
        return "non-extremal"
    return "non-extremal"
