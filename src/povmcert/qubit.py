"""Qubit states, binary observables, and POVMs in Bloch form.

Conventions
-----------
A qubit state is stored as its Bloch vector r, with density operator
rho = (1/2)(I + r . sigma) and Pauli order sigma = (X, Y, Z).  A POVM
element is stored as a weight/direction pair (w, n) with operator
E = w (I + n . sigma); positivity is w >= 0 and |n| <= 1, and a POVM is
complete when sum_i w_i = 1 and sum_i w_i n_i = 0.  All probabilities
used elsewhere in the package reduce to inner products of these vectors;
the 2x2 complex matrices are exposed for cross-checks, not hot paths.

Extremal qubit POVMs come in three shapes: projective (two rank-one
orthogonal effects), three coplanar unit directions, and four unit
directions no three of which are coplanar.  `classify_extremal` names
which of these (if any) a valid POVM belongs to.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
IDENTITY2 = np.eye(2, dtype=complex)

# validation tolerances; loosened deliberately for classification, where
# inputs come from iterative optimizers rather than exact constructions
NORM_TOL = 1e-9
COMPLETENESS_TOL = 1e-8
COPLANAR_TOL = 1e-7
UNIT_TOL = 1e-6
ZERO_WEIGHT = 1e-12


def _as_vec3(value, name: str = "bloch") -> Array:
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _freeze(obj, name: str, v: Array) -> None:
    v = v.copy()
    v.flags.writeable = False
    object.__setattr__(obj, name, v)


@dataclass(frozen=True)
class QubitState:
    """Qubit density operator stored as its Bloch vector (|r| <= 1)."""

    bloch: Array

    def __post_init__(self) -> None:
        v = _as_vec3(self.bloch)
        if np.linalg.norm(v) > 1.0 + NORM_TOL:
            raise ValueError(f"Bloch vector longer than 1: |r| = {np.linalg.norm(v)}")
        _freeze(self, "bloch", v)

    def matrix(self) -> Array:
        return density_from_bloch(self.bloch)


@dataclass(frozen=True)
class Observable:
    """Binary observable n . sigma; outcome 0 is the +1 eigenspace."""

    axis: Array

    def __post_init__(self) -> None:
        v = _as_vec3(self.axis, "axis")
        if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
            raise ValueError(f"observable axis must be unit length, |n| = {np.linalg.norm(v)}")
        _freeze(self, "axis", v)

    def matrix(self) -> Array:
        return np.einsum("i,ijk->jk", self.axis, PAULIS)

    def effect(self, b: int) -> Array:
        """Effect operator for outcome b in {0, 1}."""
        if b not in (0, 1):
            raise ValueError("binary outcome must be 0 or 1")
        sign = 1.0 if b == 0 else -1.0
        return 0.5 * (IDENTITY2 + sign * self.matrix())


@dataclass(frozen=True)
class PovmElement:
    """One effect w (I + n . sigma); positivity needs w >= 0, |n| <= 1."""

    weight: float
    bloch: Array

    def __post_init__(self) -> None:
        if not np.isfinite(self.weight):
            raise ValueError("weight must be finite")
        _freeze(self, "bloch", _as_vec3(self.bloch))

    def matrix(self) -> Array:
        return self.weight * (IDENTITY2 + np.einsum("i,ijk->jk", self.bloch, PAULIS))


@dataclass(frozen=True)
class Povm:
    """Tuple of effects; completeness is checked by `validate_povm`, not here."""

    elements: tuple[PovmElement, ...]

    def __post_init__(self) -> None:
        if len(self.elements) == 0:
            raise ValueError("POVM needs at least one element")
        object.__setattr__(self, "elements", tuple(self.elements))

    @classmethod
    def from_arrays(cls, weights, blochs) -> "Povm":
        weights = np.asarray(weights, dtype=float)
        blochs = np.asarray(blochs, dtype=float)
        if blochs.shape != (weights.shape[0], 3):
            raise ValueError("weights and blochs must have shapes (O,) and (O, 3)")
        return cls(tuple(PovmElement(float(w), b) for w, b in zip(weights, blochs)))

    @property
    def outcomes(self) -> int:
        return len(self.elements)

    @property
    def weights(self) -> Array:
        return np.array([e.weight for e in self.elements])

    @property
    def blochs(self) -> Array:
        return np.array([e.bloch for e in self.elements])

    def matrices(self) -> Array:
        return np.stack([e.matrix() for e in self.elements])

    def to_dict(self) -> dict:
        return {
            "elements": [
                {"lambda": float(e.weight), "bloch": [float(c) for c in e.bloch]}
                for e in self.elements
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "Povm":
        elements = data["elements"]
        return cls(tuple(PovmElement(float(e["lambda"]), np.asarray(e["bloch"], dtype=float)) for e in elements))

    @classmethod
    def from_json(cls, text: str) -> "Povm":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class PovmValidation:
    ok: bool
    violations: tuple[tuple[str, float], ...]


def density_from_bloch(r) -> Array:
    """2x2 density matrix (I + r . sigma) / 2 for |r| <= 1."""
    r = _as_vec3(r)
    if np.linalg.norm(r) > 1.0 + NORM_TOL:
        raise ValueError("Bloch vector longer than 1")
    return 0.5 * (IDENTITY2 + np.einsum("i,ijk->jk", r, PAULIS))


def validate_povm(povm: Povm, *, completeness_tol: float = COMPLETENESS_TOL) -> PovmValidation:
    """Check positivity of every effect and completeness of the set.

    Returns a report listing each violated constraint with its residual;
    `ok` is True when the list is empty.
    """
    violations: list[tuple[str, float]] = []
    for i, e in enumerate(povm.elements):
        if e.weight < -ZERO_WEIGHT:
            violations.append((f"element {i}: negative weight", float(-e.weight)))
        excess = float(np.linalg.norm(e.bloch)) - 1.0
        if excess > NORM_TOL:
            violations.append((f"element {i}: Bloch direction longer than 1", excess))
    w = povm.weights
    total = float(w.sum()) - 1.0
    if abs(total) > completeness_tol:
        violations.append(("weights do not sum to 1", abs(total)))
    resid = float(np.linalg.norm(w @ povm.blochs))
    if resid > completeness_tol:
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
    live = [e for e in povm.elements if e.weight > ZERO_WEIGHT]
    norms = np.array([np.linalg.norm(e.bloch) for e in live])
    all_unit = bool(np.all(np.abs(norms - 1.0) <= UNIT_TOL))
    if len(live) == 2:
        return "projective" if all_unit else "non-extremal"
    if len(live) == 3 and all_unit:
        n = np.array([e.bloch for e in live])
        if abs(np.linalg.det(n)) < COPLANAR_TOL:
            return "extremal-3"
        return "non-extremal"
    if len(live) == 4 and all_unit:
        n = np.array([e.bloch for e in live])
        triples = [np.delete(n, i, axis=0) for i in range(4)]
        if all(abs(np.linalg.det(t)) >= COPLANAR_TOL for t in triples):
            return "extremal-4"
        return "non-extremal"
    return "non-extremal"
