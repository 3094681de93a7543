"""Independent reference computations for the benchmark's correctness checks.

Everything here is written from the definitions of the prepare-and-measure
scenario with explicit 2x2 matrices, plain SVDs and the csv module; it
imports nothing from `povmcert`, so a check that compares program output
with these functions compares two separate implementations.  The tests in
`test_oracles.py` pin each function to analytic anchors.

Conventions: a preparation is a Bloch vector m (rho = (I + m.sigma)/2), a
binary observable an axis n (effects (I +- n.sigma)/2, outcome 0 on +1),
and a POVM effect a weight/direction pair (w, v) with E = w (I + v.sigma).
"""
from __future__ import annotations

import csv
import io
import math
from itertools import permutations

import numpy as np

SQ3 = math.sqrt(3.0)

SIGMA = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
I2 = np.eye(2, dtype=complex)

TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / SQ3
TRINE = np.array([[0.0, 0.0, -1.0], [-SQ3 / 2, 0.0, 0.5], [SQ3 / 2, 0.0, 0.5]])

QUANTUM_MAX = {"sic": 0.5 * (1.0 + 1.0 / SQ3), "trine": 5.0, "sym-trine": 5.0 / 6.0}


def witness_coeffs(name: str) -> np.ndarray:
    """Coefficient tensor c[x, y, b] of a witness family.

    sic: 1/12 on the outcome b that the tetrahedral preparation x gives
    with certainty along Pauli axis y; trine: +-T[x, y] on b = 0 / 1;
    sym-trine: 1/9 on b = [x == y].
    """
    if name == "sic":
        c = np.zeros((4, 3, 2))
        for x in range(4):
            for y in range(3):
                c[x, y, 0 if TETRAHEDRON[x, y] > 0 else 1] = 1.0 / 12.0
        return c
    if name == "trine":
        t = np.array([[1.0, SQ3], [1.0, -SQ3], [-1.0, 0.0]])
        return np.stack([t, -t], axis=2)
    if name == "sym-trine":
        c = np.zeros((3, 3, 2))
        for x in range(3):
            for y in range(3):
                c[x, y, 1 if x == y else 0] = 1.0 / 9.0
        return c
    raise ValueError(f"no oracle coefficients for {name!r}")


def a_rand(name: str) -> float:
    """Binary part of the witness on maximally mixed preparations."""
    return float(witness_coeffs(name).sum()) / 2.0


def _pauli(v) -> np.ndarray:
    return np.einsum("i,ijk->jk", np.asarray(v, dtype=float), SIGMA)


def born_table(preps, axes, weights, directions) -> tuple[np.ndarray, np.ndarray]:
    """P(b | x, y) for the binary settings and P(o | x) for the POVM, by trace."""
    rhos = [0.5 * (I2 + _pauli(m)) for m in preps]
    binary = np.empty((len(rhos), len(axes), 2))
    for y, n in enumerate(axes):
        effects = (0.5 * (I2 + _pauli(n)), 0.5 * (I2 - _pauli(n)))
        for x, rho in enumerate(rhos):
            for b, e in enumerate(effects):
                binary[x, y, b] = np.trace(rho @ e).real
    povm_effects = [w * (I2 + _pauli(v)) for w, v in zip(weights, directions)]
    povm = np.array([[np.trace(rho @ e).real for e in povm_effects] for rho in rhos])
    return binary, povm


def witness_value(name: str, k: float, binary: np.ndarray, povm: np.ndarray) -> float:
    """sum c P(b|x,y) - k sum_x P(o = x | x)."""
    c = witness_coeffs(name)
    diag = sum(povm[x, x] for x in range(povm.shape[1]))
    return float(np.sum(c * binary) - k * diag)


def strategy_value(name: str, k: float, preps, axes, weights, directions) -> float:
    return witness_value(name, k, *born_table(preps, axes, weights, directions))


def strategy_problems(preps, axes, weights, directions, kind: str) -> list[str]:
    """Reasons a strategy is not a valid qubit strategy of its bound class.

    kind is "quantum" (any POVM), "three-outcome" (at most three nonzero
    effects) or "projective" (nonzero effects are orthogonal rank-one
    projectors).  An empty list means valid.
    """
    problems = []
    for x, m in enumerate(preps):
        if np.linalg.norm(m) > 1.0 + 1e-9:
            problems.append(f"preparation {x} has |m| = {np.linalg.norm(m):.12g}")
    for y, n in enumerate(axes):
        if abs(np.linalg.norm(n) - 1.0) > 1e-6:
            problems.append(f"observable {y} axis has |n| = {np.linalg.norm(n):.12g}")
    effects = [w * (I2 + _pauli(v)) for w, v in zip(weights, directions)]
    for o, e in enumerate(effects):
        if np.linalg.eigvalsh(e).min() < -1e-9:
            problems.append(f"effect {o} is not positive")
    if np.abs(sum(effects) - I2).max() > 1e-8:
        problems.append("effects do not sum to the identity")
    live = [e for e, w in zip(effects, weights) if w > 1e-12]
    if kind == "three-outcome" and len(live) > 3:
        problems.append(f"{len(live)} nonzero effects in a three-outcome strategy")
    if kind == "projective":
        if len(live) != 2:
            problems.append(f"{len(live)} nonzero effects in a projective strategy")
        elif any(np.abs(e @ e - e).max() > 1e-8 for e in live):
            problems.append("projective strategy has a non-projector effect")
    return problems


def counts_csv_value(name: str, k: float, text: str) -> float:
    """Witness value from an x,y,b,n counts CSV (y an index or "povm")."""
    binary: dict[tuple[int, int], dict[int, int]] = {}
    povm: dict[int, dict[int, int]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        x, b, n = int(row["x"]), int(row["b"]), int(row["n"])
        if row["y"] == "povm":
            povm.setdefault(x, {})[b] = n
        else:
            binary.setdefault((x, int(row["y"])), {})[b] = n
    c = witness_coeffs(name)
    X, Y, _ = c.shape
    value = 0.0
    for x in range(X):
        for y in range(Y):
            cell = binary[(x, y)]
            total = sum(cell.values())
            value += sum(c[x, y, b] * cell.get(b, 0) / total for b in (0, 1))
    O = len({b for cells in povm.values() for b in cells})
    for x in range(O):
        value -= k * povm[x].get(x, 0) / sum(povm[x].values())
    return float(value)


def rotation_fidelity(weights, directions, target_directions) -> float:
    """Best fidelity of a POVM to an equal-weight target over rotations and relabelings.

    With E_i = w_i (I + n_i.sigma) rotated by R and targets M_i along v_i,
    (1/2) sum_i Tr(E_i' M_i) / Tr(M_i) = 1/2 + Tr(R K)/2 for
    K = sum_i w_i n_i v_i^T.  Over R in SO(3) the maximum of Tr(R K) is
    s1 + s2 + d s3 with d the sign of det(U) det(V) (Kabsch / Wahba).
    Every outcome permutation of the target is tried.
    """
    w = np.asarray(weights, dtype=float)
    n = np.asarray(directions, dtype=float)
    v = np.asarray(target_directions, dtype=float)
    best = -np.inf
    for perm in permutations(range(len(v))):
        K = np.einsum("o,oi,oj->ij", w, n, v[list(perm)])
        U, s, Vt = np.linalg.svd(K)
        d = np.sign(np.linalg.det(U) * np.linalg.det(Vt)) or 1.0
        best = max(best, 0.5 + 0.5 * (s[0] + s[1] + d * s[2]))
    return float(best)


def anti_aligned_value(name: str, k: float, weights, directions) -> float:
    """Witness value of one feasible strategy built around a fixed POVM.

    Preparation x < O points against effect x (so P(x | x) = 0 and the
    penalty vanishes); any extra preparation takes the last direction;
    each observable then aligns with its coefficient-weighted preparation
    sum, the best axis for those preparations.
    """
    c = witness_coeffs(name)
    X = c.shape[0]
    dirs = np.asarray(directions, dtype=float)
    preps = np.array([-dirs[min(x, len(dirs) - 1)] for x in range(X)])
    coupling = (c[:, :, 0] - c[:, :, 1]) / 2.0
    axes = []
    for y in range(c.shape[1]):
        h = coupling[:, y] @ preps
        norm = np.linalg.norm(h)
        axes.append(h / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0]))
    return strategy_value(name, k, preps, axes, weights, dirs)


def samples_from_csv(text: str) -> list[tuple[int, float, float]]:
    """(sample_id, A, F) rows of a sample_id,A,F CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["sample_id", "A", "F"]:
        raise ValueError("expected header sample_id,A,F")
    return [(int(s), float(a), float(f)) for s, a, f in rows[1:]]


def rebin(samples: list[tuple[int, float, float]], bin_width: float) -> list[tuple[float, float, float, int]]:
    """(a_lo, a_hi, min F, count) per occupied bin of width bin_width, in order."""
    bins: dict[int, list[float]] = {}
    for _, a, f in samples:
        bins.setdefault(math.floor(a / bin_width), []).append(f)
    return [
        (i * bin_width, (i + 1) * bin_width, min(fs), len(fs))
        for i, fs in sorted(bins.items())
    ]


def floor_at(bins, a: float) -> float | None:
    """Lowest fidelity among bins reaching above witness value a."""
    above = [min_f for _, hi, min_f, _ in bins if hi > a]
    return min(above) if above else None


def critical_visibility(bound: float, k: float, a_q: float, a_r: float) -> float:
    """v with v (a_q + k) + (1 - v)(a_r - k) = bound, clipped to [0, 1]."""
    return min(1.0, max(0.0, (bound - a_r + k) / (a_q - a_r + k)))
