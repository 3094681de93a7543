"""Analytic anchors for the benchmark's oracles.

    python3 -m pytest bench/test_oracles.py -q

The oracles check the program, so they are pinned here to values that
follow from the scenario's definitions alone, never to program output.
"""
import math
from itertools import permutations

import numpy as np
import pytest

import oracles as o

SQ3 = math.sqrt(3.0)

IDEAL = {
    # tetrahedral preparations, Pauli observables, anti-aligned SIC POVM
    "sic": (o.TETRAHEDRON, np.eye(3), np.full(4, 0.25), -o.TETRAHEDRON),
    # reversed trine with sigma_z / sigma_x: columns give 2 and 3
    "trine": (
        o.TRINE[::-1],
        np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
        np.full(3, 1.0 / 3.0),
        -o.TRINE[::-1],
    ),
    # trine preparations, observables and POVM anti-aligned to them
    "sym-trine": (o.TRINE, -o.TRINE, np.full(3, 1.0 / 3.0), -o.TRINE),
}


@pytest.mark.parametrize("name", sorted(IDEAL))
@pytest.mark.parametrize("k", [0.0, 0.2, 4.5])
def test_born_oracle_reaches_the_quantum_maxima(name, k):
    # anti-aligned POVMs give P(x | x) = 0, so the value is k-independent
    expected = {"sic": (1 + 1 / SQ3) / 2, "trine": 5.0, "sym-trine": 5.0 / 6.0}[name]
    assert o.strategy_value(name, k, *IDEAL[name]) == pytest.approx(expected, abs=1e-12)
    assert o.QUANTUM_MAX[name] == pytest.approx(expected, abs=1e-15)
    assert o.strategy_problems(*IDEAL[name], "quantum") == []


def test_born_oracle_penalty_on_aligned_povm():
    # aligning the POVM with the preparations makes P(x | x) = 2 w_x = 1/2
    preps, axes, w, _ = IDEAL["sic"]
    base = (1 + 1 / SQ3) / 2
    assert o.strategy_value("sic", 0.3, preps, axes, w, preps) == pytest.approx(base - 0.3 * 2.0)


def test_mixed_preparations_give_a_rand():
    zeros = np.zeros((4, 3))
    value = o.strategy_value("sic", 0.2, zeros, np.eye(3), np.full(4, 0.25), o.TETRAHEDRON)
    assert value == pytest.approx(0.5 - 0.2)
    assert o.a_rand("sic") == pytest.approx(0.5)
    assert o.a_rand("trine") == 0.0


def test_strategy_classes():
    pair = (np.array([0.5, 0.5, 0.0, 0.0]), np.array([[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0], [1.0, 0, 0]]))
    preps, axes = o.TETRAHEDRON, np.eye(3)
    assert o.strategy_problems(preps, axes, *pair, "projective") == []
    assert o.strategy_problems(preps, axes, *pair, "three-outcome") == []
    sic = (np.full(4, 0.25), -o.TETRAHEDRON)
    assert o.strategy_problems(preps, axes, *sic, "three-outcome")
    assert o.strategy_problems(preps, axes, *sic, "projective")
    broken = (np.full(4, 0.3), -o.TETRAHEDRON)
    assert "effects do not sum to the identity" in o.strategy_problems(preps, axes, *broken, "quantum")
    assert o.strategy_problems(1.01 * preps, axes, *sic, "quantum")


def _counts_csv(binary, povm, shots):
    lines = ["x,y,b,n"]
    X, Y, _ = binary.shape
    for x in range(X):
        for y in range(Y):
            for b in range(2):
                lines.append(f"{x},{y},{b},{round(shots * binary[x, y, b])}")
        for b in range(povm.shape[1]):
            lines.append(f"{x},povm,{b},{round(shots * povm[x, b])}")
    return "\n".join(lines) + "\n"


def test_counts_value_of_uniform_counts_is_a_rand_minus_k():
    text = _counts_csv(np.full((4, 3, 2), 0.5), np.full((4, 4), 0.25), 1000)
    assert o.counts_csv_value("sic", 0.2, text) == pytest.approx(0.5 - 0.2, abs=1e-15)


@pytest.mark.parametrize("name", ["sic", "trine"])
def test_counts_value_of_ideal_counts_is_the_quantum_max(name):
    binary, povm = o.born_table(*IDEAL[name])
    text = _counts_csv(binary, povm, 10**12)
    assert o.counts_csv_value(name, 1.0, text) == pytest.approx(o.QUANTUM_MAX[name], abs=1e-9)


@pytest.mark.parametrize("target", [o.TETRAHEDRON, o.TRINE])
def test_rotation_fidelity_of_target_is_one(target):
    w = np.full(len(target), 1.0 / len(target))
    assert o.rotation_fidelity(w, target, target) == pytest.approx(1.0, abs=1e-12)
    # a rotated and relabeled copy is still the target
    c, s = math.cos(0.7), math.sin(0.7)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    moved = (target @ R.T)[::-1]
    assert o.rotation_fidelity(w, moved, target) == pytest.approx(1.0, abs=1e-12)


def test_rotation_fidelity_projective_vs_trine():
    w = np.array([0.5, 0.5, 0.0])
    n = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    assert o.rotation_fidelity(w, n, o.TRINE) == pytest.approx((2 + SQ3) / 4, abs=1e-12)


def test_rotation_fidelity_of_mirrored_tetrahedron():
    # the inverted tetrahedron is the tetrahedron relabeled and rotated;
    # the mirror image (one axis flipped) is reached by a relabeling too
    w = np.full(4, 0.25)
    assert o.rotation_fidelity(w, -o.TETRAHEDRON, o.TETRAHEDRON) == pytest.approx(1.0, abs=1e-12)
    mirror = o.TETRAHEDRON * np.array([1.0, 1.0, -1.0])
    assert o.rotation_fidelity(w, mirror, o.TETRAHEDRON) == pytest.approx(1.0, abs=1e-12)


def test_rotation_fidelity_by_brute_force():
    # Kabsch against a dense Euler-angle grid of rotations for one POVM
    rng = np.random.default_rng(3)
    w = np.full(3, 1.0 / 3.0)
    n = o.TRINE @ np.linalg.qr(rng.normal(size=(3, 3)))[0].T + 0.1 * rng.normal(size=(3, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    a, b, g = np.meshgrid(
        np.linspace(0, 2 * np.pi, 91), np.linspace(0, np.pi, 46), np.linspace(0, 2 * np.pi, 91),
        indexing="ij",
    )
    a, b, g = a.ravel(), b.ravel(), g.ravel()

    def rz(t):
        R = np.zeros((t.size, 3, 3))
        R[:, 0, 0] = R[:, 1, 1] = np.cos(t)
        R[:, 0, 1], R[:, 1, 0] = -np.sin(t), np.sin(t)
        R[:, 2, 2] = 1.0
        return R

    ry = np.zeros((b.size, 3, 3))
    ry[:, 0, 0] = ry[:, 2, 2] = np.cos(b)
    ry[:, 0, 2], ry[:, 2, 0] = np.sin(b), -np.sin(b)
    ry[:, 1, 1] = 1.0
    R = rz(a) @ ry @ rz(g)
    best = max(
        float(np.max(0.5 + 0.5 * np.einsum("rij,ji->r", R, np.einsum("o,oi,oj->ij", w, n, o.TRINE[list(p)]))))
        for p in permutations(range(3))
    )
    exact = o.rotation_fidelity(w, n, o.TRINE)
    assert best <= exact + 1e-12
    assert best == pytest.approx(exact, abs=2e-3)


@pytest.mark.parametrize("name", ["sic", "trine"])
def test_anti_aligned_value_at_the_target(name):
    _, _, w, n = IDEAL[name]
    assert o.anti_aligned_value(name, 0.7, w, n) == pytest.approx(o.QUANTUM_MAX[name], abs=1e-12)


def test_rebin_and_floor():
    samples = [(0, 0.101, 0.9), (1, 0.109, 0.8), (2, 0.125, 0.95), (3, 0.131, 0.99)]
    bins = o.rebin(samples, 0.01)
    assert [(round(lo, 12), round(hi, 12), f, n) for lo, hi, f, n in bins] == [
        (0.1, 0.11, 0.8, 2),
        (0.12, 0.13, 0.95, 1),
        (0.13, 0.14, 0.99, 1),
    ]
    assert o.floor_at(bins, 0.125) == 0.95
    assert o.floor_at(bins, 0.105) == 0.8
    assert o.floor_at(bins, 0.2) is None
    text = "sample_id,A,F\n" + "".join(f"{s},{a!r},{f!r}\n" for s, a, f in samples)
    assert o.samples_from_csv(text) == samples


def test_critical_visibility_endpoints():
    a_q, a_r, k = o.QUANTUM_MAX["sic"], 0.5, 0.2
    assert o.critical_visibility(a_q, k, a_q, a_r) == pytest.approx(1.0)
    assert o.critical_visibility(a_r - k, k, a_q, a_r) == pytest.approx(0.0, abs=1e-15)
    assert o.critical_visibility(a_q + 1, k, a_q, a_r) == 1.0
