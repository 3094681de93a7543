"""Bloch-form state/POVM plumbing: constructions, validation, classification."""
import json

import numpy as np
import pytest
from conftest import (
    IDEAL_STRATEGIES,
    IDENTITY2,
    PAULIS,
    binary_effect,
    config_json,
    density_matrix,
    effect_matrices,
    observable_matrix,
)
from hypothesis import given
from hypothesis import strategies as st

from povmcert.experiment import (
    ExperimentConfig,
    expected_probabilities,
    sic_experiment,
    trine_experiment,
)
from povmcert.qubit import Povm, classify_extremal, validate_povm
from povmcert.sampling import RngStream, random_extremal_povms
from povmcert.witness import Strategy, sic_witness

SQ3 = np.sqrt(3.0)
TETRA = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / SQ3
TRINE = np.array([[0, 0, -1], [-SQ3 / 2, 0, 0.5], [SQ3 / 2, 0, 0.5]])

ball_vec = st.lists(
    st.floats(-0.577, 0.577, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=3,
)  # always inside the unit ball


def test_density_from_bloch_pure_state():
    rho = density_matrix([0, 0, 1])
    assert np.allclose(rho, [[1, 0], [0, 0]])
    rho = density_matrix([1, 0, 0])
    assert np.allclose(rho, [[0.5, 0.5], [0.5, 0.5]])


def test_density_rejects_long_vector():
    # a strategy's preparations must be states: |r| <= 1
    ideal = IDEAL_STRATEGIES["sic"]()
    with pytest.raises(ValueError, match="longer than 1"):
        Strategy(np.array([[1.0, 1.0, 1.0]]), ideal.binaries, ideal.povm)
    with pytest.raises(ValueError, match="longer than 1"):
        Strategy(np.array([[0.0, 0.8, 0.7]]), ideal.binaries, ideal.povm)


@given(ball_vec)
def test_bloch_density_round_trip(r):
    # the Bloch vector is the vector of Pauli expectations Tr(rho sigma_i)
    rho = density_matrix(r)
    back = np.real(np.einsum("ijk,kj->i", PAULIS, rho))
    assert np.allclose(back, r, atol=1e-12)


@given(ball_vec)
def test_density_is_psd_unit_trace(r):
    rho = density_matrix(r)
    vals = np.linalg.eigvalsh(rho)
    assert vals.min() >= -1e-12
    assert abs(np.trace(rho).real - 1) < 1e-12


def test_observable_projectors_sum_to_identity():
    n = np.array([0.0, 1.0, 0.0])
    assert np.allclose(binary_effect(n, 0) + binary_effect(n, 1), IDENTITY2)
    # outcome 0 carries the +1 eigenspace
    vals, vecs = np.linalg.eigh(observable_matrix(n))  # ascending
    assert np.allclose(vals, [-1.0, 1.0])
    top = np.outer(vecs[:, 1], vecs[:, 1].conj())
    assert np.allclose(binary_effect(n, 0), top, atol=1e-12)


def test_observable_requires_unit_axis():
    ideal = IDEAL_STRATEGIES["sic"]()
    half = np.array([[0.0, 0.0, 0.5]])
    with pytest.raises(ValueError, match="unit length"):
        Strategy(ideal.preparations, half, ideal.povm)
    # a config file is user input: its axes are checked on load
    data = json.loads(config_json(sic_experiment()))
    data["binaries"][1] = [0.0, 0.0, 0.5]
    with pytest.raises(ValueError, match="unit length"):
        ExperimentConfig.from_json(json.dumps(data))


def tetra_povm() -> Povm:
    return Povm(np.full(4, 0.25), TETRA)


def test_validate_povm_accepts_tetrahedron():
    report = validate_povm(tetra_povm())
    assert report.ok and report.violations == ()


def test_validate_povm_flags_violations():
    bad = Povm([0.7, 0.5], [[0, 0, 1], [0, 0, -1]])
    report = validate_povm(bad)
    assert not report.ok
    names = [n for n, _ in report.violations]
    assert any("sum to 1" in n for n in names)
    bad = Povm([0.5, 0.5], [[0, 0, 1], [0, 1, 0]])
    assert not validate_povm(bad).ok


def test_povm_element_matrices_sum_to_identity():
    total = effect_matrices(tetra_povm()).sum(axis=0)
    assert np.allclose(total, IDENTITY2, atol=1e-12)
    vals = np.linalg.eigvalsh(effect_matrices(tetra_povm())[0])
    assert vals.min() >= -1e-12


def test_classify_projective():
    p = Povm([0.5, 0.5], [[0, 1, 0], [0, -1, 0]])
    assert classify_extremal(p) == "projective"
    # zero effects are ignored
    p = Povm([0.5, 0.0, 0.5], [[0, 1, 0], [1, 0, 0], [0, -1, 0]])
    assert classify_extremal(p) == "projective"


def test_classify_trine_and_tetrahedron():
    p = Povm(np.full(3, 1 / 3), TRINE)
    assert classify_extremal(p) == "extremal-3"
    assert classify_extremal(tetra_povm()) == "extremal-4"


def test_classify_non_extremal():
    # mixture of two projective measurements: four coplanar directions
    blochs = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0]])
    p = Povm(np.full(4, 0.25), blochs)
    assert classify_extremal(p) == "non-extremal"
    # interior directions are never extremal
    p = Povm([0.5, 0.5], [[0, 0, 0.5], [0, 0, -0.5]])
    assert classify_extremal(p) == "non-extremal"


def test_classify_rejects_invalid():
    with pytest.raises(ValueError):
        classify_extremal(Povm([0.6, 0.6], [[0, 0, 1], [0, 0, -1]]))


def test_povm_json_round_trip():
    p = tetra_povm()
    q = Povm.from_dict(json.loads(json.dumps(p.to_dict())))
    assert np.allclose(q.weights, p.weights)
    assert np.allclose(q.blochs, p.blochs)
    d = p.to_dict()
    assert set(d["elements"][0]) == {"lambda", "bloch"}


def test_povm_arrays_are_checked_and_read_only():
    with pytest.raises(ValueError, match="at least one"):
        Povm([], np.zeros((0, 3)))
    with pytest.raises(ValueError, match="shapes"):
        Povm([0.5, 0.5], [[0, 0, 1]])
    with pytest.raises(ValueError, match="finite"):
        Povm([0.5, np.nan], [[0, 0, 1], [0, 0, -1]])
    w = np.array([0.5, 0.5])
    p = Povm(w, [[0, 0, 1], [0, 0, -1]])
    w[0] = 0.9  # the POVM holds its own copy
    assert p.weights[0] == 0.5
    with pytest.raises(ValueError):
        p.weights[0] = 0.9
    with pytest.raises(ValueError):
        p.blochs[0, 2] = 0.0


VALUE_TYPES = {
    "Povm": tetra_povm,
    "Strategy": IDEAL_STRATEGIES["sic"],
    "WitnessSpec": lambda: sic_witness(0.2),
    "ProbabilityTable": lambda: expected_probabilities(sic_experiment()),
    "ExperimentConfig": trine_experiment,
    "ExtremalSample": lambda: random_extremal_povms(4, 2, RngStream(0).generator()),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_array_value_types_compare_and_hash(name):
    # equality is identity: a field-wise comparison would need the truth
    # value of a whole array
    a, b = VALUE_TYPES[name](), VALUE_TYPES[name]()
    assert a == a
    assert a != b
    assert len({a, a, b}) == 2
