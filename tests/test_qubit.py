"""Bloch-form state/POVM plumbing: constructions, validation, classification."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from povmcert.qubit import (
    IDENTITY2,
    PAULIS,
    Observable,
    Povm,
    PovmElement,
    QubitState,
    classify_extremal,
    density_from_bloch,
    validate_povm,
)

SQ3 = np.sqrt(3.0)
TETRA = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / SQ3
TRINE = np.array([[0, 0, -1], [-SQ3 / 2, 0, 0.5], [SQ3 / 2, 0, 0.5]])

ball_vec = st.lists(
    st.floats(-0.577, 0.577, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=3,
)  # always inside the unit ball


def test_density_from_bloch_pure_state():
    rho = density_from_bloch([0, 0, 1])
    assert np.allclose(rho, [[1, 0], [0, 0]])
    rho = density_from_bloch([1, 0, 0])
    assert np.allclose(rho, [[0.5, 0.5], [0.5, 0.5]])


def test_density_rejects_long_vector():
    with pytest.raises(ValueError):
        density_from_bloch([1, 1, 1])
    with pytest.raises(ValueError):
        QubitState(np.array([0.0, 0.8, 0.7]))


@given(ball_vec)
def test_bloch_density_round_trip(r):
    # the Bloch vector is the vector of Pauli expectations Tr(rho sigma_i)
    rho = density_from_bloch(r)
    back = np.real(np.einsum("ijk,kj->i", PAULIS, rho))
    assert np.allclose(back, r, atol=1e-12)


@given(ball_vec)
def test_density_is_psd_unit_trace(r):
    rho = density_from_bloch(r)
    vals = np.linalg.eigvalsh(rho)
    assert vals.min() >= -1e-12
    assert abs(np.trace(rho).real - 1) < 1e-12


def test_observable_projectors_sum_to_identity():
    ob = Observable(np.array([0.0, 1.0, 0.0]))
    assert np.allclose(ob.effect(0) + ob.effect(1), IDENTITY2)
    # outcome 0 carries the +1 eigenspace
    vals, vecs = np.linalg.eigh(ob.matrix())  # ascending
    assert np.allclose(vals, [-1.0, 1.0])
    top = np.outer(vecs[:, 1], vecs[:, 1].conj())
    assert np.allclose(ob.effect(0), top, atol=1e-12)


def test_observable_requires_unit_axis():
    with pytest.raises(ValueError):
        Observable(np.array([0.0, 0.0, 0.5]))


def tetra_povm() -> Povm:
    return Povm.from_arrays(np.full(4, 0.25), TETRA)


def test_validate_povm_accepts_tetrahedron():
    report = validate_povm(tetra_povm())
    assert report.ok and report.violations == ()


def test_validate_povm_flags_violations():
    bad = Povm.from_arrays([0.7, 0.5], [[0, 0, 1], [0, 0, -1]])
    report = validate_povm(bad)
    assert not report.ok
    names = [n for n, _ in report.violations]
    assert any("sum to 1" in n for n in names)
    bad = Povm.from_arrays([0.5, 0.5], [[0, 0, 1], [0, 1, 0]])
    assert not validate_povm(bad).ok


def test_povm_element_matrices_sum_to_identity():
    total = tetra_povm().matrices().sum(axis=0)
    assert np.allclose(total, IDENTITY2, atol=1e-12)
    e = PovmElement(0.25, TETRA[0])
    vals = np.linalg.eigvalsh(e.matrix())
    assert vals.min() >= -1e-12


def test_classify_projective():
    p = Povm.from_arrays([0.5, 0.5], [[0, 1, 0], [0, -1, 0]])
    assert classify_extremal(p) == "projective"
    # zero effects are ignored
    p = Povm.from_arrays([0.5, 0.0, 0.5], [[0, 1, 0], [1, 0, 0], [0, -1, 0]])
    assert classify_extremal(p) == "projective"


def test_classify_trine_and_tetrahedron():
    p = Povm.from_arrays(np.full(3, 1 / 3), TRINE)
    assert classify_extremal(p) == "extremal-3"
    assert classify_extremal(tetra_povm()) == "extremal-4"


def test_classify_non_extremal():
    # mixture of two projective measurements: four coplanar directions
    blochs = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0]])
    p = Povm.from_arrays(np.full(4, 0.25), blochs)
    assert classify_extremal(p) == "non-extremal"
    # interior directions are never extremal
    p = Povm.from_arrays([0.5, 0.5], [[0, 0, 0.5], [0, 0, -0.5]])
    assert classify_extremal(p) == "non-extremal"


def test_classify_rejects_invalid():
    with pytest.raises(ValueError):
        classify_extremal(Povm.from_arrays([0.6, 0.6], [[0, 0, 1], [0, 0, -1]]))


def test_povm_json_round_trip():
    p = tetra_povm()
    q = Povm.from_json(p.to_json())
    assert np.allclose(q.weights, p.weights)
    assert np.allclose(q.blochs, p.blochs)
    d = p.to_dict()
    assert set(d["elements"][0]) == {"lambda", "bloch"}
