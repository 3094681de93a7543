"""Seeded sampling: unit vectors and extremal POVMs."""
import numpy as np
import pytest
from conftest import extremal_povm

from povmcert.qubit import Povm, classify_extremal, validate_povm
from povmcert.sampling import RngStream, random_extremal_povms, random_unit_vectors


def test_rng_stream_reproducible_and_distinct():
    a = RngStream(42, 0).generator().normal(size=5)
    b = RngStream(42, 0).generator().normal(size=5)
    c = RngStream(42, 1).generator().normal(size=5)
    d = RngStream(43, 0).generator().normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert RngStream(7).derived(3) == RngStream(7, 3)


def test_unit_vectors_are_unit_and_isotropic():
    v = random_unit_vectors(RngStream(1), 100_000)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    # isotropy: mean vector shrinks like 1/sqrt(N)
    assert np.linalg.norm(v.mean(axis=0)) < 0.01


@pytest.mark.parametrize("outcomes", [3, 4])
def test_extremal_samples_are_valid_extremal_povms(outcomes):
    sample = random_extremal_povms(outcomes, 200, RngStream(2))
    assert sample.count == 200
    assert sample.attempts >= 200
    # completeness holds by construction
    assert np.allclose(sample.weights.sum(axis=1), 1.0, atol=1e-9)
    resid = np.einsum("so,soi->si", sample.weights, sample.blochs)
    assert np.max(np.linalg.norm(resid, axis=1)) < 1e-9
    assert np.all(sample.weights > 1e-6)
    assert np.allclose(np.linalg.norm(sample.blochs, axis=2), 1.0, atol=1e-12)
    expected = "extremal-3" if outcomes == 3 else "extremal-4"
    for i in range(0, 200, 29):
        p = Povm(sample.weights[i], sample.blochs[i])
        assert validate_povm(p).ok
        assert classify_extremal(p) == expected


def test_three_outcome_samples_are_coplanar():
    sample = random_extremal_povms(3, 500, RngStream(3))
    dets = np.abs(np.linalg.det(sample.blochs))
    assert dets.max() < 1e-12


def test_four_outcome_weight_statistics():
    # weights average 1/4 by symmetry of the sampling measure
    sample = random_extremal_povms(4, 20_000, RngStream(4))
    assert sample.weights.mean() == pytest.approx(0.25, abs=1e-3)
    # acceptance is far from vanishing; recorded for reproducibility
    assert sample.count / sample.attempts > 0.01


def test_extremal_sampling_reproducible():
    a = random_extremal_povms(4, 50, RngStream(99))
    b = random_extremal_povms(4, 50, RngStream(99))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.blochs, b.blochs)
    p = extremal_povm(3, RngStream(5))
    assert classify_extremal(p) == "extremal-3"


def test_extremal_sampling_rejects_bad_outcome_count():
    with pytest.raises(ValueError):
        random_extremal_povms(2, 10, RngStream(0))
    with pytest.raises(ValueError):
        random_extremal_povms(5, 10, RngStream(0))
