"""Seeded sampling: unit vectors, random planes and extremal POVMs."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import extremal_povm
from scipy.spatial.transform import Rotation

from povmcert import sampling
from povmcert.optimize import OptimizerConfig
from povmcert.qubit import Povm, classify_extremal, validate_povm
from povmcert.sampling import (
    RngStream,
    _random_planes,
    random_extremal_povms,
    random_unit_vectors,
)


def test_rng_stream_reproducible_and_distinct():
    a = RngStream(42, 0).generator().normal(size=5)
    b = RngStream(42, 0).generator().normal(size=5)
    c = RngStream(42, 1).generator().normal(size=5)
    d = RngStream(43, 0).generator().normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_rng_stream_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
        RngStream(seed)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        OptimizerConfig(seed=seed)


@pytest.mark.parametrize("seed", [0, 1, 7, 2026])
@pytest.mark.parametrize("count", [1, 256, 1_000])
def test_random_planes_match_scipy_rotation(seed, count):
    # scipy's uniform rotation is the independent reference: same draws,
    # same frame (images of x and z), bit for bit, and the same stream use
    ours = np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    e1, e2 = _random_planes(ours, count)
    frames = Rotation.random(count, random_state=theirs).as_matrix()
    assert np.array_equal(np.stack([e1, e2], axis=-1), frames[:, :, (0, 2)])
    assert ours.normal() == theirs.normal()


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, povmcert; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unit_vectors_are_unit_and_isotropic():
    v = random_unit_vectors(RngStream(1).generator(), 100_000)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    # isotropy: mean vector shrinks like 1/sqrt(N)
    assert np.linalg.norm(v.mean(axis=0)) < 0.01


@pytest.mark.parametrize("outcomes", [3, 4])
def test_extremal_samples_are_valid_extremal_povms(outcomes):
    sample = random_extremal_povms(outcomes, 200, RngStream(2).generator())
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
    sample = random_extremal_povms(3, 500, RngStream(3).generator())
    dets = np.abs(np.linalg.det(sample.blochs))
    assert dets.max() < 1e-12


def test_four_outcome_weight_statistics():
    # weights average 1/4 by symmetry of the sampling measure
    sample = random_extremal_povms(4, 20_000, RngStream(4).generator())
    assert sample.weights.mean() == pytest.approx(0.25, abs=1e-3)
    # acceptance is far from vanishing; recorded for reproducibility
    assert sample.count / sample.attempts > 0.01


def test_extremal_sampling_reproducible():
    a = random_extremal_povms(4, 50, RngStream(99).generator())
    b = random_extremal_povms(4, 50, RngStream(99).generator())
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.blochs, b.blochs)
    p = extremal_povm(3, RngStream(5).generator())
    assert classify_extremal(p) == "extremal-3"


@pytest.mark.parametrize("outcomes", [3, 4])
def test_extremal_samples_own_exactly_count_rows(outcomes):
    # the accepted surplus of the last batch is dropped, not kept behind a view
    sample = random_extremal_povms(outcomes, 300, RngStream(111).generator())
    for a in (sample.weights, sample.blochs):
        assert a.shape[0] == 300
        assert a.flags.owndata


@pytest.mark.parametrize("count", [1, 7, 300, 1000, 40_000])
def test_four_outcome_draws_do_not_depend_on_the_block(monkeypatch, count):
    # candidates come row by row from one stream, so blocks of 100, the
    # default block and one unblocked draw accept the same POVMs
    for seed in range(100, 130) if count < 40_000 else (100, 101):
        drawn = []
        for block in (10**9, sampling._DRAW_BLOCK, 100):
            monkeypatch.setattr(sampling, "_DRAW_BLOCK", block)
            drawn.append(random_extremal_povms(4, count, RngStream(seed).generator()))
        for sample in drawn[1:]:
            assert np.array_equal(sample.weights, drawn[0].weights)
            assert np.array_equal(sample.blochs, drawn[0].blochs)


@pytest.mark.parametrize("outcomes", [3, 4])
def test_sampler_working_set_does_not_grow_with_count(outcomes):
    # beyond the POVMs it returns, the sampler holds one block
    def working_set(count):
        tracemalloc.start()
        try:
            sample = random_extremal_povms(outcomes, count, RngStream(5).generator())
            return tracemalloc.get_traced_memory()[1] - sample.weights.nbytes - sample.blochs.nbytes
        finally:
            tracemalloc.stop()

    assert working_set(40_000) <= working_set(8_000) + 64 * 1024


def test_large_four_outcome_draws_complete():
    # at about 12.6% acceptance, over a million candidates are rejected on the way
    sample = random_extremal_povms(4, 150_000, RngStream(7).generator())
    assert sample.weights.shape == (150_000, 4)
    assert np.all(sample.weights > sampling.WEIGHT_FLOOR)


def test_a_block_that_accepts_nothing_raises(monkeypatch):
    # the weights of a draw sum to one, so no draw has all of them above one
    monkeypatch.setattr(sampling, "WEIGHT_FLOOR", 1.0)
    blocks, solve = [], sampling._completeness_weights

    def counted(coords):
        blocks.append(len(coords))
        return solve(coords)

    monkeypatch.setattr(sampling, "_completeness_weights", counted)
    with pytest.raises(RuntimeError, match="accepted none"):
        random_extremal_povms(4, 10, RngStream(0).generator())
    assert blocks == [256]


def test_extremal_sampling_rejects_bad_outcome_count():
    with pytest.raises(ValueError):
        random_extremal_povms(2, 10, RngStream(0).generator())
    with pytest.raises(ValueError):
        random_extremal_povms(5, 10, RngStream(0).generator())
