"""Rotation-channel fidelity, target relabelings, and sampled envelopes."""
import csv
import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest
from conftest import extremal_povm, sample_points
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import povmcert.fidelity
from povmcert.fidelity import (
    EnvelopeBin,
    EnvelopeCurve,
    TargetPovm,
    _kabsch,
    envelope_from_points,
    sample_fidelity_curve,
    sic_target,
    trine_target,
    write_samples_csv,
)
from povmcert.optimize import OptimizerConfig
from povmcert.qubit import Povm
from povmcert.sampling import RngStream
from povmcert.witness import (
    SIC_QUANTUM_MAX,
    TETRAHEDRON,
    TRINE,
    build_witness,
    sic_witness,
    trine_witness,
)

BEST_PROJECTIVE_VS_TRINE = (2.0 + np.sqrt(3.0)) / 4.0


def procrustes_fidelity(e: Povm, target: TargetPovm, perm) -> float:
    # closed form for max_R 1/2 + Tr(R K)/2 over proper rotations:
    # 1/2 + (s1 + s2 + sign(det K) s3)/2 with s the singular values of K
    v = target.povm.blochs[np.array(perm)]
    K = np.einsum("o,oi,oj->ij", e.weights, e.blochs, v)
    s = np.linalg.svd(K, compute_uv=False)
    return 0.5 + 0.5 * (s[0] + s[1] + np.sign(np.linalg.det(K)) * s[2])


def alignment(e: Povm, target: TargetPovm, perms) -> np.ndarray:
    """K matrices (C, 3, 3) of one POVM for C pairings."""
    return np.einsum("o,oi,coj->cij", e.weights, e.blochs, target.povm.blochs[np.array(perms)])


def fidelities(e: Povm, target: TargetPovm, perms) -> np.ndarray:
    """Kabsch fidelities (C,) of one POVM for C pairings.

    This is the route `sample_fidelity_curve` takes.
    """
    return _kabsch(e.weights[None], e.blochs[None], target.povm.blochs[np.array(perms)])[0]


def kabsch_rotations(K: np.ndarray) -> np.ndarray:
    """Reference Kabsch rotations (B, 3, 3) that maximize Tr(R K) over proper R.

    K = U S V^T and d = sign(det U det V) give R = V diag(1, 1, d) U^T.
    """
    U, s, Vt = np.linalg.svd(K)
    d = np.sign(np.linalg.det(U) * np.linalg.det(Vt))
    D = np.ones_like(s)
    D[:, 2] = d
    return (Vt.swapaxes(-1, -2) * D[:, None, :]) @ U.swapaxes(-1, -2)


def fidelity(e: Povm, target: TargetPovm, relabeling=None) -> float:
    perm = range(target.outcomes) if relabeling is None else relabeling
    return float(fidelities(e, target, [perm])[0])


def best_fidelity(e: Povm, target: TargetPovm) -> float:
    """Max over the target's relabeling classes."""
    return float(fidelities(e, target, target.relabel_classes).max())


def rotated(e: Povm, rotvec) -> Povm:
    R = Rotation.from_rotvec(rotvec).as_matrix()
    return Povm(e.weights.copy(), e.blochs @ R.T)


# ---------------------------------------------------------------- targets


def test_sic_target_geometry_and_classes():
    t = sic_target()
    assert t.outcomes == 4
    assert np.allclose(t.povm.weights, 0.25)
    gram = t.povm.blochs @ t.povm.blochs.T
    off = gram[~np.eye(4, dtype=bool)]
    assert np.allclose(off, -1.0 / 3.0, atol=1e-12)
    # the mirrored tetrahedron is the one relabeling no rotation undoes
    assert t.relabel_classes == ((0, 1, 2, 3), (0, 1, 3, 2))


def test_trine_target_geometry_and_classes():
    t = trine_target()
    assert t.outcomes == 3
    assert np.allclose(t.povm.weights, 1.0 / 3.0)
    gram = t.povm.blochs @ t.povm.blochs.T
    off = gram[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -0.5, atol=1e-12)
    # planar: every permutation is realized by some rotation
    assert t.relabel_classes == ((0, 1, 2),)


def test_target_rejects_non_extremal_povm():
    pair = Povm(
        np.array([0.5, 0.5]), np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    )
    with pytest.raises(ValueError, match="extremal"):
        TargetPovm.from_povm(pair)


def test_target_rejects_invalid_povm():
    bad = Povm(np.array([0.7, 0.3, 0.2]), TRINE.copy())
    with pytest.raises(ValueError, match="validation"):
        TargetPovm.from_povm(bad)


# ------------------------------------------------------- point fidelities


@pytest.mark.parametrize("target_fn", [sic_target, trine_target])
def test_self_fidelity_is_one(target_fn):
    t = target_fn()
    f = fidelities(t.povm, t, [range(t.outcomes)])
    assert f[0] == pytest.approx(1.0, abs=1e-9)
    R = kabsch_rotations(alignment(t.povm, t, [range(t.outcomes)]))
    assert np.allclose(R[0] @ R[0].T, np.eye(3), atol=1e-9)


def _random_alignment_inputs(S: int, C: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """weights (S, 4), blochs (S, 4, 3) and targets (C, 4, 3); `_kabsch` needs no valid POVM."""
    rng = np.random.default_rng(seed)
    return rng.random((S, 4)), rng.normal(size=(S, 4, 3)), rng.normal(size=(C, 4, 3))


def test_sliced_kabsch_matches_one_unsliced_svd():
    # K is built and decomposed a slice at a time; each matrix is its own
    # LAPACK call, so a batch of several slices (the last one partial)
    # gets the bits of one unsliced call
    w, n, v = _random_alignment_inputs(5_000, 2, 6)
    K = np.einsum("so,soi,coj->scij", w, n, v)
    U, s, Vt = np.linalg.svd(K)
    d = np.sign(np.linalg.det(U) * np.linalg.det(Vt))
    assert K.size // 9 > 2 * povmcert.fidelity._SLICE
    assert np.array_equal(_kabsch(w, n, v), 0.5 + 0.5 * (s[..., 0] + s[..., 1] + d * s[..., 2]))


def test_rotation_step_peak_stays_below_the_whole_batch_of_alignment_matrices():
    # 80,000 sic samples with two relabeling classes: all K at once would
    # be 11.5 MB; built a slice at a time the peak is about the output
    S, C = 80_000, 2
    w, n, v = _random_alignment_inputs(S, C, 7)
    tracemalloc.start()
    try:
        _kabsch(w, n, v).max(axis=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < S * C * 9 * 8 / 2


@pytest.mark.parametrize("target_fn", [sic_target, trine_target])
@pytest.mark.parametrize("rotvec", [[0.3, -1.1, 0.4], [2.0, 0.0, 0.9]])
def test_fidelity_is_rotation_invariant(target_fn, rotvec):
    t = target_fn()
    assert fidelity(rotated(t.povm, rotvec), t) == pytest.approx(1.0, abs=1e-9)


def test_mirrored_tetrahedron_needs_the_odd_relabeling():
    t = sic_target()
    mirror = Povm(np.full(4, 0.25), -TETRAHEDRON)
    # identity pairing: K = I/3 up to sign conventions with det < 0,
    # so one singular direction flips and F = 1/2 + (1/3 + 1/3 - 1/3)/2
    ident = fidelity(mirror, t)
    assert ident == pytest.approx(2.0 / 3.0, abs=1e-9)
    swapped = fidelity(mirror, t, relabeling=(0, 1, 3, 2))
    assert swapped == pytest.approx(1.0, abs=1e-9)
    assert best_fidelity(mirror, t) == pytest.approx(
        1.0, abs=1e-9
    )


def test_best_projective_fidelity_to_trine():
    # a projective pair padded with a dead outcome: K has rank one with
    # norm |v_0 - v_1|/2 = sqrt(3)/2, so F = 1/2 + sqrt(3)/4
    t = trine_target()
    e = Povm(
        np.array([0.5, 0.5, 0.0]),
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]),
    )
    best = best_fidelity(e, t)
    assert best == pytest.approx(BEST_PROJECTIVE_VS_TRINE, abs=1e-12)
    assert best <= BEST_PROJECTIVE_VS_TRINE + 1e-9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), outcomes=st.sampled_from([3, 4]))
def test_search_matches_procrustes_closed_form(seed, outcomes):
    t = sic_target() if outcomes == 4 else trine_target()
    e = extremal_povm(outcomes, RngStream(seed, 11).generator())
    got = fidelity(e, t)
    want = procrustes_fidelity(e, t, range(outcomes))
    assert got == pytest.approx(want, abs=1e-12)
    assert got <= want + 1e-12


def test_search_beats_dense_rotation_grid():
    t = sic_target()
    e = extremal_povm(4, RngStream(17, 11).generator())
    v = t.povm.blochs
    K = np.einsum("o,oi,oj->ij", e.weights, e.blochs, v)
    R = Rotation.random(100_000, random_state=RngStream(18).generator()).as_matrix()
    grid = 0.5 + 0.5 * np.einsum("mij,ji->m", R, K).max()
    got = fidelity(e, t)
    assert got >= grid - 1e-12
    assert got - grid < 3e-3


def test_fidelity_outcome_mismatch_rejected():
    # sample_fidelity_curve refuses a target of the wrong outcome count
    with pytest.raises(ValueError, match="outcome"):
        sample_fidelity_curve(sic_witness(0.2), trine_target(), n_samples=1)
    with pytest.raises(ValueError, match="outcome"):
        sample_fidelity_curve(trine_witness(1.0), sic_target(), n_samples=1)


def test_fidelity_result_rotation_is_proper():
    e = extremal_povm(4, RngStream(23, 11).generator())
    f = fidelities(e, sic_target(), [range(4)])[0]
    R = kabsch_rotations(alignment(e, sic_target(), [range(4)]))[0]
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-10)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)
    # the reference rotation realizes the fidelity `_kabsch` reports
    v = sic_target().povm.blochs
    K = np.einsum("o,oi,oj->ij", e.weights, e.blochs, v)
    assert 0.5 + 0.5 * np.trace(R @ K) == pytest.approx(f, abs=1e-12)


# ------------------------------------------------------------- envelopes


def test_envelope_bins_are_anchored_and_mergeable():
    pts_a = sample_points((0, 0.7501, 0.91), (1, 0.7519, 0.93))
    pts_b = sample_points((2, 0.7503, 0.89), (3, 0.7542, 0.97))
    env_a = envelope_from_points(pts_a, 0.002)
    env_b = envelope_from_points(pts_b, 0.002)
    assert [b.a_lo for b in env_a.bins] == pytest.approx([0.750])
    assert env_a.bins[0].min_f == 0.91
    assert env_a.bins[0].count == 2
    # shared anchoring: merging by per-bin minima equals the pooled curve
    merged: dict[float, EnvelopeBin] = {b.a_lo: b for b in env_a.bins}
    for b in env_b.bins:
        prev = merged.get(b.a_lo)
        if prev is None:
            merged[b.a_lo] = b
        else:
            merged[b.a_lo] = EnvelopeBin(
                b.a_lo, b.a_hi, min(prev.min_f, b.min_f), prev.count + b.count
            )
    pooled = envelope_from_points(np.concatenate([pts_a, pts_b]), 0.002)
    assert tuple(merged[k] for k in sorted(merged)) == pooled.bins


def test_envelope_lookup_and_floor():
    env = envelope_from_points(
        sample_points((0, 0.100, 0.80), (1, 0.1015, 0.85), (2, 0.105, 0.95), (3, 0.109, 0.90)),
        0.002,
    )
    # the floor scans upward: a weak measurement could still have shown
    # a higher value, so higher bins constrain the observation too
    assert env.floor_at(0.1005) == 0.80
    assert env.floor_at(0.103) == 0.90
    assert env.floor_at(0.1085) == 0.90
    assert env.floor_at(0.5) is None


def test_envelope_floor_is_monotone():
    rng = RngStream(5).generator()
    pts = sample_points(*zip(range(200), rng.uniform(0, 1, 200), rng.uniform(0.5, 1, 200)))
    env = envelope_from_points(pts, 0.01)
    grid = np.linspace(-0.1, 1.1, 300)
    floors = [env.floor_at(float(v)) for v in grid]
    prev = -np.inf
    for f in floors:
        if f is None:
            continue
        assert f >= prev
        prev = f


def test_envelope_rejects_bad_width():
    with pytest.raises(ValueError, match="width"):
        envelope_from_points(sample_points((0, 0.1, 0.9)), 0.0)


@pytest.mark.parametrize("width", [-1.0, float("nan"), float("inf")])
def test_envelope_rejects_negative_or_non_finite_width(width):
    with pytest.raises(ValueError, match="bin width"):
        envelope_from_points(sample_points((0, 0.1, 0.9)), width)


@pytest.mark.parametrize("a, f", [(np.inf, 0.9), (-np.inf, 0.9), (np.nan, 0.9), (0.1, np.nan)])
def test_envelope_rejects_non_finite_points(a, f):
    # an infinite value would wrap silently in the integer bin index
    with pytest.raises(ValueError, match="finite"):
        envelope_from_points(sample_points((0, 0.1, 0.9), (1, a, f)), 0.002)


def test_envelope_json_round_trip():
    env = envelope_from_points(sample_points((0, 0.75, 0.9), (1, 0.76, 0.95)), 0.002)
    again = EnvelopeCurve.from_json(env.to_json())
    assert again == env
    # the serialized form is plain JSON with named fields
    d = json.loads(env.to_json())
    assert set(d) == {"bin_width", "bins"}
    stamped = dataclasses.replace(env, witness="sic", k=0.2)
    assert EnvelopeCurve.from_json(stamped.to_json()) == stamped
    assert set(json.loads(stamped.to_json())) == {"witness", "k", "bin_width", "bins"}
    assert set(d["bins"][0]) == {"a_lo", "a_hi", "min_f", "count"}


def test_samples_csv_round_trip():
    pts = sample_points((3, 0.7512345678901234, 0.912345678901234), (7, 0.3, 0.5))
    out = io.StringIO()
    write_samples_csv(pts, out)
    text = out.getvalue()
    assert text.startswith("sample_id,A,F\r\n3,0.7512345678901234,0.912345678901234\r\n")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["sample_id", "A", "F"]
    # repr keeps every digit, so the floats come back exactly
    again = sample_points(*[(int(sid), float(a), float(f)) for sid, a, f in rows[1:]])
    assert again.tolist() == pts.tolist()


# ------------------------------------------------------- sampled curves


@pytest.fixture(scope="module")
def small_sic_curve():
    spec = sic_witness(0.2)
    pts, env = sample_fidelity_curve(
        spec,
        sic_target(),
        n_samples=48,
        stream=RngStream(31),
        config=OptimizerConfig(restarts=4, seed=1),
    )
    return spec, pts, env


def test_curve_points_land_in_valid_ranges(small_sic_curve):
    _, pts, env = small_sic_curve
    assert len(pts) == 48
    assert pts["sample_id"].tolist() == list(range(48))
    assert np.all((0.5 - 1e-9 <= pts["F"]) & (pts["F"] <= 1.0 + 1e-9))
    assert np.all(pts["A"] <= SIC_QUANTUM_MAX + 1e-6)
    assert sum(b.count for b in env.bins) == len(pts)


def test_curve_envelope_matches_points(small_sic_curve):
    _, pts, env = small_sic_curve
    assert env == envelope_from_points(pts, 0.002)
    for b in env.bins:
        inside = pts["F"][(b.a_lo <= pts["A"]) & (pts["A"] < b.a_hi)]
        assert len(inside) == b.count
        assert inside.min() == b.min_f
    los = [b.a_lo for b in env.bins]
    assert los == sorted(los)
    for b in env.bins:
        assert b.a_hi == pytest.approx(b.a_lo + 0.002)


def test_curve_is_deterministic(small_sic_curve):
    spec, pts, _ = small_sic_curve
    again, _ = sample_fidelity_curve(
        spec,
        sic_target(),
        n_samples=48,
        stream=RngStream(31),
        config=OptimizerConfig(restarts=4, seed=1),
    )
    assert again.tolist() == pts.tolist()


def test_curve_near_optimal_samples_have_high_fidelity(small_sic_curve):
    # a witness value close to the quantum maximum forces the POVM close
    # to the tetrahedral target, so fidelity climbs with the value
    _, pts, _ = small_sic_curve
    top = pts["F"][pts["A"] > SIC_QUANTUM_MAX - 0.01]
    low = pts["F"][pts["A"] < SIC_QUANTUM_MAX - 0.05]
    if len(top) and len(low):
        assert top.min() > low.max() - 0.2
        assert np.mean(top) > np.mean(low)


def test_trine_curve_smoke():
    pts, env = sample_fidelity_curve(
        trine_witness(1.0),
        trine_target(),
        n_samples=24,
        bin_width=0.01,
        stream=RngStream(33),
        config=OptimizerConfig(restarts=4, seed=2),
    )
    assert len(pts) == 24
    assert np.all((0.5 - 1e-9 <= pts["F"]) & (pts["F"] <= 1.0 + 1e-9))
    assert np.all(pts["A"] <= 5.0 + 1e-6)
    assert env.bin_width == 0.01


def test_curve_input_validation():
    with pytest.raises(ValueError, match="at least one"):
        sample_fidelity_curve(sic_witness(0.2), sic_target(), n_samples=0)


def test_curve_draws_every_povm_in_one_call(monkeypatch):
    # 100 samples x 8 restarts span several chunks of the witness
    # search, yet the POVMs come from a single draw
    calls = []
    draw = povmcert.fidelity.random_extremal_povms

    def counting(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(povmcert.fidelity, "random_extremal_povms", counting)
    pts, _ = sample_fidelity_curve(
        sic_witness(0.2), sic_target(), 100, stream=RngStream(3), config=OptimizerConfig(restarts=8)
    )
    assert len(calls) == 1
    assert len(pts) == 100


@pytest.mark.parametrize("width", [0.0, -1.0, float("nan"), float("inf")])
def test_curve_checks_bin_width_before_sampling(width, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before the bin width was checked")

    monkeypatch.setattr(povmcert.fidelity, "random_extremal_povms", no_draw)
    with pytest.raises(ValueError, match="bin width"):
        sample_fidelity_curve(sic_witness(0.2), sic_target(), 10, bin_width=width)


@pytest.mark.parametrize("name, k, target", [("sic", 0.2, sic_target), ("trine", 1.0, trine_target)])
def test_default_envelope_search_converges(name, k, target, caplog):
    # the 300-sample envelopes of `fidelity-curve --seed 1`
    with caplog.at_level("WARNING", logger="povmcert.optimize"):
        sample_fidelity_curve(
            build_witness(name, k), target(), 300, stream=RngStream(1),
            config=OptimizerConfig(restarts=8, seed=1),
        )
    assert not [r for r in caplog.records if r.name == "povmcert.optimize"]
