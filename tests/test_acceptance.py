"""Acceptance gate: eight desk-scale criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -v` to get one PASSED/FAILED line
per criterion; each test prints the measured numbers (visible with -s,
or automatically on failure).  Everything is seeded and finishes in a
few minutes on one core.
"""
import time

import numpy as np
import pytest
from conftest import seesaw_reference

from povmcert import (
    OptimizerConfig,
    RngStream,
    build_witness,
    certify,
    critical_visibility,
    ingest_counts,
    plate_systematic,
    projective_bound,
    projective_bound_numeric,
    projective_bound_sic,
    quantum_bound,
    random_extremal_povms,
    sample_fidelity_curve,
    sic_experiment,
    sic_target,
    simulate_counts,
    three_outcome_max,
    trine_experiment,
    trine_target,
)
from povmcert.cli import main as cli_main
from povmcert.fidelity import _kabsch
from povmcert.qubit import Povm, classify_extremal, validate_povm
from povmcert.robustness import visibility_curve

SIC_QMAX = 0.5 * (1.0 + 1.0 / np.sqrt(3.0))


def note(text):
    print(f"\n  {text}")


def test_criterion_1_quantum_maxima():
    config = OptimizerConfig(restarts=32, seed=0)
    cases = [
        ("sic", 0.0, SIC_QMAX),
        ("sic", 0.2, SIC_QMAX),
        ("sic", 1.0, SIC_QMAX),
        ("trine", 1.0, 5.0),
        ("trine", 4.5, 5.0),
        ("sym-trine", 0.0, 5.0 / 6.0),
    ]
    for name, k, expected in cases:
        t0 = time.monotonic()
        got, _ = seesaw_reference(build_witness(name, k), config)
        elapsed = time.monotonic() - t0
        assert got == pytest.approx(expected, abs=1e-5), (name, k)
        assert elapsed < 60.0, f"{name} k={k} took {elapsed:.0f}s"
        note(f"{name} k={k}: {got:.7f} (target {expected:.7f}) in {elapsed:.2f}s")
    note("criterion 1 quantum maxima: PASS")


def test_criterion_2_projective_bounds():
    t0 = time.monotonic()
    config = OptimizerConfig(restarts=32, seed=0)

    closed = projective_bound_sic(0.2).value
    assert closed == pytest.approx(0.7738, abs=5e-4)

    # the reference thresholds for the trine witness place the two
    # projectors on the symmetric outcome pair, whose value the search
    # reports per pair; the maximum over outcome assignments is strictly
    # more, so both numbers are checked and the deviation is reported
    for k, published in ((1.0, 4.89165), (4.5, 4.71139)):
        spec = build_witness("trine", k)
        res = projective_bound_numeric(spec, config)
        pair, free = res.diagnostics["pair_values"]["0,1"], res.value
        assert pair == pytest.approx(published, abs=1e-3)
        assert free > pair + 1e-3
        note(
            f"trine k={k}: pair-(0,1) bound {pair:.5f} matches {published}; "
            f"all-assignment bound {free:.5f} exceeds it by {free - pair:.5f}"
        )

    sweep_config = OptimizerConfig(restarts=16, seed=0)
    worst = 0.0
    for k in [round(0.01 * i, 2) for i in range(1, 101)]:
        num = projective_bound_numeric(build_witness("sic", k), sweep_config).value
        worst = max(worst, abs(num - projective_bound_sic(k).value))
    assert worst < 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    note(f"closed-form vs numeric SIC sweep: worst dev {worst:.2e} in {elapsed:.0f}s")
    note("criterion 2 projective bounds: PASS")


def test_criterion_3_three_outcome_threshold():
    t0 = time.monotonic()
    got = three_outcome_max(build_witness("sic", 0.2), OptimizerConfig(restarts=32, seed=0))
    elapsed = time.monotonic() - t0
    assert got.value == pytest.approx(0.7836, abs=1e-3)
    assert got.heuristic
    assert elapsed < 300.0
    note(f"three-outcome threshold at k=0.2: {got.value:.5f} in {elapsed:.1f}s")
    note("criterion 3 three-outcome threshold: PASS")


def test_criterion_4_critical_visibility():
    t0 = time.monotonic()
    spec = build_witness("sic", 0.2)
    assert spec.offset == pytest.approx(0.5)
    v_proj = critical_visibility(0.2, projective_bound_sic(0.2).value, SIC_QMAX, 0.5)
    v_three = critical_visibility(
        0.2,
        three_outcome_max(spec, OptimizerConfig(restarts=16, seed=0)).value,
        SIC_QMAX,
        0.5,
    )
    assert v_proj.value == pytest.approx(0.970, abs=1e-3)
    assert v_three.value == pytest.approx(0.990, abs=1e-3)

    config = OptimizerConfig(restarts=8, seed=0)
    for kind, at_02 in (("projective", v_proj.value), ("three-outcome", v_three.value)):
        curve = visibility_curve("sic", kind, config=config)
        best = min(curve, key=lambda p: p.v_crit)
        assert abs(best.k - 0.2) <= 0.02, (kind, best.k)
        note(f"{kind}: v_crit(0.2)={at_02:.4f}, sweep minimum at k={best.k:.2f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    note(f"both sweeps in {elapsed:.0f}s")
    note("criterion 4 critical visibility: PASS")


def test_criterion_5_fidelity_anchors():
    # Kabsch fidelities over the target's relabelings, as in the envelopes
    def fidelities(povm, target):
        targets = target.povm.blochs[np.array(target.relabel_classes)]
        return _kabsch(povm.weights[None], povm.blochs[None], targets)[0]

    for target in (sic_target(), trine_target()):
        self_fid = fidelities(target.povm, target)[0]  # identity pairing
        assert self_fid == pytest.approx(1.0, abs=1e-9)

    # any projective pair is rotation-equivalent, so one padded pair
    # suffices for the best projective-vs-trine anchor
    pair = Povm(
        np.array([0.5, 0.5, 0.0]),
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]),
    )
    best = fidelities(pair, trine_target()).max()
    anchor = (2.0 + np.sqrt(3.0)) / 4.0
    assert best == pytest.approx(anchor, abs=1e-4)
    note(f"self-fidelities 1.0; projective-vs-trine {best:.6f} (target {anchor:.6f})")
    note("criterion 5 fidelity anchors: PASS")


def test_criterion_6_sampling_envelopes():
    t0 = time.monotonic()
    _, sic_env = sample_fidelity_curve(
        build_witness("sic", 0.2), sic_target(), 10_000,
        bin_width=0.002, stream=RngStream(2026),
    )
    sic_floor = sic_env.floor_at(0.78514)
    assert 0.97 <= sic_floor <= 0.99

    _, trine_env = sample_fidelity_curve(
        build_witness("trine", 1.0), trine_target(), 10_000,
        bin_width=0.01, stream=RngStream(2026),
    )
    trine_floor = trine_env.floor_at(4.96587)
    assert 0.96 <= trine_floor <= 0.99
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    note(
        f"10^4-sample floors: SIC {sic_floor:.4f} at A=0.78514, "
        f"trine {trine_floor:.4f} at A=4.96587, in {elapsed:.0f}s"
    )
    note("criterion 6 sampling envelopes: PASS")


def test_criterion_7_end_to_end_pipeline():
    t0 = time.monotonic()
    config = OptimizerConfig(restarts=16, seed=0)

    spec = build_witness("sic", 0.2)
    cfg = sic_experiment()
    table = ingest_counts(simulate_counts(cfg, spec, RngStream(42)))
    syst = plate_systematic(cfg, spec)
    bounds = [
        projective_bound(spec, config),
        three_outcome_max(spec, config),
        quantum_bound(spec),
    ]
    report = certify(table, spec, bounds, syst_err=syst)
    assert 0.780 <= report.value <= 0.789
    assert report.qubit_consistent is True
    assert report.verdicts["genuine_four_outcome_certified"] is True
    assert 1.0e-4 / 3 <= syst <= 1.0e-4 * 3
    note(f"SIC: witness {report.value:.5f}, plate systematic {syst:.2e} (published 1.0e-4)")

    spec = build_witness("trine", 4.5)
    cfg = trine_experiment()
    table = ingest_counts(simulate_counts(cfg, spec, RngStream(43)))
    syst = plate_systematic(cfg, spec)
    bounds = [projective_bound(spec, config), quantum_bound(spec)]
    report = certify(table, spec, bounds, syst_err=syst)
    assert report.qubit_consistent is True
    assert report.verdicts["non_projective_certified"] is True
    assert 1.7e-3 / 3 <= syst <= 1.7e-3 * 3
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    note(f"trine: witness {report.value:.5f}, plate systematic {syst:.2e} (published 1.7e-3)")
    note(f"pipeline in {elapsed:.0f}s")
    note("criterion 7 end-to-end pipeline: PASS")


def test_criterion_8_property_suites(tmp_path):
    # sampled-POVM invariants, vectorized over 10^4 draws per class
    for outcomes in (3, 4):
        sample = random_extremal_povms(outcomes, 10_000, RngStream(8).generator())
        assert np.all(sample.weights > 0)
        np.testing.assert_allclose(sample.weights.sum(axis=1), 1.0, atol=1e-9)
        norms = np.linalg.norm(sample.blochs, axis=2)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)
        resid = np.einsum("so,soi->si", sample.weights, sample.blochs)
        assert np.abs(resid).max() < 1e-9
        for s in range(0, 10_000, 50):
            povm = Povm(sample.weights[s], sample.blochs[s])
            assert validate_povm(povm).ok
            assert classify_extremal(povm) == f"extremal-{outcomes}"
    note("10^4 sampled POVMs per class: all valid and extremal")

    # see-saw optima land on the target Gram matrices
    config = OptimizerConfig(restarts=16, seed=0)
    for name, k, gram in (("sic", 0.2, -1.0 / 3.0), ("trine", 1.0, -0.5)):
        _, arg = seesaw_reference(build_witness(name, k), config)
        g = arg.preparations @ arg.preparations.T
        off = g[~np.eye(len(g), dtype=bool)]
        np.testing.assert_allclose(off, gram, atol=1e-4)
    note("optimum preparation Grams: -1/3 (sic), -1/2 (trine)")

    for k in (0.05, 0.2, 0.5, 1.0):
        spec = build_witness("sic", k)
        proj = projective_bound(spec, config).value
        three = three_outcome_max(spec, config).value
        quantum = quantum_bound(spec).value
        assert proj <= three + 1e-9 <= quantum + 2e-9, k
    note("bound ordering projective <= three-outcome <= quantum at four k values")

    # seeded CLI runs are byte-identical
    for args, name in (
        (["simulate", "--witness", "trine", "--k", "1", "--seed", "9"], "counts-trine-k1.csv"),
        (
            ["bounds", "--witness", "sic", "--k", "0.2", "--kinds", "projective,quantum",
             "--restarts", "8", "--out", "b.json"],
            "b.json",
        ),
    ):
        blobs = []
        for sub in ("a", "b"):
            rc = cli_main(args + ["--out-dir", str(tmp_path / sub)])
            assert rc == 0
            blobs.append((tmp_path / sub / name).read_bytes())
        assert blobs[0] == blobs[1], name
    note("seeded CLI double runs byte-identical")
    note("criterion 8 property suites: PASS")
