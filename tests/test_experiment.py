"""Wave-plate preparations, count simulation and ingestion, MC systematics, certify."""
import dataclasses
import json

import numpy as np
import pytest
from conftest import reference_monte_carlo_systematic
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcert import experiment
from povmcert.experiment import (
    LAB_VISIBILITIES,
    TRINE_PLATE_ANGLES,
    CountsRecord,
    ExperimentConfig,
    Visibilities,
    WitnessReport,
    _blochs_from_angles,
    certify,
    counts_from_csv,
    counts_to_csv,
    expected_probabilities,
    ingest_counts,
    monte_carlo_systematic,
    sic_experiment,
    simulate_counts,
    trine_experiment,
)
from povmcert.fidelity import SamplePoint, envelope_from_points
from povmcert.optimize import BoundResult
from povmcert.qubit import Povm
from povmcert.sampling import RngStream
from povmcert.witness import (
    SIC_QUANTUM_MAX,
    TETRAHEDRON,
    TRINE,
    evaluate_witness,
    sic_witness,
    sym_trine_witness,
    trine_witness,
)

SQ3 = np.sqrt(3.0)


def bound(kind, value, k, heuristic=False):
    return BoundResult(kind=kind, value=value, k=k, heuristic=heuristic)


# ------------------------------------------------------------ wave plates


def retarder(theta_deg, phase):
    """Jones matrix of a retarder: fast axis at theta, +phase on the slow axis."""
    t = np.deg2rad(theta_deg)
    c, s = np.cos(t), np.sin(t)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([1.0, np.exp(1j * phase)]) @ rot.T


def jones_bloch(hwp_deg, qwp_deg):
    """Oracle: Bloch vector of |H> through QWP(qwp) then HWP(hwp), by Jones matrices."""
    a, b = retarder(hwp_deg, np.pi) @ retarder(qwp_deg, np.pi / 2) @ np.array([1.0, 0.0])
    return np.array(
        [2.0 * (a * np.conj(b)).real, 2.0 * (np.conj(a) * b).imag, abs(a) ** 2 - abs(b) ** 2]
    )


def plate_blochs(cfg):
    """A config's preparation vectors and the Jones oracle's for its plate table."""
    return cfg.prep_blochs, np.array([jones_bloch(h, q) for h, q in cfg.preparations])


def test_plain_horizontal_preparation():
    cfg = dataclasses.replace(sic_experiment(), preparations=((0.0, 0.0),))
    for bloch in plate_blochs(cfg):
        assert np.allclose(bloch[0], [0.0, 0.0, 1.0], atol=1e-12)


def test_published_sic_angles_hit_the_tetrahedron():
    for V in plate_blochs(sic_experiment()):
        assert np.abs(V - TETRAHEDRON).max() < 2e-3


def test_published_trine_angles_hit_the_reversed_trine():
    targets = np.array([[0, 0, 1], [SQ3 / 2, 0, -0.5], [-SQ3 / 2, 0, -0.5]])
    for V in plate_blochs(trine_experiment()):
        assert np.abs(V - targets).max() < 1e-12


def test_sic_plate_gram_is_tetrahedral():
    for V in plate_blochs(sic_experiment()):
        off = (V @ V.T)[~np.eye(4, dtype=bool)]
        assert np.abs(off + 1.0 / 3.0).max() < 5e-3


def test_trine_plate_gram_is_trine():
    for V in plate_blochs(trine_experiment()):
        off = (V @ V.T)[~np.eye(3, dtype=bool)]
        assert np.abs(off + 0.5).max() < 5e-3


@settings(max_examples=40, deadline=None)
@given(h=st.floats(-360, 360), q=st.floats(-360, 360))
def test_jones_states_are_pure_and_match_trig_route(h, q):
    bloch = jones_bloch(h, q)
    assert abs(np.linalg.norm(bloch) - 1.0) < 1e-9
    # matrix route vs the batched trigonometric closed form
    assert np.abs(bloch - _blochs_from_angles(np.array(h), np.array(q))).max() < 1e-9


# ----------------------------------------------------------- experiments


def test_experiment_configs_match_their_witness_scenarios():
    assert sic_experiment().scenario_shape() == (4, 3, 4)
    assert trine_experiment().scenario_shape() == (3, 2, 3)


@pytest.mark.parametrize(
    "cfg_fn,spec_fn,k",
    [(sic_experiment, sic_witness, 0.2), (trine_experiment, trine_witness, 1.0)],
)
def test_perfect_visibility_reaches_the_quantum_value(cfg_fn, spec_fn, k):
    spec = spec_fn(k)
    table = expected_probabilities(dataclasses.replace(cfg_fn(), visibilities=Visibilities()))
    value = evaluate_witness(spec, table).value
    # plate-angle rounding in the published table costs only O(eps^2)
    assert value == pytest.approx(spec.quantum_max, abs=1e-4)


def test_expected_probabilities_scale_by_setting_visibility():
    # each binary correlation shrinks by its setting's visibility, the
    # POVM overlap by the mean of the three
    vis = Visibilities(z=0.9, x=0.8, y=0.7)
    for cfg in (sic_experiment(visibilities=vis), trine_experiment(visibilities=vis)):
        table = expected_probabilities(cfg)
        M = cfg.prep_blochs
        for y, n in enumerate(cfg.binaries):
            corr = vis.for_axis(n) * (M @ n)
            assert np.allclose(table.binary[:, y, 0], (1 + corr) / 2, atol=1e-15)
            assert np.allclose(table.binary[:, y, 1], (1 - corr) / 2, atol=1e-15)
        overlap = (0.9 + 0.8 + 0.7) / 3 * (M @ cfg.povm.blochs.T)
        assert np.allclose(table.povm, cfg.povm.weights * (1 + overlap), atol=1e-15)


def test_lab_visibilities_give_published_windows():
    sic_val = evaluate_witness(
        sic_witness(0.2), expected_probabilities(sic_experiment())
    ).value
    assert 0.780 <= sic_val <= 0.789
    tri_val = evaluate_witness(
        trine_witness(1.0), expected_probabilities(trine_experiment())
    ).value
    assert 4.96 <= tri_val <= 5.0


def test_config_json_round_trip():
    cfg = sic_experiment()
    data = json.loads(cfg.to_json())
    assert set(data) == {
        "preparations",
        "visibilities",
        "budget",
        "motor_fwhm_deg",
        "binaries",
        "povm",
    }
    assert data["budget"] == 5_000_000 and isinstance(data["budget"], int)
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again.preparations == cfg.preparations
    assert again.visibilities == cfg.visibilities
    assert again.photon_budget == cfg.photon_budget
    assert again.motor_fwhm_deg == cfg.motor_fwhm_deg
    assert np.allclose(again.binaries, cfg.binaries)
    assert np.allclose(again.povm.weights, cfg.povm.weights)
    assert np.allclose(again.povm.blochs, cfg.povm.blochs)


def test_config_validation():
    with pytest.raises(ValueError, match="visibility"):
        Visibilities(z=1.2)
    with pytest.raises(ValueError, match="budget"):
        dataclasses.replace(sic_experiment(), photon_budget=0)
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(sic_experiment(), preparations=((np.inf, 0.0),))
    with pytest.raises(ValueError, match="FWHM"):
        dataclasses.replace(sic_experiment(), motor_fwhm_deg=-1.0)


def test_visibility_axis_mapping():
    v = Visibilities(z=0.9, x=0.8, y=0.7)
    assert v.for_axis(np.array([0.0, 0.0, 1.0])) == 0.9
    assert v.for_axis(np.array([1.0, 0.0, 0.0])) == 0.8
    assert v.for_axis(np.array([0.0, -1.0, 0.0])) == 0.7
    assert v.for_axis(np.array([SQ3 / 2, 0.0, 0.5])) == 0.8  # x-dominant
    assert v.povm_setting() == pytest.approx(0.8)


# ------------------------------------------------------ simulate / ingest


def test_simulated_counts_are_complete_and_deterministic():
    spec = sic_witness(0.2)
    a = simulate_counts(sic_experiment(), spec, RngStream(40))
    b = simulate_counts(sic_experiment(), spec, RngStream(40))
    c = simulate_counts(sic_experiment(), spec, RngStream(41))
    assert a == b
    assert a != c
    assert len(a) == 4 * (3 * 2 + 4)
    assert all(r.n >= 0 for r in a)
    povm_rows = [r for r in a if r.y == "povm"]
    assert len(povm_rows) == 16


def test_counts_csv_round_trip():
    spec = trine_witness(1.0)
    records = simulate_counts(trine_experiment(), spec, RngStream(42))
    text = counts_to_csv(records)
    assert text.splitlines()[0] == "x,y,b,n"
    assert counts_from_csv(text) == records
    with pytest.raises(ValueError, match="columns"):
        counts_from_csv("a,b,c\n1,2,3\n")


def test_simulate_rejects_scenario_mismatch():
    with pytest.raises(ValueError, match="scenario"):
        simulate_counts(sic_experiment(), trine_witness(1.0), RngStream(0))


def test_simulated_witness_lands_in_published_windows():
    spec = sic_witness(0.2)
    table = ingest_counts(simulate_counts(sic_experiment(), spec, RngStream(43)))
    wv = evaluate_witness(spec, table)
    assert 0.780 <= wv.value <= 0.789
    # stat error at 5e6 counts per setting is a few e-5
    assert 1e-6 < wv.stderr < 2e-4

    spec45 = trine_witness(4.5)
    table45 = ingest_counts(simulate_counts(trine_experiment(), spec45, RngStream(44)))
    wv45 = evaluate_witness(spec45, table45)
    assert 4.9 <= wv45.value <= 5.0


def test_ingested_probabilities_converge_to_exact_as_budget_grows():
    spec = sic_witness(0.2)
    exact = evaluate_witness(sic_witness(0.2), expected_probabilities(sic_experiment())).value
    errs = []
    for budget in (1e4, 1e6, 1e8):
        devs = []
        for seed in range(5):
            cfg = sic_experiment(budget=budget)
            table = ingest_counts(simulate_counts(cfg, spec, RngStream(50 + seed)))
            devs.append(abs(evaluate_witness(spec, table).value - exact))
        errs.append(np.mean(devs))
    assert errs[0] < 2e-2
    assert errs[2] < 2e-4
    # two decades of budget per step: error should fall roughly 10x each
    assert errs[0] > 3 * errs[1] > 9 * errs[2]


def test_ingest_ratio_and_error_oracle():
    records = [
        CountsRecord(0, 0, 0, 3),
        CountsRecord(0, 0, 1, 1),
        CountsRecord(0, "povm", 0, 2),
        CountsRecord(0, "povm", 1, 2),
    ]
    table = ingest_counts(records)
    assert np.allclose(table.binary[0, 0], [0.75, 0.25])
    # sigma^2 = n (N - n) / N^3 with N=4: 3*1/64
    assert table.binary_err[0, 0, 0] == pytest.approx(np.sqrt(3 / 64), abs=1e-12)
    assert table.binary_err[0, 0, 1] == pytest.approx(np.sqrt(3 / 64), abs=1e-12)
    assert np.allclose(table.povm[0], [0.5, 0.5])
    assert table.povm_err[0, 0] == pytest.approx(np.sqrt(2 * 2 / 64), abs=1e-12)


def test_ingest_uniform_counts_give_uniform_probabilities():
    records = [CountsRecord(0, 0, b, 7) for b in range(2)]
    records += [CountsRecord(0, "povm", b, 7) for b in range(3)]
    table = ingest_counts(records)
    assert np.allclose(table.binary[0, 0], 0.5)
    assert np.allclose(table.povm[0], 1.0 / 3.0)


def test_ingest_rejects_bad_counts():
    base = [
        CountsRecord(0, 0, 0, 5),
        CountsRecord(0, 0, 1, 5),
        CountsRecord(0, "povm", 0, 5),
        CountsRecord(0, "povm", 1, 5),
    ]
    with pytest.raises(ValueError, match="negative count"):
        ingest_counts(base + [CountsRecord(0, 1, 0, -1)])
    with pytest.raises(ValueError, match="at least one count"):
        ingest_counts(base + [CountsRecord(0, 1, 0, 0), CountsRecord(0, 1, 1, 0)])
    with pytest.raises(ValueError, match="binary and povm"):
        ingest_counts(base[:2])
    with pytest.raises(ValueError, match="out of range"):
        ingest_counts(base + [CountsRecord(0, 0, 2, 5)])
    # povm rows must cover the same preparations as the binary rows
    with pytest.raises(ValueError, match="different preparations"):
        ingest_counts(
            base
            + [
                CountsRecord(1, 0, 0, 5),
                CountsRecord(1, 0, 1, 5),
            ]
        )


# ---------------------------------------------------------- monte carlo


def test_systematic_error_matches_published_magnitudes():
    sic_syst = monte_carlo_systematic(
        sic_experiment(), sic_witness(0.2), 20_000, RngStream(60)
    )
    assert 1.0e-4 / 3 < sic_syst < 1.0e-4 * 3
    tri_syst = monte_carlo_systematic(
        trine_experiment(), trine_witness(1.0), 20_000, RngStream(61)
    )
    assert 1.7e-3 / 3 < tri_syst < 1.7e-3 * 3


def test_systematic_error_is_deterministic_and_scales_with_fwhm():
    cfg = sic_experiment()
    spec = sic_witness(0.2)
    a = monte_carlo_systematic(cfg, spec, 5_000, RngStream(62))
    b = monte_carlo_systematic(cfg, spec, 5_000, RngStream(62))
    assert a == b
    doubled = dataclasses.replace(cfg, motor_fwhm_deg=cfg.motor_fwhm_deg * 2)
    assert monte_carlo_systematic(doubled, spec, 5_000, RngStream(62)) == pytest.approx(
        2 * a, rel=0.05
    )


@pytest.mark.parametrize(
    "cfg, spec", [(sic_experiment(), sic_witness(0.2)), (trine_experiment(), trine_witness(1.0))]
)
def test_systematic_error_does_not_depend_on_chunk_size(cfg, spec, monkeypatch):
    whole = monte_carlo_systematic(cfg, spec, 5_000, RngStream(64))
    # 1, 7 and 999 leave a partial last chunk
    for chunk in (1, 7, 999, 1_000):
        monkeypatch.setattr(experiment, "_MC_CHUNK", chunk)
        assert monte_carlo_systematic(cfg, spec, 5_000, RngStream(64)) == whole, chunk


def _sym_trine_experiment():
    # plates at minus the trine, observables and POVM on the trine
    return ExperimentConfig(
        preparations=TRINE_PLATE_ANGLES,
        visibilities=LAB_VISIBILITIES,
        binaries=TRINE,
        povm=Povm(np.full(3, 1.0 / 3.0), TRINE),
        photon_budget=1e6,
    )


@pytest.mark.parametrize(
    "cfg, spec",
    [
        (sic_experiment(), sic_witness(0.2)),
        (trine_experiment(), trine_witness(1.0)),
        (trine_experiment(), trine_witness(4.5)),
        (_sym_trine_experiment(), sym_trine_witness(0.5)),
        (
            dataclasses.replace(
                sic_experiment(visibilities=Visibilities(z=0.9, x=0.95, y=0.97)),
                preparations=((12.0, 31.0), (-40.0, 8.5), (77.0, -22.0), (3.0, 44.0)),
            ),
            sic_witness(1.3),
        ),
        (dataclasses.replace(sic_experiment(), motor_fwhm_deg=5.0), sic_witness(0.2)),
        (dataclasses.replace(trine_experiment(), motor_fwhm_deg=5.0), trine_witness(4.5)),
    ],
    ids=["sic", "trine-k1", "trine-k4.5", "sym-trine", "sic-moved-plates", "sic-5deg", "trine-5deg"],
)
def test_systematic_error_matches_the_full_bloch_reference(cfg, spec):
    # the projected plate model against the Bloch vectors of _blochs_from_angles
    # scored by bloch_values; a 5 degree FWHM rules out small-angle shortcuts
    got = monte_carlo_systematic(cfg, spec, 3_000, RngStream(65))
    assert got == pytest.approx(reference_monte_carlo_systematic(cfg, spec, 3_000, RngStream(65)), rel=1e-12)


def test_zero_motor_spread_means_zero_systematic():
    cfg = dataclasses.replace(sic_experiment(), motor_fwhm_deg=0.0)
    assert monte_carlo_systematic(cfg, sic_witness(0.2), 1_000, RngStream(63)) < 1e-12


def test_monte_carlo_input_checks():
    with pytest.raises(ValueError, match="100"):
        monte_carlo_systematic(sic_experiment(), sic_witness(0.2), 50, RngStream(0))
    with pytest.raises(ValueError, match="scenario"):
        monte_carlo_systematic(sic_experiment(), trine_witness(1.0), 500, RngStream(0))


# --------------------------------------------------------------- certify


def sic_bounds(k=0.2):
    return [
        bound("projective-closed-form", 0.7738, k),
        bound("three-outcome-numeric", 0.7836, k, heuristic=True),
        bound("quantum-seesaw", SIC_QUANTUM_MAX, k, heuristic=True),
    ]


@pytest.fixture(scope="module")
def sic_lab_table():
    spec = sic_witness(0.2)
    return ingest_counts(simulate_counts(sic_experiment(), spec, RngStream(70))), spec


def test_certify_full_sic_pipeline(sic_lab_table):
    table, spec = sic_lab_table
    syst = monte_carlo_systematic(sic_experiment(), spec, 20_000, RngStream(71))
    env = envelope_from_points(
        [SamplePoint(0.7871, 0.971, 0), SamplePoint(0.7881, 0.995, 1)], 0.002
    )
    report = certify(table, spec, sic_bounds(), envelope=env, syst_err=syst)
    assert report.witness == "sic" and report.k == 0.2
    assert 0.780 <= report.value <= 0.789
    assert 0 < report.stat_err < 2e-4
    assert report.syst_err == syst
    assert report.verdicts["non_projective_certified"]
    assert report.verdicts["genuine_four_outcome_certified"]
    assert report.bounds == {
        "projective": 0.7738,
        "three-outcome": 0.7836,
        "quantum": SIC_QUANTUM_MAX,
    }
    assert report.heuristic["projective"] is False
    assert report.heuristic["three-outcome"] is True
    assert report.fidelity_estimate == pytest.approx(0.971)
    data = json.loads(report.to_json())
    assert data["verdicts"]["genuine_four_outcome_certified"] is True
    assert data["fidelity_estimate"]["basis"] == "heuristic, sampling-based"


def test_certify_trine_non_projective():
    spec = trine_witness(4.5)
    table = ingest_counts(simulate_counts(trine_experiment(), spec, RngStream(72)))
    report = certify(
        table,
        spec,
        [bound("projective-numeric", 4.8199, 4.5, heuristic=True)],
        syst_err=1.2e-3,
    )
    assert report.verdicts["non_projective_certified"]
    # a three-outcome scenario can never claim a four-outcome measurement
    assert not report.verdicts["genuine_four_outcome_certified"]
    assert json.loads(report.to_json())["fidelity_estimate"] is None


def test_certify_fails_below_bounds(sic_lab_table):
    table, spec = sic_lab_table
    high = [
        bound("projective-closed-form", 0.99, 0.2),
        bound("three-outcome-numeric", 0.995, 0.2, heuristic=True),
    ]
    report = certify(table, spec, high)
    assert not report.verdicts["non_projective_certified"]
    assert not report.verdicts["genuine_four_outcome_certified"]


def test_certify_verdict_uses_error_margin(sic_lab_table):
    table, spec = sic_lab_table
    value = evaluate_witness(spec, table).value
    stat = evaluate_witness(spec, table).stderr
    syst = 1e-4
    margin = value - stat - syst
    just_below = [
        bound("projective-closed-form", margin - 1e-9, 0.2),
        bound("three-outcome-numeric", margin + 1e-9, 0.2, heuristic=True),
    ]
    report = certify(table, spec, just_below, syst_err=syst)
    assert report.verdicts["non_projective_certified"]
    assert not report.verdicts["genuine_four_outcome_certified"]


def test_certify_missing_bounds_rejected(sic_lab_table):
    table, spec = sic_lab_table
    with pytest.raises(ValueError, match="projective bound"):
        certify(table, spec, [bound("three-outcome-numeric", 0.78, 0.2)])
    with pytest.raises(ValueError, match="three-outcome bound"):
        certify(table, spec, [bound("projective-closed-form", 0.77, 0.2)])


def test_certify_rejects_mismatched_or_bad_bounds(sic_lab_table):
    table, spec = sic_lab_table
    with pytest.raises(ValueError, match="k="):
        certify(
            table,
            spec,
            [bound("projective-closed-form", 0.77, 0.5)]
            + [bound("three-outcome-numeric", 0.78, 0.2)],
        )
    # NaN fails every comparison, so a NaN k or value must not slip past the checks
    for k, value, match in ((np.nan, 0.77, "k="), (0.2, np.nan, "finite"), (0.2, np.inf, "finite")):
        with pytest.raises(ValueError, match=match):
            certify(
                table,
                spec,
                [bound("projective-closed-form", value, k)]
                + [bound("three-outcome-numeric", 0.78, 0.2)],
            )
    with pytest.raises(ValueError, match="duplicate"):
        certify(table, spec, sic_bounds() + [bound("projective-numeric", 0.7, 0.2)])
    with pytest.raises(ValueError, match="not recognized"):
        certify(table, spec, [bound("classical", 0.7, 0.2)])
    with pytest.raises(ValueError, match="systematic"):
        certify(table, spec, sic_bounds(), syst_err=-1.0)


def test_report_without_errors_uses_zero_stat(sic_lab_table):
    _, spec = sic_lab_table
    table = expected_probabilities(sic_experiment())  # exact, no stderr
    report = certify(table, spec, sic_bounds())
    assert report.stat_err == 0.0
    assert isinstance(report, WitnessReport)
