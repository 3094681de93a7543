"""Critical visibility formula, noise curves, and their consistency."""
import numpy as np
import pytest
from conftest import IDEAL_STRATEGIES, born_strategy_value, strategy_value
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcert import optimize
from povmcert.optimize import (
    OptimizerConfig,
    projective_bound,
    projective_bound_sic,
    projective_bounds_numeric,
    three_outcome_max,
    three_outcome_maxima,
)
from povmcert.robustness import (
    DEFAULT_K_GRID,
    VisibilityResult,
    critical_visibility,
    most_robust_point,
    visibility_curve,
    visibility_curve_to_csv,
)
from povmcert.witness import (
    SIC_QUANTUM_MAX,
    ProbabilityTable,
    Strategy,
    build_witness,
    evaluate_witness,
    sic_witness,
    sym_trine_witness,
    trine_witness,
)

FAST = OptimizerConfig(restarts=8, seed=7)


def depolarized(strategy, v):
    """The strategy with every preparation Bloch vector shrunk by v."""
    return Strategy(v * strategy.preparations, strategy.binaries, strategy.povm)


def mixed_prep_table(spec):
    # every binary probability is 1/2 on the maximally mixed state and
    # the POVM group returns its weights; uniform weights suffice
    sc = spec.scenario
    binary = np.full((sc.preparations, sc.binary_settings, 2), 0.5)
    povm = np.full((sc.preparations, sc.povm_outcomes), 1.0 / sc.povm_outcomes)
    return ProbabilityTable(binary, povm)


@pytest.mark.parametrize(
    "spec_fn,expected",
    [(sic_witness, 0.5), (trine_witness, 0.0), (sym_trine_witness, 0.5)],
)
@pytest.mark.parametrize("k", [0.0, 0.2, 1.3])
def test_a_rand_values_and_mixed_table_consistency(spec_fn, expected, k):
    spec = spec_fn(k)
    assert spec.offset == pytest.approx(expected, abs=1e-12)
    # full witness on mixed preparations = base part minus k (penalty
    # hits the diagonal with total weight 1)
    full = evaluate_witness(spec, mixed_prep_table(spec)).value
    assert full + k == pytest.approx(spec.offset, abs=1e-12)


def test_published_visibilities_at_fifth():
    proj = critical_visibility(0.2, 0.7738, SIC_QUANTUM_MAX, 0.5)
    assert proj.value == pytest.approx(0.970, abs=1e-3)
    assert not proj.clamped
    three = critical_visibility(0.2, 0.7836, SIC_QUANTUM_MAX, 0.5)
    assert three.value == pytest.approx(0.990, abs=1e-3)
    assert not three.clamped


def test_bound_at_quantum_value_needs_full_visibility():
    v = critical_visibility(0.3, SIC_QUANTUM_MAX, SIC_QUANTUM_MAX, 0.5)
    assert v.value == pytest.approx(1.0, abs=1e-12)
    assert not v.clamped


def test_clamping_is_flagged_both_ways():
    above = critical_visibility(0.2, 0.9, SIC_QUANTUM_MAX, 0.5)
    assert above.value == 1.0 and above.clamped
    below = critical_visibility(0.2, 0.1, SIC_QUANTUM_MAX, 0.5)
    assert below.value == 0.0 and below.clamped


def test_rounding_above_the_quantum_value_is_not_clamped(caplog):
    # at k = 0 the sic three-outcome see-saw lands one ulp above a_q, so
    # v is 1 + 2 ulps: rounding, not a bound no visibility can violate
    with caplog.at_level("WARNING", logger="povmcert.robustness"):
        (point,) = visibility_curve("sic", "three-outcome", [0.0], OptimizerConfig(restarts=8, seed=0))
    assert point.v_crit == 1.0 and not point.clamped
    assert not caplog.records
    # a bound clearly above a_q is still flagged and logged
    with caplog.at_level("WARNING", logger="povmcert.robustness"):
        above = critical_visibility(0.0, SIC_QUANTUM_MAX + 1e-12, SIC_QUANTUM_MAX, 0.5)
    assert above.value == 1.0 and above.clamped
    assert ["outside [0, 1]" in r.getMessage() for r in caplog.records] == [True]


def test_degenerate_scale_rejected():
    with pytest.raises(ValueError, match="not positive"):
        critical_visibility(0.1, 0.5, 0.3, 0.5)
    with pytest.raises(ValueError, match=">= 0"):
        critical_visibility(-0.1, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        critical_visibility(0.1, np.inf, 1.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(
    k=st.floats(0.0, 2.0),
    a_q=st.floats(0.6, 1.0),
    rand=st.floats(0.0, 0.5),
    b1=st.floats(0.5, 1.0),
    b2=st.floats(0.5, 1.0),
)
def test_v_crit_monotone_in_bound(k, a_q, rand, b1, b2):
    lo, hi = sorted((min(b1, a_q), min(b2, a_q)))
    v_lo = critical_visibility(k, lo, a_q, rand).value
    v_hi = critical_visibility(k, hi, a_q, rand).value
    assert v_lo <= v_hi + 1e-12


@pytest.mark.parametrize("k", [0.1, 0.2, 0.5, 1.0])
def test_depolarized_ideal_sic_lands_exactly_on_the_bound(k):
    # the defining property of the formula: the ideal strategy seen
    # through v_crit scores exactly the bound
    spec = sic_witness(k)
    bound = projective_bound_sic(k).value
    v = critical_visibility(k, bound, spec.quantum_max, spec.offset).value
    noisy = depolarized(IDEAL_STRATEGIES["sic"](), v)
    assert strategy_value(spec, noisy) == pytest.approx(bound, abs=1e-6)


def test_depolarized_ideal_trine_lands_on_numeric_bound():
    spec = trine_witness(1.0)
    bound = projective_bound(spec, FAST).value
    v = critical_visibility(1.0, bound, spec.quantum_max, spec.offset).value
    noisy = depolarized(IDEAL_STRATEGIES["trine"](), v)
    assert strategy_value(spec, noisy) == pytest.approx(bound, abs=1e-6)


def test_sic_projective_curve_minimum_sits_at_fifth():
    curve = visibility_curve("sic", "projective", DEFAULT_K_GRID)
    assert len(curve) == 100
    assert all(not p.heuristic for p in curve)  # closed form throughout
    assert all(not p.clamped for p in curve)
    assert all(0.0 <= p.v_crit <= 1.0 for p in curve)
    assert all(p.a_rand == 0.5 and p.a_q == SIC_QUANTUM_MAX for p in curve)
    best = most_robust_point(curve)
    assert best.k == pytest.approx(0.2, abs=0.02)
    assert best.v_crit == pytest.approx(0.970, abs=1e-3)


def test_sic_three_outcome_points_sit_above_projective():
    ks = [0.1, 0.2, 0.4]
    proj = visibility_curve("sic", "projective", ks, FAST)
    three = visibility_curve("sic", "three-outcome", ks, FAST)
    for p, t in zip(proj, three):
        assert p.k == t.k
        assert t.heuristic
        assert p.v_crit <= t.v_crit + 1e-9
    at_fifth = [t for t in three if t.k == 0.2][0]
    assert at_fifth.v_crit == pytest.approx(0.990, abs=1e-3)


def test_trine_curve_uses_numeric_bounds():
    curve = visibility_curve("trine", "projective", [0.5, 1.0], FAST)
    for p in curve:
        assert p.heuristic
        assert p.a_rand == 0.0 and p.a_q == 5.0
        spec = build_witness("trine", p.k)
        assert p.bound_value == pytest.approx(projective_bound(spec, FAST).value, abs=1e-6)
        assert 0.0 < p.v_crit < 1.0


@pytest.mark.parametrize("family, kind, lone", [
    ("sic", "three-outcome", three_outcome_max),
    ("trine", "projective", projective_bound),
])
def test_curve_batch_matches_lone_bounds_in_grid_order(family, kind, lone):
    # unsorted, with k = 0 and a repeated k
    grid = [0.3, 0.0, 0.1, 0.3, 0.05]
    config = OptimizerConfig(restarts=4, seed=3)
    curve = visibility_curve(family, kind, grid, config)
    assert [p.k for p in curve] == grid
    for p in curve:
        assert p.bound_value == lone(build_witness(family, p.k), config).value


@pytest.mark.parametrize("family, search", [
    ("sic", three_outcome_maxima),
    ("trine", projective_bounds_numeric),
])
def test_grid_bounds_dominate_every_argmax_on_the_grid(family, search):
    # each k's argmax is feasible at every k', so no k' may score below
    # it; a maximum of functions affine in k is convex in k.  The Born
    # value of a fixed strategy is base - k' penalty, scored from k = 0 and 1
    specs = [build_witness(family, k) for k in DEFAULT_K_GRID]
    results = search(specs, OptimizerConfig(restarts=8, seed=0))
    values = np.array([res.value for res in results])
    argmaxes = [res.argmax for res in results]
    at0, at1 = build_witness(family, 0.0), build_witness(family, 1.0)
    base = np.array([born_strategy_value(at0, s) for s in argmaxes])
    penalty = base - np.array([born_strategy_value(at1, s) for s in argmaxes])
    scores = base[:, None] - np.array(DEFAULT_K_GRID)[None, :] * penalty[:, None]  # (argmax k, scored k')
    assert np.all(scores <= values[None, :] + 1e-9)
    assert np.diff(values, 2).min() >= -1e-9


def test_curve_warns_once_naming_unconverged_k_points(caplog, monkeypatch):
    # alone, k = 0.1 and 0 converge in 20 and 15 iterations and k = 1
    # and 2 need 66 and 130 (restarts 4, seed 7)
    monkeypatch.setattr(optimize, "_MAX_ITERS", 40)
    config = OptimizerConfig(restarts=4, seed=7)
    with caplog.at_level("WARNING", logger="povmcert.robustness"):
        curve = visibility_curve("sic", "three-outcome", [0.1, 1.0, 0.0, 2.0], config)
    assert len(curve) == 4  # unconverged points are reported, not dropped
    (record,) = [r for r in caplog.records if r.name == "povmcert.robustness"]
    assert record.levelname == "WARNING"
    assert record.getMessage() == "sic three-outcome bound stopped unconverged at k = 1.0, 2.0"
    caplog.clear()
    monkeypatch.undo()
    with caplog.at_level("WARNING", logger="povmcert.robustness"):
        visibility_curve("sic", "three-outcome", [0.1, 1.0], config)
    assert not [r for r in caplog.records if r.name == "povmcert.robustness"]


def test_three_outcome_curve_rejected_for_three_outcome_witness():
    with pytest.raises(ValueError):
        visibility_curve("trine", "three-outcome", [0.5], FAST)


def test_curve_input_validation():
    with pytest.raises(ValueError, match="bound_kind"):
        visibility_curve("sic", "quantum", [0.1])
    with pytest.raises(ValueError, match="nonempty"):
        visibility_curve("sic", "projective", [])
    with pytest.raises(ValueError, match=">= 0"):
        visibility_curve("sic", "projective", [-0.1])
    with pytest.raises(ValueError, match="unknown witness family"):
        visibility_curve("qutrit", "projective", [0.1])
    with pytest.raises(ValueError, match="empty"):
        most_robust_point([])


def test_visibility_result_validates_fields():
    with pytest.raises(ValueError, match="bound_kind"):
        VisibilityResult(0.2, "exact", 0.7, 0.5, 0.8, 0.9, False, False)
    with pytest.raises(ValueError, match="v_crit"):
        VisibilityResult(0.2, "projective", 0.7, 0.5, 0.8, 1.2, False, False)


def test_curve_csv_shape():
    curve = visibility_curve("sic", "projective", [0.1, 0.2])
    text = visibility_curve_to_csv(curve)
    lines = text.strip().splitlines()
    assert lines[0] == "k,bound_kind,bound,v_crit"
    assert len(lines) == 3
    k, kind, bound, v = lines[1].split(",")
    assert float(k) == 0.1 and kind == "projective"
    assert float(bound) == pytest.approx(curve[0].bound_value)
    assert float(v) == pytest.approx(curve[0].v_crit)


def test_default_grid_matches_published_sweep():
    assert DEFAULT_K_GRID[0] == 0.01
    assert DEFAULT_K_GRID[-1] == 1.0
    assert len(DEFAULT_K_GRID) == 100
    assert np.allclose(np.diff(DEFAULT_K_GRID), 0.01)
