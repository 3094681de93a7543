"""Witness builders, table evaluation, serialization."""
import json
import re

import numpy as np
import pytest
from conftest import (
    IDEAL_STRATEGIES,
    binary_effect,
    density_matrix,
    effect_matrices,
    strategy_value,
)
from hypothesis import given
from hypothesis import strategies as st

from povmcert.qubit import Povm
from povmcert.sampling import random_extremal_povms
from povmcert.witness import (
    TETRAHEDRON,
    ProbabilityTable,
    Scenario,
    Strategy,
    WitnessSpec,
    bloch_linear_form,
    bloch_values,
    build_witness,
    evaluate_witness,
    probability_table,
    sic_witness,
    sym_trine_witness,
    trine_witness,
)

SQ3 = np.sqrt(3.0)


def uniform_table(X, Y, O):
    return ProbabilityTable(np.full((X, Y, 2), 0.5), np.full((X, O), 1.0 / O))


def test_scenario_requires_enough_preparations():
    with pytest.raises(ValueError):
        Scenario(2, 3, 4)
    Scenario(4, 3, 4)


def test_sic_coefficients_spot_values():
    w = sic_witness(0.2)
    c = w.coeffs
    assert c.shape == (4, 3, 2)
    # rewarded cells carry 1/12, the partner outcome 0
    assert c[0, 0, 0] == pytest.approx(1 / 12)
    assert c[0, 0, 1] == 0
    assert c[1, 1, 1] == pytest.approx(1 / 12)
    assert c[3, 2, 0] == pytest.approx(1 / 12)
    assert c.sum() == pytest.approx(1.0)
    assert w.offset == pytest.approx(0.5)
    assert w.quantum_max == pytest.approx(0.5 * (1 + 1 / SQ3))


def test_trine_coefficients_spot_values():
    w = trine_witness(1.0)
    c = w.coeffs
    assert c[0, 0, 0] == 1.0 and c[0, 0, 1] == -1.0
    assert c[0, 1, 0] == pytest.approx(SQ3)
    assert c[1, 1, 0] == pytest.approx(-SQ3)
    assert c[2, 1, 0] == 0.0
    assert c[2, 0, 0] == -1.0
    assert w.offset == pytest.approx(0.0)


def test_sym_trine_coefficients_spot_values():
    w = sym_trine_witness(0.0)
    c = w.coeffs
    assert c[0, 0, 1] == pytest.approx(1 / 9)
    assert c[0, 0, 0] == 0.0
    assert c[0, 1, 0] == pytest.approx(1 / 9)
    assert c.sum() == pytest.approx(1.0)


def test_uniform_tables():
    # flat statistics: base part is the offset, penalty is k
    for k in (0.0, 0.2, 1.0):
        w = sic_witness(k)
        v = evaluate_witness(w, uniform_table(4, 3, 4))
        assert v.value == pytest.approx(0.5 - k, abs=1e-12)
    v = evaluate_witness(sym_trine_witness(0.0), uniform_table(3, 3, 3))
    assert v.value == pytest.approx(0.5, abs=1e-12)
    v = evaluate_witness(trine_witness(0.7), uniform_table(3, 2, 3))
    assert v.value == pytest.approx(-0.7, abs=1e-12)


@pytest.mark.parametrize("name", ["sic", "trine", "sym-trine"])
def test_ideal_strategies_reach_quantum_max(name):
    strat = IDEAL_STRATEGIES[name]()
    for k in (0.0, 0.2, 1.0, 4.5):
        w = build_witness(name, k)
        assert strategy_value(w, strat) == pytest.approx(w.quantum_max, abs=1e-12)


def test_ideal_povms_are_anti_aligned():
    for name in ("sic", "trine", "sym-trine"):
        s = IDEAL_STRATEGIES[name]()
        assert np.allclose(s.povm.blochs, -s.preparations, atol=1e-12)
        total = s.povm.weights @ s.povm.blochs
        assert np.allclose(total, 0, atol=1e-12)


def unit_rows(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_probability_table_matches_matrix_born_rule(rng):
    # Bloch-form fast path vs literal trace formulas, for shared and for
    # per-setting preparations (setting y, the POVM last, sees M[x, y])
    N = unit_rows(rng, (2,))
    povm = Povm(np.full(4, 0.25), TETRAHEDRON)
    for S in (1, 3):
        M = unit_rows(rng, (4, S)) * rng.uniform(0.5, 1, (4, 1, 1))
        t = probability_table(M, N, povm.weights, povm.blochs)
        for x in range(4):
            for y, n in enumerate(N):
                rho = density_matrix(M[x, min(y, S - 1)])
                for b in (0, 1):
                    p = np.trace(rho @ binary_effect(n, b)).real
                    assert t.binary[x, y, b] == pytest.approx(p, abs=1e-12)
            rho = density_matrix(M[x, -1])
            for b, eff in enumerate(effect_matrices(povm)):
                assert t.povm[x, b] == pytest.approx(np.trace(rho @ eff).real, abs=1e-12)


@pytest.mark.parametrize("name", ["sic", "trine", "sym-trine"])
@pytest.mark.parametrize("per_setting", [False, True])
def test_bloch_values_match_table_evaluation(rng, name, per_setting):
    # the batched evaluator against the Born table plus the linear functional
    sc = build_witness(name, 0.0).scenario
    X, Y, O = sc.preparations, sc.binary_settings, sc.povm_outcomes
    B = 5
    M = unit_rows(rng, (B, X, Y + 1 if per_setting else 1)) * rng.uniform(0, 1, (B, X, 1, 1))
    N = unit_rows(rng, (B, Y))
    povms = random_extremal_povms(O, B, rng)
    W, P = povms.weights, povms.blochs
    last = [np.moveaxis(a, 0, -1) for a in (M, N, W, P)]  # the batch axis last
    for k in (0.0, 0.2, 1.0, 4.5):
        spec = build_witness(name, k)
        values = bloch_values(spec, *last)
        assert values.shape == (B,)
        for b in range(B):
            table = probability_table(M[b], N[b], W[b], P[b])
            assert values[b] == pytest.approx(evaluate_witness(spec, table).value, abs=1e-12)


def _x_above_o_witness(k):
    # a custom tensor where preparation 3 has no POVM partner
    c = np.random.default_rng(3).normal(size=(4, 2, 2))
    return WitnessSpec("custom", Scenario(4, 2, 3), c, k)


@pytest.mark.parametrize("build", [sic_witness, trine_witness, sym_trine_witness, _x_above_o_witness])
@pytest.mark.parametrize("k", [0.0, 0.2, 4.5])
def test_linear_form_matches_bloch_values(rng, build, k):
    # the Monte Carlo's affine form against the evaluator it restates
    spec = build(k)
    sc = spec.scenario
    X, Y, O = sc.preparations, sc.binary_settings, sc.povm_outcomes
    M = unit_rows(rng, (50, X, Y + 1)) * rng.uniform(0, 1, (50, X, Y + 1, 1))
    N = unit_rows(rng, (Y,))
    povm = random_extremal_povms(O, 1, rng)
    W, P = povm.weights[0], povm.blochs[0]
    const, C = bloch_linear_form(spec, N, W, P)
    assert C.shape == (X, Y + 1, 3)
    assert not C[O:, Y].any()
    form = const + np.einsum("bxsi,xsi->b", M, C)
    np.testing.assert_allclose(form, bloch_values(spec, np.moveaxis(M, 0, -1), N, W, P), rtol=1e-14, atol=1e-14)


def test_witness_linearity_in_table(rng):
    w = sic_witness(0.37)
    tables = []
    for _ in range(2):
        M, N = unit_rows(rng, (4, 1)), unit_rows(rng, (3,))
        tables.append(probability_table(M, N, np.full(4, 0.25), TETRAHEDRON))
    lam = 0.3
    mix = ProbabilityTable(
        lam * tables[0].binary + (1 - lam) * tables[1].binary,
        lam * tables[0].povm + (1 - lam) * tables[1].povm,
    )
    v0 = evaluate_witness(w, tables[0]).value
    v1 = evaluate_witness(w, tables[1]).value
    vm = evaluate_witness(w, mix).value
    assert vm == pytest.approx(lam * v0 + (1 - lam) * v1, abs=1e-12)


@given(st.floats(0, 5, allow_nan=False), st.floats(0, 5, allow_nan=False))
def test_witness_value_monotone_in_k(k1, k2):
    # penalty term is nonnegative, so value is non-increasing in k
    if k1 > k2:
        k1, k2 = k2, k1
    t = uniform_table(4, 3, 4)
    v1 = evaluate_witness(sic_witness(k1), t).value
    v2 = evaluate_witness(sic_witness(k2), t).value
    assert v2 <= v1 + 1e-12


def test_error_propagation_matches_hand_formula():
    w = sym_trine_witness(0.5)
    binary = np.full((3, 3, 2), 0.5)
    povm = np.full((3, 3), 1 / 3)
    be = np.full((3, 3, 2), 0.01)
    pe = np.full((3, 3), 0.02)
    v = evaluate_witness(w, ProbabilityTable(binary, povm, be, pe))
    # 9 rewarded cells at coeff 1/9, plus 3 diagonal penalty cells at k
    expected = np.sqrt(9 * (1 / 9) ** 2 * 0.01**2 + 3 * 0.5**2 * 0.02**2)
    assert v.stderr == pytest.approx(expected, rel=1e-12)
    assert evaluate_witness(w, ProbabilityTable(binary, povm)).stderr is None


def test_error_propagation_counts_each_binary_group_once():
    # trine rewards both cells of a group, c_xy1 = -c_xy0, and p_1 = 1 - p_0,
    # so a group adds (c_xy0 - c_xy1)^2 sigma^2 = 4 c_xy0^2 sigma^2, not the
    # 2 c_xy0^2 sigma^2 of two independent cells
    w = trine_witness(1.0)
    binary = np.full((3, 2, 2), 0.5)
    povm = np.full((3, 3), 1 / 3)
    be = np.full((3, 2, 2), 0.01)
    pe = np.full((3, 3), 0.02)
    v = evaluate_witness(w, ProbabilityTable(binary, povm, be, pe))
    # sum_xy c_xy0^2 = 9 over the columns (1, 1, -1) and (sqrt3, -sqrt3, 0)
    expected = np.sqrt(4 * 9 * 0.01**2 + 3 * 1.0**2 * 0.02**2)
    assert v.stderr == pytest.approx(expected, rel=1e-12)


def test_evaluate_rejects_mismatched_table():
    with pytest.raises(ValueError):
        evaluate_witness(sic_witness(0.2), uniform_table(3, 2, 3))


def test_table_validation():
    with pytest.raises(ValueError):
        ProbabilityTable(np.full((2, 2, 2), 0.4), np.full((2, 3), 1 / 3))
    with pytest.raises(ValueError):
        ProbabilityTable(np.full((2, 2, 2), 0.5), np.full((2, 4), 0.2))
    with pytest.raises(ValueError):
        ProbabilityTable(np.full((2, 2, 2), 0.5) * np.array([3, -1]), np.full((2, 2), 0.5))


def test_strategy_round_trip():
    # to_dict is what bounds files carry as an argmax; it rebuilds the strategy
    s = IDEAL_STRATEGIES["trine"]()
    d = json.loads(json.dumps(s.to_dict()))
    s2 = Strategy(d["preparations"], d["binaries"], Povm.from_dict(d["povm"]))
    assert np.allclose(s2.preparations, s.preparations)
    assert np.allclose(s2.binaries, s.binaries)
    assert np.allclose(s2.povm.weights, s.povm.weights)


def test_strategy_checks_its_arrays():
    s = IDEAL_STRATEGIES["sic"]()
    with pytest.raises(ValueError, match="shape"):
        Strategy(s.preparations[:, :2], s.binaries, s.povm)
    with pytest.raises(ValueError, match="finite"):
        Strategy(s.preparations, np.full((3, 3), np.nan), s.povm)
    # a preparation a hair outside the ball passes (|m| <= 1 + 1e-9)
    Strategy(s.preparations * (1 + 1e-10), s.binaries, s.povm)
    with pytest.raises(ValueError):
        s.preparations[0, 0] = 0.0


def test_build_witness_rejects_unknown():
    with pytest.raises(ValueError):
        build_witness("bell", 0.1)


@pytest.mark.parametrize("k", [-0.1, float("nan"), float("inf"), -float("inf")])
def test_witness_rejects_a_k_that_is_not_finite_and_non_negative(k):
    sic = sic_witness(0.2)
    with pytest.raises(ValueError, match=re.escape(f"penalty weight k must be finite and >= 0, got {k}")):
        WitnessSpec("sic", sic.scenario, sic.coeffs, k)
