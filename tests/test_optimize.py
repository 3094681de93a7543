"""Optimizer tests.

The heavy numerics (the see-saw) run with small restart
counts here; the acceptance suite exercises the full-budget settings.
Oracle values used below were frozen from independent routes: scipy
Nelder-Mead on reduced objectives, explicit 2x2 matrix Born-rule
evaluation, and dense grids.
"""
import re
import tracemalloc
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from conftest import (
    IDEAL_STRATEGIES,
    IDENTITY2,
    PAULIS,
    binary_effect,
    born_strategy_value,
    density_matrix,
    effect_matrices,
    enumerated_triangle_ball,
    extremal_povm,
    gram_ball_candidates,
    observable_matrix,
    seesaw_reference,
    strategy_value,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcert import optimize
from povmcert.optimize import (
    BOUND_SLOTS,
    OptimizerConfig,
    _ascent_candidates,
    _concave_beyond_floor,
    _enclosing_ball_step,
    _fields,
    _fixed_povm_climb,
    _matmul_first,
    _multistart,
    _normalize_rows,
    _norms,
    _observable_step,
    _penalty,
    _penalty_fields,
    _preparation_step,
    _projective_povm_step,
    _reduced_derivatives,
    _scored_fields,
    _seesaw_bounds,
    _triangle_ball,
    maximize_given_povm_batch,
    projective_bound_sic,
    projective_bound_sym_trine,
    quantum_bound,
    slot_bounds,
)
from povmcert.qubit import Povm, classify_extremal, validate_povm
from povmcert.sampling import RngStream, random_extremal_povms, random_unit_vectors
from povmcert.witness import (
    SIC_QUANTUM_MAX,
    SYM_TRINE_QUANTUM_MAX,
    TETRAHEDRON,
    TRINE,
    TRINE_QUANTUM_MAX,
    Scenario,
    Strategy,
    WitnessSpec,
    bloch_values,
    build_witness,
    sic_witness,
    sym_trine_witness,
    trine_witness,
)

QUANTUM_MAXIMA = {
    "sic": SIC_QUANTUM_MAX,
    "trine": TRINE_QUANTUM_MAX,
    "sym-trine": SYM_TRINE_QUANTUM_MAX,
}

FAST = OptimizerConfig(restarts=8, seed=7)
SQ2 = np.sqrt(2.0)

# pair-restricted trine projective maxima, frozen from three independent
# routes (see-saw, scipy on the reduced objective, matrix Born rule)
TRINE_SYMMETRIC_PAIR = {1.0: 4.8916463, 4.5: 4.7113893}
TRINE_ALL_PAIRS = {1.0: 4.9119910, 4.5: 4.8198600}


def trine_symmetric_pair_closed_form(k: float) -> float:
    return 1.0 - k + 2.0 * np.sqrt(1.0 + (np.sqrt(3.0) + k / 2.0) ** 2)


# ---------------------------------------------------------------------------
# the quantum bound, and the see-saw over all outcomes reaching it
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["sic", "trine", "sym-trine"])
@pytest.mark.parametrize("k", [0.0, 0.2, 1.0, 4.5])
def test_quantum_bound_is_the_known_maximum(name, k):
    spec = build_witness(name, k=k)
    res = quantum_bound(spec)
    assert res.kind == "quantum-closed-form"
    assert res.heuristic is False
    assert res.value == spec.quantum_max
    assert res.diagnostics == {"witness": name, "method": "closed-form"}
    assert validate_povm(res.argmax.povm).ok
    assert born_strategy_value(spec, res.argmax) == pytest.approx(res.value, abs=1e-12)


def test_quantum_bound_needs_a_known_maximum():
    custom = build_witness("trine", k=1.0)
    spec = WitnessSpec("custom", custom.scenario, custom.coeffs, 1.0)
    with pytest.raises(ValueError, match="no known quantum maximum"):
        quantum_bound(spec)


@pytest.mark.parametrize("name", ["sic", "trine", "sym-trine"])
@pytest.mark.parametrize("k", [0.0, 0.2, 1.0])
def test_seesaw_reaches_quantum_maximum(name, k):
    value, _ = seesaw_reference(build_witness(name, k=k), FAST)
    assert value == pytest.approx(QUANTUM_MAXIMA[name], abs=1e-7)


def test_seesaw_argmax_value_consistent():
    spec = build_witness("sic", k=0.3)
    value, argmax = seesaw_reference(spec, FAST)
    assert strategy_value(spec, argmax) == pytest.approx(value, abs=1e-9)
    assert validate_povm(argmax.povm).ok


def test_seesaw_trace_is_monotone(monkeypatch):
    # the same seed replays the same trajectory, so the run stopped after
    # i iterations gives each row's value at step i; the groups are the
    # three-outcome search's trios
    spec = build_witness("sic", k=0.4)
    groups = np.array([sorted(set(range(4)) - {z}) for z in range(4)])
    config = OptimizerConfig(restarts=6, seed=3)
    trace = []
    for max_iters in range(1, 41):
        monkeypatch.setattr(optimize, "_MAX_ITERS", max_iters)
        (run,) = _multistart([spec], config, 0, groups)
        trace.append(run["values"].ravel())
    assert run["converged"]  # the trace covers the whole run
    steps = np.diff(np.array(trace), axis=0)
    assert steps.min() > -1e-9


# ---------------------------------------------------------------------------
# a k grid runs as one see-saw batch
# ---------------------------------------------------------------------------

# unsorted, with k = 0 (where the penalty does not score) and a repeated k
GRID = (0.3, 0.0, 0.1, 0.3, 0.05, 1.0)
GRID_SLOTS = {"sic": "three-outcome", "trine": "projective"}


def assert_same_bound(got, lone):
    assert (got.kind, got.value, got.k, got.heuristic) == (lone.kind, lone.value, lone.k, lone.heuristic)
    assert got.diagnostics == lone.diagnostics
    for a, b in (
        (got.argmax.preparations, lone.argmax.preparations),
        (got.argmax.binaries, lone.argmax.binaries),
        (got.argmax.povm.weights, lone.argmax.povm.weights),
        (got.argmax.povm.blochs, lone.argmax.povm.blochs),
    ):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(GRID_SLOTS))
@pytest.mark.parametrize("chunk", [None, 40])
def test_grid_batch_matches_lone_calls(monkeypatch, name, chunk):
    # each k stops on its own rule, so it ends bit for bit where a lone
    # call does; a 40-row chunk splits the grid into several batches
    if chunk is not None:
        monkeypatch.setattr(optimize, "_SEESAW_CHUNK", chunk)
    slot = GRID_SLOTS[name]
    config = OptimizerConfig(restarts=4, seed=3)
    batch = slot_bounds([build_witness(name, k) for k in GRID], slot, config)
    assert [res.k for res in batch] == list(GRID)
    for res in batch:
        assert_same_bound(res, slot_bounds([build_witness(name, res.k)], slot, config)[0])
    # the two k = 0.3 entries are the same run
    assert_same_bound(batch[0], batch[3])


@pytest.mark.parametrize(
    "name, slot, key",
    [("sic", "three-outcome", "zero_assignment_values"), ("trine", "projective", "pair_values")],
)
def test_zero_k_argmax_is_a_fixed_point_of_its_povm_step(name, slot, key):
    # at k = 0 the penalty does not score, but every row still takes its
    # POVM step, so the best row's POVM is the step's output, not its start
    (res,) = slot_bounds([build_witness(name, 0.0)], slot, OptimizerConfig(restarts=4, seed=3))
    per_group = res.diagnostics[key]
    label = max(per_group, key=per_group.get)  # the argmax row's group: the first best
    if name == "sic":
        step, subset = _enclosing_ball_step, [o for o in range(4) if o != int(label)]
    else:
        step, subset = _projective_povm_step, [int(o) for o in label.split(",")]
    a = res.argmax
    M, S = a.preparations[..., None], np.array(subset)[:, None]
    PW, PN = step(M, S, a.povm.weights[:, None].copy(), a.povm.blochs[..., None].copy())
    assert np.array_equal(PW[:, 0], a.povm.weights)
    assert np.array_equal(PN[..., 0], a.povm.blochs)


# ---------------------------------------------------------------------------
# the matmul field steps against their einsum forms
# ---------------------------------------------------------------------------


def einsum_observable_step(D, M, N):
    """Reference observable step: the observable fields as a generic einsum."""
    return _normalize_rows(np.einsum("xy,xi...->yi...", D, M), N, axis=1)


def einsum_preparation_step(D, N, K, M):
    """Reference preparation step: h = D n - K as a generic einsum."""
    return _normalize_rows(np.einsum("xy,yi...->xi...", D, N) - K, M, axis=1)


def assert_close_bounds(got, ref):
    for a, b in zip(got, ref, strict=True):
        assert a.value == pytest.approx(b.value, rel=0, abs=1e-13)
        for key in ("iterations", "converged"):
            assert a.diagnostics[key] == b.diagnostics[key]


def _with_einsum_steps(monkeypatch, search):
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "_observable_step", einsum_observable_step)
        patch.setattr(optimize, "_preparation_step", einsum_preparation_step)
        return search()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matmul_steps_match_the_einsum_reference_on_the_lab_bounds(monkeypatch, seed):
    config = OptimizerConfig(restarts=32, seed=seed)

    def search():
        return [
            *slot_bounds([build_witness("sic", 0.2)], "three-outcome", config),
            *slot_bounds([build_witness("trine", 1.0)], "projective", config),
            *slot_bounds([build_witness("trine", 4.5)], "projective", config),
        ]

    assert_close_bounds(search(), _with_einsum_steps(monkeypatch, search))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matmul_steps_match_the_einsum_reference_on_the_sweep_grid(monkeypatch, seed):
    config = OptimizerConfig(restarts=8, seed=seed)
    grid = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)

    def search():
        return [
            *slot_bounds([build_witness("sic", k) for k in grid], "three-outcome", config),
            *slot_bounds([build_witness("trine", k) for k in grid], "projective", config),
        ]

    assert_close_bounds(search(), _with_einsum_steps(monkeypatch, search))


# ---------------------------------------------------------------------------
# the rows-first see-saw that the batch-last layout replaced, kept as a
# reference: rows (B, ...) first, one tiny matmul per row
# ---------------------------------------------------------------------------


def rows_first_bloch_values(spec, M, N, weights, blochs, k=None):
    """`bloch_values` on rows-first M (..., X, S, 3), N (..., Y, 3), weights (..., O), blochs (..., O, 3)."""
    Y, O = spec.scenario.binary_settings, spec.scenario.povm_outcomes
    base = np.einsum("...xyi,xy,...yi->...", M[..., :Y, :], spec.bloch_coeffs, N)
    overlap = np.einsum("...oi,...oi->...o", blochs, M[..., :O, -1, :])
    pen = np.einsum("...o,...o->...", weights, 1.0 + overlap)
    return spec.offset + base - (spec.k if k is None else k) * pen


def rows_first_anti_aligned(blochs, X):
    """Preparations (S, X, 3) anti-aligned with rows-first effects (S, O, 3)."""
    return -blochs[:, np.minimum(np.arange(X), blochs.shape[1] - 1)]


def _penalty_of(PW, PN, M_S):
    """Penalty sum_x w_x (1 + n_x . m_x) for aligned (B, T) blocks."""
    return np.einsum("bt,bt->b", PW, 1.0 + np.einsum("bti,bti->bt", PN, M_S))


def _binary_step(D, M, N_old):
    return _normalize_rows(D.T @ M, N_old)


def _prep_step(D, N, k, PW, PN, M_old):
    """Best preparations; k is one penalty weight or one per row (B,)."""
    H = D @ N
    H[:, : PW.shape[1]] -= np.reshape(k, (-1, 1, 1)) * PW[..., None] * PN
    return _normalize_rows(H, M_old)


def rows_first_projective_step(M, subset, PW, PN):
    rows = np.arange(PW.shape[0])
    ii, jj = subset.T
    n = _normalize_rows(M[rows, jj] - M[rows, ii], PN[rows, ii])
    PN = PN.copy()
    PN[rows, ii] = n
    PN[rows, jj] = -n
    return PW, PN


def rows_first_ball_step(M, subset, PW, PN):
    rows = np.arange(PW.shape[0])
    slots = (rows[:, None], subset)
    M_S, PW_S, PN_S = M[slots], PW[slots], PN[slots]
    w, centres, radii2 = _triangle_ball(np.ascontiguousarray(M_S.transpose(1, 2, 0)))
    w = w.T
    dirs = _normalize_rows(centres.T[:, None, :] - M_S, PN_S)
    better = np.isfinite(radii2) & (_penalty_of(w, dirs, M_S) < _penalty_of(PW_S, PN_S, M_S))
    PW_new, PN_new = PW.copy(), PN.copy()
    PW_new[slots] = np.where(better[:, None], w, PW_S)
    PN_new[slots] = np.where(better[:, None, None], dirs, PN_S)
    return PW_new, PN_new


def rows_first_seesaw(spec, config, stream, groups):
    """One k's `_multistart` run, rows first: values (G, restarts), iterations and convergence flag."""
    D, R, (G, T) = spec.bloch_coeffs, config.restarts, groups.shape
    B, O = G * R, spec.scenario.povm_outcomes
    rng = config.stream(stream).generator()
    M = random_unit_vectors(rng, (B, spec.scenario.preparations))
    N = random_unit_vectors(rng, (B, spec.scenario.binary_settings))
    if T == 2:
        axis = random_unit_vectors(rng, B)
        weights, blochs = np.full((B, 2), 0.5), np.stack([axis, -axis], axis=1)
    else:
        sample = random_extremal_povms(T, B, rng)
        weights, blochs = sample.weights, sample.blochs
    subset = np.repeat(groups, R, axis=0)
    PW, PN = np.zeros((B, O)), np.tile(np.array([0.0, 0.0, 1.0]), (B, O, 1))
    np.put_along_axis(PW, subset, weights, axis=1)
    np.put_along_axis(PN, subset[:, :, None], blochs, axis=1)
    povm_step = rows_first_projective_step if T == 2 else rows_first_ball_step
    values = rows_first_bloch_values(spec, M[:, :, None], N, PW, PN)
    for it in range(optimize._MAX_ITERS):
        N = _binary_step(D, M, N)
        M = _prep_step(D, N, spec.k, PW, PN, M)
        PW, PN = povm_step(M, subset, PW, PN)
        new = rows_first_bloch_values(spec, M[:, :, None], N, PW, PN)
        settled = (new - values).max() < optimize._TOL and it >= 1
        values = new
        if settled or it + 1 == optimize._MAX_ITERS:
            return values.reshape(G, R), it + 1, settled


SEESAW_GROUPS = {
    "sic": ("three-outcome", 3, np.array([sorted(set(range(4)) - {z}) for z in range(4)])),
    "trine": ("projective", 2, np.array(list(combinations(range(3), 2)))),
}


def assert_matches_the_rows_first_seesaw(name, ks, config):
    slot, stream, groups = SEESAW_GROUPS[name]
    specs = [build_witness(name, k) for k in ks]
    runs = _multistart(specs, config, stream, groups)
    for spec, res, run in zip(specs, slot_bounds(specs, slot, config), runs, strict=True):
        values, iterations, converged = rows_first_seesaw(spec, config, stream, groups)
        assert np.abs(run["values"] - values).max() <= 1e-15
        assert abs(res.value - values.max()) <= 1e-15
        assert (res.diagnostics["iterations"], res.diagnostics["converged"]) == (iterations, converged)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_last_seesaw_matches_the_rows_first_reference_on_the_lab_bounds(seed):
    config = OptimizerConfig(restarts=32, seed=seed)
    assert_matches_the_rows_first_seesaw("sic", [0.2], config)
    assert_matches_the_rows_first_seesaw("trine", [1.0, 4.5], config)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_last_seesaw_matches_the_rows_first_reference_on_the_sweep_grid(seed):
    config = OptimizerConfig(restarts=8, seed=seed)
    grid = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    assert_matches_the_rows_first_seesaw("sic", grid, config)
    assert_matches_the_rows_first_seesaw("trine", grid, config)


def test_normalize_rows_keeps_the_bits_of_linalg_norm():
    rng = np.random.default_rng(21)
    v = rng.normal(size=(300, 4, 3)) * 10.0 ** rng.uniform(-12, 3, size=(300, 4, 1))
    v[::7, 1] = 0.0
    v[::11, 2] = 1e-16
    fallback = rng.normal(size=(300, 4, 3))
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    ok = n > 1e-14
    got = _normalize_rows(v, fallback)
    assert np.array_equal(got, np.where(ok, v / np.where(ok, n, 1.0), fallback))
    assert np.array_equal(got[::7, 1], fallback[::7, 1])
    assert np.array_equal(got[::11, 2], fallback[::11, 2])


def test_grid_batch_reports_each_k_iterations(monkeypatch):
    # alone, k = 0.1 and 0 converge in 20 and 15 iterations and k = 1
    # and 2 need 66 and 130: under a 40-iteration budget only the slow
    # two stop unconverged, and the fast two keep their own counts
    config = OptimizerConfig(restarts=4, seed=7)
    ks = (0.1, 1.0, 0.0, 2.0)
    monkeypatch.setattr(optimize, "_MAX_ITERS", 40)
    batch = slot_bounds([build_witness("sic", k) for k in ks], "three-outcome", config)
    assert [res.diagnostics["iterations"] for res in batch] == [20, 40, 15, 40]
    assert [res.diagnostics["converged"] for res in batch] == [True, False, True, False]


def test_grid_batch_peak_memory_does_not_grow_with_grid_length():
    # k groups enter the batch _SEESAW_CHUNK rows at a time, so a grid
    # four times longer reuses one batch's working set
    config = OptimizerConfig(restarts=32, seed=1)
    per_batch = optimize._SEESAW_CHUNK // (3 * config.restarts)  # trine: three pairs per k
    grids = [[build_witness("trine", 0.5 + 0.01 * i) for i in range(n)] for n in (per_batch, 4 * per_batch)]
    slot_bounds(grids[0], "projective", config)  # first-call allocations stay out of the peaks
    peaks = []
    for specs in grids:
        tracemalloc.start()
        try:
            slot_bounds(specs, "projective", config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


def test_seesaw_sic_optimum_geometry():
    # at the optimum the preparations form a regular tetrahedron
    # (pairwise Gram -1/3) and the povm anti-aligns with them
    _, argmax = seesaw_reference(build_witness("sic", k=0.5), FAST)
    m = argmax.preparations
    gram = m @ m.T
    off = gram[~np.eye(4, dtype=bool)]
    assert np.allclose(off, -1.0 / 3.0, atol=1e-6)
    n = argmax.povm.blochs
    assert np.allclose(n, -m, atol=1e-5)
    assert np.allclose(argmax.povm.weights, 0.25, atol=1e-6)


def test_seesaw_trine_optimum_geometry():
    # preparations end up as a planar trine: Gram -1/2 off-diagonal
    _, argmax = seesaw_reference(build_witness("trine", k=0.5), FAST)
    m = argmax.preparations
    gram = m @ m.T
    off = gram[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -0.5, atol=1e-6)
    assert classify_extremal(argmax.povm) == "extremal-3"


def test_ideal_strategy_is_seesaw_fixed_point():
    # one see-saw pass from the ideal strategy must not move the value
    for name in ("sic", "trine", "sym-trine"):
        spec = build_witness(name, k=0.7)
        strat = IDEAL_STRATEGIES[name]()
        v0 = strategy_value(spec, strat)
        fixed = maximize_given_povm_batch(
            spec,
            strat.povm.weights[None],
            strat.povm.blochs[None],
            OptimizerConfig(restarts=6, seed=1),
        )
        assert fixed[0] == pytest.approx(v0, abs=1e-8)


# ---------------------------------------------------------------------------
# projective bounds
# ---------------------------------------------------------------------------


def test_trine_projective_symmetric_pair_matches_closed_form():
    for k in (1.0, 4.5):
        spec = build_witness("trine", k=k)
        (res,) = slot_bounds([spec], "projective", FAST)
        pair = res.diagnostics["pair_values"]["0,1"]
        assert pair == pytest.approx(trine_symmetric_pair_closed_form(k), abs=1e-6)
        assert pair == pytest.approx(TRINE_SYMMETRIC_PAIR[k], abs=1e-6)
        assert "assignment" not in res.diagnostics


def test_trine_projective_all_assignments_exceeds_symmetric_pair():
    # the asymmetric assignments are strictly better for a projective
    # device, so the unrestricted default must exceed the pair-(0,1) value
    for k in (1.0, 4.5):
        spec = build_witness("trine", k=k)
        (res,) = slot_bounds([spec], "projective", FAST)
        assert res.value == pytest.approx(TRINE_ALL_PAIRS[k], abs=1e-6)
        assert res.value > TRINE_SYMMETRIC_PAIR[k] + 1e-2
        pairs = res.diagnostics["pair_values"]
        assert pairs["0,1"] == pytest.approx(TRINE_SYMMETRIC_PAIR[k], abs=1e-6)
        assert pairs["0,2"] == pytest.approx(pairs["1,2"], abs=1e-6)


def test_trine_projective_argmax_is_projective():
    spec = build_witness("trine", k=1.0)
    (res,) = slot_bounds([spec], "projective", FAST)
    assert classify_extremal(res.argmax.povm) == "projective"
    assert strategy_value(spec, res.argmax) == pytest.approx(res.value, abs=1e-9)


def test_sic_closed_form_value():
    res = projective_bound_sic(0.2)
    assert res.kind == "projective-closed-form"
    assert res.heuristic is False
    assert res.value == pytest.approx(0.7738, abs=5e-4)
    assert -1.0 <= res.argmax["x"] <= 1.0


def test_sic_closed_form_at_zero_equals_quantum_max():
    # with no penalty the POVM is irrelevant, so the projective maximum
    # must coincide with the quantum maximum
    assert projective_bound_sic(0.0).value == pytest.approx(SIC_QUANTUM_MAX, abs=1e-9)
    assert projective_bound_sym_trine(0.0).value == pytest.approx(
        SYM_TRINE_QUANTUM_MAX, abs=1e-9
    )


@pytest.mark.parametrize("k", [0.05, 0.2, 0.5, 1.0])
def test_sic_numeric_saturates_closed_form(k):
    # the sic witness treats all outcomes alike, so every pair assignment
    # reaches the same value and the see-saw saturates the closed form
    spec = build_witness("sic", k=k)
    closed = projective_bound_sic(k).value
    (numeric,) = _seesaw_bounds([spec], "projective", FAST)
    assert numeric.value == pytest.approx(closed, abs=1e-7)
    for v in numeric.diagnostics["pair_values"].values():
        assert v == pytest.approx(closed, abs=1e-6)


@pytest.mark.parametrize("k", [0.1, 0.5])
def test_sym_trine_numeric_saturates_closed_form(k):
    spec = build_witness("sym-trine", k=k)
    closed = projective_bound_sym_trine(k).value
    (numeric,) = _seesaw_bounds([spec], "projective", FAST)
    assert numeric.value == pytest.approx(closed, abs=1e-7)


# each family's bound kind per slot, in `BOUND_SLOTS` order; None where the slot does not apply
SLOT_KINDS = {
    "sic": ("projective-closed-form", "three-outcome-numeric", "quantum-closed-form"),
    "trine": ("projective-numeric", None, "quantum-closed-form"),
    "sym-trine": ("projective-closed-form", None, "quantum-closed-form"),
}


@pytest.mark.parametrize("name", sorted(SLOT_KINDS))
@pytest.mark.parametrize("slot", BOUND_SLOTS)
def test_slot_bounds_dispatch(name, slot):
    specs = [build_witness(name, k) for k in (0.2, 1.0)]
    kind = SLOT_KINDS[name][BOUND_SLOTS.index(slot)]
    if kind is None:
        with pytest.raises(ValueError, match="^three-outcome restriction applies to four-outcome scenarios$"):
            slot_bounds(specs, slot, FAST)
    else:
        got = slot_bounds(specs, slot, FAST)
        heuristic = kind.endswith("-numeric")
        assert [(res.kind, res.k, res.heuristic) for res in got] == [(kind, 0.2, heuristic), (kind, 1.0, heuristic)]
    # a grid must be one family, whatever the slot
    other = build_witness("trine" if name == "sic" else "sic", 0.2)
    with pytest.raises(ValueError, match="one coefficient tensor"):
        slot_bounds([*specs, other], slot, FAST)
    slots = re.escape(str(BOUND_SLOTS))
    with pytest.raises(ValueError, match=slots):
        slot_bounds([], slot, FAST)
    with pytest.raises(ValueError, match=slots):
        slot_bounds(specs, f"{slot}-numeric", FAST)


def sic_projective_profile(k, x):
    r = 3.0 + 144.0 * k * k
    return (
        (1.0 - 2.0 * k) / 2.0
        + (SQ2 / 24.0) * np.sqrt(6.0 - 4.0 * x)
        + (SQ2 / 24.0) * np.sqrt(2.0 * r + 4.0 * x + 48.0 * k * SQ2 * np.sqrt(1.0 + x))
    )


def sym_trine_projective_profile(k, x):
    r = 3.0 + 81.0 * k * k
    return (
        (1.0 - 2.0 * k) / 2.0
        + (SQ2 / 18.0) * np.sqrt(2.0 * r - 4.0 * x + 36.0 * k * SQ2 * np.sqrt(1.0 - x))
        + (1.0 / 18.0) * np.sqrt(3.0 + 2.0 * x + 2.0 * SQ2 * np.sqrt(1.0 + x))
    )


def test_closed_form_profile_maximum_against_dense_grid():
    # the profiles in their x form on a dense grid: an independent route to
    # the maximum the closed forms find through a change of variable
    xs = np.linspace(-1.0, 1.0, 200001)
    for bound, profile in (
        (projective_bound_sic, sic_projective_profile),
        (projective_bound_sym_trine, sym_trine_projective_profile),
    ):
        for k in (0.0, 0.05, 0.3, 1.0, 5.0):
            res = bound(k)
            assert np.isfinite(res.value)
            assert res.value >= profile(k, xs).max() - 1e-13
            assert -1.0 <= res.argmax["x"] <= 1.0


def test_closed_form_rejects_bad_k():
    for k in (-0.1, float("nan"), float("inf"), -float("inf")):
        for bound in (projective_bound_sic, projective_bound_sym_trine):
            with pytest.raises(ValueError, match=re.escape(f"penalty weight k must be finite and >= 0, got {k}")):
                bound(k)


# ---------------------------------------------------------------------------
# three-outcome restriction
# ---------------------------------------------------------------------------


def test_three_outcome_bound_value():
    spec = build_witness("sic", k=0.2)
    (res,) = slot_bounds([spec], "three-outcome", FAST)
    assert res.kind == "three-outcome-numeric"
    assert res.value == pytest.approx(0.7836, abs=5e-4)
    # all four zero-effect assignments are equivalent by symmetry
    vals = list(res.diagnostics["zero_assignment_values"].values())
    assert np.ptp(vals) < 1e-6


def test_three_outcome_rejects_three_outcome_scenarios():
    with pytest.raises(ValueError):
        slot_bounds([build_witness("trine", k=0.2)], "three-outcome", FAST)


def test_bound_ordering_chain():
    # projective <= three-outcome <= quantum for the four-outcome family
    for k in (0.05, 0.2, 0.5, 1.0):
        spec = build_witness("sic", k=k)
        proj = projective_bound_sic(k).value
        three = slot_bounds([spec], "three-outcome", FAST)[0].value
        quantum = quantum_bound(spec).value
        assert proj <= three + 1e-6
        assert three <= quantum + 1e-6


# ---------------------------------------------------------------------------
# fixed-povm maximization
# ---------------------------------------------------------------------------


def test_maximize_given_ideal_povm_reaches_maximum():
    for name in ("sic", "trine"):
        spec = build_witness(name, k=0.5)
        strat = IDEAL_STRATEGIES[name]()
        p = strat.povm
        v = maximize_given_povm_batch(
            spec, p.weights[None], p.blochs[None], OptimizerConfig(seed=2), restarts=6
        )
        assert v.shape == (1,)
        assert v[0] == pytest.approx(QUANTUM_MAXIMA[name], abs=1e-7)


def test_maximize_given_povm_batch_matches_single():
    spec = build_witness("sic", k=0.2)
    rng = RngStream(21).generator()
    povms = [extremal_povm(4, rng) for _ in range(3)]
    w = np.stack([p.weights for p in povms])
    n = np.stack([p.blochs for p in povms])
    batch = maximize_given_povm_batch(spec, w, n, OptimizerConfig(seed=5), restarts=6)
    for i, p in enumerate(povms):
        single = maximize_given_povm_batch(
            spec, p.weights[None], p.blochs[None], OptimizerConfig(seed=5), restarts=6
        )
        assert batch[i] == pytest.approx(single[0], abs=1e-7)
    # no fixed povm can beat the unrestricted quantum maximum
    assert batch.max() <= SIC_QUANTUM_MAX + 1e-9


def test_maximize_given_povm_batch_reports_unconverged_stop(caplog, monkeypatch):
    # 3 POVMs x (2 random starts + 1 anti-aligned start)
    spec = build_witness("sic", k=0.2)
    povms = random_extremal_povms(4, 3, RngStream(22).generator())
    config = OptimizerConfig(seed=5)
    with monkeypatch.context() as patch, caplog.at_level("WARNING", logger="povmcert.optimize"):
        patch.setattr(optimize, "_MAX_ITERS", 2)
        maximize_given_povm_batch(spec, povms.weights, povms.blochs, config, restarts=2)
    records = [r for r in caplog.records if r.name == "povmcert.optimize"]
    assert len(records) == 1
    assert records[0].levelname == "WARNING"
    assert "unconverged after 2 iterations on 9 rows" in records[0].getMessage()
    caplog.clear()
    with caplog.at_level("WARNING", logger="povmcert.optimize"):
        maximize_given_povm_batch(spec, povms.weights, povms.blochs, config, restarts=2)
    assert not [r for r in caplog.records if r.name == "povmcert.optimize"]


def test_unconverged_warning_counts_rows_still_moving(caplog, monkeypatch):
    spec = build_witness("sic", k=0.2)
    povms = random_extremal_povms(4, 3, RngStream(22).generator())
    monkeypatch.setattr(optimize, "_MAX_ITERS", 2)
    with caplog.at_level("WARNING", logger="povmcert.optimize"):
        maximize_given_povm_batch(spec, povms.weights, povms.blochs, OptimizerConfig(seed=5), restarts=2)
    (record,) = [r for r in caplog.records if r.name == "povmcert.optimize"]
    moving = int(re.search(r"\((\d+) still moving\)", record.getMessage()).group(1))
    assert 1 <= moving <= 9


def test_unconverged_warning_reports_anti_aligned_starts(caplog, monkeypatch):
    # one warning counts every row: 3 POVMs x (1 random start + 1 anti-aligned start)
    spec = build_witness("sic", k=0.2)
    povms = random_extremal_povms(4, 3, RngStream(22).generator())
    monkeypatch.setattr(optimize, "_MAX_ITERS", 2)
    with caplog.at_level("WARNING", logger="povmcert.optimize"):
        maximize_given_povm_batch(spec, povms.weights, povms.blochs, OptimizerConfig(seed=5), restarts=1)
    (record,) = [r for r in caplog.records if r.name == "povmcert.optimize"]
    assert re.fullmatch(
        r"fixed-POVM search stopped unconverged after 2 iterations on 6 rows \([1-6] still moving\)",
        record.getMessage(),
    )


@pytest.mark.parametrize("restarts", [0, -1])
def test_maximize_given_povm_batch_rejects_restarts_below_one(monkeypatch, restarts):
    spec = build_witness("sic", k=0.2)
    povms = random_extremal_povms(4, 2, RngStream(25).generator())
    monkeypatch.setattr("povmcert.optimize.random_unit_vectors", _no_draw)
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        maximize_given_povm_batch(spec, povms.weights, povms.blochs, restarts=restarts)


def test_maximize_given_povm_batch_rejects_mismatched_blochs(monkeypatch):
    spec = build_witness("sic", k=0.2)
    povms = random_extremal_povms(4, 3, RngStream(25).generator())
    monkeypatch.setattr("povmcert.optimize.random_unit_vectors", _no_draw)
    with pytest.raises(ValueError, match=r"blochs shape \(2, 4, 3\) does not match weights shape \(3, 4\)"):
        maximize_given_povm_batch(spec, povms.weights, povms.blochs[:2])


def _no_draw(*args, **kwargs):
    raise AssertionError("drew random starts before checking the arguments")


@pytest.mark.parametrize("name, k", [("sic", 0.2), ("trine", 1.0)])
def test_fixed_povm_values_do_not_depend_on_pool_width(monkeypatch, name, k):
    # each row's search depends on its own start alone, so the rows that
    # share its pools, and the order they enter them, change nothing
    spec = build_witness(name, k=k)
    povms = random_extremal_povms(spec.scenario.povm_outcomes, 50, RngStream(26).generator())

    def values(seesaw, newton):
        monkeypatch.setattr(optimize, "_SEESAW_POOL", seesaw)
        monkeypatch.setattr(optimize, "_NEWTON_POOL", newton)
        return maximize_given_povm_batch(spec, povms.weights, povms.blochs, OptimizerConfig(seed=4), restarts=8)

    default = values(optimize._SEESAW_POOL, optimize._NEWTON_POOL)
    for width in (1, 5, 10_000):
        assert np.array_equal(values(width, optimize._NEWTON_POOL), default)
        assert np.array_equal(values(optimize._SEESAW_POOL, width), default)


def _pool_sizes(monkeypatch) -> dict:
    """Record how many rows each step of the fixed-POVM search takes, by pool."""
    seen = {"seesaw": [], "newton": []}

    def spy(stage, step):
        def counted(D, pool):
            seen[stage].append(pool[0].size)
            return step(D, pool)

        return counted

    monkeypatch.setattr(optimize, "_seesaw_step", spy("seesaw", optimize._seesaw_step))
    monkeypatch.setattr(optimize, "_newton_step", spy("newton", optimize._newton_step))
    return seen


def test_fixed_povm_search_never_exceeds_its_pool(monkeypatch):
    spec = build_witness("trine", k=1.0)
    povms = random_extremal_povms(3, 20, RngStream(27).generator())
    seen = _pool_sizes(monkeypatch)
    monkeypatch.setattr(optimize, "_SEESAW_POOL", 7)
    monkeypatch.setattr(optimize, "_NEWTON_POOL", 5)
    maximize_given_povm_batch(spec, povms.weights, povms.blochs, OptimizerConfig(seed=6), restarts=4)
    assert seen["seesaw"] and max(seen["seesaw"]) == 7
    assert seen["newton"] and max(seen["newton"]) == 5


def test_fixed_povm_search_fills_its_default_pool(monkeypatch):
    # 150 POVMs x 5 starts are 750 rows, more than either default pool
    spec = build_witness("trine", k=1.0)
    povms = random_extremal_povms(3, 150, RngStream(27).generator())
    seen = _pool_sizes(monkeypatch)
    maximize_given_povm_batch(spec, povms.weights, povms.blochs, OptimizerConfig(seed=6), restarts=4)
    assert seen["seesaw"] and max(seen["seesaw"]) == optimize._SEESAW_POOL
    assert seen["newton"] and max(seen["newton"]) == optimize._NEWTON_POOL


def test_fixed_povm_search_draws_only_preparations(monkeypatch):
    # every start is kept as observables, so only the random preparations
    # are drawn: S x restarts x X vectors
    spec = build_witness("sic", k=0.2)
    povms = random_extremal_povms(4, 150, RngStream(29).generator())
    shapes = []

    def spy(rng, shape):
        shapes.append(shape)
        return random_unit_vectors(rng, shape)

    monkeypatch.setattr(optimize, "random_unit_vectors", spy)
    maximize_given_povm_batch(spec, povms.weights, povms.blochs, OptimizerConfig(seed=6), restarts=3)
    assert all(shape[-1] == spec.scenario.preparations for shape in shapes)
    assert sum(int(np.prod(shape)) for shape in shapes) == 150 * 3 * spec.scenario.preparations


@pytest.mark.parametrize("name, k", [("sic", 0.2), ("trine", 1.0)])
def test_fixed_povm_search_peak_memory_is_its_pools(name, k):
    # rows stream through two fixed-width pools, so from 250 to 2,000
    # POVMs the peak may grow only by the per-POVM results: one float per
    # POVM for the best value, with as much again for slack
    spec = build_witness(name, k=k)

    def peak(samples):
        povms = random_extremal_povms(spec.scenario.povm_outcomes, samples, RngStream(28).generator())
        tracemalloc.start()
        try:
            maximize_given_povm_batch(spec, povms.weights, povms.blochs, OptimizerConfig(seed=9), restarts=8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(250)  # first-call allocations stay out of the peaks, whatever ran before
    assert peak(2000) - peak(250) <= 2 * 8 * 2000


def _climb_rows(spec, N, weights, blochs):
    """Values, iteration counts and convergence flags of one start row per POVM, in POVM order.

    N (B, Y, 3), weights (B, O) and blochs (B, O, 3) come rows first and
    enter the search batch axis last.
    """
    rows = np.arange(len(N))
    fed = []

    def starts(free):
        p = rows[len(fed) : len(fed) + free]
        fed.extend(p)
        return p, N[p].transpose(1, 2, 0)

    out = [np.empty(len(N)), np.empty(len(N), dtype=int), np.empty(len(N), dtype=bool)]
    for p, *batch in _fixed_povm_climb(spec, weights.T, blochs.transpose(1, 2, 0), starts):
        for a, b in zip(out, batch):
            a[p] = b
    return out


def _row_unit_fields(D, N, K):
    """Row-first unit(h_x) (B, X, 3) and |h_x| (B, X, 1), floored at 1e-300, of
    h = D n - K for (B, Y, 3) observables and (B, X, 3) fields."""
    H = D @ N - K
    r = np.maximum(np.linalg.norm(H, axis=-1, keepdims=True), 1e-300)
    return H / r, r


def _row_objective(D, N, K):
    """Row-first sum_x |h_x| of (..., B, Y, 3) observables and (B, X, 3) fields."""
    return np.linalg.norm(D @ N - K, axis=-1).sum(axis=-1)


# the two-sweep fixed-POVM search that the streaming pipeline replaced,
# kept as a reference: every start row climbs the same steps in both, so
# the values must agree bit for bit
_REFERENCE_CHUNK = 64


def _two_sweep_ascent(spec, N, weights, blochs, per_povm):
    D = spec.bloch_coeffs
    B, X = N.shape[0], spec.scenario.preparations
    O = weights.shape[1]

    def fields(rows):
        p = rows // per_povm
        K = np.zeros((rows.size, X, 3))
        K[:, :O] = spec.k * weights[p][..., None] * blochs[p]
        return K

    value = np.empty(B)
    for lo in range(0, B, _REFERENCE_CHUNK):
        rows = np.arange(lo, min(lo + _REFERENCE_CHUNK, B))
        value[rows] = _row_objective(D, N[rows], fields(rows))
    iterations = np.zeros(B, dtype=np.min_scalar_type(optimize._MAX_ITERS))
    within_budget = np.ones(B, dtype=bool)
    for newton, tol in ((False, optimize._SEESAW_TOL), (True, optimize._TOL)):
        within_budget &= iterations < optimize._MAX_ITERS
        pool, K = np.empty(0, dtype=int), np.empty((0, X, 3))
        cursor = 0
        while cursor < B or pool.size:
            free = _REFERENCE_CHUNK - pool.size
            new = cursor + np.flatnonzero(within_budget[cursor : cursor + free])
            cursor += free
            if new.size:
                pool, K = np.concatenate([pool, new]), np.concatenate([K, fields(new)])
            if not pool.size:
                continue
            n = N[pool]
            if newton:
                points = _ascent_candidates(D, n, *_row_unit_fields(D, n, K))
            else:
                points = _normalize_rows(D.T @ _row_unit_fields(D, n, K)[0], n)[None]
            scores = _row_objective(D, points, K)
            best = np.argmax(scores, axis=0)
            rows = np.arange(pool.size)
            score = scores[best, rows]
            gain = score - value[pool]
            up = gain > 0
            N[pool[up]] = points[best[up], rows[up]]
            value[pool[up]] = score[up]
            iterations[pool] += 1
            moving = gain >= tol
            stay = moving & (iterations[pool] < optimize._MAX_ITERS)
            within_budget[pool[moving & ~stay]] = False
            pool, K = pool[stay], K[stay]
    for lo in range(0, B, _REFERENCE_CHUNK):
        rows = np.arange(lo, min(lo + _REFERENCE_CHUNK, B))
        PW, PN = weights[rows // per_povm], blochs[rows // per_povm]
        m = _prep_step(D, N[rows], spec.k, PW, PN, rows_first_anti_aligned(PN, X))
        # scored as the search scores them, batch axis last
        last = (np.ascontiguousarray(np.moveaxis(a, 0, -1)) for a in (m[:, :, None], N[rows], PW, PN))
        value[rows] = bloch_values(spec, *last)
    return value


def _two_sweep_search(spec, weights, blochs, config, restarts):
    S, X, R = len(weights), spec.scenario.preparations, restarts + 1
    rng = config.stream(1).generator()
    N = np.empty((S * R, spec.scenario.binary_settings, 3))
    for lo in range(0, S, _REFERENCE_CHUNK):
        hi = min(lo + _REFERENCE_CHUNK, S)
        anti = rows_first_anti_aligned(blochs[lo:hi], X)[:, None]
        M = np.concatenate([random_unit_vectors(rng, (hi - lo, restarts, X)), anti], axis=1)
        N[lo * R : hi * R] = _binary_step(spec.bloch_coeffs, M.reshape(-1, X, 3), np.array([0.0, 0.0, 1.0]))
    return _two_sweep_ascent(spec, N, weights, blochs, R).reshape(S, R).max(axis=1)


def _x_above_o_witness(k):
    # a custom tensor whose preparation 3 has no POVM partner, so its penalty field is zero
    return WitnessSpec("custom", Scenario(4, 2, 3), np.random.default_rng(3).normal(size=(4, 2, 2)), k)


@pytest.mark.parametrize(
    "build, k", [(sic_witness, 0.2), (trine_witness, 1.0), (sym_trine_witness, 0.5), (_x_above_o_witness, 0.7)]
)
def test_fixed_povm_pipeline_matches_the_two_sweep_search(build, k):
    # 120 POVMs x 9 starts overflow the see-saw pool, so rows stream in
    spec = build(k)
    povms = random_extremal_povms(spec.scenario.povm_outcomes, 120, RngStream(31).generator())
    config = OptimizerConfig(seed=31)
    got = maximize_given_povm_batch(spec, povms.weights, povms.blochs, config, restarts=8)
    assert np.array_equal(got, _two_sweep_search(spec, povms.weights, povms.blochs, config, 8))


def _fresh_fields(spec, weights, blochs, p):
    """K_x = k w_x p_x of each row's POVM, zero for x >= O: (B, X, 3)."""
    K = np.zeros((p.size, spec.scenario.preparations, 3))
    K[:, : weights.shape[1]] = spec.k * weights[p][..., None] * blochs[p]
    return K


@pytest.mark.parametrize(
    "build, k", [(sic_witness, 0.2), (trine_witness, 1.0), (sym_trine_witness, 0.5), (_x_above_o_witness, 0.7)]
)
def test_carried_fields_match_a_fresh_evaluation(monkeypatch, build, k):
    # 60 start rows stream through a 16-row see-saw pool and a 4-row Newton
    # pool; the second half starts at a see-saw fixed point, so some of
    # their steps do not ascend
    spec = build(k)
    D = spec.bloch_coeffs
    rng = RngStream(34).generator()
    povms = random_extremal_povms(spec.scenario.povm_outcomes, 60, rng)
    N = random_unit_vectors(rng, (60, spec.scenario.binary_settings))
    K = _fresh_fields(spec, povms.weights, povms.blochs, np.arange(60))
    for _ in range(300):
        N[30:] = _normalize_rows(D.T @ _row_unit_fields(D, N[30:], K[30:])[0], N[30:])
    monkeypatch.setattr(optimize, "_SEESAW_POOL", 16)
    monkeypatch.setattr(optimize, "_NEWTON_POOL", 4)
    seesaw_step, newton_step = optimize._seesaw_step, optimize._newton_step
    seen = {"seesaw": 0, "stalled": 0, "newton": 0}

    def check(p, K, n=None, U=None):
        assert np.array_equal(K, _fresh_fields(spec, povms.weights, povms.blochs, p))
        if U is not None:
            H = D @ n - K
            assert np.array_equal(U, H / np.maximum(np.linalg.norm(H, axis=-1, keepdims=True), 1e-300))

    def check_seesaw(pool):
        p, n, K, _, _, U = pool
        check(p, K.transpose(2, 0, 1), n.transpose(2, 0, 1), U.transpose(2, 0, 1))

    def seesaw_spy(D, pool):
        check_seesaw(pool)  # admitted rows, and the rows kept by the last compaction
        gain = seesaw_step(D, pool)
        check_seesaw(pool)  # rows that ascended and rows that did not
        seen["seesaw"] += 1
        seen["stalled"] += np.count_nonzero(gain <= 0)
        return gain

    def newton_spy(D, pool):
        check(pool[0], pool[2].transpose(2, 0, 1))  # rows handed over by the see-saw pool, batch axis last
        seen["newton"] += 1
        return newton_step(D, pool)

    monkeypatch.setattr(optimize, "_seesaw_step", seesaw_spy)
    monkeypatch.setattr(optimize, "_newton_step", newton_spy)
    _climb_rows(spec, N, povms.weights, povms.blochs)
    assert seen["seesaw"] and seen["stalled"] and seen["newton"]


@pytest.mark.parametrize("P", [1, 512])
@pytest.mark.parametrize(
    "build, k", [(sic_witness, 0.2), (trine_witness, 1.0), (sym_trine_witness, 0.5), (_x_above_o_witness, 0.7)]
)
def test_batch_last_kernels_keep_the_row_first_bits(build, k, P):
    # the fields as one matmul with the batch axis last, against the
    # row-first D @ N - K, its norms and unit fields, and the scoring of
    # batch-last (Y, 3, C, P) Newton candidates, K broadcast over C,
    # against the row-first sum of np.linalg.norm; then the shared steps
    spec = build(k)
    D, X, Y = spec.bloch_coeffs, spec.scenario.preparations, spec.scenario.binary_settings
    rng = np.random.default_rng(P)
    N, K = random_unit_vectors(rng, (P, Y)), rng.normal(size=(P, X, 3))
    H = D @ N - K
    last = _matmul_first(D, N.transpose(1, 2, 0)) - K.transpose(1, 2, 0)
    assert np.array_equal(last, H.transpose(1, 2, 0))
    assert np.array_equal(_norms(last, axis=1), _norms(H).transpose(1, 2, 0))
    assert np.array_equal(_norms(H)[..., 0], np.linalg.norm(H, axis=-1))
    # a see-saw candidate whose G is exactly zero keeps its observable
    G, fallback = H.copy(), rng.normal(size=H.shape)
    G[0, 1] = 0.0
    last = _normalize_rows(G.transpose(1, 2, 0), fallback.transpose(1, 2, 0), axis=1)
    assert np.array_equal(last, _normalize_rows(G, fallback).transpose(1, 2, 0))
    assert np.array_equal(last[1, :, 0], fallback[0, 1])
    score, unit = _scored_fields(D, N.transpose(1, 2, 0), K.transpose(1, 2, 0))
    assert np.array_equal(score, _row_objective(D, N, K))
    assert np.array_equal(unit, _row_unit_fields(D, N, K)[0].transpose(1, 2, 0))
    points = random_unit_vectors(rng, (4, P, Y))
    norms = np.linalg.norm(D @ points - K, axis=-1)  # (C, P, X)
    _, r = _fields(D, points.transpose(2, 3, 0, 1), K.transpose(1, 2, 0)[:, :, None])
    assert np.array_equal(r[:, 0], norms.transpose(2, 0, 1))
    assert np.array_equal(reduce(np.add, r[:, 0]), norms.sum(axis=-1))
    # the see-saw steps both searches share, against the rows-first kernels
    # they replaced, with one penalty weight per row as the bound search has
    O = spec.scenario.povm_outcomes
    povms = random_extremal_povms(O, P, rng)
    M, k = random_unit_vectors(rng, (P, X)), rng.uniform(0.0, 5.0, size=P)
    W, B = povms.weights.T, povms.blochs.transpose(1, 2, 0)
    fields = _penalty_fields(k, W, B, X)
    rows = np.zeros((P, X, 3))
    rows[:, :O] = k[:, None, None] * povms.weights[..., None] * povms.blochs
    assert np.array_equal(fields, rows.transpose(1, 2, 0))
    M_last, N_last = M.transpose(1, 2, 0), N.transpose(1, 2, 0)
    assert np.array_equal(_observable_step(D, M_last, N_last), _binary_step(D, M, N).transpose(1, 2, 0))
    got = _preparation_step(D, N_last, fields, M_last)
    assert np.array_equal(got, _prep_step(D, N, k, povms.weights, povms.blochs, M).transpose(1, 2, 0))
    # the penalty sums in index order, as np.sum over a short last axis;
    # the einsum it replaced adds in its SIMD lanes' order, (t0 + t2) + t1
    penalty = _penalty(W, B, M_last[:O])
    terms = povms.weights * (1.0 + np.sum(povms.blochs * M[:, :O], axis=-1))
    assert np.array_equal(penalty, np.sum(terms, axis=-1))
    np.testing.assert_allclose(penalty, _penalty_of(povms.weights, povms.blochs, M[:, :O]), rtol=1e-15, atol=0)


def test_fixed_povm_budget_is_per_row(monkeypatch):
    # from these starts row 0 converges in about 30 iterations and row 1
    # needs over 100; under a budget of 60 the slow row must not spend
    # the fast row's iterations
    spec = build_witness("trine", k=1.0)
    rng = RngStream(8).generator()
    povms = random_extremal_povms(3, 2, rng)
    M = random_unit_vectors(rng, (2, 3))
    N = _binary_step(spec.bloch_coeffs, M, random_unit_vectors(rng, (2, 2)))
    monkeypatch.setattr(optimize, "_MAX_ITERS", 60)
    both = _climb_rows(spec, N, povms.weights, povms.blochs)
    alone = _climb_rows(spec, N[:1], povms.weights[:1], povms.blochs[:1])
    assert list(both[2]) == [True, False]
    assert both[1][1] == 60
    assert both[0][0] == alone[0][0]
    assert both[1][0] == alone[1][0] < 60


@pytest.mark.parametrize("name, k", [("sic", 0.2), ("trine", 1.0)])
def test_reduced_derivatives_match_finite_differences(name, k):
    # second differences of the objective along the retraction
    # unit(n + v) recover the Riemannian Hessian: that retraction agrees
    # with the exponential map to second order
    spec = build_witness(name, k=k)
    D = spec.bloch_coeffs
    Y = spec.scenario.binary_settings
    rng = RngStream(23).generator()
    povms = random_extremal_povms(spec.scenario.povm_outcomes, 5, rng)
    N = random_unit_vectors(rng, (5, Y))
    K = np.zeros((5, spec.scenario.preparations, 3))
    K[:, : spec.scenario.povm_outcomes] = k * povms.weights[..., None] * povms.blochs
    _, E, g, hess = _reduced_derivatives(D, N, *_row_unit_fields(D, N, K))

    def f(c):
        step = np.broadcast_to(c, (5, 2 * Y)).reshape(5, Y, 1, 2) @ E.reshape(5, Y, 2, 3)
        return _row_objective(D, _normalize_rows(N + step[:, :, 0], N), K)

    h = 1e-4
    unit = np.eye(2 * Y) * h
    grad = np.stack([(f(e) - f(-e)) / (2 * h) for e in unit], axis=1)
    second = np.array([
        [(f(a + b) - f(a - b) - f(b - a) + f(-a - b)) / (4 * h * h) for b in unit]
        for a in unit
    ]).transpose(2, 0, 1)
    scale = np.abs(hess).max()
    assert np.allclose(grad, g, atol=1e-7 * scale)
    assert np.allclose(second, hess, atol=1e-5 * scale)


def _long_seesaw_best(spec, weights, blochs, config, restarts, iterations=5000):
    """Best-of-restarts values of the plain fixed-POVM see-saw from the search's starts."""
    rng = config.stream(1).generator()
    B = len(weights) * restarts
    M = random_unit_vectors(rng, (B, spec.scenario.preparations))
    N = random_unit_vectors(rng, (B, spec.scenario.binary_settings))
    PW, PN = np.repeat(weights, restarts, axis=0), np.repeat(blochs, restarts, axis=0)
    D = spec.bloch_coeffs
    for _ in range(iterations):
        N = _binary_step(D, M, N)
        M = _prep_step(D, N, spec.k, PW, PN, M)
    return rows_first_bloch_values(spec, M[:, :, None], N, PW, PN).reshape(-1, restarts).max(axis=1)


@pytest.mark.parametrize("name, k", [("sic", 0.2), ("trine", 1.0)])
def test_fixed_povm_search_reaches_long_seesaw(name, k):
    # 100 POVMs x 8 starts; the see-saw creeps on the trine family, so
    # the 500-iteration default of the see-saw falls short there
    spec = build_witness(name, k=k)
    povms = random_extremal_povms(spec.scenario.povm_outcomes, 100, RngStream(1).generator())
    config = OptimizerConfig(seed=1)
    got = maximize_given_povm_batch(spec, povms.weights, povms.blochs, config, restarts=8)
    reference = _long_seesaw_best(spec, povms.weights, povms.blochs, config, 8)
    assert np.all(got >= reference - 1e-9)
    assert got.max() <= QUANTUM_MAXIMA[name] + 1e-9


def test_fixed_povm_search_reaches_anti_aligned_strategy():
    # sic k=0.2, seed 82: all 8 random starts of POVM 64 settle 0.007
    # below the strategy whose preparations anti-align with the effects
    spec = build_witness("sic", k=0.2)
    povms = random_extremal_povms(4, 300, RngStream(82).generator())
    config = OptimizerConfig(restarts=8, seed=82)
    got = maximize_given_povm_batch(spec, povms.weights, povms.blochs, config, restarts=8)
    D = spec.bloch_coeffs
    for i in (64, *range(0, 300, 25)):
        m = -povms.blochs[i]
        h = D.T @ m
        anti = Strategy(m, h / np.linalg.norm(h, axis=1, keepdims=True), Povm(povms.weights[i], povms.blochs[i]))
        assert got[i] >= strategy_value(spec, anti) - 1e-9


def test_fixed_povm_search_survives_singular_hessians():
    # an unused binary setting makes every Hessian exactly singular; the
    # saddle-free step's eigenvalue floor keeps every step finite
    trine = build_witness("trine", k=1.0)
    coeffs = trine.coeffs.copy()
    coeffs[:, 1, :] = 0.0
    spec = WitnessSpec("unused-setting", trine.scenario, coeffs, 1.0)
    povms = random_extremal_povms(3, 20, RngStream(24).generator())
    config = OptimizerConfig(seed=3)
    got = maximize_given_povm_batch(spec, povms.weights, povms.blochs, config, restarts=4)
    reference = _long_seesaw_best(spec, povms.weights, povms.blochs, config, 4, iterations=500)
    assert np.all(np.isfinite(got))
    assert np.all(got >= reference - 1e-9)


def _symmetric_stacks(rng, n, rows=200):
    """Q diag(lam) Q^T stacks, `rows` of each kind: negative definite, positive
    definite, indefinite, singular, and a top eigenvalue 1e-12 either side of
    -`_SADDLE_FLOOR`; then one zero matrix."""
    lam = -rng.uniform(0.5, 3.0, size=(5, rows, n))
    lam[1] *= -1.0
    lam[2, :, 0] *= -1.0
    lam[3, :, 0] = 0.0
    lam[4, :, 0] = -optimize._SADDLE_FLOOR + rng.choice([-1e-12, 1e-12], size=rows)
    Q = np.linalg.qr(rng.normal(size=(5 * rows, n, n)))[0]
    hess = (Q * lam.reshape(-1, 1, n)) @ Q.swapaxes(1, 2)
    return np.concatenate([hess, np.zeros((1, n, n))])


@pytest.mark.parametrize("n", [4, 6])
def test_concave_test_agrees_with_the_eigenvalue_sign(n):
    hess = _symmetric_stacks(np.random.default_rng(n), n)
    expected = np.linalg.eigvalsh(hess).max(axis=1) + optimize._SADDLE_FLOOR < 0.0
    assert np.array_equal(_concave_beyond_floor(hess), expected)
    # both verdicts occur among the rows at the floor
    assert 0 < expected[800:1000].sum() < 200


def _mixed_pool(name, k, rows=96):
    """Observables, unit fields and field norms of a Newton pool, rows first:
    half the rows settled by see-saw steps (mostly concave), half random
    (mostly indefinite), and a last row with a non-finite Hessian."""
    spec = build_witness(name, k=k)
    D, O = spec.bloch_coeffs, spec.scenario.povm_outcomes
    rng = RngStream(33).generator()
    povms = random_extremal_povms(O, rows, rng)
    K = np.zeros((rows, spec.scenario.preparations, 3))
    K[:, :O] = k * povms.weights[..., None] * povms.blochs
    N = random_unit_vectors(rng, (rows, spec.scenario.binary_settings))
    half = slice(rows // 2)
    for _ in range(200):
        N[half] = _normalize_rows(D.T @ _row_unit_fields(D, N[half], K[half])[0], N[half])
    N[-1] = np.nan
    return D, N, *_row_unit_fields(D, N, K)


def _eigh_only_candidates(D, N, U, r):
    # the saddle-free step taken through an eigendecomposition on every finite row
    B, Y, _ = N.shape
    G, E, g, hess = _reduced_derivatives(D, N, U, r)
    t = np.zeros_like(g)
    ok = np.isfinite(hess).all(axis=(1, 2))
    lam, V = np.linalg.eigh(hess[ok])
    gv = (g[ok, None, :] @ V)[:, 0] / np.maximum(np.abs(lam), optimize._SADDLE_FLOOR)
    t[ok] = (V @ gv[..., None])[..., 0]
    T = (t.reshape(B, Y, 1, 2) @ E.reshape(B, Y, 2, 3))[:, :, 0]
    longest = np.linalg.norm(T, axis=-1).max(axis=-1)
    T *= (optimize._NEWTON_CAP / np.maximum(longest, optimize._NEWTON_CAP))[:, None, None]
    points = _normalize_rows(N + optimize._NEWTON_SCALES[:, None, None, None] * T, N)
    return np.concatenate([points, _normalize_rows(G, N)[None]])


@pytest.mark.parametrize("name, k", [("sic", 0.2), ("trine", 1.0)])
def test_ascent_candidates_match_the_eigh_only_step(name, k):
    # on concave rows the solve is the saddle-free step in exact arithmetic;
    # the candidates are unit vectors, so 1e-12 is relative to their scale
    D, N, U, r = _mixed_pool(name, k)
    concave = _concave_beyond_floor(_reduced_derivatives(D, N[:-1], U[:-1], r[:-1])[3])
    assert 0 < concave.sum() < concave.size
    np.testing.assert_allclose(
        _ascent_candidates(D, N, U, r), _eigh_only_candidates(D, N, U, r), rtol=0, atol=1e-12
    )


def test_eigh_sees_only_the_rows_that_fail_the_concave_test(monkeypatch):
    D, *rows = _mixed_pool("sic", 0.2)
    hess = _reduced_derivatives(D, *rows)[3]
    fail = np.isfinite(hess).all(axis=(1, 2))
    fail[fail] = np.linalg.eigvalsh(hess[fail]).max(axis=1) >= -optimize._SADDLE_FLOOR
    seen, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(a.copy())
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    _ascent_candidates(D, *rows)
    assert 0 < fail.sum() < len(fail) - 1
    assert len(seen) == 1 and np.array_equal(seen[0], hess[fail])


@pytest.mark.parametrize("name, k", [("sic", 0.2), ("trine", 1.0), ("sym-trine", 0.5)])
def test_fixed_povm_values_match_the_eigh_path(monkeypatch, name, k):
    # sending every row through the eigendecomposition moves no value beyond rounding
    spec = build_witness(name, k=k)
    for seed in (50, 51, 52):
        povms = random_extremal_povms(spec.scenario.povm_outcomes, 300, RngStream(seed).generator())
        config = OptimizerConfig(seed=seed)
        got = maximize_given_povm_batch(spec, povms.weights, povms.blochs, config, restarts=8)
        with monkeypatch.context() as m:
            m.setattr(optimize, "_concave_beyond_floor", lambda hess: np.zeros(len(hess), dtype=bool))
            reference = maximize_given_povm_batch(spec, povms.weights, povms.blochs, config, restarts=8)
        assert np.abs(got - reference).max() <= 1e-12


def test_maximize_given_povm_checks_outcomes():
    spec = build_witness("sic", k=0.2)
    trine_povm = IDEAL_STRATEGIES["trine"]().povm
    with pytest.raises(ValueError, match="outcome"):
        maximize_given_povm_batch(spec, trine_povm.weights[None], trine_povm.blochs[None])


# ---------------------------------------------------------------------------
# exact observable and preparation steps
# ---------------------------------------------------------------------------


def _grid_axes(steps: int = 60) -> np.ndarray:
    th = np.linspace(0.0, np.pi, steps)
    ph = np.linspace(0.0, 2 * np.pi, 2 * steps, endpoint=False)
    tt, pp = np.meshgrid(th, ph)
    return np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)


def test_optimal_binary_observable_beats_grid():
    # observable y maximizes Tr(W_y (M_0 - M_1)) with W_y = sum_x D_xy rho_x;
    # the see-saw's observable step must beat every axis of a dense grid
    rng = np.random.default_rng(8)
    grid = np.einsum("ai,ijk->ajk", _grid_axes(), PAULIS)  # M_0 - M_1 per axis
    for _ in range(5):
        D = rng.normal(size=(4, 3))
        M = random_unit_vectors(rng, (4, 1)).swapaxes(1, 2)  # (X, 3, 1), batch axis last
        N = _observable_step(D, M, random_unit_vectors(rng, (3, 1)).swapaxes(1, 2))[..., 0]
        for y in range(3):
            W = sum(D[x, y] * density_matrix(M[x, :, 0]) for x in range(4))
            got = np.real(np.trace(W @ (binary_effect(N[y], 0) - binary_effect(N[y], 1))))
            assert got >= np.real(np.einsum("jk,akj->a", W, grid)).max() - 1e-12


def test_optimal_preparation_beats_grid():
    # preparation x maximizes Tr(rho L_x) with
    # L_x = sum_y D_xy n_y . sigma - k E_x; the see-saw's preparation step
    # must beat every pure state of a dense grid
    rng = np.random.default_rng(9)
    grid = 0.5 * (IDENTITY2 + np.einsum("ai,ijk->ajk", _grid_axes(), PAULIS))  # pure states
    k = 0.3
    for _ in range(5):
        D = rng.normal(size=(4, 3))
        N = random_unit_vectors(rng, (3, 1)).swapaxes(1, 2)  # (Y, 3, 1), batch axis last
        povm = extremal_povm(4, rng)
        K = _penalty_fields(k, povm.weights[:, None], povm.blochs[..., None], 4)
        M = _preparation_step(D, N, K, random_unit_vectors(rng, (4, 1)).swapaxes(1, 2))[..., 0]
        for x in range(4):
            L = sum(D[x, y] * observable_matrix(N[y, :, 0]) for y in range(3))
            L = L - k * effect_matrices(povm)[x]
            got = np.real(np.trace(density_matrix(M[x]) @ L))
            assert got >= np.real(np.einsum("ajk,kj->a", grid, L)).max() - 1e-12


def test_degenerate_matrices_break_ties_deterministically():
    # a zero field has no best axis: both steps keep the current one
    D = np.zeros((4, 3))
    M = random_unit_vectors(RngStream(4).generator(), (2, 4)).transpose(1, 2, 0)
    N = random_unit_vectors(RngStream(5).generator(), (2, 3)).transpose(1, 2, 0)
    assert np.array_equal(_observable_step(D, M, N), N)
    PW = np.full((4, 2), 0.25)
    PN = np.zeros((4, 3, 2))
    assert np.array_equal(_preparation_step(D, N, _penalty_fields(0.0, PW, PN, 4), M), M)


# ---------------------------------------------------------------------------
# closed-form penalty POVM step
# ---------------------------------------------------------------------------


def penalty_value(prep_blochs, povm: Povm) -> float:
    """Reference penalty sum_x Tr(rho_x E_x) over the first O preparations."""
    m = np.asarray(prep_blochs, dtype=float)
    O = povm.outcomes
    return float(np.sum(povm.weights * (1.0 + np.einsum("oi,oi->o", povm.blochs, m[:O]))))


def ball_step(preps, current: Povm, outcomes=None):
    """One closed-form POVM step for a single row; returns the new POVM."""
    m = np.asarray(preps, dtype=float)[..., None]
    S = np.arange(len(m) if outcomes is None else outcomes)
    PW, PN = _enclosing_ball_step(
        m, S[:, None], current.weights[:, None].copy(), current.blochs[..., None].copy()
    )
    return Povm(PW[:, 0], PN[..., 0])


def test_ball_step_trine_reaches_zero():
    p = ball_step(TRINE, extremal_povm(3, RngStream(2).generator()))
    assert validate_povm(p).ok
    assert penalty_value(TRINE, p) == pytest.approx(0.0, abs=1e-12)


def test_ball_step_three_tetrahedron_vertices():
    # the circumradius of a tetrahedron face is sqrt(8/9)
    current = Povm(
        [0.5, 0.5, 0.0, 0.0], [[0, 0, 1], [0, 0, -1], [0, 0, 1], [0, 0, 1]]
    )
    p = ball_step(TETRAHEDRON, current, outcomes=3)
    assert validate_povm(p).ok
    assert p.weights[3] == 0.0
    assert np.allclose(p.weights[:3], 1.0 / 3.0, atol=1e-12)
    assert penalty_value(TETRAHEDRON, p) == pytest.approx(1.0 - np.sqrt(8.0 / 9.0), abs=1e-12)


@pytest.mark.parametrize(
    "preps",
    [
        [[0, 0, 1], [0, 0, -1], [0, 0, 1]],
        [[0, 0, 1], [0, 0, -1], [0.6, 0.0, 0.8]],
    ],
)
def test_ball_step_antipodal_points_reach_zero(preps):
    current = extremal_povm(3, RngStream(3).generator())
    p = ball_step(preps, current)
    assert validate_povm(p).ok
    assert penalty_value(preps, p) == pytest.approx(0.0, abs=1e-12)


def test_ball_step_coincident_points_keep_current_povm():
    # no ball exists; the first current effect opposes the points, so a
    # step that trusted a degenerate candidate would report less than 1
    m = np.tile([0.0, 0.6, 0.8], (3, 1))
    current = Povm(np.full(3, 1.0 / 3.0), TRINE)
    p = ball_step(m, current)
    assert penalty_value(m, p) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(p.weights, current.weights)
    assert np.array_equal(p.blochs, current.blochs)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_ball_step_is_optimal_on_random_preparations(seed):
    rng = RngStream(seed, 9).generator()
    rows, outcomes = 16, 3
    m = rng.normal(size=(rows, outcomes, 3))
    m /= np.linalg.norm(m, axis=2, keepdims=True)
    current = random_extremal_povms(outcomes, rows, rng)
    PW, PN = _enclosing_ball_step(
        m.transpose(1, 2, 0),
        np.tile(np.arange(outcomes)[:, None], (1, rows)),
        current.weights.T.copy(),
        current.blochs.transpose(1, 2, 0).copy(),
    )
    PW, PN = PW.T, PN.transpose(2, 0, 1)
    probes = random_extremal_povms(outcomes, 200, rng)
    for r in range(rows):
        w, n = PW[r], PN[r]
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(w @ n, 0.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(n[w > 0], axis=1), 1.0, atol=1e-12)
        assert validate_povm(Povm(w, n)).ok
        val = penalty_value(m[r], Povm(w, n))
        assert val <= penalty_value(m[r], Povm(current.weights[r], current.blochs[r])) + 1e-12
        probe_vals = np.einsum(
            "po,po->p", probes.weights, 1.0 + np.einsum("poi,oi->po", probes.blochs, m[r])
        )
        assert val <= probe_vals.min() + 1e-12


def special_blocks(rng, T, rows=64, deltas=(0.0, -1e-10, 1e-10, 3e-10)):
    """(rows, T, 3) preparation blocks of each kind the ball step meets, with right triangles at `deltas`."""
    unit = random_unit_vectors(rng, (rows, T))
    line = random_unit_vectors(rng, rows)[:, None]
    u, v = random_unit_vectors(rng, (2, rows, 1))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=(rows, T, 1))
    coincident = unit.copy()
    coincident[:, 1] = coincident[:, 0]
    antipodal = unit.copy()
    antipodal[:, 1] = -antipodal[:, 0]
    inner = antipodal.copy()
    inner[:, 2:] *= rng.uniform(0.0, 0.9, size=(rows, T - 2, 1))
    blocks = {
        "unit": unit,
        "mixed": unit * rng.uniform(0.0, 1.0, size=(rows, T, 1)),
        "great circle": np.cos(angle) * u + np.sin(angle) * v,
        "collinear": line * rng.uniform(-1.0, 1.0, size=(rows, T, 1)),
        "coincident": coincident,
        "all coincident": np.repeat(unit[:, :1], T, axis=1),
        "antipodal": antipodal,
        "antipodal, others inside": inner,
    }
    # near-right triangles on the antipodal pair: p_2 = s w with w a unit
    # vector orthogonal to p_0 gives a_0 + a_1 - a_2 = 2 s^2 - 2 = delta,
    # so p_2 sits at delta = 0 on the pair's midpoint ball, inside it below
    # 0, and outside it above, beyond the ball tolerance from 2e-10
    w = random_unit_vectors(rng, rows)
    w -= np.sum(w * unit[:, 0], axis=1, keepdims=True) * unit[:, 0]
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    for delta in deltas:
        right = antipodal.copy()
        right[:, 2] = np.sqrt(1.0 + delta / 2.0) * w
        blocks[f"right, delta {delta:g}"] = right
    return blocks


# kinds whose pair and trio balls tie within roundoff: every point of the
# sphere lies on the antipodal pair's ball (Thales), and so does a right
# triangle's third point, within 1e-10 either side; that point 1e-10 off
# the ball takes weight +-2.5e-11 in the circumcircle and 0 in the pair,
# so there the weights differ with the pick
TIED_BALLS = {"antipodal", "right, delta 0", "right, delta -1e-10", "right, delta 1e-10"}
UNEQUAL_WEIGHTS = {"right, delta -1e-10", "right, delta 1e-10"}


@pytest.mark.parametrize("T", [3])  # the trios of the three-outcome search
def test_closed_form_balls_match_the_gram_reference(T):
    blocks = special_blocks(RngStream(T, 11).generator(), T)
    for kind, M_S in blocks.items():
        weights, _, r2 = _triangle_ball(M_S.transpose(1, 2, 0))
        w = weights.T  # rows first, as the reference gives them
        _, ref_radii2, ref_weights = gram_ball_candidates(M_S)
        rows = np.arange(len(M_S))
        ref_pick = np.argmin(ref_radii2, axis=1)
        ref_r2 = ref_radii2[rows, ref_pick]
        assert np.array_equal(np.isfinite(r2), np.isfinite(ref_r2)), kind
        found = np.isfinite(ref_r2)
        # the candidate the kernel took: the first whose ball and weights it gave
        same = np.isclose(ref_radii2, r2[:, None], rtol=0.0, atol=1e-12)
        same &= np.all(np.isclose(ref_weights, w[:, None], rtol=0.0, atol=1e-12), axis=-1)
        assert same[found].any(axis=1).all(), kind
        pick = np.argmax(same, axis=1)
        if kind in TIED_BALLS:
            # roundoff picks among equal balls
            assert np.all(np.abs(ref_radii2[rows, pick] - ref_r2)[found] <= 1e-12), kind
        else:
            assert np.array_equal(pick[found], ref_pick[found]), kind
        assert np.allclose(r2[found], ref_r2[found], rtol=0.0, atol=1e-12), kind
        if kind not in UNEQUAL_WEIGHTS:
            assert np.allclose(w[found], ref_weights[rows, ref_pick][found], rtol=0.0, atol=1e-12), kind
    assert np.isinf(_triangle_ball(blocks["all coincident"].transpose(1, 2, 0))[2]).all()


# right triangles at the kernel's margins: the third point inside, on and
# outside the pair's ball, either side of and on the 2 `_BALL_TOL` edge test
MARGIN_DELTAS = (0.0, -1e-10, 1e-10, 1.9e-10, 2e-10, 2.1e-10, 3e-10)


@pytest.mark.parametrize("seed", range(4))
def test_triangle_ball_keeps_the_enumerators_bits(seed):
    blocks = special_blocks(RngStream(seed, 12).generator(), 3, rows=256, deltas=MARGIN_DELTAS)
    for kind, M_S in blocks.items():
        P = M_S.transpose(1, 2, 0)
        for got, ref in zip(_triangle_ball(P), enumerated_triangle_ball(P), strict=True):
            if kind == "right, delta 2e-10":
                # on the edge test itself the enumerator tested the third point
                # by its computed distance, the kernel by the edge lengths, and
                # either ball holds within the tolerance: they differ by the
                # third point's circumcircle weight, delta / 4, up to roundoff
                assert np.abs(got - ref).max() <= 5e-11 * (1.0 + 1e-5)
            else:
                assert np.array_equal(got, ref), kind


def test_three_outcome_search_solves_no_linear_system(monkeypatch):
    grid = [build_witness("sic", k) for k in (0.1, 0.2, 0.3)]
    config = OptimizerConfig(restarts=4, seed=3)
    expected = slot_bounds(grid, "three-outcome", config)

    def refuse(*args, **kwargs):
        raise AssertionError("the see-saw called a LAPACK solver")

    real = {name: getattr(np.linalg, name) for name in ("solve", "det")}
    draw = optimize.random_extremal_povms

    def draw_starts(*args):
        # the start sampler solves its completeness system; the see-saw must not
        with monkeypatch.context() as m:
            for name, fn in real.items():
                m.setattr(np.linalg, name, fn)
            return draw(*args)

    monkeypatch.setattr(optimize, "random_extremal_povms", draw_starts)
    for name in real:
        monkeypatch.setattr(np.linalg, name, refuse)
    got = slot_bounds(grid, "three-outcome", config)
    assert [r.value for r in got] == [r.value for r in expected]
    assert [r.diagnostics for r in got] == [r.diagnostics for r in expected]


# ---------------------------------------------------------------------------
# result plumbing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [("restarts", 0), ("restarts", -1)],
)
def test_optimizer_config_rejects_out_of_range_knobs(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value})


def test_bound_result_serializes():
    import json

    spec = build_witness("sic", k=0.2)
    res = quantum_bound(spec)
    d = res.to_dict()
    text = json.dumps(d)
    back = json.loads(text)
    assert back["kind"] == "quantum-closed-form"
    assert back["heuristic"] is False
    assert back["value"] == res.value
    assert "preparations" in back["argmax"]

    (searched,) = slot_bounds([spec], "three-outcome", OptimizerConfig(restarts=4, seed=2))
    searched = json.loads(json.dumps(searched.to_dict()))
    assert searched["heuristic"] is True
    assert "preparations" in searched["argmax"]

    closed = projective_bound_sic(0.2).to_dict()
    assert closed["heuristic"] is False
    assert closed["argmax"]["x"] == pytest.approx(0.2113, abs=1e-3)
