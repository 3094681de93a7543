"""Shared fixtures, the 2x2-matrix Born-rule oracle, the ideal strategies,
the value of an explicit strategy, the all-outcome see-saw with its
Gram-system ball step, and two references for the plate-jitter
systematic (a Monte Carlo and a Gauss-Hermite quadrature).

The library works on Bloch vectors only; the Pauli matrices here are the
independent route the tests check it against: a state r is the density
matrix (I + r . sigma)/2, an observable axis n the matrix n . sigma with
outcome b's effect (I + (-1)^b n . sigma)/2, and a POVM element (w, n)
the effect w (I + n . sigma).
"""
import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from povmcert import optimize
from povmcert.experiment import _FWHM_TO_SIGMA, _blochs_from_angles
from povmcert.optimize import _multistart, _normalize_rows, _penalty
from povmcert.qubit import Povm
from povmcert.sampling import random_extremal_povms
from povmcert.witness import (
    TETRAHEDRON,
    TRINE,
    Strategy,
    WitnessSpec,
    bloch_linear_form,
    bloch_values,
    evaluate_witness,
    probability_table,
)

settings.register_profile(
    "default",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# ------------------------------------------------------ 2x2-matrix oracle

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
IDENTITY2 = np.eye(2, dtype=complex)


def density_matrix(r) -> np.ndarray:
    """(I + r . sigma) / 2."""
    return 0.5 * (IDENTITY2 + np.einsum("i,ijk->jk", np.asarray(r, dtype=float), PAULIS))


def observable_matrix(n) -> np.ndarray:
    """n . sigma."""
    return np.einsum("i,ijk->jk", np.asarray(n, dtype=float), PAULIS)


def binary_effect(n, b: int) -> np.ndarray:
    """Effect of outcome b of n . sigma; outcome 0 is the +1 eigenspace."""
    sign = 1.0 if b == 0 else -1.0
    return 0.5 * (IDENTITY2 + sign * observable_matrix(n))


def effect_matrices(povm: Povm) -> np.ndarray:
    """(O, 2, 2) effects w_i (I + n_i . sigma)."""
    return povm.weights[:, None, None] * (
        IDENTITY2 + np.einsum("oi,ijk->ojk", povm.blochs, PAULIS)
    )


def born_strategy_value(spec: WitnessSpec, strategy: Strategy) -> float:
    """Witness value of an explicit strategy, every probability a trace Tr(rho E)."""
    rhos = [density_matrix(m) for m in strategy.preparations]
    value = 0.0
    for x, rho in enumerate(rhos):
        for y, n in enumerate(strategy.binaries):
            for b in (0, 1):
                value += spec.coeffs[x, y, b] * np.real(np.trace(rho @ binary_effect(n, b)))
    effects = effect_matrices(strategy.povm)
    penalty = sum(np.real(np.trace(rhos[x] @ effects[x])) for x in range(len(effects)))
    return float(value - spec.k * penalty)


# ------------------------------------------------------- ideal strategies


def ideal_sic_strategy() -> Strategy:
    """Tetrahedral preparations, Pauli observables, anti-aligned SIC POVM."""
    return Strategy(TETRAHEDRON, np.eye(3), Povm(np.full(4, 0.25), -TETRAHEDRON))


def ideal_trine_strategy() -> Strategy:
    """Reversed-trine preparations with sigma_z/sigma_x observables.

    The coefficient table reaches its quantum value 5 in this frame
    (direct check: columns give 2 and 3); the POVM is anti-aligned with
    the preparations, so the penalty vanishes at every k.
    """
    preps = TRINE[::-1]
    axes = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    return Strategy(preps, axes, Povm(np.full(3, 1 / 3), -preps))


def ideal_sym_trine_strategy() -> Strategy:
    """Trine preparations with observables and POVM anti-aligned to them."""
    return Strategy(TRINE, -TRINE, Povm(np.full(3, 1 / 3), -TRINE))


IDEAL_STRATEGIES = {
    "sic": ideal_sic_strategy,
    "trine": ideal_trine_strategy,
    "sym-trine": ideal_sym_trine_strategy,
}


def strategy_value(spec: WitnessSpec, strategy: Strategy) -> float:
    """Witness value of an explicit strategy (exact Born probabilities)."""
    povm = strategy.povm
    table = probability_table(strategy.preparations[:, None], strategy.binaries, povm.weights, povm.blochs)
    return evaluate_witness(spec, table).value


def gram_ball_candidates(M_S):
    """Reference enumerator: each subset's centre from its Gram system, solved by LAPACK.

    For points p_1..p_t with q_i = p_i - p_1 and Gram matrix G of the
    q_i, the centre c = p_1 + sum_i mu_i q_i solves 2 G mu = diag(G),
    with barycentric weights (1 - sum mu, mu).  Candidates are every
    2..T-point subset, pairs first, each size in `combinations` order.
    One whose det G <= `_DEGENERATE` times its diagonal's product, with a
    weight below -`_BALL_TOL` or leaving a point of the block outside
    r^2 + `_BALL_TOL` gets radius inf.  Rows first: blocks (B, T, 3),
    centres (B, C, 3), radii (B, C), weights (B, C, T) clipped at 0.
    """
    B, T, _ = M_S.shape
    centres, radii2, weights = [], [], []
    for t in range(2, T + 1):
        idx = np.array(list(combinations(range(T), t)))
        C = len(idx)
        P = M_S[:, idx]
        Q = P[:, :, 1:] - P[:, :, :1]
        G = Q @ Q.swapaxes(-1, -2)
        diag = np.diagonal(G, axis1=-2, axis2=-1)
        ok = np.linalg.det(G) > optimize._DEGENERATE * np.prod(diag, axis=-1)
        G = np.where(ok[..., None, None], G, np.eye(t - 1))
        mu = np.linalg.solve(2.0 * G, diag[..., None])[..., 0]
        lam = np.concatenate([1.0 - mu.sum(axis=-1, keepdims=True), mu], axis=-1)
        c = P[:, :, 0] + np.einsum("bcj,bcji->bci", mu, Q)
        r2 = np.sum((c - P[:, :, 0]) ** 2, axis=-1)
        d2 = np.sum((M_S[:, None] - c[:, :, None]) ** 2, axis=-1)
        ok &= np.all(lam >= -optimize._BALL_TOL, axis=-1)
        ok &= np.all(d2 <= r2[..., None] + optimize._BALL_TOL, axis=-1)
        w = np.zeros((B, C, T))
        w[:, np.arange(C)[:, None], idx] = np.clip(lam, 0.0, None)
        centres.append(c)
        radii2.append(np.where(ok, r2, np.inf))
        weights.append(w)
    return tuple(np.concatenate(a, axis=1) for a in (centres, radii2, weights))


def reference_ball_step(M, subset, PW, PN):
    """`optimize._enclosing_ball_step` on any T outcomes per row, subset (T, B), batch axis last.

    The ball is the smallest valid `gram_ball_candidates` one, the first
    on a tie; a row keeps its POVM unless that ball lowers its penalty.
    """
    cols = np.arange(PW.shape[-1])
    slots, vectors = (subset, cols), (subset[:, None], np.arange(3)[:, None], cols)
    M_S, PW_S, PN_S = M[vectors], PW[slots], PN[vectors]
    centres, radii2, weights = gram_ball_candidates(M_S.transpose(2, 0, 1))
    pick = np.argmin(radii2, axis=1)
    w = weights[cols, pick].T
    dirs = _normalize_rows(centres[cols, pick].T - M_S, PN_S, axis=1)
    better = np.isfinite(radii2[cols, pick]) & (_penalty(w, dirs, M_S) < _penalty(PW_S, PN_S, M_S))
    PW_new, PN_new = PW.copy(), PN.copy()
    PW_new[slots] = np.where(better, w, PW_S)
    PN_new[vectors] = np.where(better, dirs, PN_S)
    return PW_new, PN_new


def seesaw_reference(spec: WitnessSpec, config) -> tuple[float, Strategy]:
    """Best value and strategy of the see-saw over all outcomes, from `config`'s starts.

    The library bounds the quantum slot in closed form; this multistart
    run is the tests' reference for the see-saw machinery reaching that
    maximum.  The library's ball step takes trios only, so the run takes
    `reference_ball_step` on every outcome in its place.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_enclosing_ball_step", reference_ball_step)
        (run,) = _multistart([spec], config, 0, np.arange(spec.scenario.povm_outcomes)[None])
    return float(run["values"].max()), run["argmax"]


def extremal_povm(outcomes: int, rng: np.random.Generator) -> Povm:
    """One uniformly sampled extremal POVM, drawn as the library draws a batch of one."""
    sample = random_extremal_povms(outcomes, 1, rng)
    return Povm(sample.weights[0], sample.blochs[0])


def config_json(cfg) -> str:
    """A `--config` file for an `ExperimentConfig`, in the keys `from_dict` reads."""
    budget = cfg.photon_budget
    return json.dumps(
        {
            "preparations": [{"hwp": float(h), "qwp": float(q)} for h, q in cfg.preparations],
            "visibilities": {"z": cfg.visibilities.z, "x": cfg.visibilities.x, "y": cfg.visibilities.y},
            "budget": int(budget) if float(budget).is_integer() else float(budget),
            "motor_fwhm_deg": float(cfg.motor_fwhm_deg),
            "binaries": cfg.binaries.tolist(),
            "povm": cfg.povm.to_dict(),
        },
        indent=2,
    )


def sample_points(*rows) -> np.ndarray:
    """Envelope points from (sample_id, A, F) rows, typed as `sample_fidelity_curve` returns them."""
    return np.rec.fromrecords(list(rows), dtype=[("sample_id", np.int64), ("A", float), ("F", float)])


# ------------------------------------------------- reference systematics


def reference_monte_carlo_systematic(cfg, spec, runs, stream) -> float:
    """The plate-jitter spread through full Bloch vectors, all runs at once.

    One normal (hwp, qwp) error pair per run, preparation and setting,
    the plate model `_blochs_from_angles` in degrees, and `bloch_values`
    on the jittered per-setting vectors, runs axis last; the sample
    standard deviation.
    """
    X, Y = len(cfg.preparations), len(cfg.binaries)
    draws = stream.generator().normal(0.0, 1.0, size=(runs, X, Y + 1, 2))
    angles = cfg.plate_angles[None, :, None, :] + cfg.motor_fwhm_deg / _FWHM_TO_SIGMA * draws
    M = np.moveaxis(_blochs_from_angles(angles[..., 0], angles[..., 1]), 0, -1)
    values = bloch_values(spec, M, cfg.binaries, cfg.povm.weights, cfg.povm.blochs)
    return float(np.std(values, ddof=1))


def gauss_hermite_plate_systematic(cfg, spec) -> float:
    """The exact plate-jitter spread by a 60 x 60 (hwp, qwp) Gauss-Hermite rule.

    Groups are independent, so each (preparation, setting) group is
    integrated on its own: `_blochs_from_angles` at the jittered angles,
    scored by the group's coefficient from `bloch_linear_form`, and its
    variance taken about its mean in a second pass (E[f^2] - E[f]^2
    would cancel at small spreads).
    """
    z, w = np.polynomial.hermite_e.hermegauss(60)
    weights = np.outer(w, w) / w.sum() ** 2
    _, C = bloch_linear_form(spec, cfg.binaries, cfg.povm.weights, cfg.povm.blochs)
    sigma = cfg.motor_fwhm_deg / _FWHM_TO_SIGMA
    var = 0.0
    for x, (h, q) in enumerate(cfg.plate_angles):
        hwp, qwp = np.meshgrid(h + sigma * z, q + sigma * z, indexing="ij")
        M = _blochs_from_angles(hwp, qwp)
        for coeff in C[x]:
            f = M @ coeff
            var += np.sum(weights * (f - np.sum(weights * f)) ** 2)
    return float(np.sqrt(var))
