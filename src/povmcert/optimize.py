"""Witness maximization: see-saw heuristics and certified projective bounds.

The see-saw alternates three exact coordinate maximizations in Bloch
form.  With coupling D_{xy} = (c_{xy0} - c_{xy1})/2 the witness reads

    A = offset + sum_{xy} D_{xy} m_x . n_y - k sum_x w_x (1 + p_x . m_x),

so for fixed everything else the best observable axis is
n_y = unit(sum_x D_{xy} m_x), the best preparation is
m_x = unit(sum_y D_{xy} n_y - k w_x p_x), and the POVM step minimizes
the penalty sum_x w_x (1 + p_x . m_x) over valid POVMs.  That step is
exact too: over POVMs supported on the outcomes S the minimum is
1 - R_S, where R_S is the radius of the smallest ball enclosing the
preparation Bloch vectors {m_x : x in S}.  The optimal weights are the
centre's barycentric coordinates and each effect points from its m_x
towards the centre (the SDP dual of state exclusion, Bandyopadhyay et
al., PRA 89, 022336 (2014); the qubit geometry of Bae, NJP 15, 073037
(2013)).  With at most four points the ball is found by enumerating
pairs, triangle circumcircles and the tetrahedron's circumsphere.  A
row whose ball is not lower keeps its current POVM, so the see-saw
value never decreases.

With the POVM held fixed (`maximize_given_povm_batch`, the fidelity
envelope's witness search) the preparation step is closed form, which
leaves the reduced objective

    A(N) = offset - k sum_x w_x + sum_x |h_x|,  h_x = sum_y D_xy n_y - k w_x p_x,

a function of the Y observable axes alone.  Each row first takes
see-saw steps until it gains less than 1e-4, which settles it in the
basin the see-saw climbs, then batched saddle-free Riemannian Newton
steps on the product of spheres (the Hessian's eigenvalues taken by
modulus: Newton near a maximum, away from saddles elsewhere), with
three step lengths and the see-saw step as a fallback; a row keeps its
point when nothing ascends.  Each stage runs a pool of 64 rows: a row
leaves it once its gain falls below the stage's tolerance (`tol` for
the Newton stage), and the next waiting row takes its slot at once, so
the working set stays small and every iteration runs on a full pool.
`max_iters` is each row's own budget across both stages.

Every quantity of a batch of restarts advances in lock step through
numpy array ops; a "row" below is one restart (or one restart of one
outcome assignment).  Values come from `witness.bloch_values`, the
evaluator the experiment layer shares, and `_multistart` sets up the
random starts of all three bound searches.  All see-saw results are
heuristic lower bounds on the true maximum and are labeled as such;
the two closed-form projective bounds (the four-outcome family and the
symmetric three-outcome family) are certified: each reduces the
projective maximum to a smooth one-parameter profile whose stationary
points are the roots of one quartic, so its maximum is the best value
at the interval's ends and those roots.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .qubit import Povm
from .sampling import RngStream, random_extremal_povms, random_unit_vectors
from .witness import Strategy, WitnessSpec, bloch_values

log = logging.getLogger(__name__)

Array = np.ndarray

SQ2 = np.sqrt(2.0)

# Gram systems whose determinant falls below this share of the product of
# their diagonal are treated as degenerate (coincident or coplanar points)
_DEGENERATE = 1e-12
# slack for roundoff in the weight sign and ball enclosure tests
_BALL_TOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by every heuristic search."""

    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")

    def stream(self, index: int = 0) -> RngStream:
        return RngStream(self.seed, index)


@dataclass(frozen=True)
class BoundResult:
    """One bound value with its provenance.

    `heuristic` is False only for certified closed-form bounds; see-saw
    values are lower bounds on the quantity they chase.  `argmax` holds
    the achieving strategy (or the closed form's scalar argument).
    """

    kind: str
    value: float
    k: float
    heuristic: bool
    argmax: Strategy | dict | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        arg = self.argmax.to_dict() if isinstance(self.argmax, Strategy) else self.argmax
        return {
            "kind": self.kind,
            "value": float(self.value),
            "k": float(self.k),
            "heuristic": bool(self.heuristic),
            "argmax": arg,
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# batched geometry helpers
# ---------------------------------------------------------------------------


def _normalize_rows(v: Array, fallback: Array) -> Array:
    """Row-normalize (..., 3); rows with (near) zero norm keep the fallback."""
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    ok = n > 1e-14
    safe = np.where(ok, n, 1.0)
    return np.where(ok, v / safe, fallback)


# ---------------------------------------------------------------------------
# see-saw core
# ---------------------------------------------------------------------------


def _penalty_of(PW: Array, PN: Array, M_S: Array) -> Array:
    """Penalty sum_x w_x (1 + n_x . m_x) for aligned (B, T) blocks."""
    return np.einsum("bt,bt->b", PW, 1.0 + np.einsum("bti,bti->bt", PN, M_S))


def _binary_step(D: Array, M: Array, N_old: Array) -> Array:
    return _normalize_rows(np.einsum("xy,bxi->byi", D, M), N_old)


def _prep_step(D: Array, N: Array, k: float, PW: Array, PN: Array, M_old: Array) -> Array:
    H = np.einsum("xy,byi->bxi", D, N)
    O = PW.shape[1]
    H[:, :O, :] = H[:, :O, :] - k * PW[..., None] * PN
    return _normalize_rows(H, M_old)


def _projective_povm_step(
    M: Array, ii: Array, jj: Array, O: int, PN_old: Array
) -> tuple[Array, Array]:
    """Exact penalty minimizer over projective POVMs with outcomes (ii, jj)."""
    B = M.shape[0]
    rows = np.arange(B)
    d = M[rows, ii] - M[rows, jj]
    n = _normalize_rows(-d, PN_old[rows, ii])
    PW = np.zeros((B, O))
    PW[rows, ii] = 0.5
    PW[rows, jj] = 0.5
    PN = PN_old.copy()
    PN[rows, ii] = n
    PN[rows, jj] = -n
    return PW, PN


def _ball_candidates(M_S: Array) -> tuple[Array, Array, Array]:
    """Equidistant centres of every 2..T-point subset of (B, T, 3) blocks.

    For points p_1..p_t with q_i = p_i - p_1 and Gram matrix G of the
    q_i, the centre c = p_1 + sum_i mu_i q_i equidistant from all of them
    solves 2 G mu = diag(G); its barycentric weights are
    (1 - sum mu, mu).  Returns centres (B, C, 3), squared radii (B, C)
    and weights (B, C, T) placed on the block's points; a candidate that
    is degenerate, needs a negative weight or leaves a point of the block
    outside its ball gets radius inf.
    """
    B, T, _ = M_S.shape
    centres, radii2, weights = [], [], []
    for t in range(2, T + 1):
        idx = np.array(list(combinations(range(T), t)))  # (C, t)
        C = len(idx)
        P = M_S[:, idx]  # (B, C, t, 3)
        Q = P[:, :, 1:] - P[:, :, :1]
        G = Q @ Q.swapaxes(-1, -2)
        diag = np.diagonal(G, axis1=-2, axis2=-1)
        ok = np.linalg.det(G) > _DEGENERATE * np.prod(diag, axis=-1)
        G = np.where(ok[..., None, None], G, np.eye(t - 1))
        mu = np.linalg.solve(2.0 * G, diag[..., None])[..., 0]
        lam = np.concatenate([1.0 - mu.sum(axis=-1, keepdims=True), mu], axis=-1)
        c = P[:, :, 0] + np.einsum("bcj,bcji->bci", mu, Q)
        r2 = np.sum((c - P[:, :, 0]) ** 2, axis=-1)
        d2 = np.sum((M_S[:, None] - c[:, :, None]) ** 2, axis=-1)  # (B, C, T)
        ok &= np.all(lam >= -_BALL_TOL, axis=-1)
        ok &= np.all(d2 <= r2[..., None] + _BALL_TOL, axis=-1)
        w = np.zeros((B, C, T))
        w[:, np.arange(C)[:, None], idx] = np.clip(lam, 0.0, None)
        centres.append(c)
        radii2.append(np.where(ok, r2, np.inf))
        weights.append(w)
    return (
        np.concatenate(centres, axis=1),
        np.concatenate(radii2, axis=1),
        np.concatenate(weights, axis=1),
    )


def _enclosing_ball_step(
    M: Array, subset: Array, PW: Array, PN: Array
) -> tuple[Array, Array]:
    """Exact penalty-minimizing POVM step on the `subset` outcomes.

    subset is (B, T): the outcomes allowed a nonzero weight (others are
    forced to zero).  Over POVMs supported on S the minimum of
    sum_x w_x (1 + n_x . m_x) is 1 - R_S, with R_S the radius of the
    smallest ball enclosing {m_x : x in S}; the weights are the centre's
    barycentric coordinates and each effect points from m_x to the
    centre.  Rows where that is not lower than the current penalty (for
    instance coincident preparations, where every candidate is
    degenerate) keep their POVM, so the step never increases the penalty.
    """
    B, O = PW.shape
    rows = np.arange(B)
    M_S = np.take_along_axis(M, subset[:, :, None], axis=1)
    PN_S = np.take_along_axis(PN, subset[:, :, None], axis=1)
    centres, radii2, weights = _ball_candidates(M_S)
    pick = np.argmin(radii2, axis=1)
    w = weights[rows, pick]
    dirs = _normalize_rows(centres[rows, pick][:, None, :] - M_S, PN_S)
    current = _penalty_of(np.take_along_axis(PW, subset, axis=1), PN_S, M_S)
    better = np.isfinite(radii2[rows, pick]) & (_penalty_of(w, dirs, M_S) < current)

    PW_new = np.zeros((B, O))
    np.put_along_axis(PW_new, subset, w, axis=1)
    PN_new = PN.copy()
    np.put_along_axis(PN_new, subset[:, :, None], dirs, axis=1)
    return (
        np.where(better[:, None], PW_new, PW),
        np.where(better[:, None, None], PN_new, PN),
    )


def _run_seesaw(
    spec: WitnessSpec,
    M: Array,
    N: Array,
    PW: Array,
    PN: Array,
    config: OptimizerConfig,
    subset: Array,
) -> dict:
    """Alternate exact steps until every row's value stalls below tol.

    subset (B, T) holds the outcomes each row's POVM may use and picks
    the POVM step: T = 2 takes the projective step, T >= 3 the
    enclosing ball.
    """
    D = spec.bloch_coeffs
    k = spec.k
    O = spec.scenario.povm_outcomes
    vals = bloch_values(spec, M[:, :, None], N, PW, PN)
    iterations = 0
    converged = False
    for it in range(config.max_iters):
        iterations = it + 1
        N = _binary_step(D, M, N)
        M = _prep_step(D, N, k, PW, PN, M)
        if k > 0:
            if subset.shape[1] == 2:
                PW, PN = _projective_povm_step(M, subset[:, 0], subset[:, 1], O, PN)
            else:
                PW, PN = _enclosing_ball_step(M, subset, PW, PN)
        new_vals = bloch_values(spec, M[:, :, None], N, PW, PN)
        delta = new_vals - vals
        vals = new_vals
        if it >= 1 and float(np.max(delta)) < config.tol:
            converged = True
            break
    return {
        "M": M,
        "N": N,
        "PW": PW,
        "PN": PN,
        "values": vals,
        "iterations": iterations,
        "converged": converged,
    }


# rows of a fixed-POVM search that advance together; a row's working set is
# a few hundred bytes, so the width is set by the per-call numpy overhead
_FIXED_CHUNK = 64
# see-saw steps run until a row gains less than this: by then the row has
# settled in the basin the see-saw climbs, and Newton steps finish it
_SEESAW_TOL = 1e-4
# Newton step scales tried per iteration, and the longest step per axis
_NEWTON_SCALES = np.array([1.0, 0.25, 0.0625])
_NEWTON_CAP = 0.5
# eigenvalue floor of the saddle-free Newton step
_SADDLE_FLOOR = 1e-4


def _reduced_objective(D: Array, N: Array, K: Array) -> Array:
    """sum_x |h_x| with h_x = sum_y D_xy n_y - K_x, for (..., B, Y, 3) observables."""
    return np.linalg.norm(D @ N - K, axis=-1).sum(axis=-1)


def _unit_fields(D: Array, N: Array, K: Array) -> tuple[Array, Array]:
    """u_x = unit(h_x) and |h_x| (B, X, 1), a zero field giving u_x = 0."""
    H = D @ N - K
    r = np.maximum(np.linalg.norm(H, axis=-1, keepdims=True), 1e-300)
    return H / r, r


def _tangent_bases(N: Array) -> Array:
    """Two orthonormal tangent vectors of each unit vector: (..., 3) -> (..., 2, 3).

    The branch-free basis of Duff et al., JCGT 6(1) (2017), which stays
    well conditioned on the whole sphere.
    """
    x, y, z = N[..., 0], N[..., 1], N[..., 2]
    s = np.copysign(1.0, z)
    a = -1.0 / (s + z)
    b = x * y * a
    e1 = np.stack([1.0 + s * x * x * a, s * b, -s * x], axis=-1)
    e2 = np.stack([b, s + y * y * a, -y], axis=-1)
    return np.stack([e1, e2], axis=-2)


def _reduced_derivatives(D: Array, N: Array, K: Array) -> tuple[Array, Array, Array, Array]:
    """Riemannian gradient and Hessian of sum_x |h_x| over the observables.

    N (B, Y, 3) observables, K (B, X, 3) penalty fields and
    u_x = unit(h_x).  On the product of spheres the gradient is the
    tangent part of G_y = sum_x D_xy u_x, and the Hessian block (y, z)
    is sum_x D_xy D_xz (I - u_x u_x^T) / |h_x| restricted to the tangent
    planes, less (n_y . G_y) on the diagonal.  Returns G (B, Y, 3), the
    tangent bases E (B, 2Y, 3), and the gradient (B, 2Y) and Hessian
    (B, 2Y, 2Y) in those bases, coordinates ordered (y, basis vector).
    """
    B, Y, _ = N.shape
    U, r = _unit_fields(D, N, K)
    G = D.T @ U
    E = _tangent_bases(N).reshape(B, 2 * Y, 3)
    g = np.sum(E * G.repeat(2, axis=1), axis=-1)
    Q = (U @ E.swapaxes(1, 2)) * (D.repeat(2, axis=1) / np.sqrt(r))  # (B, X, 2Y)
    C = ((D.T / r.swapaxes(1, 2)) @ D).repeat(2, axis=1).repeat(2, axis=2)
    hess = C * (E @ E.swapaxes(1, 2)) - Q.swapaxes(1, 2) @ Q
    diag = np.arange(2 * Y)
    hess[:, diag, diag] -= np.sum(N * G, axis=-1).repeat(2, axis=1)
    return G, E, g, hess


def _ascent_candidates(D: Array, N: Array, K: Array) -> Array:
    """Saddle-free Newton points at each scale of `_NEWTON_SCALES`, then the see-saw point.

    The step solves |H| t = g, with the `_reduced_derivatives` Hessian
    H taken by the modulus of its eigenvalues (floored at
    `_SADDLE_FLOOR`): the Newton step where H is negative definite, and
    a step that climbs away from saddles where it is not (Dauphin et
    al., NeurIPS 2014); a plain Newton step would converge to them.  A
    step is shrunk, direction kept, until no axis moves more than
    `_NEWTON_CAP`.  The see-saw point is unit(G_y).  Returns
    (len(_NEWTON_SCALES) + 1, B, Y, 3).
    """
    B, Y, _ = N.shape
    G, E, g, hess = _reduced_derivatives(D, N, K)
    t = np.zeros_like(g)
    ok = np.isfinite(hess).all(axis=(1, 2))
    lam, V = np.linalg.eigh(hess[ok])
    gv = (g[ok, None, :] @ V)[:, 0] / np.maximum(np.abs(lam), _SADDLE_FLOOR)
    t[ok] = (V @ gv[..., None])[..., 0]
    T = (t.reshape(B, Y, 1, 2) @ E.reshape(B, Y, 2, 3))[:, :, 0]
    longest = np.linalg.norm(T, axis=-1).max(axis=-1)
    T *= (_NEWTON_CAP / np.maximum(longest, _NEWTON_CAP))[:, None, None]
    points = _normalize_rows(N + _NEWTON_SCALES[:, None, None, None] * T, N)
    return np.concatenate([points, _normalize_rows(G, N)[None]])


def _fixed_povm_ascent(
    spec: WitnessSpec,
    M: Array,
    N: Array,
    weights: Array,
    blochs: Array,
    per_povm: int,
    config: OptimizerConfig,
) -> tuple[Array, Array, Array]:
    """Best witness value of each row with its POVM held fixed.

    M (B, X, 3) and N (B, Y, 3) are the rows' starting preparations and
    observables, and row i holds POVM i // per_povm of weights (S, O)
    and blochs (S, O, 3).  After one see-saw observable step a row
    maximizes sum_x |sum_y D_xy n_y - K_x|, with penalty fields
    K_x = k w_x p_x (zero for x >= O), in two stages: see-saw steps
    until it gains less than `_SEESAW_TOL`, then moves to the best of its
    `_ascent_candidates`.  A row keeps its point if nothing ascends, so
    no value decreases, and leaves a stage once its gain falls below the
    stage's tolerance.  Each stage runs a pool of `_FIXED_CHUNK` rows;
    as rows leave, the next rows waiting for the stage take their slots,
    so the working set stays small and every iteration runs on a full
    pool until no row is left waiting.  `config.max_iters` is each
    row's budget across both stages.  N is overwritten with the final
    observables.  Returns the rows' values from `bloch_values` at the
    optimal preparations, their iteration counts, and whether each
    finished the Newton stage within its budget.
    """
    D = spec.bloch_coeffs
    B, X, _ = M.shape
    O = weights.shape[1]

    def fields(rows: Array) -> Array:
        p = rows // per_povm
        K = np.zeros((rows.size, X, 3))
        K[:, :O] = spec.k * weights[p][..., None] * blochs[p]
        return K

    value = np.empty(B)
    for lo in range(0, B, _FIXED_CHUNK):
        rows = np.arange(lo, min(lo + _FIXED_CHUNK, B))
        N[rows] = n = _binary_step(D, M[rows], N[rows])
        value[rows] = _reduced_objective(D, n, fields(rows))
    # per-row budgets in the smallest integer type that holds max_iters
    iterations = np.zeros(B, dtype=np.min_scalar_type(config.max_iters))
    # rows that have not run out of budget while still moving; a row
    # with no budget left cannot take the Newton stage either
    within_budget = np.ones(B, dtype=bool)
    for newton, tol in ((False, max(_SEESAW_TOL, config.tol)), (True, config.tol)):
        within_budget &= iterations < config.max_iters
        pool, K = np.empty(0, dtype=int), np.empty((0, X, 3))
        cursor = 0
        while cursor < B or pool.size:
            # the free slots go to the next rows in order that take this stage
            free = _FIXED_CHUNK - pool.size
            new = cursor + np.flatnonzero(within_budget[cursor : cursor + free])
            cursor += free
            if new.size:
                pool, K = np.concatenate([pool, new]), np.concatenate([K, fields(new)])
            if not pool.size:
                continue
            n = N[pool]
            if newton:
                points = _ascent_candidates(D, n, K)
            else:
                points = _normalize_rows(D.T @ _unit_fields(D, n, K)[0], n)[None]
            scores = _reduced_objective(D, points, K)
            best = np.argmax(scores, axis=0)
            rows = np.arange(pool.size)
            score = scores[best, rows]
            gain = score - value[pool]
            up = gain > 0
            N[pool[up]] = points[best[up], rows[up]]
            value[pool[up]] = score[up]
            iterations[pool] += 1
            moving = gain >= tol
            stay = moving & (iterations[pool] < config.max_iters)
            within_budget[pool[moving & ~stay]] = False
            pool, K = pool[stay], K[stay]
    for lo in range(0, B, _FIXED_CHUNK):
        rows = np.arange(lo, min(lo + _FIXED_CHUNK, B))
        PW, PN = weights[rows // per_povm], blochs[rows // per_povm]
        m = _prep_step(D, N[rows], spec.k, PW, PN, M[rows])
        value[rows] = bloch_values(spec, m[:, :, None], N[rows], PW, PN)
    return value, iterations, within_budget


def _seesaw_result(kind: str, spec: WitnessSpec, state: dict, diagnostics: dict) -> BoundResult:
    """The best row of a see-saw batch as a heuristic bound with its strategy."""
    best = int(np.argmax(state["values"]))
    w = np.clip(state["PW"][best], 0.0, None)
    argmax = Strategy(state["M"][best], state["N"][best], Povm(w, state["PN"][best]))
    return BoundResult(kind, float(state["values"][best]), spec.k, True, argmax, diagnostics)


def _multistart(
    spec: WitnessSpec, config: OptimizerConfig, stream: int, groups: Array
) -> tuple[dict, Array]:
    """See-saw from `config.restarts` random starts per outcome group.

    groups (G, T) lists the outcomes each group's POVMs may use.  Draws,
    in this order from `config.stream(stream)`: preparations,
    observables, then one random axis per row (T = 2, a projective
    pair) or random extremal T-outcome POVMs, placed on the group's
    outcomes.  Returns the final state and its values as (G, restarts).
    """
    R = config.restarts
    G, T = groups.shape
    B = G * R
    rng = config.stream(stream).generator()
    O = spec.scenario.povm_outcomes
    M = random_unit_vectors(rng, (B, spec.scenario.preparations))
    N = random_unit_vectors(rng, (B, spec.scenario.binary_settings))
    if T == 2:
        axis = random_unit_vectors(rng, B)
        weights, blochs = np.full((B, 2), 0.5), np.stack([axis, -axis], axis=1)
    else:
        sample = random_extremal_povms(T, B, rng)
        weights, blochs = sample.weights, sample.blochs
    subset = np.repeat(groups, R, axis=0)
    PW = np.zeros((B, O))
    PN = np.tile(np.array([0.0, 0.0, 1.0]), (B, O, 1))
    np.put_along_axis(PW, subset, weights, axis=1)
    np.put_along_axis(PN, subset[:, :, None], blochs, axis=1)
    state = _run_seesaw(spec, M, N, PW, PN, config, subset)
    return state, state["values"].reshape(G, R)


# ---------------------------------------------------------------------------
# public heuristics
# ---------------------------------------------------------------------------


def seesaw_maximize(spec: WitnessSpec, config: OptimizerConfig | None = None) -> BoundResult:
    """Multistart see-saw over unrestricted qubit strategies.

    Returns the best value across restarts as a heuristic lower bound on
    the quantum maximum, with the achieving strategy attached.
    """
    config = config or OptimizerConfig()
    groups = np.arange(spec.scenario.povm_outcomes)[None, :]
    state, _ = _multistart(spec, config, 0, groups)
    vals = state["values"]
    diagnostics = {
        "witness": spec.name,
        "restarts": config.restarts,
        "iterations": state["iterations"],
        "converged": bool(state["converged"]),
        "value_spread": float(vals.max() - vals.min()),
        "seed": config.seed,
    }
    return _seesaw_result("quantum-seesaw", spec, state, diagnostics)


def maximize_given_povm_batch(
    spec: WitnessSpec,
    weights: Array,
    blochs: Array,
    config: OptimizerConfig | None = None,
    restarts: int = 8,
) -> Array:
    """Best witness value for each fixed POVM in a batch.

    weights (S, O) and blochs (S, O, 3); returns (S,) values.  Each
    sample gets `restarts` random starts, preparations and observables
    drawn from `config.stream(1)`, and after them one deterministic
    start: every preparation anti-aligned with its effect (extra
    preparations with the last effect), a strategy with no penalty that
    the random starts can miss.  `_fixed_povm_ascent` climbs every row
    (see-saw steps, then saddle-free Newton steps on the reduced
    objective, in a pool of `_FIXED_CHUNK` rows), and a sample's value is
    the best of its `restarts + 1` rows.  Rows still moving when their
    `config.max_iters` budget runs out are reported by a warning.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if blochs.shape != (*weights.shape, 3):
        raise ValueError(
            f"blochs shape {blochs.shape} does not match weights shape {weights.shape}"
        )
    config = config or OptimizerConfig()
    S, O = weights.shape
    if O != spec.scenario.povm_outcomes:
        raise ValueError("POVM outcome count does not match the witness scenario")
    X, Y = spec.scenario.preparations, spec.scenario.binary_settings
    rng = config.stream(1).generator()
    B = S * restarts
    M = random_unit_vectors(rng, (B, X))
    N = random_unit_vectors(rng, (B, Y))
    values, iterations, converged = _fixed_povm_ascent(spec, M, N, weights, blochs, restarts, config)
    best = values.reshape(S, restarts).max(axis=1)
    moving = B - int(np.count_nonzero(converged))
    iterations_run = int(iterations.max())
    # free the random starts first, so the extra starts add nothing to the peak memory
    del M, N, values, iterations, converged
    M = -blochs[:, np.minimum(np.arange(X), O - 1)]
    N = np.tile([0.0, 0.0, 1.0], (S, Y, 1))  # used only where the first step finds no field
    anti, anti_iterations, anti_converged = _fixed_povm_ascent(spec, M, N, weights, blochs, 1, config)
    anti_moving = S - int(np.count_nonzero(anti_converged))
    if moving or anti_moving:
        log.warning(
            "fixed-POVM search stopped unconverged after %d iterations on %d rows (%d still moving)"
            " and %d anti-aligned starts (%d still moving)",
            max(iterations_run, anti_iterations.max()),
            B,
            moving,
            S,
            anti_moving,
        )
    return np.maximum(best, anti)


def projective_bound_numeric(
    spec: WitnessSpec,
    config: OptimizerConfig | None = None,
    assignment: tuple[int, int] | None = None,
) -> BoundResult:
    """See-saw restricted to projective POVMs.

    A projective O-outcome measurement is two orthogonal rank-one
    projectors on some outcome pair and zero effects elsewhere.  By
    default every pair assignment is searched and the maximum over
    assignments is returned; this is the threshold a certification must
    clear, since a projective device may label its outcomes arbitrarily.
    Pass `assignment` to restrict to one pair (diagnostics always carry
    the per-pair values).

    Restricting the assignment matters for witnesses whose coefficients
    are not symmetric under outcome permutations: for the three-outcome
    trine family, placing the projectors on the two symmetric outcomes
    gives 4.89165 at k=1, while the asymmetric assignments reach
    4.91199, so the unrestricted default is strictly larger there.

    Heuristic: a lower bound on the projective maximum that in practice
    saturates it.  The POVM step is closed form (anti-aligned axis for
    the assigned pair), so each restart is fully deterministic given its
    start.
    """
    config = config or OptimizerConfig()
    O = spec.scenario.povm_outcomes
    if assignment is None:
        pairs = list(combinations(range(O), 2))
    else:
        a, b = sorted(int(v) for v in assignment)
        if not (0 <= a < b < O):
            raise ValueError("assignment must be two distinct outcomes of the scenario")
        pairs = [(a, b)]
    state, grouped = _multistart(spec, config, 2, np.array(pairs))
    per_pair = {f"{a},{b}": float(v) for (a, b), v in zip(pairs, grouped.max(axis=1))}
    diagnostics = {
        "witness": spec.name,
        "restarts_per_pair": config.restarts,
        "iterations": state["iterations"],
        "converged": bool(state["converged"]),
        "pair_values": per_pair,
        "seed": config.seed,
    }
    if assignment is not None:
        diagnostics["assignment"] = list(pairs[0])
    return _seesaw_result("projective-numeric", spec, state, diagnostics)


def three_outcome_max(
    spec: WitnessSpec, config: OptimizerConfig | None = None
) -> BoundResult:
    """See-saw with at most three nonzero POVM outcomes (four-outcome scenarios).

    Every assignment of the zero effect is searched.  Heuristic, like
    all see-saw values; used as the threshold for claiming a genuinely
    four-outcome measurement.
    """
    config = config or OptimizerConfig()
    if spec.scenario.povm_outcomes != 4:
        raise ValueError("three-outcome restriction applies to four-outcome scenarios")
    trios = np.array([sorted(set(range(4)) - {z}) for z in range(4)])
    state, grouped = _multistart(spec, config, 3, trios)
    per_zero = {str(z): float(v) for z, v in enumerate(grouped.max(axis=1))}
    diagnostics = {
        "witness": spec.name,
        "restarts_per_assignment": config.restarts,
        "iterations": state["iterations"],
        "converged": bool(state["converged"]),
        "zero_assignment_values": per_zero,
        "seed": config.seed,
    }
    return _seesaw_result("three-outcome-numeric", spec, state, diagnostics)


# ---------------------------------------------------------------------------
# certified closed-form projective bounds
# ---------------------------------------------------------------------------


def _closed_form_bound(name: str, k: float, quartic: list[float], profile) -> BoundResult:
    """Maximum of a projective profile that is smooth in u on [0, sqrt 2].

    Every stationary point of the profile is a root of `quartic`, so the
    maximum is the best value at the two ends and at those roots.  Each
    root's real part is clipped into the interval: an extra candidate is
    still a feasible point, and a near-double root whose roundoff left an
    imaginary part is not lost.  `profile(u)` returns the values at u and
    the closed form's argument x in [-1, 1].
    """
    if not np.isfinite(k) or k < 0:
        raise ValueError("penalty weight k must be >= 0")
    u = np.clip(np.concatenate([[0.0, SQ2], np.roots(quartic).real]), 0.0, SQ2)
    values, x = profile(u)
    best = int(np.argmax(values))
    return BoundResult(
        kind="projective-closed-form",
        value=float(values[best]),
        k=float(k),
        heuristic=False,
        argmax={"x": float(x[best])},
        diagnostics={"witness": name, "method": "closed-form"},
    )


def projective_bound_sic(k: float) -> BoundResult:
    """Certified projective bound for the four-outcome family.

    The projective maximum reduces to a profile of one parameter x in
    [-1, 1].  With t = sqrt(1 + x) and a = 12 sqrt(2) k it reads
    (1 - 2k)/2 + (sqrt(2)/24) (sqrt(10 - 4t^2) + sqrt((2t + a)^2 + 2)),
    which is stationary only where
    16t^4 + 16a t^3 + 4(a^2 - 4)t^2 - 20a t - 5a^2 = 0.
    """
    a = 12.0 * SQ2 * k

    def profile(t: Array) -> tuple[Array, Array]:
        # clamped: at t = sqrt 2 the difference rounds below zero
        edge = np.sqrt(np.maximum(10.0 - 4.0 * t * t, 0.0))
        value = (1.0 - 2.0 * k) / 2.0 + (SQ2 / 24.0) * (edge + np.sqrt((2.0 * t + a) ** 2 + 2.0))
        return value, t * t - 1.0

    quartic = [16.0, 16.0 * a, 4.0 * (a * a - 4.0), -20.0 * a, -5.0 * a * a]
    return _closed_form_bound("sic", k, quartic, profile)


def projective_bound_sym_trine(k: float) -> BoundResult:
    """Certified projective bound for the symmetric three-outcome family.

    With s = sqrt(1 - x) and b = 9 sqrt(2) k the profile reads
    (1 - 2k)/2 + (sqrt(2)/18) sqrt((2s + b)^2 + 2) + (1 + sqrt(2) sqrt(2 - s^2))/18,
    which is stationary only where
    20s^4 + 20b s^3 + (5b^2 - 30)s^2 - 32b s - 8b^2 = 0.
    """
    b = 9.0 * SQ2 * k

    def profile(s: Array) -> tuple[Array, Array]:
        # clamped: at s = sqrt 2 the difference rounds below zero
        edge = np.sqrt(np.maximum(2.0 - s * s, 0.0))
        value = (1.0 - 2.0 * k) / 2.0 + (
            SQ2 * np.sqrt((2.0 * s + b) ** 2 + 2.0) + 1.0 + SQ2 * edge
        ) / 18.0
        return value, 1.0 - s * s

    quartic = [20.0, 20.0 * b, 5.0 * b * b - 30.0, -32.0 * b, -8.0 * b * b]
    return _closed_form_bound("sym-trine", k, quartic, profile)


CLOSED_FORM_PROJECTIVE = {
    "sic": projective_bound_sic,
    "sym-trine": projective_bound_sym_trine,
}


def projective_bound(spec: WitnessSpec, config: OptimizerConfig | None = None) -> BoundResult:
    """Certified closed form when the family has one, else the numeric heuristic."""
    fn = CLOSED_FORM_PROJECTIVE.get(spec.name)
    if fn is not None:
        return fn(spec.k)
    return projective_bound_numeric(spec, config)
