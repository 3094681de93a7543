"""Witness maximization: see-saw heuristics and closed-form bounds.

The see-saw alternates three exact coordinate maximizations in Bloch
form.  With coupling D_{xy} = (c_{xy0} - c_{xy1})/2 the witness reads

    A = offset + sum_{xy} D_{xy} m_x . n_y - k sum_x w_x (1 + p_x . m_x),

so for fixed everything else the best observable axis is
n_y = unit(sum_x D_{xy} m_x), the best preparation is
m_x = unit(h_x) with h_x = sum_y D_{xy} n_y - K_x and penalty field
K_x = k w_x p_x, and the POVM step minimizes the penalty
sum_x w_x (1 + p_x . m_x) over valid POVMs.  That step is exact too:
over POVMs supported on the outcomes S the minimum is 1 - R_S, where
R_S is the radius of the smallest ball enclosing the preparation Bloch
vectors {m_x : x in S}.  The optimal weights are the centre's
barycentric coordinates and each effect points from its m_x towards
the centre (the SDP dual of state exclusion, Bandyopadhyay et al., PRA
89, 022336 (2014); the qubit geometry of Bae, NJP 15, 073037 (2013)).
The three-outcome search takes this step on trios, where the ball is
the smallest circle around a triangle (`_triangle_ball`): the
circumcircle, unless an angle is obtuse, and then the longest edge's
midpoint ball.
Both are closed forms in the squared edge lengths, so the step solves
no linear system.  A row whose ball is not lower keeps its current
POVM, so the see-saw value never decreases.

Every see-saw holds its rows batch axis last: preparations M (X, 3, B),
observables N (Y, 3, B), penalty fields K (X, 3, B), POVM weights
(O, B) and Bloch vectors (O, 3, B).  So each step is one 2-D matmul
over the batch (`_matmul_first`), each norm runs over B values at a
time, and both searches share one kernel per step: `_observable_step`,
`_fields` (under `_preparation_step`) and `_penalty_fields`.  Only the
random draws and the public POVM inputs come rows first, and only the
Newton step's Hessian and solve run rows first.

In the bound searches a "row" is one restart (of one outcome
assignment) at one penalty weight k: `three_outcome_maxima` and
`projective_bounds_numeric` take a whole k grid, every k climbs a copy
of the same starts as one equal block of rows, and each block leaves
the batch on its own convergence rule, so each k gets exactly the
result of a lone call.  The single-k searches are a one-element grid,
and whole k blocks enter a batch up to `_SEESAW_CHUNK` rows at a time.
Every row, at k = 0 too, takes the POVM step the batch's outcome
subsets pick once: the projective step for pairs, the enclosing ball
for trios.  Values come from `witness.bloch_values`.

With the POVM held fixed (`maximize_given_povm_batch`, the fidelity
envelope's witness search) the preparation step is closed form, which
leaves A(N) = offset - k sum_x w_x + sum_x |h_x|, a function of the
observable axes alone.  Each row takes see-saw steps in a pool of
`_SEESAW_POOL` rows until it gains less than 1e-4, then queues for a
pool of `_NEWTON_POOL` rows taking saddle-free Riemannian Newton steps
(the Hessian's eigenvalues taken by modulus; three step lengths, the
see-saw step as a fallback).  A row whose Hessian is concave beyond the
eigenvalue floor, as most are near an optimum, takes that same step as
one linear solve; only indefinite rows take an eigendecomposition.
That pool steps when full or when nothing is left upstream.  Starts
fill the see-saw pool once a quarter of it is free, but not while the
Newton queue holds a full pool, so memory is the pools, about a Newton
pool of finished rows waiting to be scored together, and one value per
POVM.  `_MAX_ITERS` is each row's budget across both stages.  A row's
penalty fields, and in the see-saw pool its unit fields unit(h_x),
travel with it, so a see-saw step computes h once, at its candidate.

All see-saw results are heuristic lower bounds on the true maximum and
are labeled as such; the two closed-form projective bounds (the
four-outcome family and the symmetric three-outcome family) are
certified: each reduces the projective maximum to a smooth
one-parameter profile whose stationary points are the roots of one
quartic, so its maximum is the best value at the interval's ends and
those roots.  The quantum bound is exact too: it is the family's known
maximum (`WitnessSpec.quantum_max`), which the ideal strategy attains
at every k with no penalty.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from typing import Sequence

import numpy as np

from .qubit import Povm
from .sampling import RngStream, random_extremal_povms, random_unit_vectors
from .witness import TETRAHEDRON, TRINE, Strategy, WitnessSpec, bloch_values

log = logging.getLogger(__name__)

Array = np.ndarray

SQ2 = np.sqrt(2.0)
# the observable a zero field keeps when a start has no other
_Z = np.array([0.0, 0.0, 1.0])

# a triangle is degenerate (coincident or collinear points) when its Gram
# determinant det G = 4 area^2 is at most this share of a_1 a_2, the squared
# lengths of its two edges at p_0
_DEGENERATE = 1e-12
# slack for roundoff in the weight sign and ball enclosure tests
_BALL_TOL = 1e-10
# each row's iteration budget, and the value gain below which a row has converged
_MAX_ITERS = 500
_TOL = 1e-10
# rows of one extremal see-saw batch: whole k blocks enter it up to this
# many rows, so a long k grid runs in bounded memory (a traced peak of 1.26 KB
# a row for sic trios, 0.76 KB for trine pairs); below it per-call overhead
# shows, and wider batches ran no faster
_SEESAW_CHUNK = 2048


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by every heuristic search."""

    restarts: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        self.stream()  # checks the seed

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


# the thresholds a report compares against; each bound's kind starts with its slot's name
BOUND_SLOTS = ("projective", "three-outcome", "quantum")


# ---------------------------------------------------------------------------
# batched geometry helpers
# ---------------------------------------------------------------------------


def _sum_last(p: Array) -> Array:
    """np.sum over a short last axis, in its order (p_0 + p_1) + ..., without its per-row reduction cost."""
    return reduce(np.add, (p[..., i] for i in range(p.shape[-1])))


def _norms(v: Array, axis: int = -1) -> Array:
    """Norms over `axis`, kept as a length-1 axis: np.linalg.norm's operations, in its order."""
    sq, lead = v * v, (slice(None),) * (axis % v.ndim)
    return np.sqrt(reduce(np.add, (sq[lead + (slice(i, i + 1),)] for i in range(v.shape[axis]))))


def _normalize_rows(v: Array, fallback: Array, axis: int = -1, norms: Array | None = None) -> Array:
    """Normalize the 3-vectors along `axis` (their `_norms` unless given); (near) zero vectors keep the fallback."""
    n = _norms(v, axis) if norms is None else norms
    ok = n > 1e-14
    if ok.all():
        return v / n
    return np.where(ok, v / np.where(ok, n, 1.0), fallback)


def _batch_last(rows: Array) -> Array:
    """A view of rows-first draws or inputs (B, ...) in the see-saws' layout, batch axis last: (..., B).

    np.moveaxis's view, without its tuple(generator) calls: in CPython each
    of those leaves a block on the 1-tuple free list (up to 2,000), which a
    memory trace counts as held.
    """
    return rows.transpose(*range(1, rows.ndim), 0)


def _matmul_first(D: Array, N: Array) -> Array:
    """sum_y D_xy N_y over N's first axis, (Y, ...) -> (X, ...), as one 2-D matmul.

    With the batch axes after the contracted one, the product of a whole
    batch is one BLAS call, not one tiny call per row as in D @ N on
    (B, Y, 3) rows; each entry is the same sum.
    """
    return (D @ N.reshape(len(N), -1)).reshape(len(D), *N.shape[1:])


# ---------------------------------------------------------------------------
# see-saw steps, shared by both searches; any trailing axes batch
# ---------------------------------------------------------------------------


def _observable_step(D: Array, M: Array, N: Array) -> Array:
    """Best observables unit(sum_x D_xy m_x) (Y, 3, ...) of preparations M (X, 3, ...); a zero field keeps N."""
    return _normalize_rows(_matmul_first(D.T, M), N, axis=1)


def _penalty_fields(k: float | Array, weights: Array, blochs: Array, X: int) -> Array:
    """K_x = k w_x p_x (X, 3, ...) of weights (O, ...) and blochs (O, 3, ...), zero for x >= O."""
    K = k * weights[:, None] * blochs
    return K if len(K) == X else np.concatenate([K, np.zeros((X - len(K), *K.shape[1:]))])


def _fields(D: Array, N: Array, K: Array) -> tuple[Array, Array]:
    """The preparations' fields h = D n - K (X, 3, ...) and their norms |h| (X, 1, ...)."""
    H = _matmul_first(D, N) - K
    return H, _norms(H, axis=1)


def _preparation_step(D: Array, N: Array, K: Array, M: Array) -> Array:
    """Best preparations unit(h_x) of the `_fields`; a zero field keeps M."""
    H, r = _fields(D, N, K)
    return _normalize_rows(H, M, 1, r)


def _scored_fields(D: Array, N: Array, K: Array) -> tuple[Array, Array]:
    """The fixed-POVM objective sum_x |h_x| (...) and the best preparations unit(h_x), a zero field giving 0."""
    H, r = _fields(D, N, K)
    return reduce(np.add, r[:, 0]), H / np.maximum(r, 1e-300)


def _anti_aligned(blochs: Array, X: int) -> Array:
    """Preparations (X, 3, ...) anti-aligned with the effects (O, 3, ...), extra ones with the last effect."""
    return -blochs[np.minimum(np.arange(X), len(blochs) - 1)]


# ---------------------------------------------------------------------------
# the bound see-saw's POVM steps and restart batch
# ---------------------------------------------------------------------------


def _penalty(weights: Array, blochs: Array, M: Array) -> Array:
    """Penalty sum_t w_t (1 + p_t . m_t) (B,) of aligned weights (T, B), blochs and preparations (T, 3, B)."""
    overlap = reduce(np.add, (blochs[:, i] * M[:, i] for i in range(3)))
    return reduce(np.add, weights * (1.0 + overlap))


def _projective_povm_step(M: Array, subset: Array, PW: Array, PN: Array) -> tuple[Array, Array]:
    """Exact penalty minimizer over projective POVMs on each row's outcome pair subset (2, B).

    Effect i of a pair (i, j) points along unit(m_j - m_i) and effect j
    opposite; the weights are 1/2 on the pair, as `_multistart` sets
    them, so PW is returned unchanged.
    """
    cols, xyz = np.arange(PW.shape[-1]), np.arange(3)[:, None]
    ii, jj = subset
    n = _normalize_rows(M[jj, xyz, cols] - M[ii, xyz, cols], PN[ii, xyz, cols], axis=0)
    PN = PN.copy()
    PN[ii, xyz, cols] = n
    PN[jj, xyz, cols] = -n
    return PW, PN


def _triangle_ball(P: Array) -> tuple[Array, Array, Array]:
    """Smallest balls enclosing (3, 3, B) point trios: weights (3, B), centres (3, B) and r^2 (B,).

    With a_i the squared length of the edge opposite p_i, the
    circumcentre's barycentric weights are proportional to
    alpha_i = a_i (a_j + a_k - a_i), whose sum is 16 area^2 = 4 det G
    (G the Gram matrix of p_1 - p_0 and p_2 - p_0), and
    r^2 = a_0 a_1 a_2 / sum alpha.  The circumcircle holds unless the
    triangle is degenerate (det G <= `_DEGENERATE` a_1 a_2) or a weight
    falls below -`_BALL_TOL`.  The longest edge's midpoint ball, r^2 =
    a_i / 4, holds when the third point's squared distance from the
    midpoint, r^2 + (a_j + a_k - a_i) / 2 by the median formula, is at
    most r^2 + `_BALL_TOL`; of equally long edges the first in (0, 1),
    (0, 2), (1, 2) order is taken.  Where both hold the smaller ball
    wins, the edge's on a tie; where neither does (every point the same)
    r^2 is inf.  Weights below 0 are clipped to 0.
    """
    e = P[[1, 2, 0]] - P[[2, 0, 1]]
    a = np.einsum("tib,tib->tb", e, e)
    excess = a.sum(axis=0) - 2.0 * a
    alpha = a * excess
    total = alpha.sum(axis=0)
    trio = total > 4.0 * _DEGENERATE * a[1] * a[2]
    total = np.where(trio, total, 1.0)
    lam = alpha / total
    trio &= np.all(lam >= -_BALL_TOL, axis=0)
    trio_r2 = np.where(trio, a[0] * a[1] * a[2] / total, np.inf)
    cols = np.arange(P.shape[-1])
    opposite = 2 - np.argmax(a[::-1], axis=0)  # the point off the longest edge
    longest = a[opposite, cols]
    pair_r2 = np.where((longest > 0.0) & (excess[opposite, cols] <= 2.0 * _BALL_TOL), 0.25 * longest, np.inf)
    xyz = np.arange(3)[:, None]
    p0, p1 = P[np.where(opposite == 0, 1, 0), xyz, cols], P[np.where(opposite == 2, 1, 2), xyz, cols]
    pair = pair_r2 <= trio_r2
    weights = np.where(pair, np.where(xyz == opposite, 0.0, 0.5), np.clip(lam, 0.0, None))
    centres = np.where(pair, p0 + 0.5 * (p1 - p0), np.einsum("tb,tib->ib", lam, P))
    return weights, centres, np.where(pair, pair_r2, trio_r2)


def _enclosing_ball_step(M: Array, subset: Array, PW: Array, PN: Array) -> tuple[Array, Array]:
    """Exact penalty-minimizing POVM step on each row's three `subset` outcomes.

    subset is (3, B): the outcomes allowed a nonzero weight.  The others
    must have zero weight already, as `_multistart` sets them, so only the
    subset is rewritten.  Over POVMs supported on S the minimum of
    sum_x w_x (1 + n_x . m_x) is 1 - R_S, with R_S the radius of the
    smallest ball enclosing {m_x : x in S} (`_triangle_ball`); the weights
    are the centre's barycentric coordinates and each effect points from
    m_x to the centre.  Rows where that is not lower than the current
    penalty (for instance coincident preparations, which have no ball)
    keep their POVM, so the step never increases the penalty.
    """
    cols = np.arange(PW.shape[-1])
    slots, vectors = (subset, cols), (subset[:, None], np.arange(3)[:, None], cols)
    M_S, PW_S, PN_S = M[vectors], PW[slots], PN[vectors]
    w, centres, radii2 = _triangle_ball(M_S)
    dirs = _normalize_rows(centres - M_S, PN_S, axis=1)
    better = np.isfinite(radii2) & (_penalty(w, dirs, M_S) < _penalty(PW_S, PN_S, M_S))
    PW_new, PN_new = PW.copy(), PN.copy()
    PW_new[slots] = np.where(better, w, PW_S)
    PN_new[vectors] = np.where(better, dirs, PN_S)
    return PW_new, PN_new


def _run_seesaw(spec: WitnessSpec, M: Array, N: Array, PW: Array, PN: Array, subset: Array, k: Array) -> dict:
    """Alternate exact steps until each k block's value stalls below `_TOL`.

    A row is one restart at one penalty weight.  k (K,) holds one weight
    per block, and the rows come in K contiguous blocks of equal size B,
    one per weight.  subset (T, K B) holds the outcomes each row's POVM
    may use; T picks the POVM step for the whole batch: T = 2 the
    projective step, T = 3 the enclosing ball.  A block leaves the batch
    at the first iteration >= 1 where none of its rows gains `_TOL`, or
    after `_MAX_ITERS`, and its rows stop changing there, so each block
    ends exactly where a batch of its rows alone would.  M, N, PW and PN
    are overwritten with the final state.  Returns them with the final
    values (K B,) and each block's iteration count and convergence flag.
    """
    D, X = spec.bloch_coeffs, spec.scenario.preparations
    B = M.shape[-1] // k.size
    povm_step = _projective_povm_step if len(subset) == 2 else _enclosing_ball_step
    iterations = np.zeros(k.size, dtype=int)
    converged = np.zeros(k.size, dtype=bool)
    kk = np.repeat(k, B)
    values = bloch_values(spec, M[:, None], N, PW, PN, kk)
    # the rows and blocks still stepping, and their working state
    rows, live = np.arange(M.shape[-1]), np.arange(k.size)
    m, n, pw, pn, sub, vals = M, N, PW, PN, subset, values
    for it in range(_MAX_ITERS):
        n = _observable_step(D, m, n)
        m = _preparation_step(D, n, _penalty_fields(kk, pw, pn, X), m)
        pw, pn = povm_step(m, sub, pw, pn)
        new = bloch_values(spec, m[:, None], n, pw, pn, kk)
        settled = ((new - vals).reshape(-1, B).max(axis=1) < _TOL) & (it >= 1)
        vals = new
        stop = settled | (it + 1 == _MAX_ITERS)
        if not stop.any():
            continue
        iterations[live[stop]] = it + 1
        converged[live[stop]] = settled[stop]
        leave = np.repeat(stop, B)
        done = rows[leave]
        for final, state in zip((M, N, PW, PN, values), (m, n, pw, pn, vals)):
            final[..., done] = state[..., leave]
        keep = ~leave
        if not keep.any():
            break
        rows, live = rows[keep], live[~stop]
        m, n, pw, pn, sub, kk, vals = (a[..., keep] for a in (m, n, pw, pn, sub, kk, vals))
    return {
        "M": M,
        "N": N,
        "PW": PW,
        "PN": PN,
        "values": values,
        "iterations": iterations,
        "converged": converged,
    }


# rows of the fixed-POVM search's see-saw and Newton pools: wider pools cut
# per-call numpy overhead but raise the peak; these keep the traced peak near
# 0.55 MB from 300 to 8,000 sic POVMs, where 1,024/256 ran about 20% faster
# and peaked near 1 MB
_SEESAW_POOL = 512
_NEWTON_POOL = 128
# see-saw steps run until a row gains less than this: by then the row has
# settled in the basin the see-saw climbs, and Newton steps finish it
_SEESAW_TOL = 1e-4
# Newton step scales tried per iteration, and the longest step per axis
_NEWTON_SCALES = np.array([1.0, 0.25, 0.0625])
_NEWTON_CAP = 0.5
# eigenvalue floor of the saddle-free Newton step
_SADDLE_FLOOR = 1e-4


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


def _reduced_derivatives(D: Array, N: Array, U: Array, r: Array) -> tuple[Array, Array, Array, Array]:
    """Riemannian gradient and Hessian of sum_x |h_x| over the observables.

    N (B, Y, 3) observables, U (B, X, 3) their unit fields u_x = unit(h_x)
    and r (B, X, 1) the norms |h_x|.  On the product of spheres the gradient
    is the tangent part of G_y = sum_x D_xy u_x, and the Hessian block (y, z)
    is sum_x D_xy D_xz (I - u_x u_x^T) / |h_x| restricted to the tangent
    planes, less (n_y . G_y) on the diagonal.  Returns G (B, Y, 3), the
    tangent bases E (B, 2Y, 3), and the gradient (B, 2Y) and Hessian
    (B, 2Y, 2Y) in those bases, coordinates ordered (y, basis vector).
    """
    B, Y, _ = N.shape
    G = D.T @ U
    E = _tangent_bases(N).reshape(B, 2 * Y, 3)
    g = _sum_last(E * G.repeat(2, axis=1))
    Q = (U @ E.swapaxes(1, 2)) * (D.repeat(2, axis=1) / np.sqrt(r))  # (B, X, 2Y)
    C = ((D.T / r.swapaxes(1, 2)) @ D).repeat(2, axis=1).repeat(2, axis=2)
    hess = C * (E @ E.swapaxes(1, 2)) - Q.swapaxes(1, 2) @ Q
    diag = np.arange(2 * Y)
    hess[:, diag, diag] -= _sum_last(N * G).repeat(2, axis=1)
    return G, E, g, hess


def _concave_beyond_floor(hess: Array) -> Array:
    """Whether every eigenvalue of each finite symmetric (B, n, n) H is below -`_SADDLE_FLOOR`: (B,).

    That is, whether A = -H - floor I is positive definite, which holds
    exactly when every pivot of Gaussian elimination on A without row
    exchanges is positive: the pivots are the ratios of A's leading
    principal minors (Nocedal & Wright, Numerical Optimization, 3.4).
    """
    n = hess.shape[-1]
    A = -np.ascontiguousarray(hess.transpose(1, 2, 0))  # batch axis last: each op runs over B values
    diag = np.arange(n)
    A[diag, diag] -= _SADDLE_FLOOR
    ok = A[0, 0] > 0.0
    for j in range(n - 1):
        # a failed row stops eliminating: its verdict is already set
        row = np.divide(A[j, j + 1 :], A[j, j], out=np.zeros((n - j - 1, len(ok))), where=ok)
        A[j + 1 :, j + 1 :] -= A[j + 1 :, j, None] * row
        ok &= A[j + 1, j + 1] > 0.0
    return ok


def _ascent_candidates(D: Array, N: Array, U: Array, r: Array) -> Array:
    """Saddle-free Newton points at each scale of `_NEWTON_SCALES`, then the see-saw point.

    The step solves |H| t = g, with the `_reduced_derivatives` Hessian
    H taken by the modulus of its eigenvalues (floored at
    `_SADDLE_FLOOR`): the Newton step where H is negative definite, and
    a step that climbs away from saddles where it is not (Dauphin et
    al., NeurIPS 2014); a plain Newton step would converge to them.
    Where every eigenvalue is below -`_SADDLE_FLOOR` (`_concave_beyond_floor`,
    most rows near an optimum) |H| = -H, so those rows take one batched
    solve of -H t = g; only the other finite rows take an eigendecomposition,
    and a row with a non-finite Hessian takes no step.  Both give the same
    saddle-free step, which is continuous where they meet.  A step is
    shrunk, direction kept, until no axis moves more than `_NEWTON_CAP`.
    The see-saw point is unit(G_y).  N, U and r are as `_reduced_derivatives`
    takes them.  Returns (len(_NEWTON_SCALES) + 1, B, Y, 3).
    """
    B, Y, _ = N.shape
    G, E, g, hess = _reduced_derivatives(D, N, U, r)
    t = np.zeros_like(g)
    ok = np.isfinite(hess).all(axis=(1, 2))
    concave = np.flatnonzero(ok)[_concave_beyond_floor(hess[ok])]
    t[concave] = np.linalg.solve(-hess[concave], g[concave, :, None])[..., 0]
    ok[concave] = False  # the finite rows left need the eigendecomposition
    lam, V = np.linalg.eigh(hess[ok])
    gv = (g[ok, None, :] @ V)[:, 0] / np.maximum(np.abs(lam), _SADDLE_FLOOR)
    t[ok] = (V @ gv[..., None])[..., 0]
    del hess, lam, V, gv  # freed before the candidates are built
    T = (t.reshape(B, Y, 1, 2) @ E.reshape(B, Y, 2, 3))[:, :, 0]
    longest = _norms(T)[..., 0].max(axis=-1)
    T *= (_NEWTON_CAP / np.maximum(longest, _NEWTON_CAP))[:, None, None]
    points = _normalize_rows(N + _NEWTON_SCALES[:, None, None, None] * T, N)
    return np.concatenate([points, _normalize_rows(G, N)[None]])


def _seesaw_step(D: Array, pool: list[Array]) -> Array:
    """One see-saw step of every row of a see-saw pool, in place; returns the gains (P,).

    The pool holds, batch axis last, the rows' POVM indices (P,),
    observables n (Y, 3, P), penalty fields K (X, 3, P), values,
    iteration counts and unit fields U = unit(D n - K) (X, 3, P) at n.
    The step takes n_y = unit(sum_x D_xy u_x) and computes h = D n - K
    once, at that candidate: a row that gains takes it with its value
    and unit fields.
    """
    _, n, K, value, iterations, U = pool
    points = _observable_step(D, U, n)
    score, unit = _scored_fields(D, points, K)
    gain = score - value
    up = gain > 0
    np.copyto(n, points, where=up)
    np.copyto(U, unit, where=up)
    np.copyto(value, score, where=up)
    iterations += 1
    return gain


def _newton_step(D: Array, pool: list[Array]) -> Array:
    """One Newton step of every row of a Newton pool, in place; returns the gains (P,).

    The pool holds the see-saw pool's first five arrays, batch axis last.
    The Hessian and its solve run rows first, so n and its fields go in
    transposed and the `_ascent_candidates` come back as (Y, 3, C, P) to
    be scored.  Each row moves to the best candidate if that gains.
    """
    _, n, K, value, iterations = pool
    H, r = _fields(D, n, K)
    r = np.maximum(r, 1e-300)
    # contiguous, so the per-row matmuls see one layout wherever the rows came from
    rows = (np.ascontiguousarray(a.transpose(2, 0, 1)) for a in (n, H / r, r))
    points = _ascent_candidates(D, *rows).transpose(2, 3, 0, 1)
    scores = reduce(np.add, _fields(D, points, K[:, :, None])[1][:, 0])
    best, index = np.argmax(scores, axis=0), np.arange(value.size)
    points, score = points[:, :, best, index], scores[best, index]
    gain = score - value
    up = gain > 0
    np.copyto(n, points, where=up)
    np.copyto(value, score, where=up)
    iterations += 1
    return gain


def _fixed_povm_climb(spec: WitnessSpec, weights: Array, blochs: Array, starts):
    """Climb start rows, POVMs held fixed, through the two pools the module docstring describes.

    starts(free) returns the POVM indices (n,) and starting observables
    (Y, 3, n) of the next n <= free rows, fewer once it runs out.  A row's
    penalty fields come from its POVM in weights (O, S) and blochs
    (O, 3, S) once, when it enters the see-saw pool, and travel with it.
    Yields the POVM indices, `bloch_values` at the optimal preparations,
    iteration counts and convergence flags of the finished rows, in
    batches of about a Newton pool.
    """
    D, X, Y = spec.bloch_coeffs, spec.scenario.preparations, spec.scenario.binary_settings

    def admit(p: Array, n: Array) -> list[Array]:
        K = _penalty_fields(spec.k, weights[:, p], blochs[:, :, p], X)
        value, U = _scored_fields(D, n, K)
        return [p, n, K, value, np.zeros(p.size, dtype=np.min_scalar_type(_MAX_ITERS)), U]

    def take(pool: list[Array], index: Array) -> list[Array]:
        return [a.take(index, axis=-1) for a in pool]

    def finish(batch: list[tuple[Array, ...]]):
        # scores finished rows: their POVM indices, observables, fields, iteration counts and flags
        p, n, K, iterations, converged = (np.concatenate(a, axis=-1) for a in zip(*batch))
        PW, PN = weights[:, p], blochs[:, :, p]
        m = _preparation_step(D, n, K, _anti_aligned(PN, X))
        return p, bloch_values(spec, m[:, None], n, PW, PN), iterations, converged

    none = np.empty(0, dtype=np.intp)
    seesaw = admit(none, np.empty((Y, 3, 0)))
    newton = take(seesaw[:5], none)  # the Newton pool, then its queue
    done, drained = [], False  # finished rows not yet scored; starts run out
    while not drained or seesaw[0].size or newton[0].size:
        free = _SEESAW_POOL - seesaw[0].size
        # starts enter once a quarter of the pool is free: a few rows at every
        # step would cost more per-call overhead than the emptier pool loses
        if 4 * free >= _SEESAW_POOL and not drained and newton[0].size < 2 * _NEWTON_POOL:
            p, n = starts(free)
            drained = p.size < free
            seesaw = [np.concatenate(pair, axis=-1) for pair in zip(seesaw, admit(p, n))]
        if seesaw[0].size:
            moving = _seesaw_step(D, seesaw) >= _SEESAW_TOL
            within = seesaw[4] < _MAX_ITERS
            if not (moving & within).all():  # else no row leaves
                handed = take(seesaw[:5], np.flatnonzero(~moving & within))
                newton = [np.concatenate(pair, axis=-1) for pair in zip(newton, handed)]
                lost = np.flatnonzero(~within)
                if lost.size:
                    p, n, K, _, iterations = take(seesaw[:5], lost)
                    done.append((p, n, K, iterations, np.zeros(lost.size, dtype=bool)))
                seesaw = take(seesaw, np.flatnonzero(moving & within))
        queued = newton[0].size
        if queued >= _NEWTON_POOL or (queued and drained and not seesaw[0].size):
            count = min(queued, _NEWTON_POOL)
            pool = [a[..., :count] for a in newton]
            moving = _newton_step(D, pool) >= _TOL
            stay = moving & (pool[4] < _MAX_ITERS)
            if not stay.all():
                leave = np.flatnonzero(~stay)
                p, n, K, _, iterations = take(pool, leave)
                done.append((p, n, K, iterations, ~moving[leave]))
                newton = take(newton, np.concatenate([np.flatnonzero(stay), np.arange(count, queued)]))
        if sum(len(batch[0]) for batch in done) >= _NEWTON_POOL:
            yield finish(done)
            done = []
    if done:
        yield finish(done)


def _seesaw_result(kind: str, spec: WitnessSpec, run: dict, diagnostics: dict) -> BoundResult:
    """One k's best row as a heuristic bound with its strategy."""
    return BoundResult(kind, float(run["values"].max()), spec.k, True, run["argmax"], diagnostics)


def _multistart(
    specs: Sequence[WitnessSpec], config: OptimizerConfig, stream: int, groups: Array
) -> list[dict]:
    """See-saw from `config.restarts` random starts per outcome group, at each spec's k.

    The specs are one family at several penalty weights.  groups (G, T)
    lists the outcomes each group's POVMs may use.  The starts are drawn
    once, in this order from `config.stream(stream)`: preparations,
    observables, then one random axis per row (T = 2, a projective
    pair) or random extremal T-outcome POVMs, placed on the group's
    outcomes.  Every k climbs its own copy of these B = G * restarts
    rows, so it gets the result of a lone run: the copies are tiled into
    equal blocks of B rows, one per k, and `_run_seesaw` takes as many
    blocks at once as fit in `_SEESAW_CHUNK` rows (at least one).
    Returns per spec, in order: its values (G, restarts), its iteration
    count and convergence flag, and its best row's strategy.
    """
    spec = specs[0]
    if any(not np.array_equal(s.coeffs, spec.coeffs) for s in specs):
        raise ValueError("a k grid must share one coefficient tensor")
    R = config.restarts
    G, T = groups.shape
    B = G * R
    rng = config.stream(stream).generator()
    M = _batch_last(random_unit_vectors(rng, (B, spec.scenario.preparations)))
    N = _batch_last(random_unit_vectors(rng, (B, spec.scenario.binary_settings)))
    if T == 2:
        axis = _batch_last(random_unit_vectors(rng, B))
        weights, blochs = np.full((2, B), 0.5), np.stack([axis, -axis])
    else:
        sample = random_extremal_povms(T, B, rng)
        weights, blochs = _batch_last(sample.weights), _batch_last(sample.blochs)
    subset, cols = np.repeat(groups.T, R, axis=1), np.arange(B)
    PW, PN = np.zeros((spec.scenario.povm_outcomes, B)), np.zeros((spec.scenario.povm_outcomes, 3, B))
    PN[:, 2] = 1.0
    PW[subset, cols] = weights
    PN[subset[:, None], np.arange(3)[:, None], cols] = blochs
    ks = np.array([s.k for s in specs])
    per = max(1, _SEESAW_CHUNK // B)  # k blocks per batch
    runs = []
    for lo in range(0, ks.size, per):
        block = ks[lo : lo + per]
        n = block.size
        state = _run_seesaw(spec, *(np.concatenate([a] * n, axis=-1) for a in (M, N, PW, PN, subset)), block)
        values = state["values"].reshape(n, G, R)
        for j in range(n):
            best = j * B + int(np.argmax(values[j]))
            w = np.clip(state["PW"][:, best], 0.0, None)
            povm = Povm(w, state["PN"][..., best])
            runs.append({
                "values": values[j],
                "iterations": int(state["iterations"][j]),
                "converged": bool(state["converged"][j]),
                "argmax": Strategy(state["M"][..., best], state["N"][..., best], povm),
            })
        del state  # free this batch before the next one is tiled
    return runs


# ---------------------------------------------------------------------------
# public heuristics
# ---------------------------------------------------------------------------


def maximize_given_povm_batch(
    spec: WitnessSpec,
    weights: Array,
    blochs: Array,
    config: OptimizerConfig | None = None,
    restarts: int = 8,
) -> Array:
    """Best witness value for each fixed POVM in a batch.

    weights (S, O) and blochs (S, O, 3); returns (S,) values.  Each
    sample gets `restarts` random preparations from `config.stream(1)`,
    then the anti-aligned ones (`_anti_aligned`), a penalty-free strategy
    the random starts can miss, each kept as the observables of one
    see-saw step; its value is the best of these rows' `_fixed_povm_climb`
    results.  Rows still moving after `_MAX_ITERS` are reported by a warning.
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
    X, R, rng = spec.scenario.preparations, restarts + 1, config.stream(1).generator()
    weights, blochs = _batch_last(weights), _batch_last(blochs)
    drawn, waiting = 0, (np.empty(0, dtype=np.intp), np.empty((spec.scenario.binary_settings, 3, 0)))

    def starts(free: int) -> tuple[Array, Array]:
        # draws, in sample order, for just enough samples to fill `free` rows
        nonlocal drawn, waiting
        p, N = waiting
        if p.size < free and drawn < S:
            hi = min(S, drawn - (p.size - free) // R)
            M = _batch_last(random_unit_vectors(rng, ((hi - drawn) * restarts, X))).reshape(X, 3, hi - drawn, restarts)
            M = np.concatenate([M, _anti_aligned(blochs[..., drawn:hi], X)[..., None]], axis=-1)
            # a start with an exactly zero field takes the z axis
            N = np.concatenate([N, _observable_step(spec.bloch_coeffs, M.reshape(X, 3, -1), _Z[:, None])], axis=-1)
            p, drawn = np.concatenate([p, np.arange(drawn, hi).repeat(R)]), hi
        waiting = p[free:], N[..., free:]
        return p[:free], N[..., :free]

    best, top, moving = np.full(S, -np.inf), 0, 0
    for p, values, iterations, converged in _fixed_povm_climb(spec, weights, blochs, starts):
        np.maximum.at(best, p, values)
        top = max(top, int(iterations.max()))
        moving += converged.size - int(np.count_nonzero(converged))
    if moving:
        log.warning(
            "fixed-POVM search stopped unconverged after %d iterations on %d rows (%d still moving)", top, S * R, moving
        )
    return best


def projective_bound_numeric(spec: WitnessSpec, config: OptimizerConfig | None = None) -> BoundResult:
    """See-saw restricted to projective POVMs.

    A projective O-outcome measurement is two orthogonal rank-one
    projectors on some outcome pair and zero effects elsewhere.  Every
    pair assignment is searched and the maximum over assignments is
    returned; this is the threshold a certification must clear, since a
    projective device may label its outcomes arbitrarily.  Diagnostics
    carry the per-pair values (`pair_values`).

    The assignment matters for witnesses whose coefficients are not
    symmetric under outcome permutations: for the three-outcome trine
    family, placing the projectors on the two symmetric outcomes
    (`pair_values["0,1"]`) gives 4.89165 at k=1, while the asymmetric
    assignments reach 4.91199.

    Heuristic: a lower bound on the projective maximum that in practice
    saturates it.  The POVM step is closed form (anti-aligned axis for
    the assigned pair), so each restart is fully deterministic given its
    start.
    """
    return projective_bounds_numeric([spec], config)[0]


def projective_bounds_numeric(
    specs: Sequence[WitnessSpec], config: OptimizerConfig | None = None
) -> list[BoundResult]:
    """`projective_bound_numeric` at each spec of one family, in one see-saw batch."""
    config = config or OptimizerConfig()
    pairs = list(combinations(range(specs[0].scenario.povm_outcomes), 2))
    results = []
    for spec, run in zip(specs, _multistart(specs, config, 2, np.array(pairs))):
        per_pair = {f"{a},{b}": float(v) for (a, b), v in zip(pairs, run["values"].max(axis=1))}
        diagnostics = {
            "witness": spec.name,
            "restarts_per_pair": config.restarts,
            "iterations": run["iterations"],
            "converged": run["converged"],
            "pair_values": per_pair,
            "seed": config.seed,
        }
        results.append(_seesaw_result("projective-numeric", spec, run, diagnostics))
    return results


def three_outcome_max(
    spec: WitnessSpec, config: OptimizerConfig | None = None
) -> BoundResult:
    """See-saw with at most three nonzero POVM outcomes (four-outcome scenarios).

    Every assignment of the zero effect is searched.  Heuristic, like
    all see-saw values; used as the threshold for claiming a genuinely
    four-outcome measurement.
    """
    return three_outcome_maxima([spec], config)[0]


def three_outcome_maxima(
    specs: Sequence[WitnessSpec], config: OptimizerConfig | None = None
) -> list[BoundResult]:
    """`three_outcome_max` at each spec of one family, in one see-saw batch."""
    config = config or OptimizerConfig()
    if specs[0].scenario.povm_outcomes != 4:
        raise ValueError("three-outcome restriction applies to four-outcome scenarios")
    trios = np.array([sorted(set(range(4)) - {z}) for z in range(4)])
    results = []
    for spec, run in zip(specs, _multistart(specs, config, 3, trios)):
        per_zero = {str(z): float(v) for z, v in enumerate(run["values"].max(axis=1))}
        diagnostics = {
            "witness": spec.name,
            "restarts_per_assignment": config.restarts,
            "iterations": run["iterations"],
            "converged": run["converged"],
            "zero_assignment_values": per_zero,
            "seed": config.seed,
        }
        results.append(_seesaw_result("three-outcome-numeric", spec, run, diagnostics))
    return results


# ---------------------------------------------------------------------------
# certified closed-form bounds
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
        raise ValueError(f"penalty weight k must be finite and >= 0, got {k}")
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


def quantum_bound(spec: WitnessSpec) -> BoundResult:
    """The family's known quantum maximum, attained at every k by its ideal strategy.

    The POVM has equal weights along the tetrahedron (four outcomes) or
    the trine (three), each preparation is anti-aligned with its effect,
    so the penalty vanishes, and each observable aligns with its field.
    """
    if spec.quantum_max is None:
        raise ValueError(f"witness {spec.name!r} has no known quantum maximum")
    O = spec.scenario.povm_outcomes
    blochs = TETRAHEDRON if O == 4 else TRINE
    M = _anti_aligned(blochs, spec.scenario.preparations)
    argmax = Strategy(M, _observable_step(spec.bloch_coeffs, M, _Z), Povm(np.full(O, 1.0 / O), blochs))
    diagnostics = {"witness": spec.name, "method": "closed-form"}
    return BoundResult("quantum-closed-form", float(spec.quantum_max), float(spec.k), False, argmax, diagnostics)
