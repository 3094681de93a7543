"""POVM-to-target fidelity and sampled worst-case fidelity envelopes.

Closeness of a measurement {E_i} to an extremal target {M_i} is the best
weighted average fidelity over extraction channels,

    F = max_L (1/2) sum_i Tr(L[E_i] M_i) / Tr(M_i),

with L relaxed to a unitary: on Bloch vectors, a rotation R.  Writing
E_i = w_i (1 + n_i . sigma) and the target directions v_i, this reduces
to F = 1/2 + (1/2) Tr(R K) with K = sum_i w_i n_i v_i^T, maximized over
R by a multistart simplex search on rotation vectors (the identity
start makes F(target, target) exactly 1).  Restricting the channel to
rotations biases F downward relative to general unital channels; values
reported here are lower bounds.

A witness only pins the target down up to a rotation and possibly a
relabeling of outcomes, so targets carry their relabeling classes:
outcome permutations of the target that no rotation can undo.  The
tetrahedral target has two (a permutation parity flip mirrors the
tetrahedron); the planar trine has one, since a planar configuration
can always be flipped in place by a rotation about an in-plane axis.

The envelope machinery scatters many random extremal POVMs into
(witness value, fidelity) pairs and keeps per-bin minima, estimating
the worst fidelity compatible with an observed witness value.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import warnings
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

import numpy as np
from scipy.spatial.transform import Rotation

from ._numerics import nelder_mead_batch
from .optimize import OptimizerConfig, maximize_given_povm_batch
from .qubit import Povm, classify_extremal, validate_povm
from .sampling import RngStream, random_extremal_povms
from .witness import TETRAHEDRON, TRINE, WitnessSpec

log = logging.getLogger(__name__)

Array = np.ndarray

# rotation-equivalence threshold for grouping target relabelings
RELABEL_TOL = 1e-9

_NM_ITERS_ROTATION = 200
_NM_STEP_ROTATION = 0.5


def _rotation_classes(weights: Array, blochs: Array) -> tuple[tuple[int, ...], ...]:
    """Outcome permutations of a target, grouped up to rotations.

    Two permutations land in the same class when some rotation maps one
    permuted Bloch configuration onto the other (weights must agree
    pairwise too).  Returns one representative per class, identity
    first.
    """
    O = blochs.shape[0]
    reps: list[tuple[int, ...]] = []
    rep_configs: list[Array] = []
    for perm in permutations(range(O)):
        p = np.array(perm)
        if not np.allclose(weights[p], weights, atol=RELABEL_TOL):
            continue
        config = blochs[p]
        matched = False
        for known in rep_configs:
            with warnings.catch_warnings():
                # planar configs make the optimal rotation non-unique;
                # only the residual matters here
                warnings.simplefilter("ignore", UserWarning)
                _, rssd = Rotation.align_vectors(config, known)
            if rssd < np.sqrt(RELABEL_TOL):
                matched = True
                break
        if not matched:
            reps.append(perm)
            rep_configs.append(config)
    reps.sort(key=lambda t: t != tuple(range(O)))
    return tuple(reps)


@dataclass(frozen=True)
class TargetPovm:
    """An extremal reference POVM plus its rotation-inequivalent relabelings."""

    povm: Povm
    relabel_classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cls = classify_extremal(self.povm)
        if cls not in ("extremal-3", "extremal-4"):
            raise ValueError(f"target POVM must be extremal, got {cls!r}")

    @classmethod
    def from_povm(cls, povm: Povm) -> "TargetPovm":
        if not validate_povm(povm).ok:
            raise ValueError("target POVM fails validation")
        return cls(povm, _rotation_classes(povm.weights, povm.blochs))

    @property
    def outcomes(self) -> int:
        return self.povm.outcomes


def sic_target() -> TargetPovm:
    """Four-outcome tetrahedral target, weights 1/4."""
    return TargetPovm.from_povm(Povm.from_arrays(np.full(4, 0.25), TETRAHEDRON))


def trine_target() -> TargetPovm:
    """Three-outcome planar trine target, weights 1/3."""
    return TargetPovm.from_povm(Povm.from_arrays(np.full(3, 1.0 / 3.0), TRINE))


class FidelityResult(NamedTuple):
    fidelity: float
    rotation: Array  # (3, 3), applied to the candidate's Bloch vectors


def _alignment_matrices(
    weights: Array, blochs: Array, target: TargetPovm, perms: Array
) -> Array:
    """K matrices for a batch: K[s,c] = sum_i w_si n_si v_{perm_c(i)}^T."""
    v = target.povm.blochs[perms]  # (C, O, 3)
    return np.einsum("so,soi,coj->scij", weights, blochs, v)


def _fidelities_from_k(
    K: Array, restarts: int, rng, iters: int = _NM_ITERS_ROTATION
) -> tuple[Array, Array]:
    """Max of 1/2 + Tr(R K)/2 over rotations for each K in a batch.

    Starts: the identity rotation plus `restarts` random rotation
    vectors per matrix.  Returns (best F, best rotation vector) per K.
    """
    from .sampling import random_rotation_vectors

    B = K.shape[0]
    starts = [np.zeros((B, 3))]
    if restarts > 0:
        starts.append(random_rotation_vectors(rng, B * restarts).reshape(B * restarts, 3))
    x0 = np.concatenate(starts, axis=0)
    idx_map = np.concatenate([np.arange(B)] + [np.tile(np.arange(B), restarts)] * (restarts > 0))

    def objective(rotvecs: Array, rows: Array) -> Array:
        R = Rotation.from_rotvec(rotvecs).as_matrix()
        tr = np.einsum("mij,mji->m", R, K[idx_map[rows]])
        return -(0.5 + 0.5 * tr)

    xb, fb = nelder_mead_batch(
        objective, x0, step=_NM_STEP_ROTATION, iters=iters, ftol=1e-14
    )
    f = -fb
    best = np.full(B, -np.inf)
    best_vec = np.zeros((B, 3))
    for s in range(len(x0) // B):
        sl = slice(s * B, (s + 1) * B)
        better = f[sl] > best
        best = np.where(better, f[sl], best)
        best_vec[better] = xb[sl][better]
    return best, best_vec


def povm_fidelity(
    e: Povm,
    target: TargetPovm,
    relabeling: tuple[int, ...] | None = None,
    restarts: int = 16,
    seed: int = 0,
) -> FidelityResult:
    """Best rotation-channel fidelity of `e` to the target, fixed pairing.

    Outcome i of `e` is scored against target outcome `relabeling[i]`
    (identity when omitted).  A lower bound on the unital-channel
    optimum; the identity rotation is always among the starts, so a
    candidate equal to the target scores exactly 1.
    """
    if e.outcomes != target.outcomes:
        raise ValueError("candidate and target must have the same outcome count")
    perm = np.arange(target.outcomes) if relabeling is None else np.array(relabeling)
    K = _alignment_matrices(
        e.weights[None, :], e.blochs[None, :, :], target, perm[None, :]
    ).reshape(1, 3, 3)
    rng = RngStream(seed, 3).generator()
    f, vec = _fidelities_from_k(K, restarts, rng)
    return FidelityResult(float(f[0]), Rotation.from_rotvec(vec[0]).as_matrix())


def best_fidelity_over_relabelings(
    e: Povm, target: TargetPovm, restarts: int = 16, seed: int = 0
) -> float:
    """Max of povm_fidelity over the target's relabeling classes."""
    if e.outcomes != target.outcomes:
        raise ValueError("candidate and target must have the same outcome count")
    perms = np.array(target.relabel_classes)
    K = _alignment_matrices(
        e.weights[None, :], e.blochs[None, :, :], target, perms
    ).reshape(len(perms), 3, 3)
    rng = RngStream(seed, 3).generator()
    f, _ = _fidelities_from_k(K, restarts, rng)
    return float(f.max())


@dataclass(frozen=True)
class SamplePoint:
    """One sampled POVM scattered into the (witness value, fidelity) plane."""

    witness_value: float
    fidelity: float
    povm_id: int


@dataclass(frozen=True)
class EnvelopeBin:
    a_lo: float
    a_hi: float
    min_f: float
    count: int


@dataclass(frozen=True)
class EnvelopeCurve:
    """Per-bin fidelity minima over sampled points.

    Bins are anchored to multiples of the bin width, so curves from
    different runs with the same width share bin edges and can be
    merged by taking per-bin minima.  `witness` and `k` record the
    witness the curve was sampled for; the `certify` command refuses a
    curve whose stamp is missing or differs from its run.
    """

    bin_width: float
    bins: tuple[EnvelopeBin, ...]
    witness: str | None = None
    k: float | None = None

    def lookup(self, witness_value: float) -> EnvelopeBin | None:
        """The bin containing a witness value, or None outside the curve."""
        for b in self.bins:
            if b.a_lo <= witness_value < b.a_hi:
                return b
        return None

    def floor_at(self, witness_value: float) -> float | None:
        """Smallest sampled fidelity at or above a witness value.

        The worst measurement compatible with an observed value could
        also produce any higher value; scanning upward makes the
        estimate monotone in the observation and robust to sparse bins.
        """
        floor = None
        for b in self.bins:
            if b.a_hi > witness_value:
                if floor is None or b.min_f < floor:
                    floor = b.min_f
        return floor

    def to_json(self) -> str:
        stamp = {"witness": self.witness, "k": self.k}
        return json.dumps(
            {
                **{key: v for key, v in stamp.items() if v is not None},
                "bin_width": self.bin_width,
                "bins": [
                    {
                        "a_lo": b.a_lo,
                        "a_hi": b.a_hi,
                        "min_f": b.min_f,
                        "count": b.count,
                    }
                    for b in self.bins
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "EnvelopeCurve":
        d = json.loads(text)
        bins = tuple(
            EnvelopeBin(float(b["a_lo"]), float(b["a_hi"]), float(b["min_f"]), int(b["count"]))
            for b in d["bins"]
        )
        k = d.get("k")
        return cls(
            float(d["bin_width"]), bins, d.get("witness"), None if k is None else float(k)
        )


def envelope_from_points(points: list[SamplePoint], bin_width: float) -> EnvelopeCurve:
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    groups: dict[int, list[SamplePoint]] = {}
    for p in points:
        groups.setdefault(int(np.floor(p.witness_value / bin_width)), []).append(p)
    bins = tuple(
        EnvelopeBin(
            a_lo=idx * bin_width,
            a_hi=(idx + 1) * bin_width,
            min_f=min(p.fidelity for p in grp),
            count=len(grp),
        )
        for idx, grp in sorted(groups.items())
    )
    return EnvelopeCurve(bin_width, bins)


def samples_to_csv(points: list[SamplePoint]) -> str:
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["sample_id", "A", "F"])
    for p in points:
        w.writerow([p.povm_id, repr(p.witness_value), repr(p.fidelity)])
    return out.getvalue()


def samples_from_csv(text: str) -> list[SamplePoint]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["sample_id", "A", "F"]:
        raise ValueError("expected header sample_id,A,F")
    return [
        SamplePoint(witness_value=float(a), fidelity=float(f), povm_id=int(sid))
        for sid, a, f in rows[1:]
    ]


def sample_fidelity_curve(
    spec: WitnessSpec,
    target: TargetPovm,
    n_samples: int,
    bin_width: float = 0.002,
    stream: RngStream | None = None,
    config: OptimizerConfig | None = None,
    witness_restarts: int = 8,
    rotation_restarts: int = 4,
) -> tuple[list[SamplePoint], EnvelopeCurve]:
    """Scatter random extremal POVMs into (witness value, fidelity) points.

    Per sample: the best witness value with that POVM held fixed (via
    the see-saw over preparations and observables) and the best
    fidelity over rotations and target relabelings.  Both searches run
    vectorized across the whole batch.  Deterministic for a fixed
    stream, sample count, and config.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if target.outcomes != spec.scenario.povm_outcomes:
        raise ValueError("target outcome count does not match the witness scenario")
    stream = stream or RngStream(0)
    config = config or OptimizerConfig()

    sample = random_extremal_povms(target.outcomes, n_samples, stream.derived(0).generator())
    values = maximize_given_povm_batch(
        spec, sample.weights, sample.blochs, config, restarts=witness_restarts
    )

    C = len(target.relabel_classes)
    perms = np.array(target.relabel_classes)
    K = _alignment_matrices(sample.weights, sample.blochs, target, perms)  # (S, C, 3, 3)
    f_flat, _ = _fidelities_from_k(
        K.reshape(n_samples * C, 3, 3),
        rotation_restarts,
        stream.derived(1).generator(),
    )
    fids = f_flat.reshape(n_samples, C).max(axis=1)

    points: list[SamplePoint] = []
    dropped = 0
    for i in range(n_samples):
        if not (np.isfinite(values[i]) and np.isfinite(fids[i])):
            dropped += 1
            continue
        points.append(SamplePoint(float(values[i]), float(fids[i]), i))
    if dropped:
        log.warning("dropped %d of %d samples with non-finite results", dropped, n_samples)
    return points, envelope_from_points(points, bin_width)
