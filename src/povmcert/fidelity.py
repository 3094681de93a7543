"""POVM-to-target fidelity and sampled worst-case fidelity envelopes.

Closeness of a measurement {E_i} to an extremal target {M_i} is the best
weighted average fidelity over extraction channels,

    F = max_L (1/2) sum_i Tr(L[E_i] M_i) / Tr(M_i),

with L relaxed to a unitary: on Bloch vectors, a rotation R.  Writing
E_i = w_i (1 + n_i . sigma) and the target directions v_i, this reduces
to F = 1/2 + (1/2) Tr(R K) with K = sum_i w_i n_i v_i^T.  The maximum over
proper rotations R is Wahba's problem, solved exactly from the SVD
K = U S V^T (Kabsch 1976; Markley 1988): with d = sign(det U det V),
F = 1/2 + (s1 + s2 + d s3)/2 at R = V diag(1, 1, d) U^T.  The rotation
step is exact; F is still a lower bound on the unital-channel optimum,
because the channel is restricted to rotations.

A witness only pins the target down up to a rotation and possibly a
relabeling of outcomes, so targets carry their relabeling classes:
outcome permutations of the target that no rotation can undo.  The
tetrahedral target has two (a permutation parity flip mirrors the
tetrahedron); the planar trine has one, since a planar configuration
can always be flipped in place by a rotation about an in-plane axis.

The envelope machinery scatters many random extremal POVMs into
(witness value, fidelity) pairs, held as one structured array, and
keeps per-bin minima, estimating the worst fidelity compatible with an
observed witness value.
"""
from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from itertools import permutations
from typing import TextIO

import numpy as np

from .optimize import OptimizerConfig, maximize_given_povm_batch
from .qubit import Povm, classify_extremal, validate_povm
from .sampling import RngStream, random_extremal_povms
from .witness import TETRAHEDRON, TRINE, WitnessSpec

log = logging.getLogger(__name__)

Array = np.ndarray

# rotation-equivalence threshold for grouping target relabelings
RELABEL_TOL = 1e-9
# matrices per slice of the batched SVD, and rows per slice of the samples
# CSV: it bounds their working memory, and numpy's per-call overhead is small
_SLICE = 4096


def _rotation_classes(weights: Array, blochs: Array) -> tuple[tuple[int, ...], ...]:
    """Outcome permutations of a target, grouped up to rotations.

    Two permutations land in the same class when some rotation maps one
    permuted Bloch configuration onto the other, that is when the Kabsch
    fidelity between them exceeds 1 - RELABEL_TOL (weights must agree
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
        if rep_configs:
            F = _kabsch(weights[None], config[None], np.array(rep_configs))
            if np.any(F > 1.0 - RELABEL_TOL):
                continue
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
    return TargetPovm.from_povm(Povm(np.full(4, 0.25), TETRAHEDRON))


def trine_target() -> TargetPovm:
    """Three-outcome planar trine target, weights 1/3."""
    return TargetPovm.from_povm(Povm(np.full(3, 1.0 / 3.0), TRINE))


def _kabsch(weights: Array, blochs: Array, targets: Array) -> Array:
    """Max of 1/2 + Tr(R K)/2 over proper rotations R, for each POVM and target.

    weights (S, O) and blochs (S, O, 3) hold the POVMs, targets (C, O, 3)
    the target directions, and K[s,c] = sum_i w_si n_si t_ci^T.  K = U S V^T
    and d = sign(det U det V) give the maximum 1/2 + (s1 + s2 + d s3)/2 at
    R = V diag(1, 1, d) U^T.  K is built and decomposed `_SLICE` matrices
    at a time, so the working set stays small whatever the batch; each
    matrix is its own LAPACK call either way, so the values do not depend
    on the slicing.  Returns the fidelities (S, C).
    """
    F = np.empty((len(weights), len(targets)))
    step = max(1, _SLICE // len(targets))
    for lo in range(0, len(weights), step):
        K = np.einsum("so,soi,coj->scij", weights[lo : lo + step], blochs[lo : lo + step], targets)
        U, s, Vt = np.linalg.svd(K)
        d = np.sign(np.linalg.det(U) * np.linalg.det(Vt))
        F[lo : lo + step] = 0.5 + 0.5 * (s[..., 0] + s[..., 1] + d * s[..., 2])
    return F


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
        """Parse `to_json` output; a bin with a non-finite or reversed
        edge, a minimum fidelity outside [0, 1] or no samples is refused."""
        d = json.loads(text)
        width = float(d["bin_width"])
        _check_bin_width(width)
        bins = tuple(
            EnvelopeBin(float(b["a_lo"]), float(b["a_hi"]), float(b["min_f"]), int(b["count"]))
            for b in d["bins"]
        )
        for b in bins:
            if not (-np.inf < b.a_lo < b.a_hi < np.inf and 0.0 <= b.min_f <= 1.0 and b.count >= 1):
                raise ValueError(
                    f"envelope bin {b} needs finite edges a_lo < a_hi, min_f in [0, 1] and count >= 1"
                )
        k = d.get("k")
        return cls(width, bins, d.get("witness"), None if k is None else float(k))


def _check_bin_width(bin_width: float) -> None:
    if not (np.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin width must be finite and positive, got {bin_width}")


def envelope_from_points(points: Array, bin_width: float) -> EnvelopeCurve:
    """Per-bin fidelity minima of sample points.

    `points` is a structured array with fields `A` (witness value) and
    `F` (fidelity), as `sample_fidelity_curve` returns; every value must
    be finite.  Bin i covers [i, i + 1) times the width.
    """
    _check_bin_width(bin_width)
    a, f = points["A"], points["F"]
    if not (np.isfinite(a).all() and np.isfinite(f).all()):
        raise ValueError("envelope points must have finite witness values and fidelities")
    idx, inverse, counts = np.unique(
        np.floor(a / bin_width).astype(np.int64), return_inverse=True, return_counts=True
    )
    min_f = np.full(len(idx), np.inf)
    np.minimum.at(min_f, inverse, f)
    bins = tuple(
        EnvelopeBin(a_lo=i * bin_width, a_hi=(i + 1) * bin_width, min_f=m, count=c)
        for i, m, c in zip(idx.tolist(), min_f.tolist(), counts.tolist())
    )
    return EnvelopeCurve(bin_width, bins)


def write_samples_csv(points: Array, out: TextIO) -> None:
    """Write the points as CSV to a text stream: one column per field, floats in full precision.

    Python rows are built for one `_SLICE` of points at a time and
    written straight to the stream, so the peak stays near one slice's
    text whatever the sample count.  Open a file with newline="".
    """
    w = csv.writer(out)
    w.writerow(points.dtype.names)
    for i in range(0, len(points), _SLICE):
        w.writerows(points[i : i + _SLICE].tolist())


def sample_fidelity_curve(
    spec: WitnessSpec,
    target: TargetPovm,
    n_samples: int,
    bin_width: float = 0.002,
    stream: RngStream | None = None,
    config: OptimizerConfig | None = None,
) -> tuple[Array, EnvelopeCurve]:
    """Scatter random extremal POVMs into (witness value, fidelity) points.

    Per sample: the best witness value with that POVM held fixed
    (`maximize_given_povm_batch`, `config.restarts` random starts per
    sample, 8 without a config, and one anti-aligned start) and the best
    fidelity over rotations and target relabelings (closed form).  All
    POVMs are drawn in one batch before any search starts, and the bin
    width is checked before the draw.  Returns the points as one
    structured array with the samples CSV's fields `sample_id`, `A`
    (witness value) and `F` (fidelity), one record per sample whose
    value and fidelity are finite (the rest are dropped with a warning),
    and their envelope.
    Deterministic for a fixed stream, sample count, and config.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    _check_bin_width(bin_width)
    if target.outcomes != spec.scenario.povm_outcomes:
        raise ValueError("target outcome count does not match the witness scenario")
    stream = stream or RngStream(0)
    config = config or OptimizerConfig(restarts=8)

    sample = random_extremal_povms(target.outcomes, n_samples, stream.generator())
    values = maximize_given_povm_batch(
        spec, sample.weights, sample.blochs, config, restarts=config.restarts
    )

    targets = target.povm.blochs[np.array(target.relabel_classes)]  # (C, O, 3)
    fids = _kabsch(sample.weights, sample.blochs, targets).max(axis=1)

    kept = np.flatnonzero(np.isfinite(values) & np.isfinite(fids))
    dropped = n_samples - len(kept)
    if dropped:
        log.warning("dropped %d of %d samples with non-finite results", dropped, n_samples)
    points = np.rec.fromarrays([kept, values[kept], fids[kept]], names="sample_id,A,F")
    return points, envelope_from_points(points, bin_width)
