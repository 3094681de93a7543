"""Seeded random generation of strategies and extremal POVMs.

Every draw takes a numpy Generator.  `RngStream` is the seed carrier
used across the package: a (seed, index) pair that maps to a
`SeedSequence` spawn, so independent consumers (optimizer restarts,
sampling campaigns, noise simulation) get reproducible, non-overlapping
streams without sharing generator state; callers turn it into a
Generator with `.generator()`.  Batch functions draw in a fixed order,
so a full run is bit-reproducible given the seed and the batch sizes.

Extremal POVM sampling follows the rejection scheme: draw unit Bloch
directions uniformly, solve the completeness constraints for the
weights, and reject draws with any weight <= 1e-6.  Three-outcome
directions lie in a uniformly random plane: a uniform unit quaternion
(four normal draws, normalized) rotates the xz-plane, and three
uniform in-plane angles place the directions in its image.
Candidates are drawn in blocks of at most `_DRAW_BLOCK`, so the working
set does not grow with the count, and a block that accepts nothing
raises instead of looping on a broken caller.  The returned sample
records how many draws were made (`attempts`) next to how many were
kept (`count`), so long campaigns can log the acceptance rate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

WEIGHT_FLOOR = 1e-6
# most candidates drawn at once: each holds its directions and a completeness
# system, so this bounds the sampler's working set at a few MB whatever the
# count; four-outcome draws are the same for any block size
_DRAW_BLOCK = 8192


@dataclass(frozen=True)
class RngStream:
    """Deterministic substream address: (seed, index)."""

    seed: int
    index: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.index,)))


def random_unit_vectors(rng: np.random.Generator, shape) -> Array:
    """Uniform points on the unit sphere; shape may be an int or tuple."""
    if isinstance(shape, int):
        shape = (shape,)
    v = rng.normal(size=(*shape, 3))
    while True:
        # np.linalg.norm's sum (a0^2 + a1^2) + a2^2, the same bits, with
        # temporaries a third of v's size; v is then normalized in place
        n = v[..., :1] ** 2
        n += v[..., 1:2] ** 2
        n += v[..., 2:] ** 2
        np.sqrt(n, out=n)
        bad = n[..., 0] < 1e-12
        if not bad.any():
            break
        # resample the measure-zero risk of a zero draw
        v[bad] = rng.normal(size=(int(bad.sum()), 3))
    v /= n
    return v


@dataclass(frozen=True, eq=False)
class ExtremalSample:
    """Batch of extremal POVMs plus rejection-sampling statistics."""

    weights: Array  # (S, O)
    blochs: Array  # (S, O, 3)
    attempts: int

    @property
    def count(self) -> int:
        return self.weights.shape[0]


def _random_planes(rng: np.random.Generator, count: int) -> tuple[Array, Array]:
    """Orthonormal pairs (e1, e2), each (count, 3), spanning uniformly random planes.

    The images of x and z under the rotation of a uniform unit
    quaternion (x, y, z, w), scalar last.
    """
    q = rng.normal(size=(count, 4))
    x, y, z, w = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    e1 = np.stack([x2 - y2 - z2 + w2, 2 * (x * y + z * w), 2 * (x * z - y * w)], axis=-1)
    e2 = np.stack([2 * (x * z + y * w), 2 * (y * z - x * w), -x2 - y2 + z2 + w2], axis=-1)
    return e1, e2


def _completeness_weights(coords: Array) -> tuple[Array, Array]:
    """Weights from completeness for (S, O, O - 1) outcome coordinates.

    Returns (weights, ok): rows of the linear system are sum w = 1 and
    sum w c = 0; draws with a near-singular system are marked not ok.
    """
    S, O, _ = coords.shape
    A = np.empty((S, O, O))
    A[:, 0, :] = 1.0
    A[:, 1:, :] = np.swapaxes(coords, 1, 2)
    b = np.zeros((S, O))
    b[:, 0] = 1.0
    det = np.abs(np.linalg.det(A))
    ok = det > 1e-12
    w = np.full((S, O), -1.0)
    if ok.any():
        w[ok] = np.linalg.solve(A[ok], b[ok, :, None])[..., 0]
    return w, ok


def random_extremal_povms(outcomes: int, count: int, rng: np.random.Generator) -> ExtremalSample:
    """Rejection-sample extremal POVMs with the given outcome count (3 or 4).

    Four outcomes: four uniform unit directions, weights solved from
    completeness.  Three outcomes: a uniformly random plane (random
    rotation of the xz-plane) and three uniform in-plane angles.  A draw
    is accepted when every solved weight exceeds 1e-6.  Candidates are
    drawn in blocks of at most `_DRAW_BLOCK`; a block that accepts
    nothing raises, which only happens for a broken caller.
    """
    if outcomes not in (3, 4):
        raise ValueError("extremal sampling supports 3 or 4 outcomes")
    if count < 1:
        raise ValueError("count must be positive")
    weights = np.empty((count, outcomes))
    blochs = np.empty((count, outcomes, 3))
    have = 0
    attempts = 0
    while have < count:
        batch = min(max(256, int(1.5 * (count - have))), _DRAW_BLOCK)
        attempts += batch
        if outcomes == 4:
            dirs = random_unit_vectors(rng, (batch, 4))
            w, ok = _completeness_weights(dirs)
        else:
            e1, e2 = _random_planes(rng, batch)
            ang = rng.uniform(0.0, 2.0 * np.pi, size=(batch, 3))
            cos_a, sin_a = np.cos(ang), np.sin(ang)
            w, ok = _completeness_weights(np.stack([cos_a, sin_a], axis=-1))
            dirs = cos_a[..., None] * e1[:, None, :] + sin_a[..., None] * e2[:, None, :]
        ok &= np.all(w > WEIGHT_FLOOR, axis=1)
        keep = np.flatnonzero(ok)[: count - have]
        if not keep.size:
            raise RuntimeError(f"extremal POVM sampling accepted none of a block of {batch} draws")
        weights[have : have + keep.size] = w[keep]
        blochs[have : have + keep.size] = dirs[keep]
        have += keep.size
    return ExtremalSample(weights, blochs, attempts)
