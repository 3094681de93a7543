"""Seeded random generation of strategies and extremal POVMs.

Everything here draws from a numpy Generator.  `RngStream` is the seed
carrier used across the package: a (seed, index) pair that maps to a
`SeedSequence` spawn, so independent consumers (optimizer restarts,
sampling campaigns, noise simulation) get reproducible, non-overlapping
streams without sharing generator state.  Batch functions draw in a
fixed order, so a full run is bit-reproducible given the seed and the
batch sizes.

Extremal POVM sampling follows the rejection scheme: draw unit Bloch
directions uniformly (for three outcomes, inside a uniformly random
plane), solve the completeness constraints for the weights, and reject
draws with any weight <= 1e-6.  The returned sample records how many
draws were made (`attempts`) next to how many were kept (`count`), so
long campaigns can log the acceptance rate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

Array = np.ndarray

WEIGHT_FLOOR = 1e-6
MAX_REJECTIONS = 1_000_000


@dataclass(frozen=True)
class RngStream:
    """Deterministic substream address: (seed, index)."""

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.index,)))

    def derived(self, index: int) -> "RngStream":
        """Sibling stream with a different index under the same seed."""
        return RngStream(self.seed, index)


def _rng(source) -> np.random.Generator:
    if isinstance(source, np.random.Generator):
        return source
    if isinstance(source, RngStream):
        return source.generator()
    return np.random.default_rng(source)


def random_unit_vectors(rng, shape) -> Array:
    """Uniform points on the unit sphere; shape may be an int or tuple."""
    rng = _rng(rng)
    if isinstance(shape, int):
        shape = (shape,)
    v = rng.normal(size=(*shape, 3))
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    # resample the measure-zero risk of a zero draw
    while np.any(n < 1e-12):
        bad = n[..., 0] < 1e-12
        v[bad] = rng.normal(size=(int(bad.sum()), 3))
        n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / n


@dataclass(frozen=True, eq=False)
class ExtremalSample:
    """Batch of extremal POVMs plus rejection-sampling statistics."""

    weights: Array  # (S, O)
    blochs: Array  # (S, O, 3)
    attempts: int

    @property
    def count(self) -> int:
        return self.weights.shape[0]


def solve_weights_directions(blochs: Array) -> tuple[Array, Array]:
    """Weights from completeness for (S, 4, 3) unit directions.

    Returns (weights, ok): rows of the linear system are sum w = 1 and
    sum w n = 0; draws with a near-singular system are marked not ok.
    """
    S = blochs.shape[0]
    A = np.empty((S, 4, 4))
    A[:, 0, :] = 1.0
    A[:, 1:, :] = np.swapaxes(blochs, 1, 2)
    b = np.zeros((S, 4))
    b[:, 0] = 1.0
    det = np.abs(np.linalg.det(A))
    ok = det > 1e-12
    w = np.full((S, 4), -1.0)
    if ok.any():
        w[ok] = np.linalg.solve(A[ok], b[ok, :, None])[..., 0]
    return w, ok


def solve_weights_inplane(cos_a: Array, sin_a: Array) -> tuple[Array, Array]:
    """Weights for (S, 3) in-plane angles; system rows: sum w = 1, sum w e = 0."""
    S = cos_a.shape[0]
    A = np.empty((S, 3, 3))
    A[:, 0, :] = 1.0
    A[:, 1, :] = cos_a
    A[:, 2, :] = sin_a
    b = np.zeros((S, 3))
    b[:, 0] = 1.0
    det = np.abs(np.linalg.det(A))
    ok = det > 1e-12
    w = np.full((S, 3), -1.0)
    if ok.any():
        w[ok] = np.linalg.solve(A[ok], b[ok, :, None])[..., 0]
    return w, ok


def random_extremal_povms(outcomes: int, count: int, rng) -> ExtremalSample:
    """Rejection-sample extremal POVMs with the given outcome count (3 or 4).

    Four outcomes: four uniform unit directions, weights solved from
    completeness.  Three outcomes: a uniformly random plane (random
    rotation of the xz-plane) and three uniform in-plane angles.  A draw
    is accepted when every solved weight exceeds 1e-6.  Raises after
    1e6 rejected draws, which only happens for a broken caller.
    """
    if outcomes not in (3, 4):
        raise ValueError("extremal sampling supports 3 or 4 outcomes")
    if count < 1:
        raise ValueError("count must be positive")
    rng = _rng(rng)
    got_w: list[Array] = []
    got_n: list[Array] = []
    have = 0
    attempts = 0
    while have < count:
        batch = max(256, int(1.5 * (count - have)))
        if attempts - have > MAX_REJECTIONS:
            raise RuntimeError(
                f"extremal POVM sampling rejected more than {MAX_REJECTIONS} draws"
            )
        attempts += batch
        if outcomes == 4:
            dirs = random_unit_vectors(rng, (batch, 4))
            w, ok = solve_weights_directions(dirs)
        else:
            frames = Rotation.random(batch, random_state=rng).as_matrix()  # (B, 3, 3)
            e1 = frames[:, :, 0]
            e2 = frames[:, :, 2]  # random image of the xz-plane
            ang = rng.uniform(0.0, 2.0 * np.pi, size=(batch, 3))
            cos_a, sin_a = np.cos(ang), np.sin(ang)
            w, ok = solve_weights_inplane(cos_a, sin_a)
            dirs = cos_a[..., None] * e1[:, None, :] + sin_a[..., None] * e2[:, None, :]
        ok &= np.all(w > WEIGHT_FLOOR, axis=1)
        if ok.any():
            got_w.append(w[ok])
            got_n.append(dirs[ok])
            have += int(ok.sum())
    weights = np.concatenate(got_w)[:count]
    blochs = np.concatenate(got_n)[:count]
    return ExtremalSample(weights, blochs, attempts)
