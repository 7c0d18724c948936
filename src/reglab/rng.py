"""Deterministic sampling: a splitmix-style 64-bit generator plus shell samplers.

Every stochastic routine in the package draws from :class:`SplitMix64` so that
results are reproducible across platforms and numpy versions.  Child streams
are derived from a root seed and a text label (``derive_seed``), never from
global state.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# plastic-constant coordinates for the 2D low-discrepancy (R2) sequence
_R2_ALPHA = (0.7548776662466927, 0.5698402909980532)


class SplitMix64:
    """Tiny, fast, platform-independent PRNG (splitmix64 scrambler)."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53-bit mantissa draw in [0, 1)
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return self.next_u64() % n

    def uniform_vector(self, dim: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(dim)])

    def unit_vector(self, dim: int) -> np.ndarray:
        """Direction on the euclidean unit sphere (rejection from the cube)."""
        if dim == 1:
            return np.array([1.0 if self.uniform() < 0.5 else -1.0])
        while True:
            v = self.uniform_vector(dim)
            n = float(np.linalg.norm(v))
            if 1e-4 < n <= 1.0:
                return v / n

    def in_ball(self, center: np.ndarray, radius: float, norm: str = "euclidean") -> np.ndarray:
        """Point of the closed ball B[center, radius]."""
        center = np.asarray(center, dtype=float)
        dim = center.size
        if norm == "max" or dim == 1:
            return center + self.uniform_vector(dim, -radius, radius)
        while True:
            v = self.uniform_vector(dim)
            if float(np.linalg.norm(v)) <= 1.0:
                return center + radius * v


def derive_seed(seed: int, label: str) -> int:
    """Deterministic child seed for a named sampling task."""
    h = 0xCBF29CE484222325
    for ch in label.encode("utf-8"):
        h = ((h ^ ch) * 0x100000001B3) & _MASK64
    return SplitMix64((int(seed) & _MASK64) ^ h).next_u64()


def shell_magnitudes(r_lo: float, r_hi: float, count: int) -> np.ndarray:
    """Equispaced magnitudes in (r_lo, r_hi], dense toward the outer radius."""
    if count <= 1:
        return np.array([r_hi])
    return np.linspace(r_lo + (r_hi - r_lo) / count, r_hi, count)


def shell_points_1d(center: float, r_lo: float, r_hi: float, count: int) -> np.ndarray:
    """Deterministic 1D annulus sample: ± magnitudes around ``center``."""
    mags = shell_magnitudes(r_lo, r_hi, max(1, count // 2))
    pts = np.concatenate([center + mags, center - mags])
    return pts[:count] if count < pts.size else pts


def shell_points(center: np.ndarray, r_lo: float, r_hi: float, count: int, seed: int) -> list[np.ndarray]:
    """Annulus sample around ``center`` with r_lo < |p - center| <= r_hi.

    1D is deterministic equispaced; 2D uses a seeded R2 low-discrepancy
    sequence; higher dimensions fall back to seeded rejection.
    """
    center = np.asarray(center, dtype=float)
    dim = center.size
    if dim == 1:
        return [np.array([p]) for p in shell_points_1d(float(center[0]), r_lo, r_hi, count)]
    rng = SplitMix64(seed)
    if dim == 2:
        off = (rng.uniform(), rng.uniform())
        out = []
        k = 0
        while len(out) < count and k < 40 * count:
            u = ((off[0] + (k + 1) * _R2_ALPHA[0]) % 1.0, (off[1] + (k + 1) * _R2_ALPHA[1]) % 1.0)
            theta = 2.0 * math.pi * u[0]
            # area-uniform radius within the annulus
            r = math.sqrt(r_lo**2 + (r_hi**2 - r_lo**2) * u[1])
            out.append(center + r * np.array([math.cos(theta), math.sin(theta)]))
            k += 1
        return out
    out = []
    guard = 0
    while len(out) < count and guard < 200 * count:
        p = rng.in_ball(center, r_hi)
        if np.linalg.norm(p - center) > r_lo:
            out.append(p)
        guard += 1
    return out


def sphere_directions(dim: int, count: int, seed: int, norm: str = "euclidean") -> list[np.ndarray]:
    """Unit directions; exhaustive for 1D, equiangular for 2D, seeded otherwise.

    For the max norm the directions are rescaled onto the unit cube surface,
    so square corners are probed (the 2D set contains them exactly when
    count is a multiple of 8).
    """
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])]
    if dim == 2:
        dirs = [
            np.array([math.cos(2 * math.pi * k / count), math.sin(2 * math.pi * k / count)])
            for k in range(count)
        ]
    else:
        rng = SplitMix64(seed)
        dirs = [rng.unit_vector(dim) for _ in range(count)]
    if norm == "max":
        dirs = [d / np.abs(d).max() for d in dirs]
    return dirs
