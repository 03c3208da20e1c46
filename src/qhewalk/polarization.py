"""Polarization qubits, encryption keys, and key-basis measurement.

A plaintext bit-string is carried on m photons, one per spatial mode: bit 0
is |H> (the walker polarization), bit 1 is |V> (dummy). Encryption rotates
every qubit by the same SU(2) element R(alpha, beta, gamma); decryption is a
measurement in the rotated basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Polarization:
    """Pure polarization state (Jones vector) in the {|H>, |V>} basis."""

    amplitude_h: complex
    amplitude_v: complex

    def __post_init__(self):
        norm = abs(self.amplitude_h) ** 2 + abs(self.amplitude_v) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"Jones vector not normalized: |a|^2 = {norm!r}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.amplitude_h, self.amplitude_v], dtype=complex)


@dataclass(frozen=True)
class PolarizationKey:
    """Euler-angle triple selecting the encryption rotation."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 2 * np.pi):
            raise ValueError(f"alpha must lie in [0, 2*pi), got {self.alpha}")
        if not (0.0 <= self.gamma < 2 * np.pi):
            raise ValueError(f"gamma must lie in [0, 2*pi), got {self.gamma}")
        if not (0.0 <= self.beta <= np.pi):
            raise ValueError(f"beta must lie in [0, pi], got {self.beta}")


def as_bits(plaintext) -> tuple[int, ...]:
    """Normalize a plaintext ('0111', [0,1,1,1], ...) to a tuple of bits."""
    if isinstance(plaintext, str):
        if not plaintext or any(c not in "01" for c in plaintext):
            raise ValueError(f"plaintext string must be nonempty over {{0,1}}: {plaintext!r}")
        return tuple(int(c) for c in plaintext)
    try:
        bits = tuple(int(b) for b in plaintext)
    except (TypeError, ValueError):
        raise ValueError(f"plaintext bits must be a nonempty 0/1 sequence: {plaintext!r}") from None
    if not bits or any(b not in (0, 1) for b in bits):
        raise ValueError(f"plaintext bits must be a nonempty 0/1 sequence: {plaintext!r}")
    return bits


def rotation_matrices(alpha, beta, gamma) -> np.ndarray:
    """Vectorized R(alpha, beta, gamma) = Rz(alpha) Ry(beta) Rz(gamma).

    Accepts scalars or broadcastable arrays; returns shape (..., 2, 2).
    """
    alpha, beta, gamma = np.broadcast_arrays(
        np.asarray(alpha, float), np.asarray(beta, float), np.asarray(gamma, float))
    ch, sh = np.cos(beta / 2), np.sin(beta / 2)
    out = np.empty(alpha.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = ch * np.exp(-0.5j * (alpha + gamma))
    out[..., 0, 1] = -sh * np.exp(-0.5j * (alpha - gamma))
    out[..., 1, 0] = sh * np.exp(0.5j * (alpha - gamma))
    out[..., 1, 1] = ch * np.exp(0.5j * (alpha + gamma))
    return out


# at this grid and m = 8 a density builds (polar grid) x 25 real amplitudes at most, about
# 23 MB, on every route
MAX_POLAR_GRID = 65536


@dataclass(frozen=True)
class KeyEnsemble:
    """Discrete key set: the sender draws from it, the adversary averages over it.

    kind "linear": d rotations by theta_k = k*pi/d in the H/V plane.
    kind "poincare": a (d1, d2, d3) Euler grid with alpha = 2*pi*k1/d1,
    gamma = 2*pi*k3/d3 and beta = 2*theta, theta = asin(sqrt(k2/(d2-1))), so
    cos(beta) is uniform on [-1, 1] (d2 = 1 gives the pole). Only the polar
    grid (d, or d2) costs a density anything, so MAX_POLAR_GRID bounds it alone.
    """

    kind: str
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("linear", "poincare"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        want = 1 if self.kind == "linear" else 3
        if len(self.dims) != want:
            raise ValueError(f"{self.kind} ensemble takes {want} grid size(s), got {self.dims}")
        if any(int(d) != d or d < 1 for d in self.dims):
            raise ValueError(f"ensemble grid sizes must be integers >= 1, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.polar_size > MAX_POLAR_GRID:
            raise ValueError(f"ensemble {self.label} has a polar grid of {self.polar_size} "
                                f"angles; at most {MAX_POLAR_GRID} supported")

    @property
    def size(self) -> int:
        return math.prod(self.dims)  # an int: numpy's product wraps past 2^63

    @property
    def polar_size(self) -> int:
        return self.dims[0] if self.kind == "linear" else self.dims[1]

    @property
    def label(self) -> str:
        return f"{self.kind}:{','.join(str(d) for d in self.dims)}"

    def polar_angles(self, k=None):
        """theta = beta/2 at polar index k, or at every polar index when k is None."""
        d = self.polar_size
        k = np.arange(d) if k is None else k
        if self.kind == "linear":
            return k * (np.pi / d)
        return np.arcsin(np.sqrt(k / max(d - 1, 1)))  # d2 = 1: index 0, the pole

    def key(self, *index) -> PolarizationKey:
        """Key at grid point (k,) of linear:d or (k1, k2, k3) of poincare:d1,d2,d3.

        A linear key is exactly the real rotation by theta. Past a quarter turn
        (2k > d, decided on the index) it folds over via alpha = gamma = pi so
        beta stays inside [0, pi]; a quarter turn is beta = pi, not 2*theta +- ulp.
        """
        if len(index) != len(self.dims) or not all(0 <= k < d for k, d in zip(index, self.dims)):
            raise ValueError(f"grid point {index} outside ensemble {self.label}")
        if self.kind == "linear":
            (k,), (d,) = index, self.dims
            if 2 * k > d:
                return PolarizationKey(np.pi, 2 * (np.pi - self.polar_angles(k)), np.pi)
            return PolarizationKey(0.0, np.pi if 2 * k == d else 2 * self.polar_angles(k), 0.0)
        (k1, k2, k3), (d1, _, d3) = index, self.dims
        return PolarizationKey(2 * np.pi * k1 / d1, 2 * self.polar_angles(k2), 2 * np.pi * k3 / d3)

    def sample(self, random_source) -> PolarizationKey:
        """Draw a key uniformly from the grid, one int64 draw per axis in order."""
        if max(self.dims) > 2 ** 63:
            raise ValueError(f"ensemble {self.label}: keys are drawn from axes of at most 2^63 points")
        return self.key(*(int(random_source.integers(d)) for d in self.dims))


def linear_ensemble(d: int) -> KeyEnsemble:
    return KeyEnsemble("linear", (d,))


def poincare_ensemble(d1: int, d2: int, d3: int) -> KeyEnsemble:
    return KeyEnsemble("poincare", (d1, d2, d3))


def parse_grid(text: str) -> tuple[int, ...]:
    """Comma-separated grid integers: "64,64,64" -> (64, 64, 64)."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"grid entries must be integers, got {text!r}") from None


def parse_ensemble(text: str) -> KeyEnsemble:
    """Parse "linear:180" or "poincare:64,64,64"."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"ensemble must look like 'linear:<d>' or 'poincare:<d1>,<d2>,<d3>', got {text!r}")
    try:
        dims = parse_grid(rest)
    except ValueError as exc:
        raise ValueError(f"ensemble {text!r}: {exc}") from None
    return KeyEnsemble(kind, dims)


def sample_haar_key(random_source, d1: int, d2: int, d3: int) -> PolarizationKey:
    """Draw a key uniformly from the discretized Haar grid poincare:d1,d2,d3."""
    return poincare_ensemble(d1, d2, d3).sample(random_source)


def encrypt(plaintext, key: PolarizationKey) -> list[Polarization]:
    """Rotate each plaintext qubit: bit 0 -> R|H>, bit 1 -> R|V>."""
    R = rotation_matrices(key.alpha, key.beta, key.gamma)
    states = []
    for bit in as_bits(plaintext):
        col = R[:, bit]
        states.append(Polarization(complex(col[0]), complex(col[1])))
    return states


def projection_probability(state: Polarization, key: PolarizationKey) -> float:
    """Probability that a key-basis measurement of `state` yields bit 0."""
    R = rotation_matrices(key.alpha, key.beta, key.gamma)
    amp = np.vdot(R[:, 0], state.vector)   # <H| R^dagger |state>
    return float(min(1.0, abs(amp) ** 2))
