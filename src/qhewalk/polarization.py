"""Polarization qubits, encryption keys, and key-basis measurement.

A plaintext bit-string is carried on m photons, one per spatial mode: bit 0
is |H> (the walker polarization), bit 1 is |V> (dummy). Encryption rotates
every qubit by the same SU(2) element R(alpha, beta, gamma); decryption is a
measurement in the rotated basis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class KeyRangeError(ValueError):
    """Key parameters outside their documented ranges."""


class PlaintextError(ValueError):
    """Malformed plaintext bit-string."""


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


H = Polarization(1.0, 0.0)
V = Polarization(0.0, 1.0)


@dataclass(frozen=True)
class PolarizationKey:
    """Euler-angle triple selecting the encryption rotation."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 2 * np.pi):
            raise KeyRangeError(f"alpha must lie in [0, 2*pi), got {self.alpha}")
        if not (0.0 <= self.gamma < 2 * np.pi):
            raise KeyRangeError(f"gamma must lie in [0, 2*pi), got {self.gamma}")
        if not (0.0 <= self.beta <= np.pi):
            raise KeyRangeError(f"beta must lie in [0, pi], got {self.beta}")


def as_bits(plaintext) -> tuple[int, ...]:
    """Normalize a plaintext ('0111', [0,1,1,1], ...) to a tuple of bits."""
    if isinstance(plaintext, str):
        if not plaintext or any(c not in "01" for c in plaintext):
            raise PlaintextError(f"plaintext string must be nonempty over {{0,1}}: {plaintext!r}")
        return tuple(int(c) for c in plaintext)
    try:
        bits = tuple(int(b) for b in plaintext)
    except (TypeError, ValueError):
        raise PlaintextError(f"plaintext bits must be a nonempty 0/1 sequence: {plaintext!r}") from None
    if not bits or any(b not in (0, 1) for b in bits):
        raise PlaintextError(f"plaintext bits must be a nonempty 0/1 sequence: {plaintext!r}")
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


def rotation_matrix(key: PolarizationKey) -> np.ndarray:
    """2x2 unitary of the key; determinant 1 by construction."""
    return rotation_matrices(key.alpha, key.beta, key.gamma)


def linear_key(k: int, d: int) -> PolarizationKey:
    """Key rotating the linear-polarization plane by k*pi/d.

    The Euler triple is chosen so rotation_matrix gives exactly the real
    rotation [[cos t, -sin t], [sin t, cos t]] with t = k*pi/d while beta
    stays inside [0, pi]: angles past pi/2 fold over via alpha = gamma = pi.
    """
    if d < 1:
        raise KeyRangeError(f"d must be >= 1, got {d}")
    if not (0 <= k < d):
        raise KeyRangeError(f"k must satisfy 0 <= k < d, got k={k}, d={d}")
    theta = np.pi * k / d
    if theta <= np.pi / 2:
        return PolarizationKey(0.0, 2 * theta, 0.0)
    return PolarizationKey(np.pi, 2 * (np.pi - theta), np.pi)


def key_from_grid(k1: int, k2: int, k3: int, d1: int, d2: int, d3: int) -> PolarizationKey:
    """Key at one point of the (k1, k2, k3) sphere grid.

    alpha = 2*pi*k1/d1, gamma = 2*pi*k3/d3, and beta = 2*asin(sqrt(xi)) with
    xi = k2/(d2-1) so cos(beta) is uniform on [-1, 1] (area-uniform sampling);
    the degenerate d2 = 1 case is pinned to xi = 0.
    """
    xi = k2 / (d2 - 1) if d2 > 1 else 0.0
    return PolarizationKey(
        2 * np.pi * k1 / d1,
        2 * np.arcsin(np.sqrt(xi)),
        2 * np.pi * k3 / d3,
    )


def sample_haar_key(random_source, d1: int, d2: int, d3: int) -> PolarizationKey:
    """Draw a key uniformly from the discretized Haar grid."""
    if min(d1, d2, d3) < 1:
        raise KeyRangeError("grid sizes must be >= 1")
    k1 = int(random_source.integers(d1))
    k2 = int(random_source.integers(d2))
    k3 = int(random_source.integers(d3))
    return key_from_grid(k1, k2, k3, d1, d2, d3)


def encrypt(plaintext, key: PolarizationKey) -> list[Polarization]:
    """Rotate each plaintext qubit: bit 0 -> R|H>, bit 1 -> R|V>."""
    R = rotation_matrix(key)
    states = []
    for bit in as_bits(plaintext):
        col = R[:, bit]
        states.append(Polarization(complex(col[0]), complex(col[1])))
    return states


def projection_probability(state: Polarization, key: PolarizationKey) -> float:
    """Probability that a key-basis measurement of `state` yields bit 0."""
    R = rotation_matrix(key)
    amp = np.vdot(R[:, 0], state.vector)   # <H| R^dagger |state>
    return float(min(1.0, abs(amp) ** 2))
