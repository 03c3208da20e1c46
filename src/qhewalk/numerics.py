"""Complex linear algebra kernels: permanents, Hermitian spectra, polar projection.

Everything downstream (walk statistics, entropies, trace distances, device
re-unitarization) funnels through the routines in this module.
"""
from __future__ import annotations

import math
import reprlib
from contextlib import suppress
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

import numpy as np

RYSER_MAX_DIM = 16
NAIVE_MAX_DIM = 8
UNITARY_TOL = 1e-8     # max |U^dagger U - I| accepted as unitary
HERMITIAN_TOL = 1e-10  # max |H - H^dagger| accepted as Hermitian


class HermitianEigen(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending


def _as_square(matrix, name: str) -> np.ndarray:
    M = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def finite_number(value, field: str) -> float:
    """value as a float if it is a finite int or float (not a bool); else a ValueError naming field."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"{field} must be a finite number, got {reprlib.repr(value)}")  # ~40 chars at most


def positive_int(value, field: str) -> int:
    """value if it is an int (not a bool) >= 1; else a ValueError naming field."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{field} must be an integer >= 1, got {value!r}")
    return value


def finite_grid(value, shape: tuple[int, ...], field: str) -> np.ndarray:
    """value, nested lists of the given shape, as a float array if every leaf passes finite_number.

    One vectorized pass checks the grid; only a bad one is walked, to name its first
    list of the wrong length or bad leaf as field[j][i]..."""
    with suppress(TypeError, ValueError, OverflowError):
        cells = np.array(value, dtype=object)
        grid = cells.astype(float)
        if cells.shape == shape and np.isfinite(grid).all() and all(
                issubclass(t, (int, float)) and t is not bool for t in set(map(type, cells.flat))):
            return grid
    _grid_fault(value, shape, field)


def _grid_fault(value, shape, field):
    """Raise the ValueError naming the first list of the wrong length or bad leaf in value."""
    if not shape:
        return finite_number(value, field)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ValueError(f"{field} must be a list of {shape[0]} entries")
    for i, entry in enumerate(value):
        _grid_fault(entry, shape[1:], f"{field}[{i}]")


def make_rng(seed: int) -> np.random.Generator:
    """Single seed -> counter-based generator: the one place a seed becomes a stream."""
    if seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def require_unitary(U) -> np.ndarray:
    """U in its own real or complex dtype, after checking it is square, finite and unitary."""
    M = _as_square(U, "matrix")
    defect = float(np.max(np.abs(M.conj().T @ M - np.eye(M.shape[0]))))
    if defect > UNITARY_TOL:
        raise ValueError(
            f"matrix is not unitary: max |U^t U - I| = {defect:.3e} > {UNITARY_TOL:.1e}")
    return M


def permanent(matrix) -> complex:
    """Matrix permanent via the Ryser formula, summed over all column subsets at once.

    Per(A) = (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} A[i, j]. The row sums of
    every subset come from one product with a cached 0/1 selection matrix.
    Cost is O(2^n * n^2) time and two 2^n x n complex arrays (16 MB each at
    n = 16); dimensions above RYSER_MAX_DIM are rejected.
    """
    M = _as_square(matrix, "matrix")
    n = M.shape[0]
    if n > RYSER_MAX_DIM:
        raise ValueError(f"permanent limited to n <= {RYSER_MAX_DIM}, got {n}")
    select, signs = _subsets(n)
    total = (M @ select.T).prod(axis=0) @ signs
    return complex(total if (n & 1) == 0 else -total)


@lru_cache(maxsize=RYSER_MAX_DIM + 1)
def _subsets(k: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 matrix whose rows select every subset of k columns, and each subset's (-1)^|S|."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    select, signs = bits.astype(complex), 1.0 - 2.0 * (bits.sum(axis=1) & 1)
    select.flags.writeable = signs.flags.writeable = False  # shared by every caller
    return select, signs


def permanent_naive(matrix) -> complex:
    """Permanent by direct O(n! * n) expansion over permutations.

    Independent reference implementation used to cross-check the Ryser path;
    kept deliberately dumb and capped at n <= 8.
    """
    M = _as_square(matrix, "matrix")
    n = M.shape[0]
    if n > NAIVE_MAX_DIM:
        raise ValueError(f"naive permanent limited to n <= {NAIVE_MAX_DIM}, got {n}")
    if n == 0:
        return complex(1.0)
    rows = range(n)
    return complex(sum(np.prod([M[i, s[i]] for i in rows]) for s in permutations(rows)))


def hermitian_eig(H) -> HermitianEigen:
    """Spectrum of a Hermitian matrix, eigenvalues ascending.

    Rejects inputs whose max elementwise asymmetry |H - H^dagger| exceeds HERMITIAN_TOL.
    One scratch array holds the asymmetry and then the symmetrized matrix; H is
    never written.
    """
    M = _as_square(H, "H")
    work = np.empty_like(M)
    np.subtract(M, np.conjugate(M.T, out=work), out=work)
    # |z| lands in the real part of a complex scratch array; the imaginary part is 0
    asym = float(np.abs(work, out=work).real.max()) if M.size else 0.0
    if asym > HERMITIAN_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} > {HERMITIAN_TOL:.1e}")
    # symmetrize first so roundoff-scale asymmetry cannot leak into the solver
    np.add(M, np.conjugate(M.T, out=work), out=work)
    work /= 2.0
    return HermitianEigen(np.linalg.eigvalsh(work))


def unitarize(M) -> np.ndarray:
    """Closest unitary to M in Frobenius norm (the unitary polar factor).

    With M = W diag(s) V^dagger, the factor is W V^dagger. Singular input
    (s_min^2 <= 1e-13 s_max^2) is rejected.
    """
    A = _as_square(M, "M")
    if A.shape[0] == 0:
        return A.copy()
    W, s, Vh = np.linalg.svd(A)
    if s[-1] ** 2 <= 1e-13 * s[0] ** 2:
        raise ValueError("matrix is singular or numerically rank-deficient")
    return W @ Vh
