"""Independent reference implementations used to cross-check the package.

Everything here except the test-only helpers at the end deliberately avoids
the package's own algorithms: transition probabilities come from expanding
creation-operator polynomials term by term (no permanents), and rotations
come from explicit matrix exponentials.
"""
import math
from itertools import combinations_with_replacement, permutations

import numpy as np
import scipy.linalg

from qhewalk.polarization import Polarization, linear_ensemble, projection_probability


def haar_unitary(m: int, rng) -> np.ndarray:
    """QR-based Haar sample (R-diagonal phase fix)."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def euler_rotation_expm(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """R = Rz(alpha) Ry(beta) Rz(gamma) with halved generators, via expm."""
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    sy = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
    rz = lambda t: scipy.linalg.expm(-0.5j * t * sz)
    ry = lambda t: scipy.linalg.expm(-0.5j * t * sy)
    return rz(alpha) @ ry(beta) @ rz(gamma)


def polynomial_distribution(U: np.ndarray, source) -> dict:
    """Multi-photon output law by direct polynomial multiplication.

    The input state is a product of linear forms sum_j U[j, i] a_j, one per
    photon; multiplying them out and collecting monomials a_1^t1...a_m^tm
    gives output amplitudes coeff * sqrt(prod t!) / sqrt(prod s!).
    """
    m = U.shape[0]
    poly = {(0,) * m: 1.0 + 0.0j}
    for i, count in enumerate(source):
        for _ in range(count):
            nxt = {}
            for mono, coeff in poly.items():
                for j in range(m):
                    amp = U[j, i]
                    if amp == 0:
                        continue
                    key = list(mono)
                    key[j] += 1
                    key = tuple(key)
                    nxt[key] = nxt.get(key, 0.0 + 0.0j) + coeff * amp
            poly = nxt
    s_fact = 1.0
    for c in source:
        s_fact *= math.factorial(c)
    out = {}
    for mono, coeff in poly.items():
        t_fact = 1.0
        for c in mono:
            t_fact *= math.factorial(c)
        amp = coeff * math.sqrt(t_fact) / math.sqrt(s_fact)
        out[mono] = abs(amp) ** 2
    return out


def distinguishable_distribution(U: np.ndarray, source) -> dict:
    """Output law of distinguishable photons by polynomial multiplication over |U|^2.

    Each photon independently leaves input mode i for output j with probability
    |U[j, i]|^2; multiplying the per-photon forms sum_j |U[j, i]|^2 x_j and
    collecting monomials x_1^t1...x_m^tm gives P(t) as the coefficient itself.
    """
    m = U.shape[0]
    weights = np.abs(U) ** 2
    poly = {(0,) * m: 1.0}
    for i, count in enumerate(source):
        for _ in range(count):
            nxt = {}
            for mono, coeff in poly.items():
                for j in range(m):
                    key = list(mono)
                    key[j] += 1
                    key = tuple(key)
                    nxt[key] = nxt.get(key, 0.0) + coeff * weights[j, i]
            poly = nxt
    return poly


def permanent_by_definition(A: np.ndarray) -> complex:
    """Textbook sum over permutations; exponential, for cross-checks only."""
    n = A.shape[0]
    total = 0.0 + 0.0j
    for perm in permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= A[i, j]
        total += term
    return total


def polar_factor_by_eigh(M: np.ndarray) -> np.ndarray:
    """Unitary polar factor M (M^dagger M)^(-1/2), refined by up to three eigh passes.

    Raises ValueError where M^dagger M has eigenvalues w_min <= 1e-13 w_max.
    """
    U = np.asarray(M, dtype=complex)
    n = U.shape[0]
    for _ in range(3):
        H = U.conj().T @ U
        w, V = np.linalg.eigh((H + H.conj().T) / 2.0)
        if w[-1] <= 0 or w[0] <= 1e-13 * w[-1]:
            raise ValueError("matrix is singular or numerically rank-deficient")
        U = U @ (V * (w ** -0.5)) @ V.conj().T
        if np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-13:
            break
    return U


def lm_by_scipy(fun, x0):
    """(x, cost) of scipy's MINPACK Levenberg-Marquardt, xtol = ftol = gtol = 1e-15."""
    from scipy.optimize import least_squares
    sol = least_squares(fun, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return sol.x, sol.cost


def jacobian_by_differences(fun, x) -> np.ndarray:
    """Central-difference Jacobian of fun at x, step eps^(1/3) max(1, |x_j|) per coordinate."""
    x = np.asarray(x, dtype=float)
    h = np.finfo(float).eps ** (1.0 / 3.0) * np.maximum(1.0, np.abs(x))
    return np.column_stack([(fun(x + hj * e) - fun(x - hj * e)) / (2.0 * hj)
                            for hj, e in zip(h, np.eye(x.size))])


def attack_by_rows(m: int, d: int, trials: int, random_source, chunk: int) -> float:
    """The random-basis attack's win rate, drawn in chunks of `chunk` trials and
    tallied row by row: a trial wins when all m of its uniforms fall below
    cos^2 of its key angle. Each chunk draws its key indices, then its uniforms."""
    angles = linear_ensemble(d).polar_angles()
    wins = 0
    for start in range(0, trials, chunk):
        n = min(chunk, trials - start)
        theta = angles[random_source.integers(0, d, size=n)]
        match_prob = np.cos(theta) ** 2
        wins += int(np.all(random_source.random((n, m)) < match_prob[:, None], axis=1).sum())
    return wins / trials


def counts_by_uniforms(law: dict, shots: int, random_source) -> dict:
    """Tally of `shots` outcomes of `law`, one uniform each from one stream:
    each uniform is located in the cumulative law. Zero counts are left out."""
    cumulative = np.cumsum(list(law.values()))
    cumulative[-1] = 1.0
    idx = np.searchsorted(cumulative, random_source.random(shots), side="right")
    totals = np.bincount(idx, minlength=len(law))
    return {outcome: int(c) for outcome, c in zip(law, totals) if c}


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def ensemble_rotations(ensemble) -> np.ndarray:
    """Every key rotation of a KeyEnsemble, shape (size, 2, 2).

    Each key is the product Rz(alpha) Ry(beta) Rz(gamma) of expm-built factors;
    linear:d rotates by k pi / d, i.e. beta = 2 pi k / d; poincare:d1,d2,d3 is
    the Euler grid alpha = 2 pi k1 / d1, cos(beta) uniform over d2 points (the
    pole when d2 = 1), gamma = 2 pi k3 / d3, in (k1, k2, k3) row-major order.
    """
    if ensemble.kind == "linear":
        d = ensemble.dims[0]
        return np.array([euler_rotation_expm(0.0, 2.0 * np.pi * k / d, 0.0) for k in range(d)])
    d1, d2, d3 = ensemble.dims
    rz_alpha = [euler_rotation_expm(2.0 * np.pi * k / d1, 0.0, 0.0) for k in range(d1)]
    ry_beta = [euler_rotation_expm(0.0, 2.0 * np.arcsin(np.sqrt(k / (d2 - 1) if d2 > 1 else 0.0)), 0.0)
               for k in range(d2)]
    rz_gamma = [euler_rotation_expm(0.0, 0.0, 2.0 * np.pi * k / d3) for k in range(d3)]
    out = np.einsum("aij,bjk,gkl->abgil", rz_alpha, ry_beta, rz_gamma)
    return out.reshape(-1, 2, 2)


def density_by_keys(x: str, rotations: np.ndarray) -> np.ndarray:
    """Key-averaged state of plaintext x: one product state per key, all keys at once.

    Bit 0 encrypts |H> (column 0 of the key), bit 1 encrypts |V> (column 1).
    """
    n = rotations.shape[0]
    psi = np.ones((n, 1), dtype=complex)
    for c in x:
        col = rotations[:, :, int(c)]
        psi = (psi[:, :, None] * col[:, None, :]).reshape(n, -1)
    return psi.T @ psi.conj() / n


def holevo_by_definition(m: int, ensemble) -> float:
    """S(mean_x rho_x) - mean_x S(rho_x) over all 2^m plaintexts, each density from every key."""
    def entropy(rho):
        lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        lam = lam[lam > 0.0]
        return float(-(lam * np.log2(lam)).sum())

    rotations = ensemble_rotations(ensemble)
    densities = [density_by_keys(format(idx, f"0{m}b"), rotations) for idx in range(2 ** m)]
    return entropy(sum(densities) / 2 ** m) - float(np.mean([entropy(rho) for rho in densities]))


def symmetric_basis(m: int) -> np.ndarray:
    """Rows are the m+1 symmetrized basis states |a_V>, ordered by V-count a.

    |a_V> is the normalized equal-amplitude superposition of all m-bit
    computational states with exactly a ones; shape (m+1, 2^m).
    """
    out = np.zeros((m + 1, 2 ** m))
    for idx in range(2 ** m):
        out[bin(idx).count("1"), idx] = 1.0
    return out / np.sqrt(out.sum(axis=1, keepdims=True))


def occupation_states_by_loop(m: int, n: int) -> list:
    """Every n-photon occupation of m modes, one multiset of modes at a time, in
    combinations_with_replacement order."""
    states = []
    for modes in combinations_with_replacement(range(m), n):
        occ = [0] * m
        for j in modes:
            occ[j] += 1
        states.append(tuple(occ))
    return states


def occupation_label(occ) -> str:
    """'[c,c,...]' label of one occupation, joined from its counts."""
    return "[" + ",".join(str(int(c)) for c in occ) + "]"


def postselect_by_dict(law: dict) -> tuple:
    """(bit-string law, collision weight) of a law or tally, one outcome at a time.

    Collision-free outcomes are renamed to bit-strings (walker = bit 0) and
    renormalized; kept and collision weights are summed in the law's order.
    """
    kept = {"".join("0" if c == 1 else "1" for c in occ): w
            for occ, w in law.items() if max(occ) <= 1}
    collision = sum(w for occ, w in law.items() if max(occ) > 1)
    total = sum(kept.values())
    if not total:
        return {}, collision
    return {b: w / total for b, w in kept.items()}, collision


def fidelity_by_dict(p: dict, q: dict) -> float:
    """Bhattacharyya fidelity, one math.sqrt per key of the sorted union, capped at 1."""
    keys = sorted(set(p) | set(q))
    f = sum(math.sqrt(max(p.get(k, 0.0), 0.0) * max(q.get(k, 0.0), 0.0)) for k in keys)
    return float(min(1.0, f))


# ---------------------------------------------------------------------------
# Helpers only tests use; the polarization ones are built on the package's types.

def qudit_hidden_info(a: int, m: int) -> float:
    """Hidden bits when each photon carries an a-level mode instead of polarization."""
    if m < 1 or a < m:
        raise ValueError("need a >= m >= 1")
    return float(m * math.log2(a / m) + m / math.log(2))


def implied_mutual_information(p: float, m: int) -> float:
    """Bits/trial a guess-the-string channel with success probability p conveys.

    Models the attack as a symmetric channel: correct string with probability
    p, any of the other 2^m - 1 uniformly otherwise. I = m - H(error pattern).
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be a probability, got {p}")
    if m < 1:
        raise ValueError("m must be >= 1")
    out = float(m)
    if p > 0.0:
        out += p * math.log2(p)
    if p < 1.0:
        out += (1.0 - p) * math.log2((1.0 - p) / (2 ** m - 1))
    return out


H = Polarization(1.0, 0.0)
V = Polarization(0.0, 1.0)
D = Polarization(1 / np.sqrt(2), 1 / np.sqrt(2))
A = Polarization(1 / np.sqrt(2), -1 / np.sqrt(2))


def measure_in_key_basis(state: Polarization, key, random_source) -> int:
    """Sample one bit from a measurement in the rotated {X, X_perp} basis."""
    p0 = projection_probability(state, key)
    return 0 if random_source.random() < p0 else 1
