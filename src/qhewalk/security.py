"""Adversary-side analysis of the encrypted walk.

Everything here takes the eavesdropper's point of view: the mixed state they
see when the key is unknown, how many plaintext bits that state hides
(Holevo quantity), how well plaintexts can be told apart (trace distance),
and the success probability of the measure-in-a-random-basis attack.

Key averages factorize over the Euler grid. Column b of R(alpha, beta, gamma)
is e^{(2b-1) i gamma/2} e^{-i alpha/2} diag(1, e^{i alpha}) times column b of the
real rotation [[cos t, -sin t], [sin t, cos t]] with t = beta/2. So gamma is
a global phase and cancels in |psi><psi|, and alpha multiplies entry (s, s')
by e^{i alpha (|s| - |s'|)}, |s| being the popcount of basis index s. The
mean over alpha_k = 2 pi k / d1 is 1 where d1 divides |s| - |s'| and 0
elsewhere. A density is therefore a real average over the polar angle alone,
masked for full-sphere keys, independent of d1 * d3. The state of plaintext
0^(m-w) 1^w lies in span{|a,b>} (a ones among the first m-w qubits, b among the
last w), of D = (m-w+1)(w+1) <= 25 dimensions at m = 8, so its density costs
O(d D^2) for linear:d and O(d2 D^2) for poincare:d1,d2,d3. Any plaintext of
weight w is that density with its qubits permuted, written out in 2^m dimensions.
"""
from __future__ import annotations

import math

import numpy as np

from .numerics import finite_number, hermitian_eig
# the key grids live in polarization; MAX_POLAR_GRID and poincare_ensemble are re-exported here
from .polarization import (MAX_POLAR_GRID, KeyEnsemble, as_bits,  # noqa: F401
                           linear_ensemble, poincare_ensemble)

MAX_QUBITS = 8
# a density's eigenvalues may dip this far below 0 and its trace stray this far from 1
DENSITY_TOL = 1e-10
# the input contract on attack trials, far inside the int64 range of multinomial
MAX_TRIALS = 10 ** 12
# the exact attack sum takes O(m^2) time: under 0.1 s at this m, 1.5 s at 5 * 10^4
MAX_ATTACK_QUBITS = 10 ** 4


def require_qubits(m: int) -> None:
    """A density of m qubits is a 2^m x 2^m matrix: 1 <= m <= MAX_QUBITS."""
    if not 1 <= m <= MAX_QUBITS:
        raise ValueError(f"m must lie in [1, {MAX_QUBITS}] for a 2^m-dimensional density, got {m}")


def encrypted_density(x, ensemble: KeyEnsemble) -> np.ndarray:
    """Mixed state of the encrypted plaintext x, averaged over the key ensemble.

    rho_x = (1/N) sum_k (x) R_k |P_x> <P_x| R_k^t, a 2^m x 2^m Hermitian unit-trace
    matrix, returned as a real symmetric float64 array. Basis state s, with a ones
    where x has zeros and b where x has ones, carries 1/sqrt(C(m-w, a) C(w, b)) of
    every key's amplitude on |a,b>, so rho_x is _weight_density(m, w) written out.
    """
    bits = as_bits(x)
    m, w = len(bits), sum(bits)
    require_qubits(m)
    ones = np.array(bits, dtype=bool)
    s = (np.arange(2 ** m)[:, None] >> np.arange(m - 1, -1, -1)) & 1  # qubit 0 is the top bit
    a, b = s[:, ~ones].sum(axis=1), s[:, ones].sum(axis=1)
    scale = 1 / np.sqrt([float(math.comb(m - w, i) * math.comb(w, j)) for i, j in zip(a, b)])
    index = a * (w + 1) + b
    rho = _weight_density(m, w, ensemble, ensemble.polar_rotations())[np.ix_(index, index)]
    rho *= scale[:, None]
    rho *= scale
    return rho


def _weight_density(m: int, w: int, ensemble: KeyEnsemble, rotations: np.ndarray,
                    tail: int = 1) -> np.ndarray:
    """Density of 0^(m-w) tail^w in the basis |a,b> of the module docstring, index a (w+1) + b.

    rotations: ensemble.polar_rotations(). n qubits carrying bit column (u, v) encrypt to
    sum_j sqrt(C(n, j)) u^(n-j) v^j |j ones>. tail = 0 writes rho_0 in rho_w's basis."""
    phi, pop = np.ones((len(rotations), 1)), np.zeros(1, dtype=int)
    for n, bit in ((m - w, 0), (w, tail)):
        j = np.arange(n + 1)
        amp = np.sqrt([float(math.comb(n, k)) for k in j]) * (
            rotations[:, :1, bit] ** (n - j) * rotations[:, 1:, bit] ** j)
        phi = (phi[:, :, None] * amp[:, None, :]).reshape(len(phi), -1)
        pop = (pop[:, None] + j).ravel()
    rho = phi.T @ phi
    rho /= len(rotations)
    if ensemble.kind == "poincare":
        # popcounts a + b differ by at most m: any d1 > m keeps what modulus m + 1 keeps
        residue = pop % min(ensemble.dims[0], m + 1)
        rho *= residue[:, None] == residue[None, :]
    return rho


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -Tr(rho log2 rho) in bits; roundoff-negative eigenvalues clamp to 0."""
    lam = hermitian_eig(rho).eigenvalues
    if lam[0] < -DENSITY_TOL:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lam[0]:.3e}")
    trace = float(lam.sum())
    if abs(trace - 1.0) > DENSITY_TOL:
        raise ValueError(f"trace must be 1, got {trace!r}")
    lam = np.clip(lam, 0.0, None)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())


def weight_class_figures(m: int, ensemble: KeyEnsemble, entropies: int, distances: int):
    """S(rho_w) for w < entropies and T(rho_0, rho_w) for 1 <= w <= distances, as two lists.

    rho_w, the density of plaintext 0^(m-w) 1^w, is built once, in its weight basis."""
    require_qubits(m)  # the security report's one check of m, before any density is built
    if not (0 <= entropies <= m + 1 and 0 <= distances <= m):
        raise ValueError(f"weights run over 0..{m}: {entropies} entropies, {distances} distances")
    S, T, rotations = [], [], ensemble.polar_rotations()  # one key table for the pass
    for w in range(0 if entropies else 1, max(entropies, distances + 1)):  # rho_0 if an entropy reads it
        rho = _weight_density(m, w, ensemble, rotations)
        if w < entropies:
            S.append(von_neumann_entropy(rho))
        if 1 <= w <= distances:  # rho_0 written in rho_w's basis
            T.append(trace_distance(_weight_density(m, w, ensemble, rotations, tail=0), rho))
    return S, T


def holevo(m: int, entropies) -> float:
    """Holevo quantity of the uniform plaintext source, S(mean_x rho_x) - mean_x S(rho_x).

    The mean of all 2^m densities is I/2^m (each key's basis resolves the identity),
    and S(rho_x) depends only on the weight of x (qubit permutations keep the key
    average), so chi = m - sum_w C(m, w) 2^-m entropies[w], with entropies the first
    list of weight_class_figures(m, ensemble, m + 1, 0). For key sets closed under the
    plaintext flip chi is m - S(rho_0), the security report's holevo_bits.
    """
    if len(entropies) != m + 1:
        raise ValueError(f"holevo needs {m + 1} weight-class entropies, got {len(entropies)}")
    total = 0.0
    for w, entropy in enumerate(entropies):
        total += math.comb(m, w) * entropy
    return m - total / 2 ** m


def holevo_poincare_limit(m) -> float:
    """Accessible bits for full-sphere keys in the dense-grid limit: m - log2(m+1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return float(m - math.log2(m + 1))


def hidden_bits_linear_asymptotic(m) -> float:
    """Large-m entropy of the encrypted all-zero string under linear keys: 1/2 log2(pi e m / 2)."""
    if m <= 0:
        raise ValueError("m must be positive")
    return 0.5 * math.log2(math.pi * math.e * m / 2.0)


def require_attack_qubits(m: int) -> None:
    """The exact attack sum runs on at most MAX_ATTACK_QUBITS qubits."""
    if m > MAX_ATTACK_QUBITS:
        raise ValueError(f"m must be <= {MAX_ATTACK_QUBITS} for the exact attack sum, got {m}")


def attack_success(m: int, d: int) -> float:
    """Exact success probability of the random-basis attack: (1/d) sum_j cos^2m(j pi/d).

    Evaluated through the binomial expansion of cos^2m, which collapses the
    angle sum to the Fourier modes divisible by d: the sum of C(2m, m + l)
    over l = -m..m divisible by d, over 4^m. The binomials are even in l and
    follow one exact integer recurrence from C(2m, m); the one division of two
    integers is correctly rounded, so huge m loses no precision.
    """
    if m < 1 or d < 1:
        raise ValueError("m and d must be >= 1")
    require_attack_qubits(m)
    binomial = num = math.comb(2 * m, m)
    for l in range(1, m // d * d + 1):
        binomial = binomial * (m - l + 1) // (m + l)  # C(2m, m + l)
        if l % d == 0:
            num += 2 * binomial
    return num / 4 ** m


def attack_asymptote(m) -> float:
    """Large-m limit of attack_success: 1/sqrt(pi m)."""
    if m <= 0:
        raise ValueError("m must be positive")
    return 1.0 / math.sqrt(math.pi * finite_number(m, "m"))  # an int past float range is refused


def require_trials(trials: int, field: str) -> None:
    """An attack's trial count lies in [1, MAX_TRIALS]; else a ValueError naming field."""
    if trials < 1:
        raise ValueError(f"{field} must be >= 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"{field} must be <= {MAX_TRIALS}, got {trials}")


def simulate_attack(m: int, d: int, plaintext, trials: int, random_source) -> float:
    """Monte Carlo of the attack: measure every encrypted qubit in the {H, V} basis.

    Per trial a key is drawn from linear_ensemble(d); success means the full decoded
    bit-string equals the plaintext. For a linear key with angle theta each
    measured bit matches its plaintext bit with probability cos^2(theta),
    whichever value the bit has, so a trial on key k wins with probability
    cos^2m(theta_k). The trials per key are one multinomial draw and each key's
    wins one binomial draw: time and memory grow with neither m nor trials.
    """
    bits = as_bits(plaintext)
    if len(bits) != m:
        raise ValueError(f"plaintext length {len(bits)} != m = {m}")
    require_trials(trials, "trials")
    win_prob = (np.cos(linear_ensemble(d).polar_angles()) ** 2) ** m  # per key
    per_key = random_source.multinomial(trials, np.full(d, 1.0 / d))
    return int(random_source.binomial(per_key, win_prob).sum()) / trials


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """T(rho, sigma) = 1/2 sum |eigenvalues(rho - sigma)|."""
    a = np.asarray(rho)
    b = np.asarray(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(0.5 * np.abs(hermitian_eig(a - b).eigenvalues).sum())

