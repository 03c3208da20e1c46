"""Multi-photon walk engine and the end-to-end encrypted protocol.

The path unitary acts on spatial modes only and is polarization independent,
so walker (|H>) and dummy (|V>) photons evolve through the same U without
interfering with each other. Convention: U[j, i] is the amplitude from input
mode i to output mode j (column = input). The bosonic law takes one permanent
per output state; the distinguishable-photon law, blended in below unit
visibility, takes none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .numerics import permanent, require_unitary
from .polarization import PolarizationKey, as_bits, encrypt, projection_probability

MAX_WALKERS = 6
# output occupations of one exact law, C(m+n-1, n): 6 walkers fit in 15 modes, 2 in 315
MAX_OUTCOMES = 5 * 10 ** 4
# the input contract on shots; it also keeps the count far inside numpy's int64
# range, beyond which multinomial raises OverflowError
MAX_SHOTS = 10 ** 7


@dataclass(frozen=True)
class NoiseModel:
    """Two-parameter phenomenological noise.

    hom_visibility damps two-photon interference (cross terms between
    permanent contributions are scaled by V); higher_order_rate replaces a
    shot with a uniformly random occupation, modeling spurious multi-pair
    emission.
    """

    hom_visibility: float = 1.0
    higher_order_rate: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.hom_visibility <= 1.0):
            raise ValueError(f"hom_visibility must lie in [0, 1], got {self.hom_visibility}")
        if not (0.0 <= self.higher_order_rate <= 1.0):
            raise ValueError(f"higher_order_rate must lie in [0, 1], got {self.higher_order_rate}")


def as_occupation(counts) -> tuple[int, ...]:
    occ = tuple(int(c) for c in counts)
    if not occ or any(c < 0 for c in occ):
        raise ValueError(f"occupation must be nonempty with counts >= 0: {counts!r}")
    return occ


def walker_pattern(plaintext) -> tuple[int, ...]:
    """Occupation of the walker (|H>) photons for a plaintext."""
    return tuple(1 if b == 0 else 0 for b in as_bits(plaintext))


def occupation_states(m: int, n: int) -> list[tuple[int, ...]]:
    """All length-m occupations with n photons, in lexicographic mode order."""
    states = []
    for modes in combinations_with_replacement(range(m), n):
        occ = [0] * m
        for j in modes:
            occ[j] += 1
        states.append(tuple(occ))
    return states


def require_law_size(m: int, n: int) -> None:
    """A law of n photons in m modes: n <= MAX_WALKERS and C(m+n-1, n) <= MAX_OUTCOMES outcomes."""
    if n > MAX_WALKERS:
        raise ValueError(f"at most {MAX_WALKERS} photons supported, got {n}")
    if (outcomes := math.comb(m + n - 1, n)) > MAX_OUTCOMES:
        raise ValueError(f"{n} photons in {m} modes have {outcomes} outcomes; at most {MAX_OUTCOMES}")


def _exact_law(U, input_occupation, weights) -> dict[tuple[int, ...], float]:
    """Transition law P(source -> T) over all n-photon output multisets T.

    Both laws share these checks; weights(U, source, states) gives each
    state's unnormalized probability, in order.
    """
    source = as_occupation(input_occupation)
    U = require_unitary(U)
    m = len(source)
    if m != U.shape[0]:
        raise ValueError(f"occupation length {m} != mode count {U.shape[0]}")
    n = sum(source)
    require_law_size(m, n)
    states = occupation_states(m, n)
    probs = weights(U, source, states)
    total = sum(probs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"transition law failed to normalize: sum = {total!r}")
    return {t: p / total for t, p in zip(states, probs, strict=True)}


def _bosonic_weights(U, source, states) -> list[float]:
    """|Per(U_ST)|^2/(s! t!) per target; each U_ST is a row selection of the source columns."""
    modes = np.arange(len(source))
    columns = U[:, np.repeat(modes, source)]
    s_fact = math.prod(math.factorial(c) for c in source)
    return [abs(permanent(columns[np.repeat(modes, t)])) ** 2 / s_fact
            / math.prod(math.factorial(c) for c in t) for t in states]


def _distinguishable_weights(U, source, states) -> list[float]:
    """Coefficients of x^T in prod_photons (sum_j |U_ji|^2 x_j), one photon at a time.

    Each step adds one source photon to every k-photon occupation in every
    output mode and merges equal occupations (rows compared as bytes, so any
    mode count works). The last step yields every state: np.unique sorts them
    ascending, and states, in occupation_states order, is the descending
    lexicographic order.
    """
    m = len(source)
    weights = np.abs(U) ** 2
    step = np.eye(m, dtype=np.uint8)
    occupations = np.zeros((1, m), dtype=np.uint8)
    probs = np.ones(1)
    for i in np.repeat(np.arange(m), source):
        landed = (occupations[:, None, :] + step).reshape(-1, m)
        keys, where = np.unique(landed.view(np.dtype((np.void, m))).ravel(), return_inverse=True)
        probs = np.bincount(where, weights=(probs[:, None] * weights[:, i]).ravel())
        occupations = keys.view(np.uint8).reshape(-1, m)
    return probs[::-1].tolist()


def output_distribution(U, input_occupation) -> dict[tuple[int, ...], float]:
    """Exact bosonic output distribution of n indistinguishable walkers."""
    return _exact_law(U, input_occupation, _bosonic_weights)


def classical_output_distribution(U, input_occupation) -> dict[tuple[int, ...], float]:
    """Output distribution for fully distinguishable photons (no interference).

    Photons land independently, so no permanent is needed; photons sharing a
    source mode are labelled apart, their orderings being distinct histories.
    """
    return _exact_law(U, input_occupation, _distinguishable_weights)


def _with_spurious(law: dict, noise: NoiseModel) -> dict[tuple[int, ...], float]:
    """Admix a uniform law: a spurious shot (probability rate) lands on any outcome alike."""
    rate = noise.higher_order_rate
    if rate <= 0.0:
        return law
    return {t: (1.0 - rate) * p + rate / len(law) for t, p in law.items()}


def occupation_to_bits(occ: tuple[int, ...]) -> str:
    """Collision-free walker occupation -> logical bit-string (walker = bit 0)."""
    return "".join("0" if c == 1 else "1" for c in occ)


def protocol_distribution(U, plaintext, noise: NoiseModel = NoiseModel()) -> dict[tuple[int, ...], float]:
    """Exact law of the walker occupation; run_protocol draws its shots from it.

    Includes the modeled noise: the bosonic law blended with the
    distinguishable one at weight 1 - hom_visibility, then the uniform
    spurious-shot admixture. With no noise this is plain output_distribution
    of the walker pattern.
    """
    source = walker_pattern(plaintext)
    law = output_distribution(U, source)
    visibility = noise.hom_visibility
    if visibility < 1.0:
        classical = classical_output_distribution(U, source)
        law = {t: visibility * p + (1.0 - visibility) * classical[t] for t, p in law.items()}
    return _with_spurious(law, noise)


def postselect(law: dict) -> tuple[dict[str, float], float]:
    """Receiver's view of an occupation law or tally: (bit-string law, collision weight).

    Outcomes in which two walkers share a mode are discarded and the rest are
    renormalized over logical bit-strings; the bit-string law is empty when
    nothing is kept. The kept and collision weights are each summed directly:
    1 - collision cancels when collisions dominate.
    """
    kept = {occupation_to_bits(occ): w for occ, w in law.items() if max(occ) <= 1}
    collision = sum(w for occ, w in law.items() if max(occ) > 1)
    total = sum(kept.values())
    if not total:
        return {}, collision
    return {b: w / total for b, w in kept.items()}, collision


@dataclass
class ProtocolResult:
    """Empirical tallies of one protocol run, and the exact law they were drawn from."""

    shots: int
    occupation_counts: dict[tuple[int, ...], int]
    exact_occupations: dict[tuple[int, ...], float]

    def empirical_occupations(self) -> dict[tuple[int, ...], float]:
        return {occ: c / self.shots for occ, c in self.occupation_counts.items()}

    def empirical_bitstrings(self) -> dict[str, float]:
        """Post-selected collision-free view, renormalized."""
        return postselect(self.occupation_counts)[0]


def run_protocol(U, plaintext, key: PolarizationKey, shots: int, random_source,
                 noise: NoiseModel = NoiseModel()) -> ProtocolResult:
    """Run the encrypted walk end to end and tally the walker occupations.

    The shots' tally is one multinomial draw of protocol_distribution, noise
    included, which the result carries as exact_occupations: a report prints
    the counts per outcome, never the order of the shots. Dummy photons cross
    the same device, but decryption discards their outcome, so they are not
    sampled; postselect gives the receiver's bit-string view.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, {MAX_SHOTS}], got {shots}")
    bits = as_bits(plaintext)
    # encryption/decryption faithfulness: the key basis must recover each bit
    for bit, state in zip(bits, encrypt(bits, key)):
        p0 = projection_probability(state, key)
        if abs(p0 - (1.0 - bit)) > 1e-9:
            raise ValueError("key failed to decrypt its own encryption")

    law = protocol_distribution(U, bits, noise)
    totals = random_source.multinomial(shots, list(law.values()))
    counts = {occ: int(c) for occ, c in zip(law, totals) if c}
    return ProtocolResult(shots=shots, occupation_counts=counts, exact_occupations=law)


def bhattacharyya_fidelity(p: dict, q: dict) -> float:
    """Classical fidelity sum_i sqrt(p_i q_i) over the union of outcomes."""
    # sorted union: summation order must not depend on hash randomization
    keys = sorted(set(p) | set(q))
    f = sum(math.sqrt(max(p.get(k, 0.0), 0.0) * max(q.get(k, 0.0), 0.0)) for k in keys)
    return float(min(1.0, f))
