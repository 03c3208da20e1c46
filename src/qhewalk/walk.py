"""Multi-photon walk engine and the end-to-end encrypted protocol.

The path unitary acts on spatial modes only and is polarization independent,
so walker (|H>) and dummy (|V>) photons evolve through the same U without
interfering with each other. Convention: U[j, i] is the amplitude from input
mode i to output mode j (column = input). The bosonic law takes one permanent
per output state; the distinguishable-photon law, blended in below unit
visibility, takes none. A law is enumerated as arrays (each output's mode
indices and its occupation row) and returned as a dict keyed by occupation
tuple; postselect and bhattacharyya_fidelity read such dicts back as aligned
arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement, repeat

import numpy as np

from .numerics import permanent, require_unitary
from .polarization import PolarizationKey, as_bits

MAX_WALKERS = 6
# A law of K = C(m+n-1, n) outcomes costs about 28 us and 0.6 kB per outcome
# (its permanent and its n x n submatrix) plus 0.2 us and 20 B per cell of its
# K x m counts (key tuples, labels, report text). So both are bounded: 6
# walkers fit in 20 modes, 4 in 45, 3 in 98 and 2 in 317.
MAX_OUTCOMES = 2 * 10 ** 5
MAX_CELLS = 16 * 10 ** 6
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


@lru_cache(maxsize=1)
def _enumerate(m: int, n: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    """All K n-photon outputs of m modes: (K x n modes, K x m uint8 counts, K count tuples).

    Row k of the modes lists the k-th multiset of combinations_with_replacement
    in ascending order, so it also selects the rows of U that output k takes.
    The last (m, n) is cached, so a law's two routes share one enumeration and
    one set of key tuples.
    """
    k = math.comb(m + n - 1, n)
    modes = combinations_with_replacement(range(m), n)
    rows = np.fromiter(chain.from_iterable(modes), dtype=np.intp, count=k * n).reshape(k, n)
    states = np.zeros((k, m), dtype=np.uint8)
    for photon in rows.T:
        states[np.arange(k), photon] += 1
    rows.flags.writeable = states.flags.writeable = False  # shared by both routes
    # row by row, so no K x m list of ints is ever held at once
    return rows, states, tuple(map(tuple, map(np.ndarray.tolist, states)))


def occupation_states(m: int, n: int) -> list[tuple[int, ...]]:
    """All length-m occupations with n photons, in lexicographic mode order."""
    return list(_enumerate(m, n)[2])


def occupation_array(occupations) -> np.ndarray:
    """K occupation tuples (counts below 256) as the rows of one K x m uint8 array, in order."""
    occupations = list(occupations)
    counts = np.frombuffer(bytes(chain.from_iterable(occupations)), dtype=np.uint8)
    return counts.reshape(len(occupations), len(occupations[0]) if occupations else 0)


def text_rows(codes: np.ndarray) -> list[str]:
    """Each row of a 2-D uint8 array of ASCII codes as one string."""
    text = codes.tobytes().decode("ascii")
    width = codes.shape[1]
    return [text[i:i + width] for i in range(0, len(text), width)]


def require_law_size(m: int, n: int) -> None:
    """A law of n photons in m modes: n <= MAX_WALKERS, and its C(m+n-1, n) outcomes
    and their C(m+n-1, n) * m counts within MAX_OUTCOMES and MAX_CELLS."""
    if n > MAX_WALKERS:
        raise ValueError(f"at most {MAX_WALKERS} photons supported, got {n}")
    if (outcomes := math.comb(m + n - 1, n)) > MAX_OUTCOMES:
        raise ValueError(f"{n} photons in {m} modes have {outcomes} outcomes; "
                         f"at most {MAX_OUTCOMES}")
    if (cells := outcomes * m) > MAX_CELLS:
        raise ValueError(f"{n} photons in {m} modes have {outcomes} outcomes of {m} counts, "
                         f"{cells} cells; at most {MAX_CELLS}")


def _exact_law(U, input_occupation, weights) -> dict[tuple[int, ...], float]:
    """Transition law P(source -> T) over all n-photon output multisets T.

    Both laws share these checks; weights(U, source, rows, states) gives
    each state's unnormalized probability, in order, from _enumerate's arrays.
    The total is summed sequentially, in that order.
    """
    source = as_occupation(input_occupation)
    U = require_unitary(U)
    m = len(source)
    if m != U.shape[0]:
        raise ValueError(f"occupation length {m} != mode count {U.shape[0]}")
    n = sum(source)
    require_law_size(m, n)
    rows, states, keys = _enumerate(m, n)
    probs = weights(U, source, rows, states)
    total = sum(probs.tolist())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"transition law failed to normalize: sum = {total!r}")
    return dict(zip(keys, (probs / total).tolist(), strict=True))


# t! for every count a law can hold
_FACTORIALS = np.array([math.factorial(c) for c in range(MAX_WALKERS + 1)], dtype=float)


def _bosonic_weights(U, source, rows, states) -> np.ndarray:
    """|Per(U_ST)|^2/(s! t!) per target; U_ST is the rows of target T from the source columns.

    Every target's submatrix comes from one gather, columns[rows]. Each
    |Per|^2 is Python's abs(p) ** 2 (numpy's complex abs can differ in the
    last bit), divided by s! and then t!, exact integers as floats.
    """
    columns = U[:, np.repeat(np.arange(len(source)), source)]
    squared = np.array([abs(permanent(sub)) ** 2 for sub in columns[rows]])
    return squared / math.prod(math.factorial(c) for c in source) / _FACTORIALS[states].prod(axis=1)


def _distinguishable_weights(U, source, rows, states) -> np.ndarray:
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
    return probs[::-1]


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


def _bit_strings(states: np.ndarray) -> list[str]:
    """Logical bit-string of each collision-free occupation row (walker = bit 0)."""
    return text_rows(np.where(states == 1, ord("0"), ord("1")).astype(np.uint8))


def occupation_to_bits(occ: tuple[int, ...]) -> str:
    """Collision-free walker occupation -> logical bit-string (walker = bit 0)."""
    return _bit_strings(occupation_array([occ]))[0]


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
        # both laws are keyed in occupation_states order
        law = {t: visibility * p + (1.0 - visibility) * c
               for (t, p), c in zip(law.items(), classical.values(), strict=True)}
    return _with_spurious(law, noise)


def postselect(law: dict) -> tuple[dict[str, float], float]:
    """Receiver's view of an occupation law or tally: (bit-string law, collision weight).

    Outcomes in which two walkers share a mode are discarded and the rest are
    renormalized over logical bit-strings; the bit-string law is empty when
    nothing is kept. The kept and collision weights are each summed directly,
    sequentially in the law's order: 1 - collision cancels when collisions
    dominate.
    """
    states = occupation_array(law)
    weights = np.array(list(law.values()))
    kept = states.max(axis=1, initial=0) <= 1
    collision = sum(weights[~kept].tolist())
    total = sum(weights[kept].tolist())
    if not total:
        return {}, collision
    return dict(zip(_bit_strings(states[kept]), (weights[kept] / total).tolist())), collision


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

    The walker law does not depend on the key: the path unitary acts on
    spatial modes only, whatever the polarization. The shots' tally is one
    multinomial draw of protocol_distribution, noise included, which the
    result carries as exact_occupations: a report prints the counts per
    outcome, never the order of the shots. Dummy photons cross the same
    device, but decryption discards their outcome, so they are not sampled;
    postselect gives the receiver's bit-string view.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, {MAX_SHOTS}], got {shots}")
    law = protocol_distribution(U, plaintext, noise)
    totals = random_source.multinomial(shots, list(law.values()))
    counts = {occ: c for occ, c in zip(law, totals.tolist()) if c}
    return ProtocolResult(shots=shots, occupation_counts=counts, exact_occupations=law)


def bhattacharyya_fidelity(p: dict, q: dict) -> float:
    """Classical fidelity sum_i sqrt(p_i q_i) over the union of outcomes.

    Both laws are read as arrays aligned on the sorted union of keys, and the
    terms are summed sequentially in that order, so the sum does not depend on
    hash randomization.
    """
    keys = sorted(p.keys() | q.keys())
    pk, qk = (np.fromiter(map(law.get, keys, repeat(0.0)), float, len(keys)) for law in (p, q))
    f = sum(np.sqrt(np.maximum(pk, 0.0) * np.maximum(qk, 0.0)).tolist())
    return float(min(1.0, f))
