"""Device characterization from single-photon and two-photon data.

Workflow: probe each input mode with one photon (intensities |U_ji|^2), then
each input pair with photon pairs and record the two-photon interference
visibility V = (C_max - C_min)/C_max per output pair. Amplitudes follow from
the intensities; the visibilities pin down the interferometer's internal
phases up to a diagonal-phase gauge on inputs and outputs, recovered here by
multi-start least squares over the phases, then projected to the closest
unitary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .numerics import finite_grid, finite_number, make_rng, positive_int, require_unitary, unitarize

MAX_MODES = 8
# far below numpy's Poisson limit (about 9.2e18 expected counts)
MAX_COUNTS_SCALE = 1e18
# the input contract on a fit's restarts: each noisy restart runs in full
MAX_RESTARTS = 1000
_ZERO_COINCIDENCE = 1e-14
# compare_to_truth skips the phase of true entries no larger than this
PHASE_AMPLITUDE_FLOOR = 1e-6

Pair = tuple[int, int]


@dataclass(frozen=True)
class MeasurementNoise:
    """counts_scale: expected detections per setting (Poisson counting noise,
    None = exact rates); distinguishability: spectral overlap factor damping
    all visibilities (1 = none). The default instance is the noiseless run."""

    counts_scale: float | None = None
    distinguishability: float = 1.0

    def __post_init__(self):
        if self.counts_scale is not None and not 0 < self.counts_scale <= MAX_COUNTS_SCALE:
            raise ValueError(f"counts_scale must lie in (0, {MAX_COUNTS_SCALE:g}], got {self.counts_scale}")
        if not (0.0 <= self.distinguishability <= 1.0):
            raise ValueError(f"distinguishability must lie in [0, 1], got {self.distinguishability}")


@dataclass(frozen=True)
class MeasurementSet:
    """Single-photon intensities plus pairwise visibilities of one device.

    visibilities is keyed by ((i, i2), (j, j2)): photons into modes i < i2,
    coincidence across output modes j < j2. counts_scale records the Poisson
    scale the data was taken at (None = noiseless).
    """

    intensities: np.ndarray
    visibilities: dict[tuple[Pair, Pair], float]
    counts_scale: float | None = None

    def __post_init__(self):
        I = np.asarray(self.intensities, dtype=float)
        if I.ndim != 2 or I.shape[0] != I.shape[1]:
            raise ValueError(f"intensities must be square, got shape {I.shape}")
        for j, i in np.argwhere(~((I >= -1e-9) & (I <= 1.0 + 1e-6)))[:1]:  # first bad entry, NaN too
            raise ValueError(f"intensities[{j}][{i}] must lie in [0, 1], got {I[j, i]}")
        object.__setattr__(self, "intensities", I)
        m = I.shape[0]
        for key, v in self.visibilities.items():
            (i, i2), (j, j2) = key
            if not (0 <= i < i2 < m and 0 <= j < j2 < m):
                raise ValueError(f"visibilities[{key}] must pair modes "
                                 f"0 <= i < i2 < {m} and 0 <= j < j2 < {m}")
            if not abs(v) <= 1.0 + 1e-9:
                raise ValueError(f"visibilities[{key}] must lie in [-1, 1], got {v}")
        MeasurementNoise(self.counts_scale)  # the one counts_scale rule

    @property
    def mode_count(self) -> int:
        return self.intensities.shape[0]

    def to_payload(self) -> dict:
        return {
            "m": self.mode_count,
            "counts_scale": self.counts_scale,
            "intensities": self.intensities.tolist(),
            "visibilities": [
                {"inputs": [i, i2], "outputs": [j, j2], "value": float(v)}
                for ((i, i2), (j, j2)), v in sorted(self.visibilities.items())
            ],
        }

    @classmethod
    def from_payload(cls, payload) -> "MeasurementSet":
        if not isinstance(payload, dict):
            raise ValueError("measurement payload must be an object")
        try:
            m = positive_int(payload["m"], "'m'")
            raw_int = payload["intensities"]
            raw_vis = payload["visibilities"]
        except KeyError as exc:
            raise ValueError(f"missing field: {exc}") from None
        if not isinstance(raw_vis, list):
            raise ValueError("'visibilities' must be a list of records")
        I = finite_grid(raw_int, (m, m), "'intensities'")
        vis = {}
        for n, rec in enumerate(raw_vis):
            field = f"'visibilities'[{n}]"
            if not isinstance(rec, dict) or not {"inputs", "outputs", "value"} <= rec.keys():
                raise ValueError(f"{field} must have 'inputs', 'outputs' and 'value'")
            pairs = (rec["inputs"], rec["outputs"])
            if not all(isinstance(p, list) and len(p) == 2
                       and all(isinstance(k, int) and not isinstance(k, bool) for k in p)
                       for p in pairs):
                raise ValueError(f"{field} 'inputs' and 'outputs' must be integer pairs")
            key = tuple(tuple(p) for p in pairs)
            if key in vis:  # vis keeps one key per earlier record, in record order
                raise ValueError(f"{field} repeats the pairs of 'visibilities'[{list(vis).index(key)}]")
            vis[key] = finite_number(rec["value"], f"{field} 'value'")
        scale = payload.get("counts_scale")
        if scale is not None:
            scale = finite_number(scale, "'counts_scale'")
        return cls(I, vis, scale)


@dataclass(frozen=True)
class GaugeFixedUnitary:
    """Unitary with first row and first column real non-negative."""

    matrix: np.ndarray

    def __post_init__(self):
        M = require_unitary(self.matrix)
        edge = np.concatenate([M[0, :], M[:, 0]])
        if np.max(np.abs(edge.imag)) > 1e-8 or np.min(edge.real) < -1e-8:
            raise ValueError("first row/column must be real non-negative")
        object.__setattr__(self, "matrix", M)


@dataclass
class ReconstructionReport:
    success: bool
    unitary: GaugeFixedUnitary
    residual: float
    restarts_used: int


def require_modes(m: int) -> None:
    """A characterization covers 2 <= m <= MAX_MODES modes."""
    if not 2 <= m <= MAX_MODES:
        raise ValueError(f"m must lie in [2, {MAX_MODES}] for reconstruction, got {m}")


def all_pairs(m: int) -> list[tuple[Pair, Pair]]:
    """Every (input pair, output pair) combination, sorted."""
    return [(ins, outs) for ins in combinations(range(m), 2) for outs in combinations(range(m), 2)]


def _pair_indices(pairs):
    """(i, i2, j, j2) index arrays of the ((i, i2), (j, j2)) pairs."""
    return np.array(pairs, dtype=int).reshape(-1, 4).T


def _interfering(M, idx):
    """Interfering coincidences (C_min) of the pairs in idx = _pair_indices(pairs)."""
    pi, pi2, pj, pj2 = idx
    return np.abs(M[pj, pi] * M[pj2, pi2] + M[pj2, pi] * M[pj, pi2]) ** 2


def _distinguishable(M, idx):
    """Distinguishable coincidences (C_max) of the pairs in idx; they depend on |M| only."""
    pi, pi2, pj, pj2 = idx
    A2 = np.abs(M) ** 2
    return A2[pj, pi] * A2[pj2, pi2] + A2[pj2, pi] * A2[pj, pi2]


def _visibilities(cmin, cmax):
    """V = (C_max - C_min) / C_max, 0 where C_max vanishes."""
    v = np.zeros(len(cmax))
    ok = cmax > _ZERO_COINCIDENCE
    v[ok] = (cmax[ok] - cmin[ok]) / cmax[ok]
    return v


def _with_phases(A, phases):
    """A * exp(iP): P is 0 on the gauge-fixed first row and column, `phases` elsewhere."""
    m = A.shape[0]
    P = np.zeros((m, m))
    P[1:, 1:] = phases.reshape(m - 1, m - 1)
    return A * np.exp(1j * P)


def synthesize_measurements(U, noise: MeasurementNoise = MeasurementNoise(),
                            random_source=None) -> MeasurementSet:
    """Simulate the full characterization run against a known unitary.

    With the default noise the output is exact. Partial distinguishability
    pulls C_min toward the non-interfering C_max; with a counts_scale,
    intensities and both coincidence rates per pair are then replaced by
    Poisson draws at that scale.
    """
    M = require_unitary(U)
    require_modes(M.shape[0])  # before the C(m, 2)^2 pair settings are built
    pairs = all_pairs(M.shape[0])
    intensities = np.abs(M) ** 2
    idx = _pair_indices(pairs)
    cmin, cmax = _interfering(M, idx), _distinguishable(M, idx)
    if noise.distinguishability < 1.0:
        cmin = cmax - noise.distinguishability * (cmax - cmin)
    if noise.counts_scale is not None:
        if random_source is None:
            raise ValueError("counting noise requires a random_source")
        scale = noise.counts_scale
        intensities = np.clip(random_source.poisson(intensities * scale) / scale, 0.0, 1.0)
        cmax = random_source.poisson(cmax * scale).astype(float)
        cmin = random_source.poisson(cmin * scale).astype(float)
    vis = np.clip(_visibilities(cmin, cmax), -1.0, 1.0)
    return MeasurementSet(intensities, dict(zip(pairs, vis.tolist())), noise.counts_scale)


def canonical_form(U) -> np.ndarray:
    """Gauge-fixed representative with the conjugation ambiguity resolved.

    Rows, then columns, are rephased so the first column and row are real
    >= 0. Intensities and visibilities cannot tell U from conj(U) (every
    observable is a squared modulus), so comparisons happen in a canonical
    form: after gauge fixing, the entry with the largest |imaginary part| is
    made to have a non-negative imaginary part.
    """
    M = np.asarray(U, dtype=complex)
    M = M * np.exp(-1j * np.angle(M[:, 0]))[:, None]
    M = M * np.exp(-1j * np.angle(M[0, :]))[None, :]
    im = np.abs(M.imag)
    j, i = np.unravel_index(int(np.argmax(im)), im.shape)
    if M[j, i].imag < 0:
        M = M.conj()
    return M


def _phase_jacobian(A, idx, cmax):
    """Jacobian of reconstruct_unitary's residuals in the free phases.

    Visibility rows: with t1 = M_ji M_j2i2, t2 = M_j2i M_ji2 and z = t1 + t2,
    dV/dphi is 2 Im(conj(z) t1) / C_max for phi_ji and phi_j2i2, and
    2 Im(conj(z) t2) / C_max for phi_j2i and phi_ji2; 0 where C_max (fixed by
    the amplitudes) vanishes. The gauge-fixed first row and column carry no
    phase. Unitarity rows: M^H dM/dphi_ab puts i conj(M[a, :]) M_ab in column
    b; d(M^H M)/dphi_ab adds its conjugate transpose.
    """
    m = A.shape[0]
    pi, pi2, pj, pj2 = idx
    scale = np.zeros(len(pi))
    ok = cmax > _ZERO_COINCIDENCE
    scale[ok] = 2.0 / cmax[ok]

    def slots(*entries):
        # 2 / C_max in the columns of the free phases among the (out, in) entries of each row
        S = np.zeros((len(pi), (m - 1) ** 2))
        for out, into in entries:
            free = (out > 0) & (into > 0)
            S[free, (out[free] - 1) * (m - 1) + into[free] - 1] = scale[free]
        return S

    S1, S2 = slots((pj, pi), (pj2, pi2)), slots((pj2, pi), (pj, pi2))
    E = np.eye(m)[:, 1:]

    def jac(phases):
        M = _with_phases(A, phases)
        t1 = M[pj, pi] * M[pj2, pi2]
        t2 = M[pj2, pi] * M[pj, pi2]
        zc = np.conj(t1 + t2)
        T = 1j * np.einsum("ac,ab,db->cdab", M[1:].conj(), M[1:, 1:], E)
        dG = (T + T.transpose(1, 0, 2, 3).conj()).reshape(m * m, -1)
        return np.vstack([(zc * t1).imag[:, None] * S1 + (zc * t2).imag[:, None] * S2,
                          dG.real, dG.imag])

    return jac


def _levenberg_marquardt(fun, jac, x0):
    """Minimize 0.5 ||fun(x)||^2 from x0; returns (x, cost).

    Levenberg-Marquardt after MINPACK's lmder (More 1978): the Jacobian from
    jac(x), damping scaled by D = diag(J^T J), and lmder's stopping rules with
    xtol = ftol = gtol = 1e-15. At most 100 (n + 1) calls, each call of fun or
    of jac counting one; a damped system too singular to solve counts as a
    rejected step.
    """
    tol = 1e-15
    x = np.array(x0, dtype=float)
    f = fun(x)
    n = x.size
    calls, max_calls = 1, 100 * (n + 1)
    lam = 1e-3
    converged = False
    while not converged and f.any() and calls + 1 < max_calls:
        J = jac(x)
        calls += 1
        g, A, f2 = J.T @ f, J.T @ J, f @ f
        d = np.diag(A).copy()
        live = d > 0.0
        # gtol: the largest cosine between f and a column of J
        if np.max(np.abs(g[live]) / np.sqrt(d[live] * f2), initial=0.0) <= tol:
            break
        d[~live] = 1.0
        while calls < max_calls:
            calls += 1
            try:
                p = np.linalg.solve(A + lam * np.diag(d), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            f_new = fun(x + p)
            # actual and predicted relative reductions of ||f||^2 (ftol), step size (xtol)
            actred = 1.0 - (f_new @ f_new) / f2
            prered = (p @ A @ p + 2.0 * lam * (d * p) @ p) / f2
            converged = (abs(actred) <= tol and prered <= tol and actred <= 2.0 * prered
                         or np.linalg.norm(np.sqrt(d) * p) <= tol * np.linalg.norm(np.sqrt(d) * x))
            if actred > 0.0:
                x, f, lam = x + p, f_new, 0.1 * lam
                break
            lam *= 10.0
            if converged:
                break
    return x, 0.5 * float(f @ f)


def require_threshold(residual_threshold: float, field: str) -> None:
    """A residual threshold is finite and >= 0; else a ValueError naming field."""
    if not 0.0 <= residual_threshold < math.inf:
        raise ValueError(f"{field} must be finite and >= 0, got {residual_threshold}")


def reconstruct_unitary(meas: MeasurementSet, restarts: int = 16, seed: int | np.random.Generator = 0,
                        residual_threshold: float = 0.05) -> ReconstructionReport:
    """Recover the device unitary behind a MeasurementSet.

    Amplitudes start at sqrt(intensity); the (m-1)^2 free phases are fitted to
    the visibilities by multi-start Levenberg-Marquardt. Restart 0 seeds |phase|
    from the first-input/first-output anchored pairs; later restarts randomize
    the signs from seed, an int >= 0 (make_rng's stream) or a Generator whose
    stream they continue. The best restart is projected to the closest unitary;
    failure (best residual above residual_threshold) is reported, not raised.
    """
    m = meas.mode_count
    require_modes(m)
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ValueError(f"restarts must lie in [1, {MAX_RESTARTS}], got {restarts}")
    require_threshold(residual_threshold, "residual_threshold")
    anchored = {((0, i), (0, j)) for i in range(1, m) for j in range(1, m)}
    missing = anchored - set(meas.visibilities)
    if missing:
        raise ValueError(f"measurement set lacks required anchored pairs: {sorted(missing)}")

    pairs = sorted(meas.visibilities)
    idx = _pair_indices(pairs)
    vmeas = np.array([meas.visibilities[p] for p in pairs])
    A = np.sqrt(np.clip(meas.intensities, 0.0, None))
    for axis, kind in ((1, "output"), (0, "input")):  # no unitary has an all-zero row or column
        dark = np.flatnonzero(~A.any(axis=axis))
        if dark.size:
            raise ValueError(f"intensities: every entry of {kind} mode {dark[0]} is zero")
    nfree = (m - 1) ** 2

    def unitarity_rows(M):
        # the device is unitary by assumption; feeding that into the fit pins
        # down phase signs the (cosine-only) visibilities cannot distinguish
        G = M.conj().T @ M - np.eye(m)
        return np.concatenate([G.real.ravel(), G.imag.ravel()])

    # the phases leave the amplitudes, and so C_max, as they are
    cmax = _distinguishable(A, idx)
    jacobian = _phase_jacobian(A, idx, cmax)

    def residuals(phi):
        M = _with_phases(A, phi)
        return np.concatenate([_visibilities(_interfering(M, idx), cmax) - vmeas,
                               unitarity_rows(M)])

    # analytic |phase| seed: for pair ((0,i),(0,j)) the visibility depends
    # only on cos(phase_ji) once the gauge zeroes the anchoring entries
    pi, pi2, pj, pj2 = idx
    den = 2.0 * A[pj, pi] * A[pj2, pi2] * A[pj2, pi] * A[pj, pi2]
    anchor = (pi == 0) & (pj == 0) & (den > 1e-12)
    est = np.zeros((m - 1, m - 1))
    est[pj2[anchor] - 1, pi2[anchor] - 1] = np.arccos(
        np.clip(-vmeas[anchor] * cmax[anchor] / den[anchor], -1.0, 1.0))

    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    best_x = best_cost = None
    used = 0
    for k in range(restarts):
        used = k + 1
        if k == 0:
            x0 = est.ravel()
        else:
            signs = rng.choice([-1.0, 1.0], size=nfree)
            x0 = est.ravel() * signs + rng.normal(0.0, 0.05, nfree)
        x, cost = _levenberg_marquardt(residuals, jacobian, x0)
        if best_x is None or cost < best_cost:
            best_x, best_cost = x, cost
        if best_cost < 1e-18:
            break

    recovered = unitarize(_with_phases(A, best_x))

    final = _visibilities(_interfering(recovered, idx), _distinguishable(recovered, idx)) - vmeas
    residual = float(np.sqrt(np.mean(final ** 2)))
    return ReconstructionReport(
        success=residual <= residual_threshold,
        unitary=GaugeFixedUnitary(canonical_form(recovered)),
        residual=residual,
        restarts_used=used,
    )


def compare_to_truth(candidate, truth):
    """Per-entry amplitude and phase errors between canonical forms.

    Phase errors are only evaluated where the true amplitude exceeds
    PHASE_AMPLITUDE_FLOOR (the phase of a vanishing entry is meaningless).
    """
    C = canonical_form(candidate)
    T = canonical_form(truth)
    if C.shape != T.shape:
        raise ValueError(f"shape mismatch: {C.shape} vs {T.shape}")
    amplitude_errors = np.abs(np.abs(C) - np.abs(T))
    phase_errors = np.zeros_like(amplitude_errors)
    mask = np.abs(T) > PHASE_AMPLITUDE_FLOOR
    phase_errors[mask] = np.abs(np.angle(C[mask] * np.conj(T[mask])))
    return amplitude_errors, phase_errors
