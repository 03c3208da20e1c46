"""Correctness checks of qhewalk reports against references that share no code with it.

A check takes a report's argv and stdout and returns its problems, an empty
list when the report is correct. The references never call into qhewalk:

- walk: the exact occupation law is rebuilt by expanding creation-operator
  polynomials (no permanents) on the device projected to the closest unitary
  by SVD (no eigensolver), then blended with the same noise model;
- attack: p_exact against the exact rational value of (1/d) sum_j cos^2m(j pi/d),
  p_asymptote against 1/sqrt(pi m);
- security: the limits against their closed forms, Holevo bits and trace
  distances against the values recorded in expected.json;
- reconstruct: success, and the amplitude error within a bound;
- devices: names, projection distances and dumps against the device files.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

LAW_TOL = 1e-9            # |exact law - reference|, any outcome
FIDELITY_FLOOR = 0.995    # Bhattacharyya fidelity of sampled vs exact occupations
RATIONAL_RTOL = 1e-12     # relative error of attack probabilities and closed-form limits
RECORDED_TOL = 1e-9       # |security value - value recorded in expected.json|
ATTACK_SIGMAS = 6.0       # Monte Carlo attack estimate vs exact, in binomial standard errors
AMPLITUDE_BOUND = {"none": 1e-9, "poisson": 1e-2}  # reconstruct max_amplitude_error
DEVICE_TOL = 1e-9         # projection_distance vs the SVD polar projection

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def flags(argv: list[str]) -> dict[str, str]:
    """--name value pairs of an argv; a flag without a value maps to ''."""
    out = {}
    for k, token in enumerate(argv):
        if token.startswith("--"):
            nxt = argv[k + 1] if k + 1 < len(argv) else "--"
            out[token] = "" if nxt.startswith("--") else nxt
    return out


def closest_unitary(M: np.ndarray) -> np.ndarray:
    W, _, Vh = np.linalg.svd(M)
    return W @ Vh


def _expand(weights: np.ndarray, source) -> dict:
    """Monomial coefficients of prod over photons i of sum_j weights[j, i] a_j."""
    m = weights.shape[0]
    poly = {(0,) * m: 1.0 + 0.0j}
    for i, count in enumerate(source):
        for _ in range(count):
            nxt: dict = {}
            for mono, coeff in poly.items():
                for j in range(m):
                    w = weights[j, i]
                    if w == 0:
                        continue
                    key = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                    nxt[key] = nxt.get(key, 0.0) + coeff * w
            poly = nxt
    return poly


def _factorial_product(occ) -> int:
    return math.prod(math.factorial(c) for c in occ)


def quantum_law(U: np.ndarray, source) -> dict:
    """Indistinguishable photons: |coefficient|^2 t!/s! per output monomial."""
    s_fact = _factorial_product(source)
    return {t: abs(c) ** 2 * _factorial_product(t) / s_fact for t, c in _expand(U, source).items()}


def distinguishable_law(U: np.ndarray, source) -> dict:
    """Distinguishable photons: the coefficients of the single-photon probabilities."""
    return {t: c.real for t, c in _expand(np.abs(U) ** 2, source).items()}


def attack_exact(m: int, d: int) -> Fraction:
    """(1/d) sum_j cos^2m(j pi/d) = 4^-m sum over l = 0 mod d of C(2m, m + l)."""
    return Fraction(sum(math.comb(2 * m, m + l) for l in range(-m, m + 1) if l % d == 0), 4 ** m)


def _close(got, want, rtol) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


class Checker:
    """Checks reports; `devices` maps device-file argv strings to their matrices."""

    def __init__(self, root: Path, devices: dict):
        self.root = root
        self.devices = devices

    def builtin_payload(self, name: str) -> dict:
        return json.loads((self.root / "src" / "qhewalk" / "devices" / f"{name}.json").read_text())

    def matrix(self, device: str) -> np.ndarray:
        if device in self.devices:
            return np.asarray(self.devices[device], dtype=complex)
        payload = self.builtin_payload(device)
        return np.array([[complex(re, im) for re, im in row] for row in payload["unitary"]])

    def __call__(self, argv: list[str], stdout: bytes) -> list[str]:
        try:
            report = json.loads(stdout)
        except ValueError:
            return ["stdout is not a JSON report"]
        try:
            return getattr(self, "check_" + argv[0])(flags(argv), report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"report lacks an expected field or value: {exc!r}"]

    def check_walk(self, f, report) -> list[str]:
        problems = []
        U = closest_unitary(self.matrix(f["--device"]))
        m = U.shape[0]
        walkers = tuple(1 - int(b) for b in f["--input"])
        n = sum(walkers)
        visibility = float(f.get("--visibility", 1.0))
        rate = float(f.get("--higher-order-rate", 0.0))
        quantum = quantum_law(U, walkers)
        classical = distinguishable_law(U, walkers) if visibility < 1.0 else {}
        outcomes = math.comb(m + n - 1, n)

        def expected(t):
            p = quantum.get(t, 0.0)
            if visibility < 1.0:
                p = visibility * p + (1.0 - visibility) * classical.get(t, 0.0)
            return (1.0 - rate) * p + rate / outcomes

        got = {tuple(json.loads(label)): p for label, p in report["exact"]["occupations"].items()}
        bad = [t for t in got if len(t) != m or sum(t) != n or min(t) < 0]
        if bad or len(got) > outcomes:
            problems.append(f"exact law has impossible outcomes, e.g. {bad[:1]}")
        err = max(abs(got.get(t, 0.0) - expected(t)) for t in set(got) | set(quantum))
        if err > LAW_TOL:
            problems.append(f"exact law differs from the polynomial reference by {err:.3e}")
        fidelity = report["fidelity"]["occupations"]
        if not fidelity >= FIDELITY_FLOOR:
            problems.append(f"occupation fidelity {fidelity} below {FIDELITY_FLOOR}")
        return problems

    def _check_curve(self, m, curve, trials) -> list[str]:
        problems = []
        for row in curve:
            p = attack_exact(m, int(row["d"]))
            if not _close(row["p_exact"], float(p), RATIONAL_RTOL):
                problems.append(f"p_exact(d={row['d']}) = {row['p_exact']} != {float(p)}")
            sigma = math.sqrt(float(p * (1 - p)) / trials) + 1.0 / trials
            if abs(row["p_empirical"] - float(p)) > ATTACK_SIGMAS * sigma:
                problems.append(f"p_empirical(d={row['d']}) = {row['p_empirical']} is "
                                f"more than {ATTACK_SIGMAS} sigma from {float(p)}")
        return problems

    def check_attack(self, f, report) -> list[str]:
        m = int(f["--m"])
        problems = []
        if not _close(report["p_asymptote"], 1.0 / math.sqrt(math.pi * m), RATIONAL_RTOL):
            problems.append(f"p_asymptote {report['p_asymptote']} != 1/sqrt(pi m)")
        ds = [] if "--asymptote-only" in f else [int(d) for d in f.get("--d", "2,3,4,6,12").split(",")]
        if [row["d"] for row in report["curve"]] != ds:
            problems.append(f"curve covers d = {[row['d'] for row in report['curve']]}, not {ds}")
        return problems + self._check_curve(m, report["curve"], int(f.get("--trials", 100000)))

    def check_security(self, f, report) -> list[str]:
        m = int(f["--m"])
        problems = []
        limits = report["limits"]
        if not _close(limits["holevo_poincare_limit_bits"], m - math.log2(m + 1), RATIONAL_RTOL):
            problems.append("holevo_poincare_limit_bits != m - log2(m + 1)")
        if not _close(limits["hidden_bits_linear_asymptotic"],
                      0.5 * math.log2(math.pi * math.e * m / 2.0), RATIONAL_RTOL):
            problems.append("hidden_bits_linear_asymptotic != 1/2 log2(pi e m / 2)")
        label = f"m={m} {f.get('--ensemble', 'linear:180')}"
        if label not in EXPECTED:
            return problems + [f"no values recorded for {label}"]
        recorded = EXPECTED[label]

        def compare(path, want, got):
            if isinstance(want, dict):
                for key in want:
                    compare(f"{path}.{key}", want[key], got[key])
            elif abs(got - want) > RECORDED_TOL:
                problems.append(f"{path} = {got!r}, recorded {want!r}")
        for key, want in recorded.items():
            compare(key, want, report[key])
        return problems + self._check_curve(m, report["attack_curve"],
                                            int(f.get("--attack-trials", 100000)))

    def check_reconstruct(self, f, report) -> list[str]:
        problems = []
        if report["result"]["success"] is not True:
            problems.append("reconstruction reported failure")
        noise = "poisson" if "--counts" in f else "none"
        err = report["comparison"]["max_amplitude_error"]
        if not err <= AMPLITUDE_BOUND[noise]:
            problems.append(f"max_amplitude_error {err} above {AMPLITUDE_BOUND[noise]}")
        return problems

    def check_devices(self, f, report) -> list[str]:
        if "--dump" in f:
            return [] if report == self.builtin_payload(f["--dump"]) else ["dump differs from the device file"]
        problems = []
        names = [d["name"] for d in report["devices"]]
        if names != ["identity4", "u1", "u2"]:
            problems.append(f"device list is {names}")
        for entry in report["devices"]:
            raw = self.matrix(entry["name"])
            distance = float(np.max(np.abs(closest_unitary(raw) - raw)))
            if abs(entry["projection_distance"] - distance) > DEVICE_TOL:
                problems.append(f"{entry['name']} projection_distance {entry['projection_distance']} "
                                f"!= {distance}")
        return problems
