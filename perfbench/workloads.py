"""Seeded report lists of the benchmark workloads.

Each workload is a fixed list of ``qhewalk`` argv lists derived from the
benchmark seed. The program sees only that argv and the device files written
here; the matrices are kept for the correctness checks.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WALK_M8_REPORTS = 4
SECURITY_M6_ENSEMBLES = ("linear:180", "poincare:64,64,64", "linear:180")


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix with the R-diagonal phase fixed."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def write_device(path: Path, U: np.ndarray) -> None:
    payload = {"m": int(U.shape[0]),
               "unitary": [[[float(z.real), float(z.imag)] for z in row] for row in U]}
    path.write_text(json.dumps(payload))


def plaintext(rng: np.random.Generator, m: int, ones: int) -> str:
    bits = ["0"] * m
    for j in rng.choice(m, size=ones, replace=False):
        bits[int(j)] = "1"
    return "".join(bits)


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


def walk_m8(rng, device_dir: Path, devices: dict) -> list[list[str]]:
    """Seeded Haar 8-mode devices, six walkers and two dummies each."""
    reports = []
    for k in range(WALK_M8_REPORTS):
        path = device_dir / f"haar8-{k}.json"
        U = haar_unitary(8, rng)
        write_device(path, U)
        devices[str(path)] = U
        reports.append(["walk", "--device", str(path), "--input", plaintext(rng, 8, 2),
                        "--key", "haar", "--visibility", "0.9", "--higher-order-rate", "0.01",
                        "--shots", "200000", "--seed", _seed(rng)])
    return reports


def security_m6(rng, device_dir: Path, devices: dict) -> list[list[str]]:
    """Key streaming and 64-dim densities, alternating linear and full-sphere keys."""
    return [["security", "--m", "6", "--ensemble", ensemble, "--seed", _seed(rng)]
            for ensemble in SECURITY_M6_ENSEMBLES]


def cli_light(rng, device_dir: Path, devices: dict) -> list[list[str]]:
    """Short everyday commands on the built-in 4-mode devices."""
    d = int(rng.integers(2, 13))
    euler = (rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
    walks = [("u1", f"linear:{int(rng.integers(0, d))}/{d}"),
             ("u2", "euler:" + ",".join(repr(float(a)) for a in euler)),
             ("identity4", "haar")]
    reports = [["devices"], ["devices", "--dump", "u2"]]
    for device, key in walks:
        reports.append(["walk", "--device", device, "--input",
                        plaintext(rng, 4, int(rng.integers(1, 3))), "--key", key,
                        "--seed", _seed(rng)])
    reports += [["attack", "--m", "4", "--seed", _seed(rng)],
                ["attack", "--m", "3500", "--asymptote-only"],
                ["security", "--m", "8", "--ensemble", "linear:180", "--seed", _seed(rng)]]
    for device in ("u1", "u2"):
        reports.append(["reconstruct", "--device", device, "--noise", "none", "--seed", _seed(rng)])
        reports.append(["reconstruct", "--device", device, "--counts", "1000000",
                        "--seed", _seed(rng)])
    return reports


WORKLOADS = {"walk-m8": walk_m8, "security-m6": security_m6, "cli-light": cli_light}


def build(workload: str, seed: int, device_dir: Path) -> tuple[list[list[str]], dict]:
    """Report list of one workload and the matrices of the device files it wrote."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, sorted(WORKLOADS).index(workload)]))
    devices: dict = {}
    return WORKLOADS[workload](rng, device_dir, devices), devices
