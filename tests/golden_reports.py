"""Write a fixed set of qhewalk reports to a directory, for byte comparison.

    python tests/golden_reports.py OUTDIR

Runs every argv in REPORTS in process against the ``qhewalk`` in this
checkout's ``src/``, with QHE_THREADS=1, and writes NAME.out (stdout, or the
``--out`` file for ``--csv`` reports) and, when the report fails or writes to
stderr, NAME.err (exit code and stderr) into OUTDIR. Device files are written
under OUTDIR and named by relative paths, so two checkouts give byte-identical
files wherever their reports agree: compare them with ``diff -r``. The file is
not a test module; pytest does not collect it.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from oracles import haar_unitary  # noqa: E402

HAAR8_DEVICES = 3
WALK_NOISE = (("1.0", "0.0"), ("0.9", "0.0"), ("0.9", "0.01"), ("0.5", "0.2"))
WALK_KEYS = ("linear:0/1", "linear:1/4", "haar", "euler:1.0,2.0,3.0")


def _walks() -> list[tuple[str, list[str]]]:
    reports = []
    cases = [(device, bits) for device in ("u1", "u2", "identity4")
             for bits in ("0111", "0011", "1000", "0000")]
    cases += [(f"devices/haar8-{k}.json", bits) for k in range(HAAR8_DEVICES)
              for bits in ("00100001", "00000011")]
    for i, (device, bits) in enumerate(cases):
        for j, (visibility, rate) in enumerate(WALK_NOISE):
            argv = ["walk", "--device", device, "--input", bits,
                    "--key", WALK_KEYS[(i + j) % len(WALK_KEYS)],
                    "--visibility", visibility, "--higher-order-rate", rate,
                    "--shots", "200000" if device.startswith("devices/") else "20000",
                    "--seed", str(10 * i + j)]
            name = f"walk-{Path(device).stem}-{bits}-v{visibility}-r{rate}"
            reports.append((name, argv))
            if bits in ("0011", "00000011"):
                reports.append((name + "-csv", argv + ["--csv"]))
    # key echoes, among them the quarter turns
    for spec in ("linear:1/2", "linear:25/50", "linear:3/4", "linear:2/3", "linear:99/198",
                 "haar:8,9,8"):
        reports.append((f"walk-key-{spec.replace(':', '-').replace('/', '-')}",
                        ["walk", "--device", "u1", "--input", "0101", "--key", spec,
                         "--shots", "1000"]))
    reports += [("walk-reject-length", ["walk", "--device", "u1", "--input", "011"]),
                ("walk-reject-key", ["walk", "--device", "u1", "--input", "0101",
                                     "--key", "linear:1/x"]),
                ("walk-reject-shots", ["walk", "--device", "u1", "--input", "0101",
                                       "--shots", "0"])]
    return reports


REPORTS = _walks() + [
    ("attack-m4", ["attack", "--m", "4", "--trials", "20000", "--seed", "3"]),
    ("attack-m3-plaintext-csv", ["attack", "--m", "3", "--plaintext", "101", "--d", "1,2,5",
                                 "--trials", "5000", "--csv"]),
    ("attack-asymptote", ["attack", "--m", "3500", "--asymptote-only"]),
    ("attack-reject-letter", ["attack", "--m", "2", "--d", "2,x"]),
    ("attack-reject-empty", ["attack", "--m", "2", "--d", "2,,3"]),
    ("security-m4-linear12", ["security", "--m", "4", "--ensemble", "linear:12",
                              "--attack-trials", "5000", "--seed", "4"]),
    ("security-m3-poincare-explicit", ["security", "--m", "3", "--ensemble", "poincare:8,9,8",
                                       "--explicit", "--attack-trials", "5000"]),
    ("security-m6", ["security", "--m", "6", "--attack-trials", "5000", "--seed", "6"]),
    ("reconstruct-u1", ["reconstruct", "--device", "u1", "--noise", "none", "--seed", "1"]),
    ("reconstruct-u2-poisson", ["reconstruct", "--device", "u2", "--counts", "1e5",
                                "--restarts", "4", "--seed", "2"]),
    ("devices", ["devices"]),
    ("devices-dump-u1", ["devices", "--dump", "u1"]),
]


def write_haar_devices(outdir: Path) -> None:
    rng = np.random.default_rng(808)
    (outdir / "devices").mkdir(parents=True, exist_ok=True)
    for k in range(HAAR8_DEVICES):
        U = haar_unitary(8, rng)
        payload = {"m": 8, "unitary": [[[float(z.real), float(z.imag)] for z in row] for row in U]}
        (outdir / "devices" / f"haar8-{k}.json").write_text(json.dumps(payload))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/golden_reports.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    os.environ["QHE_THREADS"] = "1"
    from qhewalk.cli import main as qhewalk_main

    write_haar_devices(outdir)
    os.chdir(outdir)
    for name, report in REPORTS:
        out, err = io.StringIO(), io.StringIO()
        csv_path = f"{name}.out" if "--csv" in report else None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qhewalk_main(report + (["--out", csv_path] if csv_path else []))
        if not csv_path:
            Path(f"{name}.out").write_text(out.getvalue())
        if code or err.getvalue():
            Path(f"{name}.err").write_text(f"exit {code}\n{err.getvalue()}")
    print(f"{len(REPORTS)} reports in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
