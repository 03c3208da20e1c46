"""Write a fixed set of qhewalk reports to a directory, or compare two such directories.

    python tests/golden_reports.py OUTDIR
    python tests/golden_reports.py --compare A B

Runs every argv in REPORTS in process against the ``qhewalk`` in this
checkout's ``src/``, on one BLAS thread, and writes NAME.out (stdout, or the
``--out`` file for ``--csv`` reports) and, when the report fails or writes to
stderr, NAME.err (exit code and stderr) into OUTDIR. The Haar 8-mode device
files and a measurement file are written under OUTDIR/devices and named by
relative paths, so two checkouts give byte-identical files wherever their
reports agree.

``tests/test_cli.py`` writes the set twice, at ``PYTHONHASHSEED`` 1 with no
BLAS thread variable set and at ``PYTHONHASHSEED`` 2 with each set to 2, and
requires every file byte-identical: this is tier-1's determinism check.

``--compare``, for the sets of two checkouts, matches ``.err`` files byte for
byte and every other file as a JSON or CSV report: the same structure, strings
and booleans, and every number within TOLERANCE (relative, or absolute below
magnitude 1). It prints each differing file with its largest deviation and
exits 1 on any structural difference or any deviation above TOLERANCE. The
file is not a test module; pytest does not collect it.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

# first: the command line pins BLAS to one thread before numpy loads
from qhewalk.cli import main as qhewalk_main  # noqa: E402

import numpy as np  # noqa: E402

from qhewalk.numerics import make_rng  # noqa: E402
from qhewalk.reconstruct import MeasurementNoise, synthesize_measurements  # noqa: E402
from oracles import haar_unitary  # noqa: E402

HAAR8_DEVICES = 3
MEASUREMENTS = "devices/haar4-poisson-measurements.json"
TOLERANCE = 1e-12
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
    ("security-m8-explicit", ["security", "--m", "8", "--explicit", "--attack-trials", "5000"]),
    ("security-m6-poincare-explicit", ["security", "--m", "6", "--ensemble", "poincare:64,64,64",
                                       "--explicit", "--attack-trials", "5000"]),
    ("security-m8-poincare-explicit", ["security", "--m", "8", "--ensemble", "poincare:64,64,64",
                                       "--explicit", "--attack-trials", "5000"]),
    # m = 8 at the default attack trials
    ("security-m8-linear180", ["security", "--m", "8", "--ensemble", "linear:180"]),
    ("security-m8-poincare-explicit-default-trials",
     ["security", "--m", "8", "--ensemble", "poincare:64,64,64", "--explicit"]),
    ("reconstruct-u1", ["reconstruct", "--device", "u1", "--noise", "none", "--seed", "1"]),
    ("reconstruct-u2-poisson", ["reconstruct", "--device", "u2", "--counts", "1e5",
                                "--restarts", "4", "--seed", "2"]),
    ("reconstruct-haar8-poisson", ["reconstruct", "--device", "devices/haar8-0.json",
                                   "--counts", "1e5", "--seed", "5"]),
    ("reconstruct-u2-distinguishability", ["reconstruct", "--device", "u2",
                                           "--distinguishability", "0.9"]),
    ("reconstruct-measurements-file", ["reconstruct", "--measurements", MEASUREMENTS]),
    ("devices", ["devices"]),
    ("devices-dump-u1", ["devices", "--dump", "u1"]),
]


def write_inputs(outdir: Path) -> None:
    """The Haar 8-mode device files and one measurement file, synthesized with Poisson counts."""
    rng = np.random.default_rng(808)
    (outdir / "devices").mkdir(parents=True, exist_ok=True)
    for k in range(HAAR8_DEVICES):
        U = haar_unitary(8, rng)
        payload = {"m": 8, "unitary": [[[float(z.real), float(z.imag)] for z in row] for row in U]}
        (outdir / "devices" / f"haar8-{k}.json").write_text(json.dumps(payload))
    meas = synthesize_measurements(haar_unitary(4, rng), MeasurementNoise(1e6), make_rng(808))
    (outdir / MEASUREMENTS).write_text(json.dumps(meas.to_payload()))


class StructuralDifference(Exception):
    """Two reports differ in something other than the value of a number."""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _deviation(a, b) -> float:
    """Largest scaled difference between the numbers of two parsed reports of one structure."""
    if _is_number(a) and _is_number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        return abs(a - b) / max(1.0, abs(a), abs(b))
    if type(a) is not type(b):
        raise StructuralDifference(f"{a!r} vs {b!r}")
    if isinstance(a, dict):
        if a.keys() != b.keys():
            raise StructuralDifference(f"keys {sorted(a.keys() ^ b.keys())} in one report only")
        return max((_deviation(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list):
        if len(a) != len(b):
            raise StructuralDifference(f"{len(a)} vs {len(b)} entries")
        return max((_deviation(x, y) for x, y in zip(a, b)), default=0.0)
    if a != b:
        raise StructuralDifference(f"{a!r} vs {b!r}")
    return 0.0


def _parse(text: str):
    """A report as JSON, or else as CSV rows with every numeric cell a float."""
    try:
        return json.loads(text)
    except ValueError:
        pass

    def cell(value):
        try:
            return float(value)
        except ValueError:
            return value
    return [[cell(v) for v in row] for row in csv.reader(io.StringIO(text))]


def compare(a_dir: Path, b_dir: Path) -> int:
    """Print every file that differs between two report directories; 1 if any is out of tolerance."""
    names = sorted({p.relative_to(d).as_posix() for d in (a_dir, b_dir)
                    for p in d.rglob("*") if p.is_file()})
    differing = failed = 0
    for name in names:
        a, b = a_dir / name, b_dir / name
        try:
            if not (a.is_file() and b.is_file()):
                raise StructuralDifference(f"only in {a_dir if a.is_file() else b_dir}")
            if name.endswith(".err"):
                if a.read_bytes() != b.read_bytes():
                    raise StructuralDifference("bytes differ")
                continue
            deviation = _deviation(_parse(a.read_text()), _parse(b.read_text()))
        except StructuralDifference as exc:
            differing, failed = differing + 1, failed + 1
            print(f"{name}: structural difference: {exc}")
            continue
        if deviation > 0.0:
            differing += 1
            failed += deviation > TOLERANCE
            print(f"{name}: max deviation {deviation:.3g}")
    print(f"{differing} of {len(names)} files differ; {failed} structurally or above {TOLERANCE:g}")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        dirs = [Path(d) for d in argv[1:]]
        missing = [str(d) for d in dirs if not d.is_dir()]
        if missing:
            print(f"not a directory: {', '.join(missing)}", file=sys.stderr)
            return 2
        return compare(*dirs)
    if len(argv) != 1:
        print("usage: python tests/golden_reports.py OUTDIR | --compare A B", file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    write_inputs(outdir)
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
