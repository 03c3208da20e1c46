"""Command-line front end: every pipeline as a reproducible, scriptable command.

Subcommands: walk (end-to-end encrypted protocol), attack (random-basis
eavesdropping curve), security (Holevo and trace-distance analysis),
reconstruct (characterization round trip), devices (embedded interferometers).

All output is machine-first JSON (``--csv`` gives flat tables for the walk and
attack commands). Every report echoes its fully resolved configuration, and a
given seed + configuration always produces byte-identical output. Each
subcommand returns its report text and exit code; ``main`` alone writes the
text, to stdout or to ``--out``. No command starts a thread. Imported before
numpy, this module pins BLAS to one thread, whatever the environment says.
Each command imports the engine modules it uses when it runs, so a report
loads no other numerical code.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

# one BLAS thread, set before numpy first loads: eigensolver bits, and so the
# security reports, would otherwise depend on the machine's BLAS thread count
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

from .numerics import finite_grid, make_rng, positive_int, unitarize  # noqa: E402

BUILTIN_DEVICES = ("identity4", "u1", "u2")
ATTACK_CURVE_D = (2, 3, 4, 6, 12)
HEDGE_ENSEMBLES = ("linear:180", "poincare:64,64,64")
HOLEVO_REFERENCES = ("linear:12", "linear:180")
# largest entrywise move a device file may take on projection to the nearest
# unitary; the built-ins move 0.109 (u1) and 0.063 (u2)
MAX_PROJECTION_DISTANCE = 0.25


@dataclass
class Device:
    name: str
    m: int
    unitary: np.ndarray
    projection_distance: float
    source: str


@contextmanager
def in_field(name: str):
    """Re-raise a ValueError raised inside the block as '<name>: <message>'."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def read_json(path):
    """Parse a JSON file; one that is not JSON text raises a ValueError naming the path."""
    try:
        return json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting past the parser's depth
        raise ValueError(f"{path}: not a JSON file ({exc})") from None


def unitary_to_payload(U) -> dict:
    """Serialize a mode unitary to the device-file JSON structure."""
    M = np.asarray(U, dtype=complex)
    return {"m": int(M.shape[0]), "unitary": np.stack([M.real, M.imag], axis=-1).tolist()}


def unitary_from_payload(payload) -> np.ndarray:
    """Complex matrix of the device-file JSON structure (row = output mode), read bit for bit."""
    if not isinstance(payload, dict) or "m" not in payload or "unitary" not in payload:
        raise ValueError("device payload must be an object with 'm' and 'unitary'")
    m = positive_int(payload["m"], "'m'")
    return finite_grid(payload["unitary"], (m, m, 2), "'unitary'").view(complex)[..., 0]


def load_device(name_or_path: str) -> Device:
    """Load a builtin device by name or any device JSON by path.

    Printed device matrices are rounded, so the stored matrix is projected to
    the closest unitary on load; projection_distance records how far it moved.
    A device that would move more than MAX_PROJECTION_DISTANCE is rejected.
    """
    path = Path(name_or_path)
    name, source = path.stem, str(path)
    if name_or_path in BUILTIN_DEVICES:
        path = resources.files("qhewalk").joinpath(f"devices/{name_or_path}.json")
        name, source = name_or_path, "builtin"
    elif not path.is_file():
        raise ValueError(f"unknown device {name_or_path!r}: not a builtin "
                         f"({', '.join(BUILTIN_DEVICES)}) and not a file")
    raw = unitary_from_payload(read_json(path))
    exact = unitarize(raw)
    distance = float(np.max(np.abs(exact - raw)))
    if distance > MAX_PROJECTION_DISTANCE:
        raise ValueError(f"device {name!r} is not close to unitary: projection_distance "
                         f"{distance:.3g} > {MAX_PROJECTION_DISTANCE}")
    return Device(name, raw.shape[0], exact, distance, source)


def device_echo(device: Device) -> dict:
    return {
        "name": device.name,
        "m": device.m,
        "source": device.source,
        "projection_distance": device.projection_distance,
    }


def parse_key_spec(spec: str, random_source):
    """(PolarizationKey, report echo) of a key spec.

    Key specs: linear:K/D (point K of linear:D) | euler:ALPHA,BETA,GAMMA | haar[:D1,D2,D3].
    """
    from .polarization import PolarizationKey, parse_ensemble, parse_grid

    kind, sep, rest = spec.partition(":")
    k, slash, d = rest.partition("/")
    with in_field(f"key {spec!r}"):
        if kind == "linear" and slash:
            key = parse_ensemble(f"linear:{d}").key(*parse_grid(k))
        elif kind == "euler" and len(rest.split(",")) == 3:
            key = PolarizationKey(*(float(p) for p in rest.split(",")))
        elif kind == "haar":
            key = parse_ensemble(f"poincare:{rest if sep else '64,64,64'}").sample(random_source)
        else:
            raise ValueError("expected linear:K/D, euler:A,B,G or haar[:D1,D2,D3]")
    echo = {"spec": spec, "alpha": float(key.alpha), "beta": float(key.beta),
            "gamma": float(key.gamma)}
    return key, echo


def _json_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ----------------------------------------------------------------- commands

def cmd_walk(args) -> tuple[str, int]:
    from .polarization import as_bits
    from .walk import (NoiseModel, bhattacharyya_fidelity, occupation_labels, postselect,
                       require_law_size, run_protocol)

    rng = make_rng(args.seed)
    with in_field("input"):
        bits = as_bits(args.input)
        require_law_size(len(bits), bits.count(0))  # one walker per 0 bit; before the device is read
    device = load_device(args.device)
    with in_field("input"):
        if len(bits) != device.m:
            raise ValueError(f"plaintext length {len(bits)} != mode count {device.m}")
    key, key_echo = parse_key_spec(args.key, rng)
    # each message names its field, as the report's config echoes it
    noise = NoiseModel(args.visibility, higher_order_rate=args.higher_order_rate)

    result = run_protocol(device.unitary, bits, key, args.shots, rng, noise=noise)

    # the law labelled once; the tally's outcomes are a subsequence of the law's, in its order
    exact_occ, counts = result.exact_occupations, result.occupation_counts
    labels = occupation_labels(exact_occ)
    exact = dict(zip(labels, exact_occ.values()))
    empirical = {label: counts[o] / result.shots for label, o in zip(labels, exact_occ) if o in counts}
    if args.csv:
        rows = sorted((label, repr(p), repr(empirical.get(label, 0.0))) for label, p in exact.items())
        return _csv_text(["outcome", "exact", "empirical"], rows), 0
    exact_bits, collision_probability = postselect(exact_occ)
    empirical_bits, collisions = postselect(counts)

    report = {
        "command": "walk",
        "config": {
            "device": args.device,
            "input": "".join(str(b) for b in bits),
            "key": key_echo,
            "shots": int(args.shots),
            "seed": int(args.seed),
            "noise": {"hom_visibility": noise.hom_visibility,
                      "higher_order_rate": noise.higher_order_rate},
        },
        "device": device_echo(device),
        "exact": {
            "occupations": exact,
            "bitstrings": exact_bits,
            # with one walker the weight is sum([]) == 0, an int; the report prints 0.0
            "collision_probability": float(collision_probability),
        },
        "empirical": {
            "occupations": empirical,
            "bitstrings": empirical_bits,
            "collisions": collisions,
            "collision_fraction": collisions / result.shots,
        },
        "fidelity": {
            # labels sort like their tuples, so the sum runs in the same order
            "occupations": bhattacharyya_fidelity(exact, empirical),
            "bitstrings": bhattacharyya_fidelity(exact_bits, empirical_bits),
        },
    }
    return _json_text(report), 0


def cmd_attack(args) -> tuple[str, int]:
    from .polarization import as_bits, linear_ensemble, parse_grid
    from .security import attack_asymptote, require_attack_qubits, require_trials

    if args.m < 1:
        raise ValueError("m must be >= 1")
    if not args.asymptote_only:
        require_attack_qubits(args.m)  # before the m-bit plaintext is built
    with in_field("d"):
        # every key set is checked before the first trial is drawn, and with no curve to draw
        ds = [linear_ensemble(d).polar_size for d in parse_grid(args.d)]
    ds = [] if args.asymptote_only else ds
    require_trials(args.trials, "trials")
    rng = make_rng(args.seed)
    plaintext = None
    if not args.asymptote_only or args.plaintext is not None:
        plaintext = args.plaintext if args.plaintext is not None else "0" * args.m
        if len(as_bits(plaintext)) != args.m:
            raise ValueError(f"plaintext length {len(plaintext)} does not match m = {args.m}")

    curve = [dict(row, trials=int(args.trials))
             for row in _attack_curve(args.m, ds, plaintext, args.trials, rng)]

    report = {
        "command": "attack",
        "config": {
            "m": int(args.m),
            "d": ds,
            "plaintext": plaintext,
            "trials": int(args.trials),
            "seed": int(args.seed),
            "asymptote_only": bool(args.asymptote_only),
        },
        "p_asymptote": float(attack_asymptote(args.m)),
        "curve": curve,
    }
    if args.csv:
        rows = [(r["d"], repr(r["p_exact"]), repr(r["p_empirical"]), repr(r["stderr"]),
                 r["trials"]) for r in curve]
        return _csv_text(["d", "p_exact", "p_empirical", "stderr", "trials"], rows), 0
    return _json_text(report), 0


def _attack_curve(m: int, ds, plaintext, trials: int, rng) -> list[dict]:
    """Exact and simulated attack success for each key-set size d, drawn in order."""
    from .security import attack_success, simulate_attack

    curve = []
    for d in ds:
        exact = attack_success(m, d)
        empirical = simulate_attack(m, d, plaintext, trials, rng)
        curve.append({"d": d, "p_exact": float(exact),
                      "p_empirical": float(empirical),
                      "stderr": float(np.sqrt(empirical * (1.0 - empirical) / trials))})
    return curve


def cmd_security(args) -> tuple[str, int]:
    from .polarization import parse_ensemble
    from .security import (hidden_bits_linear_asymptotic, holevo, holevo_poincare_limit,
                           require_trials, weight_class_figures)

    require_trials(args.attack_trials, "attack_trials")
    ensemble = parse_ensemble(args.ensemble)
    rng = make_rng(args.seed)
    m = args.m  # weight_class_figures checks it before any density and the m-bit plaintext

    hedges = HEDGE_ENSEMBLES if m <= 6 else ()  # both candidate ensembles, side by side
    needs = dict.fromkeys(HOLEVO_REFERENCES, (1, 0))  # (entropies, distances) per ensemble
    needs.update((label, (needs.get(label, (0, 0))[0], min(3, m))) for label in hedges)
    needs[ensemble.label] = (m + 1 if args.explicit else 1, min(3, m))
    S, T = {}, {}
    for label, need in needs.items():  # one pass per ensemble: one key table, one density alive
        S[label], T[label] = weight_class_figures(m, parse_ensemble(label), *need)
    distances = {label: {f"hamming_{w}": t for w, t in enumerate(T[label], 1)} for label in T}

    report = {
        "command": "security",
        "config": {
            "m": int(m),
            "ensemble": ensemble.label,
            "explicit": bool(args.explicit),
            "attack_trials": int(args.attack_trials),
            "seed": int(args.seed),
        },
        "m": int(m),
        "ensemble": ensemble.label,
        "holevo_bits": float(m - S[ensemble.label][0]),
        "entropy_bits": float(S[ensemble.label][0]),
        "holevo_reference": {label: float(m - S[label][0]) for label in HOLEVO_REFERENCES},
        "limits": {
            "holevo_poincare_limit_bits": float(holevo_poincare_limit(m)),
            "hidden_bits_linear_asymptotic": float(hidden_bits_linear_asymptotic(m)),
        },
    }
    if args.explicit:
        report["holevo_explicit_bits"] = float(holevo(m, S[ensemble.label]))

    report["attack_curve"] = _attack_curve(m, ATTACK_CURVE_D, "0" * m, args.attack_trials, rng)

    report["trace_distances"] = distances[ensemble.label]
    if hedges:
        report["trace_distances_by_ensemble"] = {label: distances[label] for label in hedges}
    return _json_text(report), 0


def cmd_reconstruct(args) -> tuple[str, int]:
    from .reconstruct import (MeasurementNoise, MeasurementSet, compare_to_truth,
                              reconstruct_unitary, require_threshold, synthesize_measurements)

    rng = make_rng(args.seed)
    for field in ("noise", "counts", "distinguishability"):
        if args.measurements and getattr(args, field) is not None:
            raise ValueError(f"{field} applies to synthesized data, not to --measurements")
    if args.noise == "poisson" and args.counts is None:
        raise ValueError("--noise poisson requires --counts")
    if args.noise == "none" and args.counts is not None:
        raise ValueError("--noise none contradicts --counts")

    # each message names its field, counts_scale or distinguishability, as the report echoes it
    noise = MeasurementNoise(args.counts, MeasurementNoise.distinguishability
                             if args.distinguishability is None else args.distinguishability)
    require_threshold(args.threshold, "threshold")
    device = load_device(args.device) if args.device else None

    if args.measurements:
        meas = MeasurementSet.from_payload(read_json(Path(args.measurements)))
        noise_echo = "file"
    elif device is not None:
        meas = synthesize_measurements(device.unitary, noise, rng)
        noise_echo = "none" if args.counts is None else "poisson"
    else:
        raise ValueError("reconstruct needs --device or --measurements")

    result = reconstruct_unitary(meas, restarts=args.restarts, seed=rng,
                                 residual_threshold=args.threshold)
    recovered = result.unitary.matrix

    report = {
        "command": "reconstruct",
        "config": {
            "device": args.device,
            "measurements": args.measurements,
            "noise": noise_echo,
            "counts": None if args.counts is None else float(args.counts),
            "distinguishability": float(noise.distinguishability),
            "restarts": int(args.restarts),
            "threshold": float(args.threshold),
            "seed": int(args.seed),
        },
        "device": device_echo(device) if device is not None else None,
        "measurements": meas.to_payload(),
        "result": {
            "success": bool(result.success),
            "residual": float(result.residual),
            "restarts_used": int(result.restarts_used),
            "unitary": unitary_to_payload(recovered),
        },
    }
    if device is not None:
        amp_err, phase_err = compare_to_truth(recovered, device.unitary)
        report["comparison"] = {
            "max_amplitude_error": float(np.max(amp_err)),
            "max_phase_error_rad": float(np.max(phase_err)),
            "amplitude_errors": amp_err.tolist(),
            "phase_errors": phase_err.tolist(),
        }
    return _json_text(report), 0 if result.success else 3


def cmd_devices(args) -> tuple[str, int]:
    if args.dump:
        if args.dump not in BUILTIN_DEVICES:
            raise ValueError(f"unknown builtin device {args.dump!r}")
        payload = read_json(resources.files("qhewalk").joinpath(f"devices/{args.dump}.json"))
        return _json_text(payload), 0
    report = {
        "command": "devices",
        "devices": [device_echo(load_device(name)) for name in BUILTIN_DEVICES],
    }
    return _json_text(report), 0


# ------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhewalk",
        description="Simulator and analysis toolkit for the encrypted photonic walk protocol.")
    sub = parser.add_subparsers(dest="command", required=True)

    walk = sub.add_parser("walk", help="run the encrypted protocol end to end")
    walk.add_argument("--device", required=True, help="builtin name (u1, u2, identity4) or JSON path")
    walk.add_argument("--input", required=True, help="plaintext bit-string, e.g. 0111")
    walk.add_argument("--key", default="linear:0/1",
                      help="linear:K/D | euler:A,B,G | haar[:D1,D2,D3] (default linear:0/1)")
    walk.add_argument("--shots", type=int, default=100000)
    walk.add_argument("--seed", type=int, default=0)
    walk.add_argument("--visibility", type=float, default=1.0,
                      help="two-photon interference visibility (default 1.0)")
    walk.add_argument("--higher-order-rate", type=float, default=0.0,
                      help="probability a shot is replaced by a spurious uniform outcome")
    walk.add_argument("--csv", action="store_true", help="flat outcome table instead of JSON")
    walk.add_argument("--out", help="write output to this path instead of stdout")
    walk.set_defaults(func=cmd_walk)

    attack = sub.add_parser("attack", help="random-basis eavesdropping success curve")
    attack.add_argument("--m", type=int, required=True)
    attack.add_argument("--d", default=",".join(map(str, ATTACK_CURVE_D)),
                        help="comma list of key-set sizes")
    attack.add_argument("--plaintext", default=None, help="default all zeros")
    attack.add_argument("--trials", type=int, default=100000)
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--asymptote-only", action="store_true",
                        help="report just the 1/sqrt(pi m) asymptote")
    attack.add_argument("--csv", action="store_true")
    attack.add_argument("--out")
    attack.set_defaults(func=cmd_attack)

    security = sub.add_parser("security", help="Holevo quantity and trace-distance analysis")
    security.add_argument("--m", type=int, required=True)
    security.add_argument("--ensemble", default="linear:180",
                          help="linear:<d> or poincare:<d1>,<d2>,<d3> (default linear:180)")
    security.add_argument("--explicit", action="store_true",
                          help="also report the Holevo quantity by definition "
                               "(one density per plaintext weight, m + 1 in all)")
    security.add_argument("--attack-trials", type=int, default=100000)
    security.add_argument("--seed", type=int, default=0)
    security.add_argument("--out")
    security.set_defaults(func=cmd_security)

    rec = sub.add_parser("reconstruct", help="synthesize measurements and recover the unitary")
    rec.add_argument("--device", help="ground-truth device (builtin name or JSON path)")
    rec.add_argument("--measurements", help="measurement-set JSON path (skips synthesis)")
    rec.add_argument("--noise", choices=["none", "poisson"], default=None)
    rec.add_argument("--counts", type=float, default=None,
                     help="expected detections per setting (implies Poisson noise)")
    rec.add_argument("--distinguishability", type=float, default=None,
                     help="spectral overlap damping all visibilities (default 1.0)")
    rec.add_argument("--restarts", type=int, default=16)
    rec.add_argument("--threshold", type=float, default=0.05,
                     help="visibility-residual threshold for success")
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--out")
    rec.set_defaults(func=cmd_reconstruct)

    devices = sub.add_parser("devices", help="list or dump the embedded devices")
    devices.add_argument("--dump", help="print one builtin device file as indented JSON")
    devices.add_argument("--out")
    devices.set_defaults(func=cmd_devices)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = args.func(args)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
