"""Work ledger: the kernel calls a fixed list of reports makes, counted in process.

Each kernel is wrapped in every qhewalk namespace that bound it; a call adds one
to the kernel's count and its size to the kernel's total. The pinned ledgers are
the work the program does today. A change that alters the work updates them and
says why, so a saving (or a repeat) shows up as a reviewed change to these
figures. Unlike wall time, the counts do not depend on the machine.
"""
import contextlib
import io
import json
import sys

import numpy as np
import pytest

import qhewalk.reconstruct  # noqa: F401  (cli imports each engine when a command runs)
import qhewalk.security  # noqa: F401
import qhewalk.walk  # noqa: F401
from qhewalk.cli import main, unitary_to_payload
from oracles import haar_unitary

# (defining module, name): size of one call from its positional arguments and result,
# or None for a kernel counted by calls alone
KERNELS = {
    ("qhewalk.numerics", "permanent"): lambda args, result: len(args[0]) * 2 ** len(args[0]),
    ("qhewalk.security", "_weight_density"): lambda args, result: result.size,  # D^2
    ("qhewalk.polarization", "rotation_matrices"): None,
    ("qhewalk.numerics", "hermitian_eig"): lambda args, result: len(args[0]),  # dim
    ("qhewalk.security", "simulate_attack"): lambda args, result: args[1],  # keys d
    ("qhewalk.reconstruct", "_levenberg_marquardt"): None,
}
# LM calls and restarts follow floating-point paths: reported, not pinned
UNPINNED = {"_levenberg_marquardt"}
ATTACK_CURVE = {"simulate_attack": (5, 27)}  # d = 2, 3, 4, 6, 12


def ledger(argv, monkeypatch) -> dict:
    """{kernel: (calls, total size or None)} of one report run through cli.main."""
    counts = {name: [0, 0 if size else None] for (_, name), size in KERNELS.items()}

    def counted(fn, name, size):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name][0] += 1
            if size:
                counts[name][1] += size(args, result)
            return result
        return wrapper

    for (module, name), size in KERNELS.items():
        fn = getattr(sys.modules[module], name)
        wrapper = counted(fn, name, size)
        for namespace in list(sys.modules.values()):
            if getattr(namespace, "__name__", "").startswith("qhewalk") \
                    and getattr(namespace, name, None) is fn:
                monkeypatch.setattr(namespace, name, wrapper)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, argv
    return {name: tuple(value) for name, value in counts.items() if value[0]}


CASES = {
    # C(13, 6) = 1,716 outcomes of 6 walkers in 8 modes, one 6 x 6 permanent (6 * 2^6) each
    "walk-haar8": (["walk", "--device", "HAAR8", "--input", "00100001", "--visibility", "0.9",
                    "--shots", "1000"],
                   {"permanent": (1716, 658944)}),
    # at m = 6 the report's ensemble and both hedges read T(rho_0, rho_w) for w = 1..3: rho_w
    # and rho_0 in its basis. Only the report's ensemble and linear:12 read S(rho_0), so a
    # hedge that is not the report's ensemble builds no rho_0. m = 8 has no hedges. Each
    # ensemble's pass builds one key table: one rotation_matrices call per ensemble.
    "security-m6-linear": (["security", "--m", "6", "--ensemble", "linear:180"],
                           {"_weight_density": (14, 2598), "rotation_matrices": (3, None),
                            "hermitian_eig": (8, 100), **ATTACK_CURVE}),
    "security-m6-poincare": (["security", "--m", "6", "--ensemble", "poincare:64,64,64"],
                             {"_weight_density": (15, 2647), "rotation_matrices": (3, None),
                              "hermitian_eig": (9, 107), **ATTACK_CURVE}),
    "security-m8-linear": (["security", "--m", "8", "--ensemble", "linear:180"],
                           {"_weight_density": (8, 2708), "rotation_matrices": (2, None),
                            "hermitian_eig": (5, 79), **ATTACK_CURVE}),
    "attack-m4": (["attack", "--m", "4"], ATTACK_CURVE),
    "reconstruct-u2-noisy": (["reconstruct", "--device", "u2", "--counts", "1000000"], {}),
}


@pytest.mark.parametrize("case", CASES)
def test_work_ledger(case, tmp_path, monkeypatch):
    argv, pinned = CASES[case]
    device = tmp_path / "haar8.json"
    device.write_text(json.dumps(unitary_to_payload(haar_unitary(8, np.random.default_rng(8)))))
    argv = [str(device) if arg == "HAAR8" else arg for arg in argv]
    work = ledger(argv, monkeypatch)
    assert {name: value for name, value in work.items() if name not in UNPINNED} == pinned, work
