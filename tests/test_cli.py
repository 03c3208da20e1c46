import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhewalk.cli import load_device, main, unitary_to_payload
from qhewalk.numerics import make_rng
from qhewalk.reconstruct import MeasurementNoise, reconstruct_unitary, synthesize_measurements
from qhewalk.security import MAX_TRIALS
from oracles import haar_unitary

GOLDEN = Path(__file__).with_name("golden_reports.py")


def report(capsys, *argv, code=0) -> dict:
    """A JSON report run in process through main, which must return code."""
    assert main(list(argv)) == code, capsys.readouterr().err
    return json.loads(capsys.readouterr().out)


def fresh(*args, env=None) -> subprocess.CompletedProcess:
    """[sys.executable, *args] in a fresh interpreter, for a test whose subject is the process:
    its imports, its heap, its environment or its exit before any work. An input that is
    unbounded again fails the suite within the timeout instead of hanging it."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=10)


class TestWalkCommand:
    def test_identity_device_returns_plaintext(self, capsys):
        out = report(capsys, "walk", "--device", "identity4", "--input", "1010", "--shots", "10")
        assert out["empirical"]["bitstrings"] == {"1010": 1.0}
        assert out["empirical"]["collisions"] == 0
        assert out["exact"]["occupations"]["[0,1,0,1]"] == 1.0

    def test_single_walker_fidelity(self, capsys):
        out = report(capsys, "walk", "--device", "u1", "--input", "0111",
                     "--shots", "100000", "--seed", "7")
        assert out["fidelity"]["occupations"] >= 0.995
        assert out["fidelity"]["bitstrings"] >= 0.995

    def test_exact_distribution_is_key_independent(self, capsys):
        base = report(capsys, "walk", "--device", "u2", "--input", "0111",
                      "--shots", "1000", "--key", "linear:0/1")
        other = report(capsys, "walk", "--device", "u2", "--input", "0111",
                       "--shots", "1000", "--key", "linear:1/4")
        assert base["exact"] == other["exact"]

    def test_haar_key_accepted(self, capsys):
        out = report(capsys, "walk", "--device", "u1", "--input", "0011",
                     "--shots", "500", "--key", "haar", "--seed", "5")
        assert out["config"]["key"]["spec"] == "haar"
        assert 0.0 <= out["config"]["key"]["beta"] <= np.pi

    @pytest.mark.parametrize("axis", [0, 2])
    def test_haar_axis_bound(self, axis, capsys):
        # a key is one int64 draw per axis: 2^63 points is the largest axis it can draw from
        # (one point more is a row of refusals)
        dims = ["2", "2", "2"]
        dims[axis] = str(2 ** 63)
        report(capsys, "walk", "--device", "u1", "--input", "0110", "--shots", "10",
               "--key", "haar:" + ",".join(dims))

    def test_csv_output(self, capsys):
        assert main(["walk", "--device", "identity4", "--input", "0000", "--shots", "10",
                     "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "outcome,exact,empirical"
        assert any(line.startswith('"[1,1,1,1]"') for line in lines[1:])

    def test_bitstring_law_normalized_when_collisions_dominate(self, tmp_path, capsys):
        # six walkers on eight Haar modes: about 2% of the law is collision-free
        U = haar_unitary(8, np.random.default_rng(0))
        path = tmp_path / "haar8.json"
        path.write_text(json.dumps({"m": 8, "unitary": [[[float(z.real), float(z.imag)] for z in row]
                                                        for row in U]}))
        out = report(capsys, "walk", "--device", str(path), "--input", "00000011", "--shots", "100")
        assert out["exact"]["collision_probability"] > 0.95
        assert abs(math.fsum(out["exact"]["bitstrings"].values()) - 1.0) <= 1e-15


class Refusal(NamedTuple):
    """One input the command line refuses with exit 2 and empty stdout, and the text its
    stderr must start with (a text that starts 'error:') or contain. A bounded row refuses
    before work that could hang the suite, so it runs only as a fresh process under a 10 s
    timeout. once: a word the message holds exactly once (a flag's field is named once)."""
    argv: tuple
    text: str
    bounded: bool = False
    once: str = ""


def refusals(tmp_path) -> list[Refusal]:
    """The input contract's refusals, one row each, with the files they read in tmp_path."""
    def write(name, payload):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def edited(name, payload, *keys, value):
        """Write a copy of a JSON payload whose entry at keys is value."""
        payload = json.loads(json.dumps(payload))
        node = payload
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return write(name, payload)

    not_json = write("not-json.json", "U = [[1, 0], [0, 1]]\n")
    deep = write("deep.json", "[" * 200_000)  # nested past the JSON parser's recursion limit
    good = synthesize_measurements(haar_unitary(3, np.random.default_rng(3))).to_payload()
    meas = write("meas.json", good)
    repeated = write("repeated.json", dict(good, visibilities=[
        *good["visibilities"], dict(good["visibilities"][2], value=-0.9)]))
    # 6 walkers in 41 modes: 9,366,819 outcomes; one mode past each corner of the law
    # bound: 6 walkers in 21 modes, 2 walkers in 318 modes (16,129,278 cells)
    wide, corner, widest = (write(f"identity{m}.json", unitary_to_payload(np.eye(m)))
                            for m in (41, 21, 318))
    # a fit needs a mode pair; 100 modes would synthesize C(100, 2)^2 pair settings
    one_mode, hundred_modes = (write(f"identity{m}.json", unitary_to_payload(np.eye(m)))
                               for m in (1, 100))
    # a boolean is not a number, and a device must lie near a unitary
    bool_m = write("bool-m.json", {"m": True, "unitary": [[[1, 0]]]})
    bool_entry = write("bool-entry.json", {"m": 1, "unitary": [[[True, False]]]})
    huge_entry = write("huge-entry.json", {"m": 1, "unitary": [[[10 ** 400, 0]]]})
    far = write("far.json", unitary_to_payload(0.001 * np.eye(3)))
    # one change each to a 2-mode measurement file
    two = {"m": 2, "intensities": [[0.5, 0.5], [0.5, 0.5]],
           "visibilities": [{"inputs": [0, 1], "outputs": [0, 1], "value": 1.0}]}
    negative_scale = edited("negative-scale.json", two, "counts_scale", value=-5)
    bad_key = edited("bad-key.json", two, "visibilities", 0, "inputs", value=[1, 0])
    bad_value = edited("bad-value.json", two, "visibilities", 0, "value", value=1.5)
    bad_intensity = edited("bad-intensity.json", two, "intensities", 1, 1, value=1.5)
    walk = ("walk", "--device", "identity4", "--input", "0101", "--shots", "10")
    fit = ("reconstruct", "--measurements", meas, "--restarts", "1", "--threshold", "1e9")
    rows = [Refusal((*walk, "--key", spec), "key")
            for spec in ("linear:1/x", "linear:1/3/4", "haar:a,b,c", "euler:1,x,1")]
    for dims in (f"{2 ** 63 + 1},2,2", f"2,2,{2 ** 63 + 1}"):
        rows.append(Refusal(("walk", "--device", "u1", "--input", "0110", "--shots", "10",
                             "--key", f"haar:{dims}"),
                            f"error: key 'haar:{dims}': ensemble poincare:{dims}: "
                            "keys are drawn from axes of at most 2^63 points"))
    rows += [Refusal(("walk", "--device", not_json, "--input", "01"), not_json),
             Refusal(("reconstruct", "--measurements", not_json), not_json),
             Refusal(("walk", "--device", deep, "--input", "01"), deep, bounded=True),
             Refusal(("reconstruct", "--measurements", deep), deep, bounded=True),
             Refusal(("walk", "--device", bool_m, "--input", "0", "--shots", "10"),
                     "error: 'm' must be an integer >= 1, got True"),
             Refusal(("walk", "--device", bool_entry, "--input", "0", "--shots", "10"),
                     "error: 'unitary'[0][0][0] must be a finite number, got True"),
             # a 401-digit entry is echoed short, as is the 4,001-digit m below
             Refusal(("walk", "--device", huge_entry, "--input", "0"),
                     "error: 'unitary'[0][0][0] must be a finite number, got 1000"),
             Refusal(("walk", "--device", far, "--input", "011", "--shots", "10"),
                     "error: device 'far' is not close to unitary: projection_distance 0.999 > 0.25"),
             Refusal(("walk", "--device", "bogus", "--input", "0000", "--shots", "1"),
                     "error: unknown device 'bogus'"),
             Refusal(("devices", "--dump", "nope"), "error: unknown builtin device 'nope'"),
             # synthesis flags cannot shape data read from a file
             Refusal((*fit, "--counts", "100"), "counts"),
             Refusal((*fit, "--distinguishability", "0.5"), "distinguishability"),
             Refusal((*fit, "--noise", "none"), "noise"),
             # nor can the noise flags contradict each other
             Refusal(("reconstruct", "--device", "u1", "--noise", "none", "--counts", "100"),
                     "error: --noise none contradicts --counts"),
             Refusal(("reconstruct", "--device", "u1", "--noise", "poisson"),
                     "error: --noise poisson requires --counts"),
             Refusal(("attack", "--m", "2", "--d", "2,x"), "d:"),
             Refusal(("attack", "--m", "2", "--d", "2,,3"), "d:"),
             Refusal(("attack", "--m", "2", "--d", "0"), "d:"),
             Refusal(("attack", "--m", "2", "--d", "70000"), "d:"),
             Refusal(("attack", "--m", "2", "--d", "2,0"), "d:"),
             Refusal(("walk", "--device", "u1", "--input", "011"),
                     "error: input: plaintext length 3 != mode count 4"),
             Refusal(("walk", "--device", "u1", "--input", "01a1"), "input:"),
             # the library's message names the flag's field once
             Refusal(("walk", "--device", "u1", "--input", "0110", "--visibility", "2"),
                     "error: hom_visibility must lie in", once="visibility"),
             Refusal(("walk", "--device", "u1", "--input", "0110", "--higher-order-rate", "2"),
                     "error: higher_order_rate must lie in"),
             Refusal(("reconstruct", "--device", "u1", "--distinguishability", "2"),
                     "error: distinguishability must lie in"),
             Refusal(("reconstruct", "--device", "u1", "--counts", "0"),
                     "error: counts_scale must lie in", once="counts"),
             Refusal(("reconstruct", "--device", "u1", "--threshold", "-1"),
                     "error: threshold must be", once="threshold"),
             Refusal(("security", "--m", "9"), "error: m must lie in [1, 8]"),
             Refusal(("security", "--m", "2", "--attack-trials", "0"),
                     "error: attack_trials must be", once="trials"),
             # above MAX_ATTACK_QUBITS, checked before the first draw
             Refusal(("attack", "--m", "10001"), "m must be <= 10000", bounded=True),
             # no trial runs with --asymptote-only, but the count is still checked
             Refusal(("attack", "--m", "4", "--asymptote-only", "--trials", "-3"),
                     "trials must be >= 1"),
             # nor is a key set drawn from, but each is still checked
             Refusal(("attack", "--m", "4", "--asymptote-only", "--d", "2,x"), "d:"),
             Refusal(("attack", "--m", "4", "--asymptote-only", "--d", "0"), "d:"),
             Refusal(("attack", "--m", "4", "--asymptote-only", "--d", "70000"), "d:"),
             # each bound is checked before the work it bounds: the m-bit plaintext, the
             # key table, the shots or the law
             Refusal(("attack", "--m", "1000000000"), "m must be <= 10000", bounded=True),
             Refusal(("attack", "--m", "1" + "0" * 400, "--asymptote-only"),
                     "m must be a finite number"),
             Refusal(("attack", "--m", "1" + "0" * 4000, "--asymptote-only"),
                     "error: m must be a finite number, got 1000", bounded=True),
             Refusal(("attack", "--m", str(10 ** 20)), "m must be <= 10000"),
             Refusal(("security", "--m", "1000000000"), "error: m must lie in [1, 8]",
                     bounded=True),
             Refusal(("security", "--m", str(10 ** 20)), "error: m must lie in [1, 8]"),
             Refusal(("security", "--m", "0"), "error: m must lie in [1, 8]"),
             Refusal(("security", "--m", "8", "--ensemble", "linear:5000000"),
                     "error: ensemble linear:5000000 has a polar grid of 5000000 angles",
                     bounded=True),
             Refusal(("security", "--m", "8", "--ensemble", "poincare:3,5000000,1"),
                     "error: ensemble poincare:3,5000000,1 has a polar grid of 5000000 angles",
                     bounded=True),
             Refusal(("walk", "--device", "u1", "--input", "0101", "--shots", "10000000000"),
                     "error: shots must lie in [1, 10000000]", bounded=True),
             Refusal(("walk", "--device", wide, "--input", "0" * 6 + "1" * 35), "input:",
                     bounded=True),
             Refusal(("walk", "--device", corner, "--input", "0" * 6 + "1" * 15),
                     "error: input: 6 photons in 21 modes have 230230 outcomes", bounded=True),
             Refusal(("walk", "--device", widest, "--input", "00" + "1" * 316), "16129278 cells",
                     bounded=True),
             # the law is refused before the device is read: this file does not exist
             Refusal(("walk", "--device", str(tmp_path / "absent.json"), "--input",
                      "00" + "1" * 316), "16129278 cells", bounded=True),
             Refusal(("reconstruct", "--measurements", repeated),
                     "'visibilities'[9] repeats the pairs of 'visibilities'[2]"),
             # a measurement file's entries are named by index or by their mode pairs
             Refusal(("reconstruct", "--measurements", bad_key),
                     "error: visibilities[((1, 0), (0, 1))] must pair modes"),
             Refusal(("reconstruct", "--measurements", bad_value),
                     "error: visibilities[((0, 1), (0, 1))] must lie in [-1, 1], got 1.5"),
             Refusal(("reconstruct", "--measurements", bad_intensity),
                     "error: intensities[1][1] must lie in [0, 1], got 1.5"),
             # a file's counts_scale obeys the --counts rule, (0, 1e18]
             Refusal(("reconstruct", "--measurements", negative_scale),
                     "error: counts_scale must lie in (0, 1e+18], got -5.0", bounded=True),
             Refusal(("reconstruct", "--device", "u1", "--counts", "1e300"),
                     "error: counts_scale must lie in", bounded=True),
             Refusal(("reconstruct", "--device", "u1", "--restarts", "1000000000"),
                     "restarts must lie in"),
             Refusal(("reconstruct", "--device", "u1", "--restarts", "0"), "restarts must lie in"),
             Refusal(("reconstruct", "--device", one_mode), "m must lie in [2, 8]", bounded=True),
             Refusal(("reconstruct", "--device", hundred_modes), "m must lie in [2, 8]",
                     bounded=True),
             # main alone writes --out; a path it cannot write exits 2 like bad input
             Refusal(("devices", "--out", str(tmp_path / "missing" / "devices.json")),
                     str(tmp_path / "missing"))]
    rows += [Refusal(("reconstruct", "--device", "u1", "--restarts", "1", flag, value), text)
             for flag, value, text in (
                 ("--distinguishability", "1.5",
                  "error: distinguishability must lie in [0, 1], got 1.5"),
                 ("--distinguishability", "nan",
                  "error: distinguishability must lie in [0, 1], got nan"),
                 ("--threshold", "nan", "error: threshold must be finite and >= 0, got nan"))]
    # one entry of a 3-mode measurement file, named by its place in the file
    rows += [Refusal(("reconstruct", "--measurements",
                      edited(f"malformed{k}.json", good, *keys, value=value)), text)
             for k, (keys, value, text) in enumerate((
                 (("intensities", 1, 2), math.nan,
                  "error: 'intensities'[1][2] must be a finite number, got nan"),
                 (("intensities", 0, 1), "0.5",
                  "error: 'intensities'[0][1] must be a finite number, got '0.5'"),
                 (("visibilities", 0, "inputs"), [0.2, 1.7],
                  "error: 'visibilities'[0] 'inputs' and 'outputs' must be integer pairs"),
                 (("visibilities", 0, "value"), "1.0",
                  "error: 'visibilities'[0] 'value' must be a finite number, got '1.0'"),
                 (("visibilities", 0, "value"), True,
                  "error: 'visibilities'[0] 'value' must be a finite number, got True"),
                 (("visibilities", 0, "value"), math.nan,
                  "error: 'visibilities'[0] 'value' must be a finite number, got nan"),
                 (("counts_scale",), math.inf,
                  "error: 'counts_scale' must be a finite number, got inf"),
                 (("counts_scale",), -math.inf,
                  "error: 'counts_scale' must be a finite number, got -inf"),
                 (("m",), True, "error: 'm' must be an integer >= 1, got True"),
                 (("m",), 3.5, "error: 'm' must be an integer >= 1, got 3.5"),
                 (("visibilities",), 5, "error: 'visibilities' must be a list of records")))]
    # above MAX_TRIALS, and far beyond numpy's int64 range
    for trials in (str(MAX_TRIALS + 1), str(10 ** 19)):
        rows += [Refusal(("attack", "--m", "1", "--d", "2", "--trials", trials),
                         "error: trials must be"),
                 Refusal(("attack", "--m", "4", "--asymptote-only", "--trials", trials),
                         "error: trials must be"),
                 Refusal(("security", "--m", "2", "--attack-trials", trials),
                         "error: attack_trials must be", bounded=trials == str(MAX_TRIALS + 1))]
    rows += [Refusal((*argv, "--seed", "-1"), "seed")
             for argv in (walk, ("attack", "--m", "2"), ("security", "--m", "2"),
                          ("reconstruct", "--device", "u1"))]
    return rows


def assert_refused(row: Refusal, err: str, tmp_path) -> None:
    # one line under 200 bytes, whatever the input echoed: a long value is cut short
    assert err.count("\n") == 1 and err.endswith("\n"), (row.argv, err)
    assert len(err.replace(str(tmp_path), "").encode()) < 200, (row.argv, err)
    if row.text.startswith("error:"):
        assert err.startswith(row.text), (row.argv, err)
    else:
        assert row.text in err, (row.argv, err)
    if row.once:
        assert err.count(row.once) == 1, (row.argv, err)


def test_rejections_name_the_field_or_file(tmp_path, capsys):
    # in process: an exception main does not turn into exit 2 fails the test outright
    for row in refusals(tmp_path):
        if not row.bounded:
            assert main(list(row.argv)) == 2, row.argv
            captured = capsys.readouterr()
            assert captured.out == "", row.argv
            assert_refused(row, captured.err, tmp_path)


def test_bounded_rejections_exit_2_before_any_work(tmp_path):
    # never in process: an input whose bound is lost fails here in 10 s instead of hanging
    for row in refusals(tmp_path):
        if row.bounded:
            proc = fresh("-m", "qhewalk", *row.argv)
            assert proc.returncode == 2, (row.argv, proc.stderr)
            assert proc.stdout == "" and proc.stderr.startswith("error:"), (row.argv, proc.stderr)
            assert "Traceback" not in proc.stderr, row.argv
            assert_refused(row, proc.stderr, tmp_path)


class TestAttackCommand:
    def test_single_basis_always_succeeds(self, capsys):
        row = report(capsys, "attack", "--m", "4", "--d", "1", "--trials", "1000")["curve"][0]
        assert row["p_exact"] == 1.0
        assert row["p_empirical"] == 1.0

    def test_curve_within_three_sigma(self, capsys):
        out = report(capsys, "attack", "--m", "4", "--d", "2,3,4,6,12",
                     "--trials", "100000", "--seed", "1")
        for row in out["curve"]:
            sigma = (row["p_exact"] * (1 - row["p_exact"]) / row["trials"]) ** 0.5
            assert abs(row["p_empirical"] - row["p_exact"]) <= 3 * sigma

    def test_asymptote_only(self, capsys):
        out = report(capsys, "attack", "--m", "3500", "--asymptote-only")
        assert out["p_asymptote"] == pytest.approx(0.009536544540177922, abs=1e-15)
        assert out["curve"] == []
        assert out["config"]["plaintext"] is None
        # the exact sum's m bound does not apply: only the closed form runs
        for m in (10 ** 6, 10 ** 20):
            out = report(capsys, "attack", "--m", str(m), "--asymptote-only")
            assert out["p_asymptote"] == pytest.approx(1 / math.sqrt(math.pi * m), rel=1e-15)

    def test_csv_output(self, capsys):
        assert main(["attack", "--m", "2", "--d", "2,4", "--trials", "100", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "d,p_exact,p_empirical,stderr,trials"
        assert len(lines) == 3


class TestSecurityCommand:
    def test_linear_reference_value(self, capsys):
        out = report(capsys, "security", "--m", "4", "--ensemble", "linear:180")
        assert abs(out["holevo_bits"] - 1.9694) <= 0.005
        assert out["holevo_reference"]["linear:180"] == out["holevo_bits"]
        td = out["trace_distances"]
        assert td["hamming_1"] == pytest.approx(td["hamming_3"], abs=1e-6)
        assert "linear:180" in out["trace_distances_by_ensemble"]
        assert "poincare:64,64,64" in out["trace_distances_by_ensemble"]

    def test_single_qubit_hides_everything(self, capsys):
        out = report(capsys, "security", "--m", "1", "--ensemble", "linear:2")
        assert out["holevo_bits"] == pytest.approx(0.0, abs=1e-12)
        assert list(out["trace_distances"]) == ["hamming_1"]

    def test_huge_azimuthal_grid(self, capsys):
        # d1 = 10^23 lies past the int64 range; at m = 2 it masks as d1 = 3 does
        reports = [report(capsys, "security", "--m", "2", "--ensemble", f"poincare:{d1},64,64")
                   for d1 in ("100000000000000000000000", "3")]
        for field in ("holevo_bits", "trace_distances"):
            assert reports[0][field] == reports[1][field]

    def test_explicit_flag(self, capsys):
        out = report(capsys, "security", "--m", "2", "--ensemble", "linear:6", "--explicit")
        assert out["holevo_explicit_bits"] == pytest.approx(out["holevo_bits"], abs=1e-8)

    def test_attack_curve_field(self, capsys):
        out = report(capsys, "security", "--m", "2", "--ensemble", "linear:8",
                     "--attack-trials", "2000")
        assert [row["d"] for row in out["attack_curve"]] == [2, 3, 4, 6, 12]
        for row in out["attack_curve"]:
            assert set(row) == {"d", "p_exact", "p_empirical", "stderr"}


@pytest.mark.parametrize("m", [3, 6, 8])
@pytest.mark.parametrize("ensemble", ["linear:180", "poincare:64,64,64", "linear:12"])
def test_security_builds_each_density_once(m, ensemble, monkeypatch, capsys):
    import qhewalk.security as security
    density = security._weight_density

    def counted(m, w, key_ensemble, rotations, tail=1):
        built.append((m, w, tail, key_ensemble.label))
        return density(m, w, key_ensemble, rotations, tail)
    monkeypatch.setattr(security, "_weight_density", counted)
    # --explicit reads the m + 1 weight classes of the report's ensemble, rho_0..rho_3 among them;
    # rho_0 in the basis of rho_w (tail 0) is a different matrix for each w
    for explicit in ([], ["--explicit"]):
        built = []
        assert main(["security", "--m", str(m), "--ensemble", ensemble, "--attack-trials", "100",
                     *explicit]) == 0
        capsys.readouterr()
        assert built and len(built) == len(set(built)), (explicit, built)


HEAP_PEAK = """
import contextlib, io, sys, tracemalloc
from qhewalk.cli import main
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("ensemble", ["linear:180", "poincare:64,64,64"])
def test_security_m8_heap_peak(ensemble):
    # no 2^m array is built on the report path: each weight-class density is at most
    # 25 x 25, from a polar grid x 25 array (linear:180: 36 kB). The peak is 1.28 MB for
    # either ensemble with numpy 2.4 and Python 3.11, modules loaded after the start
    # included. The peak moves with those versions, so the bound leaves 0.32 MB (25%);
    # one 256 x 256 density (0.5 MB) crosses it.
    proc = fresh("-c", HEAP_PEAK, "security", "--m", "8", "--ensemble", ensemble,
                 "--attack-trials", "1000")
    code, peak = proc.stdout.split()
    assert code == "0", proc.stderr
    assert int(peak) <= 1.6 * 2 ** 20, int(peak) / 2 ** 20


class TestReconstructCommand:
    def test_noiseless_round_trip(self, capsys):
        out = report(capsys, "reconstruct", "--device", "u1", "--noise", "none", "--seed", "3")
        assert out["result"]["success"]
        assert out["comparison"]["max_amplitude_error"] <= 1e-6
        assert out["comparison"]["max_phase_error_rad"] <= 1e-6

    def test_identity_round_trip(self, capsys):
        out = report(capsys, "reconstruct", "--device", "identity4", "--noise", "none")
        assert out["result"]["success"]
        assert out["comparison"]["max_amplitude_error"] <= 1e-9

    def test_poisson_budget(self, capsys):
        out = report(capsys, "reconstruct", "--device", "u1", "--counts", "1000000", "--seed", "3")
        assert out["result"]["success"]
        assert out["comparison"]["max_amplitude_error"] <= 0.01
        assert out["comparison"]["max_phase_error_rad"] <= 0.05

    def test_measurements_file_round_trip(self, tmp_path, capsys):
        synth = report(capsys, "reconstruct", "--device", "u2", "--noise", "none")
        meas_path = tmp_path / "meas.json"
        meas_path.write_text(json.dumps(synth["measurements"]))
        out = report(capsys, "reconstruct", "--measurements", str(meas_path), "--device", "u2")
        assert out["result"]["success"]
        assert out["comparison"]["max_amplitude_error"] <= 1e-6

    def test_corrupt_measurements_exit_3(self, tmp_path, capsys):
        payload = report(capsys, "reconstruct", "--device", "u1", "--noise", "none")["measurements"]
        for rec in payload["visibilities"]:
            rec["value"] = 0.93
        meas_path = tmp_path / "broken.json"
        meas_path.write_text(json.dumps(payload))
        out = report(capsys, "reconstruct", "--measurements", str(meas_path), code=3)
        assert not out["result"]["success"]
        assert out["result"]["residual"] > out["config"]["threshold"]

    @staticmethod
    def result_section(fit) -> dict:
        return {"success": fit.success, "residual": fit.residual,
                "restarts_used": fit.restarts_used, "unitary": unitary_to_payload(fit.unitary.matrix)}

    def test_restarts_continue_the_report_stream(self, capsys):
        # one Philox stream per report: the Poisson counts, then the restarts
        assert main(["reconstruct", "--device", "u2", "--counts", "1000000", "--seed", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        rng = make_rng(4)
        meas = synthesize_measurements(load_device("u2").unitary, MeasurementNoise(1e6), rng)
        assert report["result"] == self.result_section(reconstruct_unitary(meas, seed=rng))

    def test_noiseless_restarts_draw_from_make_rng(self, capsys):
        # an int seed is make_rng's stream: at seed 3 the second restart draws from it
        assert main(["reconstruct", "--device", "u2", "--noise", "none", "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        meas = synthesize_measurements(load_device("u2").unitary)
        fit = reconstruct_unitary(meas, seed=3)
        assert fit.restarts_used > 1
        assert report["result"] == self.result_section(fit)
        assert report["result"] == self.result_section(reconstruct_unitary(meas, seed=make_rng(3)))

    def test_distinguishability_alone_is_not_counting_noise(self, capsys):
        out = report(capsys, "reconstruct", "--device", "identity4", "--distinguishability", "0.9")
        assert out["config"]["noise"] == "none"
        assert out["measurements"]["counts_scale"] is None


class TestDevicesCommand:
    def test_list(self, capsys):
        out = report(capsys, "devices")
        names = [d["name"] for d in out["devices"]]
        assert names == ["identity4", "u1", "u2"]
        by_name = {d["name"]: d for d in out["devices"]}
        assert by_name["identity4"]["projection_distance"] <= 1e-12
        assert by_name["u1"]["projection_distance"] == pytest.approx(0.109131, abs=1e-5)

    def test_dump(self, capsys):
        payload = report(capsys, "devices", "--dump", "u2")
        assert payload["m"] == 4
        assert payload["unitary"][0][0] == [0.64, 0.0]


class TestDeterminism:
    # byte-identical reruns of every command are release-gate criterion 9
    def test_out_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        argv = ["walk", "--device", "identity4", "--input", "0101", "--shots", "10"]
        assert main([*argv, "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert path.read_text() == capsys.readouterr().out

    def test_golden_reports_ignore_hash_seed_and_blas_threads(self, tmp_path):
        # every golden file, .err and device files included, byte for byte: a set or dict
        # iteration order that reaches a sum, or a BLAS thread count that reaches an
        # eigensolve, moves low bits that --compare's 1e-12 tolerance would let pass
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        runs = {"a": dict(env, PYTHONHASHSEED="1"),
                "b": dict(env, PYTHONHASHSEED="2", **dict.fromkeys(blas, "2"))}
        for name, run_env in runs.items():
            proc = fresh(str(GOLDEN), str(tmp_path / name), env=run_env)
            assert proc.returncode == 0, proc.stderr
        a, b = tmp_path / "a", tmp_path / "b"
        names = {p.relative_to(d).as_posix() for d in (a, b) for p in d.rglob("*") if p.is_file()}
        differing = sorted(name for name in names if not (
            (a / name).is_file() and (b / name).is_file()
            and (a / name).read_bytes() == (b / name).read_bytes()))
        assert not differing, f"{len(differing)} of {len(names)} files differ: {differing}"


# engine modules and heavy standard-library packages each subcommand may load
WATCHED = ("concurrent.futures", "fractions", "scipy")
LOADS = {
    "devices": {"cli", "numerics"},
    "reconstruct": {"cli", "numerics", "reconstruct"},
    "walk": {"cli", "numerics", "polarization", "walk"},
    "attack": {"cli", "numerics", "polarization", "security"},
    "security": {"cli", "numerics", "polarization", "security"},
}
IMPORT_ARGV = {
    "devices": ["devices"],
    "reconstruct": ["reconstruct", "--device", "u1", "--counts", "1e5", "--seed", "1"],
    "walk": ["walk", "--device", "u2", "--input", "0110", "--shots", "100"],
    "attack": ["attack", "--m", "3", "--plaintext", "101", "--trials", "100"],
    "security": ["security", "--m", "3", "--attack-trials", "100"],
}


def loaded_modules(code: str) -> set[str]:
    """The qhewalk submodules and WATCHED packages in sys.modules after running code."""
    code += f"""
print(*sorted(m.removeprefix("qhewalk.") for m in sys.modules
              if m.startswith("qhewalk.") or m in {WATCHED!r}))
"""
    proc = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def numpy_loads():
    # a watched package numpy itself loads is no import of ours
    return loaded_modules("import sys, numpy")


@pytest.mark.parametrize("command", sorted(LOADS))
def test_each_command_loads_only_its_engine(command, numpy_loads):
    loaded = loaded_modules(f"""
import contextlib, io, sys
from qhewalk.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({IMPORT_ARGV[command]!r}) == 0
""")
    assert loaded - numpy_loads == LOADS[command] - numpy_loads


@pytest.mark.parametrize("blocked", [True])
def test_reconstruct_runs_without_scipy(blocked):
    # a finder that refuses scipy stands in for an install without it and fails a find_spec
    # probe too; with scipy installed, the module-load test finds no scipy loaded
    code = f"""
import contextlib, io, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(name + " is blocked")

if {blocked}:
    sys.meta_path.insert(0, NoScipy())
from qhewalk.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["reconstruct", "--device", "u1", "--counts", "1000000", "--seed", "3"])
print(rc, "scipy" in sys.modules)
"""
    proc = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_main_callable_in_process(capsys):
    code = main(["attack", "--m", "2", "--d", "2", "--trials", "50", "--seed", "0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["curve"][0]["p_exact"] == 0.5


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
GRID = st.integers(-2, 70)
KEY_SPECS = st.one_of(
    st.text(max_size=12), st.just("haar"),
    st.builds("linear:{}/{}".format, GRID, GRID),
    st.builds("euler:{!r},{!r},{!r}".format, st.floats(), st.floats(), st.floats()),
    st.builds("haar:{},{},{}".format, GRID, GRID, GRID))
ENSEMBLE_SPECS = st.one_of(
    st.text(max_size=12),
    st.builds("linear:{}".format, st.integers(-2, 200)),
    st.builds("poincare:{},{},{}".format, GRID, GRID, GRID))


def _mutate(data, node):
    """Replace one node of a JSON tree, reached by a random descent, with an arbitrary value."""
    if isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
        node = type(node)(node)
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node[key] = _mutate(data, node[key])
        return node
    return data.draw(JSON_VALUES)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parsers_exit_0_or_2(data):
    """Device and measurement JSON, --key and --ensemble: a report or exit 2, never an exception."""
    kind = data.draw(st.sampled_from(["device", "measurements", "key", "ensemble"]))
    # a huge threshold keeps a poor fit from exiting 3 (reported, not rejected)
    fit = ["--restarts", "1", "--threshold", "1e9"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        if kind == "device":
            m = data.draw(st.integers(1, 3))
            payload = unitary_to_payload(haar_unitary(m, np.random.default_rng(m)))
            # an intact device too: a valid 1-mode device must not crash a command
            if data.draw(st.booleans()):
                payload = _mutate(data, payload)
            path.write_text(json.dumps(payload))
            runs = [["walk", "--device", str(path), "--input", "0" * m, "--shots", "20"],
                    ["reconstruct", "--device", str(path), *fit]]
        elif kind == "measurements":
            m = data.draw(st.integers(2, 3))
            payload = synthesize_measurements(haar_unitary(m, np.random.default_rng(m))).to_payload()
            path.write_text(json.dumps(_mutate(data, payload)))
            runs = [["reconstruct", "--measurements", str(path), *fit]]
        elif kind == "key":
            runs = [["walk", "--device", "identity4", "--input", "0101", "--shots", "20",
                     "--key=" + data.draw(KEY_SPECS)]]
        else:
            runs = [["security", "--m", "2", "--attack-trials", "20",
                     "--ensemble=" + data.draw(ENSEMBLE_SPECS)]]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2), argv
