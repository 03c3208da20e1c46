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


def run_cli(*argv):
    # an input that is unbounded again fails the suite instead of hanging it
    return subprocess.run([sys.executable, "-m", "qhewalk", *argv],
                          capture_output=True, text=True, timeout=120)


def run_json(*argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestWalkCommand:
    def test_identity_device_returns_plaintext(self):
        report = run_json("walk", "--device", "identity4", "--input", "1010", "--shots", "10")
        assert report["empirical"]["bitstrings"] == {"1010": 1.0}
        assert report["empirical"]["collisions"] == 0
        assert report["exact"]["occupations"]["[0,1,0,1]"] == 1.0

    def test_single_walker_fidelity(self):
        report = run_json("walk", "--device", "u1", "--input", "0111",
                          "--shots", "100000", "--seed", "7")
        assert report["fidelity"]["occupations"] >= 0.995
        assert report["fidelity"]["bitstrings"] >= 0.995

    def test_exact_distribution_is_key_independent(self):
        base = run_json("walk", "--device", "u2", "--input", "0111",
                        "--shots", "1000", "--key", "linear:0/1")
        other = run_json("walk", "--device", "u2", "--input", "0111",
                         "--shots", "1000", "--key", "linear:1/4")
        assert base["exact"] == other["exact"]

    def test_haar_key_accepted(self):
        report = run_json("walk", "--device", "u1", "--input", "0011",
                          "--shots", "500", "--key", "haar", "--seed", "5")
        assert report["config"]["key"]["spec"] == "haar"
        assert 0.0 <= report["config"]["key"]["beta"] <= np.pi

    @pytest.mark.parametrize("axis", [0, 2])
    def test_haar_axis_bound(self, axis, capsys):
        # a key is one int64 draw per axis: 2^63 points is the largest axis it can draw from
        for points, code in ((2 ** 63, 0), (2 ** 63 + 1, 2)):
            dims = ["2", "2", "2"]
            dims[axis] = str(points)
            assert main(["walk", "--device", "u1", "--input", "0110", "--shots", "10",
                         "--key", "haar:" + ",".join(dims)]) == code
            err = capsys.readouterr().err
            if code:
                assert f"poincare:{','.join(dims)}" in err and "2^63" in err, err
                assert "int64" not in err and "high" not in err, err

    def test_csv_output(self):
        proc = run_cli("walk", "--device", "identity4", "--input", "0000",
                       "--shots", "10", "--csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "outcome,exact,empirical"
        assert any(line.startswith('"[1,1,1,1]"') for line in lines[1:])

    def test_input_length_mismatch_exits_2(self):
        proc = run_cli("walk", "--device", "u1", "--input", "011", "--shots", "10")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_unknown_device_exits_2(self):
        proc = run_cli("walk", "--device", "bogus", "--input", "0000", "--shots", "1")
        assert proc.returncode == 2
        assert "bogus" in proc.stderr

    def test_bitstring_law_normalized_when_collisions_dominate(self, tmp_path):
        # six walkers on eight Haar modes: about 2% of the law is collision-free
        U = haar_unitary(8, np.random.default_rng(0))
        path = tmp_path / "haar8.json"
        path.write_text(json.dumps({"m": 8, "unitary": [[[float(z.real), float(z.imag)] for z in row]
                                                        for row in U]}))
        report = run_json("walk", "--device", str(path), "--input", "00000011", "--shots", "100")
        assert report["exact"]["collision_probability"] > 0.95
        assert abs(math.fsum(report["exact"]["bitstrings"].values()) - 1.0) <= 1e-15


class TestDeviceFiles:
    def write(self, tmp_path, payload, name="device.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_boolean_fields_exit_2(self, tmp_path):
        cases = [(("walk", "--device", self.write(tmp_path, payload, f"device{k}.json"),
                   "--input", "0", "--shots", "10"), field)
                 for k, (payload, field) in enumerate((
                     ({"m": True, "unitary": [[[1, 0]]]}, "'m'"),
                     ({"m": 1, "unitary": [[[True, False]]]}, "'unitary'[0][0][0]")))]
        # work bounds: rejected before the arrays they would need are allocated
        cases += [(("security", "--m", "8", "--ensemble", "linear:5000000"), "ensemble"),
                  (("security", "--m", "8", "--ensemble", "poincare:3,5000000,1"), "ensemble"),
                  (("walk", "--device", "u1", "--input", "0101", "--shots", "10000000000"),
                   "shots")]
        for argv, field in cases:
            proc = run_cli(*argv)
            assert proc.returncode == 2
            assert field in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_far_from_unitary_exits_2(self, tmp_path):
        payload = {"m": 3, "unitary": [[[0.001 if i == j else 0.0, 0.0] for i in range(3)]
                                       for j in range(3)]}
        proc = run_cli("walk", "--device", self.write(tmp_path, payload),
                       "--input", "011", "--shots", "10")
        assert proc.returncode == 2
        assert "projection_distance" in proc.stderr
        assert "Traceback" not in proc.stderr


class Refusal(NamedTuple):
    """One input the command line refuses with exit 2, and the text its stderr must start
    with (a text that starts 'error:') or contain. A bounded row refuses before work that
    could hang the suite, so it runs only as a fresh process under a 10 s timeout. once:
    a word the message holds exactly once (a flag's field is named once)."""
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

    not_json = write("not-json.json", "U = [[1, 0], [0, 1]]\n")
    deep = write("deep.json", "[" * 200_000)  # nested past the JSON parser's recursion limit
    payload = synthesize_measurements(haar_unitary(3, np.random.default_rng(3))).to_payload()
    meas = write("meas.json", payload)
    payload["visibilities"].append(dict(payload["visibilities"][2], value=-0.9))
    repeated = write("repeated.json", payload)
    # 6 walkers in 41 modes: 9,366,819 outcomes; one mode past each corner of the law
    # bound: 6 walkers in 21 modes, 2 walkers in 318 modes (16,129,278 cells)
    wide, corner, widest = (write(f"identity{m}.json", unitary_to_payload(np.eye(m)))
                            for m in (41, 21, 318))
    # a fit needs a mode pair; 100 modes would synthesize C(100, 2)^2 pair settings
    one_mode, hundred_modes = (write(f"identity{m}.json", unitary_to_payload(np.eye(m)))
                               for m in (1, 100))
    # one change each to a 2-mode measurement file
    two = {"m": 2, "intensities": [[0.5, 0.5], [0.5, 0.5]],
           "visibilities": [{"inputs": [0, 1], "outputs": [0, 1], "value": 1.0}]}
    record = two["visibilities"][0]
    negative_scale = write("negative-scale.json", dict(two, counts_scale=-5))
    bad_key = write("bad-key.json", dict(two, visibilities=[dict(record, inputs=[1, 0])]))
    bad_value = write("bad-value.json", dict(two, visibilities=[dict(record, value=1.5)]))
    bad_intensity = write("bad-intensity.json", dict(two, intensities=[[0.5, 0.5], [0.5, 1.5]]))
    walk = ("walk", "--device", "identity4", "--input", "0101", "--shots", "10")
    fit = ("reconstruct", "--measurements", meas, "--restarts", "1", "--threshold", "1e9")
    rows = [Refusal((*walk, "--key", spec), "key")
            for spec in ("linear:1/x", "linear:1/3/4", "haar:a,b,c", "euler:1,x,1")]
    rows += [Refusal(("walk", "--device", not_json, "--input", "01"), not_json),
             Refusal(("reconstruct", "--measurements", not_json), not_json),
             Refusal(("walk", "--device", deep, "--input", "01"), deep, bounded=True),
             Refusal(("reconstruct", "--measurements", deep), deep, bounded=True),
             # synthesis flags cannot shape data read from a file
             Refusal((*fit, "--counts", "100"), "counts"),
             Refusal((*fit, "--distinguishability", "0.5"), "distinguishability"),
             Refusal((*fit, "--noise", "none"), "noise"),
             Refusal(("attack", "--m", "2", "--d", "2,x"), "d:"),
             Refusal(("attack", "--m", "2", "--d", "2,,3"), "d:"),
             Refusal(("attack", "--m", "2", "--d", "0"), "d:"),
             Refusal(("attack", "--m", "2", "--d", "70000"), "d:"),
             Refusal(("attack", "--m", "2", "--d", "2,0"), "d:"),
             Refusal(("walk", "--device", "u1", "--input", "011"), "input:"),
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
             Refusal(("reconstruct", "--device", "u1", "--threshold", "nan"),
                     "error: threshold must be"),
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
             # each bound is checked before the m-bit plaintext or the law is built
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
                     "error: counts_scale must lie in", bounded=True),
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


def assert_refused(row: Refusal, err: str) -> None:
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
            assert_refused(row, capsys.readouterr().err)


def test_bounded_rejections_exit_2_before_any_work(tmp_path):
    # never in process: an input whose bound is lost fails here in 10 s instead of hanging
    for row in refusals(tmp_path):
        if row.bounded:
            proc = subprocess.run([sys.executable, "-m", "qhewalk", *row.argv],
                                  capture_output=True, text=True, timeout=10)
            assert proc.returncode == 2, (row.argv, proc.stderr)
            assert proc.stdout == "" and proc.stderr.startswith("error:"), (row.argv, proc.stderr)
            assert "Traceback" not in proc.stderr, row.argv
            assert_refused(row, proc.stderr)


def test_rejected_huge_numbers_are_echoed_short(tmp_path):
    device = tmp_path / "huge.json"
    device.write_text(json.dumps({"m": 1, "unitary": [[[10 ** 400, 0]]]}))
    for argv, field in ((("attack", "--m", "1" + "0" * 4000, "--asymptote-only"),
                         "error: m must be a finite number, got 1000"),
                        (("walk", "--device", str(device), "--input", "0"),
                         "error: 'unitary'[0][0][0] must be a finite number, got 1000")):
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith(field), proc.stderr
        assert len(proc.stderr.encode()) < 200, proc.stderr


class TestAttackCommand:
    def test_single_basis_always_succeeds(self):
        report = run_json("attack", "--m", "4", "--d", "1", "--trials", "1000")
        row = report["curve"][0]
        assert row["p_exact"] == 1.0
        assert row["p_empirical"] == 1.0

    def test_curve_within_three_sigma(self):
        report = run_json("attack", "--m", "4", "--d", "2,3,4,6,12",
                          "--trials", "100000", "--seed", "1")
        for row in report["curve"]:
            sigma = (row["p_exact"] * (1 - row["p_exact"]) / row["trials"]) ** 0.5
            assert abs(row["p_empirical"] - row["p_exact"]) <= 3 * sigma

    def test_asymptote_only(self):
        report = run_json("attack", "--m", "3500", "--asymptote-only")
        assert report["p_asymptote"] == pytest.approx(0.009536544540177922, abs=1e-15)
        assert report["curve"] == []
        assert report["config"]["plaintext"] is None
        # the exact sum's m bound does not apply: only the closed form runs
        for m in (10 ** 6, 10 ** 20):
            report = run_json("attack", "--m", str(m), "--asymptote-only")
            assert report["p_asymptote"] == pytest.approx(1 / math.sqrt(math.pi * m), rel=1e-15)

    def test_csv_output(self):
        proc = run_cli("attack", "--m", "2", "--d", "2,4", "--trials", "100", "--csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "d,p_exact,p_empirical,stderr,trials"
        assert len(lines) == 3


class TestSecurityCommand:
    def test_linear_reference_value(self):
        report = run_json("security", "--m", "4", "--ensemble", "linear:180")
        assert abs(report["holevo_bits"] - 1.9694) <= 0.005
        assert report["holevo_reference"]["linear:180"] == report["holevo_bits"]
        td = report["trace_distances"]
        assert td["hamming_1"] == pytest.approx(td["hamming_3"], abs=1e-6)
        assert "linear:180" in report["trace_distances_by_ensemble"]
        assert "poincare:64,64,64" in report["trace_distances_by_ensemble"]

    def test_single_qubit_hides_everything(self):
        report = run_json("security", "--m", "1", "--ensemble", "linear:2")
        assert report["holevo_bits"] == pytest.approx(0.0, abs=1e-12)
        assert list(report["trace_distances"]) == ["hamming_1"]

    def test_huge_azimuthal_grid(self, capsys):
        # d1 = 10^23 lies past the int64 range; at m = 2 it masks as d1 = 3 does
        reports = []
        for d1 in ("100000000000000000000000", "3"):
            assert main(["security", "--m", "2", "--ensemble", f"poincare:{d1},64,64"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        for field in ("holevo_bits", "trace_distances"):
            assert reports[0][field] == reports[1][field]

    def test_explicit_flag(self):
        report = run_json("security", "--m", "2", "--ensemble", "linear:6", "--explicit")
        assert report["holevo_explicit_bits"] == pytest.approx(report["holevo_bits"], abs=1e-8)

    def test_attack_curve_field(self):
        report = run_json("security", "--m", "2", "--ensemble", "linear:8",
                          "--attack-trials", "2000")
        assert [row["d"] for row in report["attack_curve"]] == [2, 3, 4, 6, 12]
        for row in report["attack_curve"]:
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
    proc = subprocess.run([sys.executable, "-c", HEAP_PEAK, "security", "--m", "8",
                           "--ensemble", ensemble, "--attack-trials", "1000"],
                          capture_output=True, text=True, timeout=120)
    code, peak = proc.stdout.split()
    assert code == "0", proc.stderr
    assert int(peak) <= 1.6 * 2 ** 20, int(peak) / 2 ** 20


class TestReconstructCommand:
    def test_noiseless_round_trip(self):
        report = run_json("reconstruct", "--device", "u1", "--noise", "none", "--seed", "3")
        assert report["result"]["success"]
        assert report["comparison"]["max_amplitude_error"] <= 1e-6
        assert report["comparison"]["max_phase_error_rad"] <= 1e-6

    def test_identity_round_trip(self):
        report = run_json("reconstruct", "--device", "identity4", "--noise", "none")
        assert report["result"]["success"]
        assert report["comparison"]["max_amplitude_error"] <= 1e-9

    def test_poisson_budget(self):
        report = run_json("reconstruct", "--device", "u1", "--counts", "1000000", "--seed", "3")
        assert report["result"]["success"]
        assert report["comparison"]["max_amplitude_error"] <= 0.01
        assert report["comparison"]["max_phase_error_rad"] <= 0.05

    def test_measurements_file_round_trip(self, tmp_path):
        synth = run_json("reconstruct", "--device", "u2", "--noise", "none")
        meas_path = tmp_path / "meas.json"
        meas_path.write_text(json.dumps(synth["measurements"]))
        report = run_json("reconstruct", "--measurements", str(meas_path), "--device", "u2")
        assert report["result"]["success"]
        assert report["comparison"]["max_amplitude_error"] <= 1e-6

    def test_corrupt_measurements_exit_3(self, tmp_path):
        synth = run_json("reconstruct", "--device", "u1", "--noise", "none")
        payload = synth["measurements"]
        for rec in payload["visibilities"]:
            rec["value"] = 0.93
        meas_path = tmp_path / "broken.json"
        meas_path.write_text(json.dumps(payload))
        proc = run_cli("reconstruct", "--measurements", str(meas_path))
        assert proc.returncode == 3
        report = json.loads(proc.stdout)
        assert not report["result"]["success"]
        assert report["result"]["residual"] > report["config"]["threshold"]

    def test_malformed_measurements_exit_2(self, tmp_path, capsys):
        good = synthesize_measurements(haar_unitary(3, np.random.default_rng(4))).to_payload()
        nan_intensity = json.loads(json.dumps(good))
        nan_intensity["intensities"][1][2] = math.nan
        nan_visibility = json.loads(json.dumps(good))
        nan_visibility["visibilities"][0]["value"] = math.nan
        string_intensity = json.loads(json.dumps(good))
        string_intensity["intensities"][0][1] = "0.5"
        record = good["visibilities"][0]
        bad_records = [dict(record, inputs=[0.2, 1.7]), dict(record, value="1.0"),
                       dict(record, value=True)]
        path = tmp_path / "meas.json"
        for payload, field in ((nan_intensity, "intensities"),
                               (string_intensity, "intensities"),
                               *((dict(good, visibilities=[rec]), "visibilities")
                                 for rec in bad_records),
                               (nan_visibility, "visibilities"),
                               (dict(good, counts_scale=math.inf), "counts_scale"),
                               (dict(good, counts_scale=-math.inf), "counts_scale"),
                               (dict(good, counts_scale=-5), "counts_scale"),
                               (dict(good, m=True), "'m'"),
                               (dict(good, m=3.5), "'m'"),
                               (dict(good, visibilities=5), "'visibilities'")):
            path.write_text(json.dumps(payload))
            assert main(["reconstruct", "--measurements", str(path)]) == 2
            captured = capsys.readouterr()
            assert field in captured.err
            assert captured.out == ""

    def test_contradictory_noise_flags_exit_2(self):
        proc = run_cli("reconstruct", "--device", "u1", "--noise", "none", "--counts", "100")
        assert proc.returncode == 2
        proc = run_cli("reconstruct", "--device", "u1", "--noise", "poisson")
        assert proc.returncode == 2

    def test_out_of_range_flags_exit_2(self, capsys):
        for flag, value, field in (("--distinguishability", "1.5", "distinguishability"),
                                   ("--distinguishability", "nan", "distinguishability"),
                                   ("--threshold", "nan", "threshold")):
            assert main(["reconstruct", "--device", "u1", "--restarts", "1", flag, value]) == 2
            captured = capsys.readouterr()
            assert field in captured.err
            assert captured.out == ""

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

    def test_distinguishability_alone_is_not_counting_noise(self):
        report = run_json("reconstruct", "--device", "identity4", "--distinguishability", "0.9")
        assert report["config"]["noise"] == "none"
        assert report["measurements"]["counts_scale"] is None


class TestDevicesCommand:
    def test_list(self):
        report = run_json("devices")
        names = [d["name"] for d in report["devices"]]
        assert names == ["identity4", "u1", "u2"]
        by_name = {d["name"]: d for d in report["devices"]}
        assert by_name["identity4"]["projection_distance"] <= 1e-12
        assert by_name["u1"]["projection_distance"] == pytest.approx(0.109131, abs=1e-5)

    def test_dump(self):
        payload = run_json("devices", "--dump", "u2")
        assert payload["m"] == 4
        assert payload["unitary"][0][0] == [0.64, 0.0]

    def test_dump_unknown(self):
        proc = run_cli("devices", "--dump", "nope")
        assert proc.returncode == 2


class TestDeterminism:
    def test_byte_identical_reruns(self):
        cases = [
            ("walk", "--device", "u1", "--input", "0110", "--shots", "5000", "--seed", "9"),
            ("attack", "--m", "3", "--d", "2,5", "--trials", "5000", "--seed", "9"),
            ("security", "--m", "2", "--ensemble", "linear:16", "--seed", "9"),
            ("reconstruct", "--device", "u2", "--counts", "10000", "--seed", "9"),
        ]
        for argv in cases:
            a, b = run_cli(*argv), run_cli(*argv)
            assert a.returncode == b.returncode
            assert a.stdout == b.stdout, f"non-deterministic output for {argv}"

    def test_out_flag_writes_file(self, tmp_path):
        path = tmp_path / "report.json"
        proc = run_cli("walk", "--device", "identity4", "--input", "0101",
                       "--shots", "10", "--out", str(path))
        assert proc.returncode == 0
        assert proc.stdout == ""
        direct = run_cli("walk", "--device", "identity4", "--input", "0101", "--shots", "10")
        assert path.read_text() == direct.stdout


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only reconstruct needs the optimizer, and importing it dominates start-up
    code = "import sys, qhewalk.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# engine modules and heavy standard-library packages each subcommand may load
WATCHED = ("concurrent.futures", "fractions")
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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
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


def test_reports_do_not_depend_on_the_blas_thread_count():
    # the eigensolver's bits move with the BLAS thread count; the command line pins it to 1
    for argv in (["security", "--m", "8", "--ensemble", "linear:180"],
                 ["security", "--m", "8", "--ensemble", "poincare:64,64,64", "--explicit"]):
        outputs = set()
        for threads in (None, "1", "2"):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-m", "qhewalk", *argv],
                                  capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv


@pytest.mark.parametrize("blocked", [False, True])
def test_reconstruct_runs_without_scipy(blocked):
    # with blocked, a finder that refuses scipy stands in for an install without it
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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
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
