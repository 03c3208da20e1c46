import math
import re

import numpy as np
import pytest

from qhewalk import reconstruct
from qhewalk.cli import load_device
from qhewalk.numerics import make_rng, unitarize
from qhewalk.reconstruct import (MAX_MODES, GaugeFixedUnitary, MeasurementNoise, MeasurementSet,
                                 all_pairs, canonical_form, compare_to_truth, reconstruct_unitary,
                                 synthesize_measurements)
from qhewalk.walk import classical_output_distribution, output_distribution
from oracles import haar_unitary, jacobian_by_differences, lm_by_scipy

U1 = unitarize(np.array([
    [0.74, 0.38, 0.39, 0.40],
    [0.37, -0.34 - 0.71j, -0.17 + 0.31j, -0.18 + 0.31j],
    [0.38, -0.15 + 0.29j, -0.81 + 0.06j, 0.18 + 0.25j],
    [0.42, -0.17 + 0.32j, 0.20 + 0.18j, -0.78 + 0.08j],
]))
COUPLER = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def fit_functions(U):
    """The residual and Jacobian functions reconstruct_unitary hands its solver for U's data."""
    seen = []

    def record(fun, jac, x0):
        seen.append((fun, jac))
        return x0, 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reconstruct, "_levenberg_marquardt", record)
        reconstruct_unitary(synthesize_measurements(U), restarts=1)
    return seen[0]


class TestSynthesize:
    def test_identity_intensities(self):
        meas = synthesize_measurements(np.eye(4))
        assert np.allclose(meas.intensities, np.eye(4))
        assert all(v == 0.0 for v in meas.visibilities.values())
        assert meas.counts_scale is None

    def test_balanced_coupler_full_suppression(self):
        meas = synthesize_measurements(COUPLER)
        assert meas.visibilities[((0, 1), (0, 1))] == pytest.approx(1.0)

    def test_visibilities_match_two_photon_distributions(self):
        # dual route: the same numbers from the full multi-photon engine
        meas = synthesize_measurements(U1)
        for (ins, outs), v in meas.visibilities.items():
            source = tuple(1 if k in ins else 0 for k in range(4))
            target = tuple(1 if k in outs else 0 for k in range(4))
            quantum = output_distribution(U1, source)[target]
            classical = classical_output_distribution(U1, source)[target]
            if classical > 1e-14:
                assert v == pytest.approx((classical - quantum) / classical, abs=1e-10)
            else:
                assert v == 0.0

    def test_gauge_invariance_of_observables(self):
        rng = make_rng(8)
        base = synthesize_measurements(U1)
        d1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        d2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        other = synthesize_measurements((U1 * d1[:, None]) * d2[None, :])
        assert np.max(np.abs(base.intensities - other.intensities)) <= 1e-12
        for key, v in base.visibilities.items():
            assert other.visibilities[key] == pytest.approx(v, abs=1e-12)

    def test_visibility_range_under_noise(self):
        meas = synthesize_measurements(
            U1, MeasurementNoise(counts_scale=200.0), make_rng(4))
        assert all(-1.0 <= v <= 1.0 for v in meas.visibilities.values())
        assert meas.counts_scale == 200.0

    def test_distinguishability_damps_visibilities(self):
        clean = synthesize_measurements(COUPLER)
        damped = synthesize_measurements(COUPLER, MeasurementNoise(distinguishability=0.88))
        for key, v in clean.visibilities.items():
            assert damped.visibilities[key] == pytest.approx(0.88 * v, abs=1e-12)

    def test_counting_noise_requires_rng(self):
        with pytest.raises(ValueError):
            synthesize_measurements(U1, MeasurementNoise(counts_scale=100.0))

    def test_rejects_non_unitary(self):
        for bad in (np.ones((3, 3)), np.full((3, 3), np.nan)):
            with pytest.raises(ValueError, match="not unitary|non-finite entries"):
                synthesize_measurements(bad)
            with pytest.raises(ValueError, match="not unitary|non-finite entries"):
                GaugeFixedUnitary(canonical_form(bad))

    def test_mode_range_checked_before_the_pairs(self):
        # C(100, 2)^2 pair settings would take gigabytes; one mode has no pair
        for m in (1, MAX_MODES + 1, 100):
            with pytest.raises(ValueError, match=rf"m must lie in \[2, {MAX_MODES}\].*got {m}"):
                synthesize_measurements(np.eye(m))
            with pytest.raises(ValueError, match=rf"m must lie in \[2, {MAX_MODES}\].*got {m}"):
                reconstruct_unitary(MeasurementSet(np.eye(m), {}))


class TestGauge:
    def test_fixed_point(self):
        fixed = GaugeFixedUnitary(canonical_form(U1)).matrix
        again = canonical_form(fixed)
        assert np.max(np.abs(fixed - again)) <= 1e-14
        assert np.max(np.abs(fixed[0, :].imag)) <= 1e-14
        assert np.max(np.abs(fixed[:, 0].imag)) <= 1e-14
        assert fixed[0, :].real.min() >= 0
        assert fixed[:, 0].real.min() >= 0

    def test_identity(self):
        assert np.max(np.abs(canonical_form(np.eye(3)) - np.eye(3))) == 0.0

    def test_recovers_original_after_random_phases(self):
        rng = make_rng(5)
        target = canonical_form(U1)
        d1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        d2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        recovered = canonical_form((U1 * d1[:, None]) * d2[None, :])
        assert np.max(np.abs(recovered - target)) <= 1e-12

    def test_type_validation(self):
        with pytest.raises(ValueError, match="matrix is not unitary"):
            GaugeFixedUnitary(np.ones((2, 2)))
        with pytest.raises(ValueError, match="non-finite entries"):
            GaugeFixedUnitary(np.full((3, 3), np.nan))
        with pytest.raises(ValueError, match="first row/column must be real non-negative"):
            GaugeFixedUnitary(np.diag([1j, 1.0]))  # unitary but wrong gauge

    def test_canonical_form_resolves_conjugation(self):
        a = canonical_form(U1)
        b = canonical_form(U1.conj())
        assert np.max(np.abs(a - b)) <= 1e-12


class TestReconstruct:
    def test_round_trip_haar(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            U = haar_unitary(4, rng)
            meas = synthesize_measurements(U)
            report = reconstruct_unitary(meas, seed=trial)
            assert report.success
            amp, phase = compare_to_truth(report.unitary.matrix, U)
            assert np.max(amp) <= 1e-6
            assert np.max(phase) <= 1e-6

    def test_round_trip_device(self):
        meas = synthesize_measurements(U1)
        report = reconstruct_unitary(meas, seed=3)
        assert report.success
        amp, phase = compare_to_truth(report.unitary.matrix, U1)
        assert np.max(amp) <= 1e-6
        assert np.max(phase) <= 1e-6

    def test_round_trip_identity(self):
        report = reconstruct_unitary(synthesize_measurements(np.eye(4)))
        assert report.success
        amp, phase = compare_to_truth(report.unitary.matrix, np.eye(4))
        assert np.max(amp) <= 1e-9
        assert np.max(phase) <= 1e-9

    def test_noisy_round_trip_meets_error_budget(self):
        meas = synthesize_measurements(
            U1, MeasurementNoise(counts_scale=1e6), make_rng(3))
        report = reconstruct_unitary(meas, seed=3)
        assert report.success
        amp, phase = compare_to_truth(report.unitary.matrix, U1)
        assert np.max(amp) <= 0.01
        assert np.max(phase) <= 0.05

    def test_inconsistent_measurements_fail_gracefully(self):
        meas = synthesize_measurements(U1)
        broken = {k: 0.93 for k in meas.visibilities}
        report = reconstruct_unitary(MeasurementSet(meas.intensities, broken), seed=0,
                                     residual_threshold=0.05)
        assert not report.success
        assert report.residual > 0.05

    def test_low_counts_fail_without_an_exception(self):
        # at 10 counts a setting, the damped LM system turns singular: a rejected step
        meas = synthesize_measurements(load_device("u2").unitary, MeasurementNoise(10.0),
                                       make_rng(0))
        report = reconstruct_unitary(meas, seed=0)
        assert not report.success
        assert np.all(np.isfinite(report.unitary.matrix))

    def test_rejects_an_all_zero_intensity_row_or_column(self):
        meas = synthesize_measurements(U1)
        for entries, message in ((np.s_[2, :], "output mode 2"), (np.s_[:, 2], "input mode 2")):
            dark = meas.intensities.copy()
            dark[entries] = 0.0
            with pytest.raises(ValueError, match=f"intensities: every entry of {message} is zero"):
                reconstruct_unitary(MeasurementSet(dark, meas.visibilities))

    def test_missing_anchored_pairs(self):
        meas = synthesize_measurements(U1)
        vis = dict(meas.visibilities)
        del vis[((0, 1), (0, 1))]
        with pytest.raises(ValueError):
            reconstruct_unitary(MeasurementSet(meas.intensities, vis))

    def test_anchored_subset_is_enough(self):
        # only the first-input/first-output anchored pairs, no full table
        U = haar_unitary(4, np.random.default_rng(77))
        meas = synthesize_measurements(U)
        keep = {k: v for k, v in meas.visibilities.items()
                if k[0][0] == 0 and k[1][0] == 0}
        report = reconstruct_unitary(MeasurementSet(meas.intensities, keep), seed=1)
        assert report.success
        amp, phase = compare_to_truth(report.unitary.matrix, U)
        assert np.max(amp) <= 1e-6
        assert np.max(phase) <= 1e-6

    def test_noisy_haar_amplitudes_stay_at_the_counting_floor(self):
        # the fitted amplitudes are the measured sqrt(intensities), up to the
        # final projection; freeing them in a joint fit made them worse
        rng = np.random.default_rng(2024)
        for i in range(12):
            U = haar_unitary(4, rng)
            meas = synthesize_measurements(U, MeasurementNoise(counts_scale=1e5),
                                           np.random.default_rng(i))
            report = reconstruct_unitary(meas, seed=i)
            assert report.success
            amp, _ = compare_to_truth(report.unitary.matrix, U)
            assert np.max(amp) <= 8e-3

    def test_rejects_bad_threshold(self):
        meas = synthesize_measurements(COUPLER)
        for bad in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match="residual_threshold"):
                reconstruct_unitary(meas, residual_threshold=bad)

    def test_analytic_seed_matches_the_per_pair_loop(self):
        # restart 0 starts at the |phase| seed, set by one masked assignment; the loop
        # below, one anchored pair at a time, does the same arithmetic, so the seeds are equal
        sets = [synthesize_measurements(np.eye(4)), synthesize_measurements(U1),
                synthesize_measurements(haar_unitary(8, np.random.default_rng(5)),
                                        MeasurementNoise(1e4), make_rng(1))]
        for meas in sets:
            starts = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(reconstruct, "_levenberg_marquardt",
                              lambda fun, jac, x0: (starts.append(x0), (x0, 0.0))[1])
                reconstruct_unitary(meas, restarts=1)
            m, pairs = meas.mode_count, sorted(meas.visibilities)
            A = np.sqrt(np.clip(meas.intensities, 0.0, None))
            cmax = reconstruct._distinguishable(A, reconstruct._pair_indices(pairs))
            est = np.zeros((m - 1, m - 1))
            for a, ((i, i2), (j, j2)) in enumerate(pairs):
                if i == 0 and j == 0:
                    den = 2.0 * A[j, i] * A[j2, i2] * A[j2, i] * A[j, i2]
                    if den > 1e-12:
                        c = -meas.visibilities[pairs[a]] * cmax[a] / den
                        est[j2 - 1, i2 - 1] = np.arccos(np.clip(c, -1.0, 1.0))
            assert np.array_equal(starts[0], est.ravel())

    def test_deterministic(self):
        meas = synthesize_measurements(
            U1, MeasurementNoise(counts_scale=1e4), make_rng(9))
        a = reconstruct_unitary(meas, seed=2)
        b = reconstruct_unitary(meas, seed=2)
        assert np.array_equal(a.unitary.matrix, b.unitary.matrix)
        assert a.residual == b.residual


class TestLevenbergMarquardt:
    @pytest.mark.parametrize("device", [f"haar{m}" for m in range(2, 9)] + ["identity4"])
    def test_jacobian_matches_central_differences(self, device):
        # dual route: the closed form against differences of the residuals it differentiates;
        # identity4 has C_max = 0 on most visibility rows
        if device.startswith("haar"):
            U = haar_unitary(int(device[4:]), np.random.default_rng(31))
        else:
            U = load_device(device).unitary
        fun, jac = fit_functions(U)
        m = U.shape[0]
        rng = np.random.default_rng(m)
        for _ in range(3):
            phases = rng.uniform(-np.pi, np.pi, (m - 1) ** 2)
            assert np.max(np.abs(jac(phases) - jacobian_by_differences(fun, phases))) <= 1e-7

    @pytest.mark.parametrize("counts", [1e4, 1e5])
    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_fit_matches_difference_jacobian(self, m, counts, monkeypatch):
        # dual route: the same solver, seed and restart draws on a central-difference Jacobian
        U = haar_unitary(m, np.random.default_rng(31))
        meas = synthesize_measurements(U, MeasurementNoise(counts), make_rng(3))
        # a noisy fit uses every restart; four keep the m = 8 difference route short
        ours = reconstruct_unitary(meas, restarts=4, seed=3)
        solve = reconstruct._levenberg_marquardt
        monkeypatch.setattr(reconstruct, "_levenberg_marquardt", lambda fun, jac, x0: solve(
            fun, lambda x: jacobian_by_differences(fun, x), x0))
        ref = reconstruct_unitary(meas, restarts=4, seed=3)
        assert ours.restarts_used == ref.restarts_used
        assert ours.success == ref.success
        assert ours.residual == pytest.approx(ref.residual, rel=1e-6)
        assert np.max(np.abs(ours.unitary.matrix - ref.unitary.matrix)) <= 1e-6

    @pytest.mark.parametrize("counts", [None, 1e6])
    @pytest.mark.parametrize("device", ["u1", "u2", "haar4", "haar6", "haar8"])
    def test_fit_matches_scipy_least_squares(self, device, counts, monkeypatch):
        # dual route: the same residuals, seed and restart draws through scipy's MINPACK
        if device.startswith("haar"):
            U = haar_unitary(int(device[4:]), np.random.default_rng(31))
        else:
            U = load_device(device).unitary
        meas = synthesize_measurements(U, MeasurementNoise(counts), make_rng(3))
        # a noisy fit uses every restart; four keep the m = 8 comparison short
        restarts = 16 if counts is None else 4
        ours = reconstruct_unitary(meas, restarts=restarts, seed=3)
        monkeypatch.setattr(reconstruct, "_levenberg_marquardt",
                            lambda fun, jac, x0: lm_by_scipy(fun, x0))
        ref = reconstruct_unitary(meas, restarts=restarts, seed=3)
        assert ours.restarts_used == ref.restarts_used
        assert ours.success == ref.success
        # a noiseless residual is roundoff (below 2e-15), so it gets an absolute floor
        assert ours.residual == pytest.approx(ref.residual, rel=1e-6, abs=1e-13)
        assert np.max(np.abs(ours.unitary.matrix - ref.unitary.matrix)) <= 1e-8

    def test_rosenbrock_minimum(self):
        def rosenbrock(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def jacobian(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
        x, cost = reconstruct._levenberg_marquardt(rosenbrock, jacobian, [-1.2, 1.0])
        assert np.max(np.abs(x - 1.0)) <= 1e-10
        assert cost <= 1e-25

    def test_linear_least_squares_minimum(self):
        # an inconsistent system: the minimum has a nonzero cost
        rng = np.random.default_rng(6)
        A, b = rng.standard_normal((30, 5)), rng.standard_normal(30)
        best, *_ = np.linalg.lstsq(A, b, rcond=None)
        x, cost = reconstruct._levenberg_marquardt(lambda x: A @ x - b, lambda x: A, np.zeros(5))
        assert np.max(np.abs(x - best)) <= 1e-8
        assert cost == pytest.approx(0.5 * np.sum((A @ best - b) ** 2), rel=1e-12)

    def test_stops_at_the_evaluation_cap(self):
        # exp(-x) decreases forever; only the cap of 100 (n + 1) = 200 calls ends the fit.
        # Each call of the residuals or of the Jacobian counts one, and each accepted
        # step moves x by about 1: a Jacobian and a residual call per unit of x
        calls = []

        def decaying(x):
            calls.append("fun")
            return np.exp(-x)

        def slope(x):
            calls.append("jac")
            return -np.exp(-x)[:, None]
        x, _ = reconstruct._levenberg_marquardt(decaying, slope, np.zeros(1))
        assert 190 <= len(calls) <= 200
        assert calls.count("jac") >= 90
        assert 90 <= x[0] <= 100


class TestPayload:
    def test_round_trip(self):
        meas = synthesize_measurements(U1, MeasurementNoise(counts_scale=1e5), make_rng(1))
        back = MeasurementSet.from_payload(meas.to_payload())
        assert np.array_equal(back.intensities, meas.intensities)
        assert back.visibilities == meas.visibilities
        assert back.counts_scale == meas.counts_scale

    def test_malformed(self):
        good = synthesize_measurements(COUPLER).to_payload()
        record = good["visibilities"][0]
        for corrupt, message in (
            (dict(good, visibilities=[dict(record, inputs=[0.2, 1.7])]),
             "'visibilities'[0] 'inputs' and 'outputs' must be integer pairs"),
            (dict(good, intensities=[["0.5", 0.5], [0.5, 0.5]]),
             "'intensities'[0][0] must be a finite number, got '0.5'"),
            (dict(good, visibilities=[dict(record, value="1.0")]),
             "'visibilities'[0] 'value' must be a finite number"),
            (dict(good, visibilities=[dict(record, value=True)]),
             "'visibilities'[0] 'value' must be a finite number"),
            ([], "measurement payload must be an object"),
            ({}, "missing field: 'm'"),
            ({"m": 2, "intensities": [[1, 0]], "visibilities": []},
             "'intensities' must be a list of 2 entries"),
            # device and measurement files share one rule for 'm'
            ({"m": 0, "intensities": [], "visibilities": []}, "'m' must be an integer >= 1, got 0"),
            (dict(good, m=True), "'m' must be an integer >= 1, got True"),
            ({"m": 2, "intensities": good["intensities"], "visibilities": [{"inputs": [0]}]},
             "'visibilities'[0] must have 'inputs', 'outputs' and 'value'"),
            (dict(good, intensities=[[10 ** 400, 0], [0, 1]]),
             "'intensities'[0][0] must be a finite number"),
            (dict(good, counts_scale=10 ** 400), "'counts_scale' must be a finite number"),
            (dict(good, counts_scale="1e6"), "'counts_scale' must be a finite number"),
            # a file's counts_scale obeys the --counts rule
            (dict(good, counts_scale=-5), "counts_scale must lie in (0, 1e+18], got -5.0"),
            (dict(good, counts_scale=0), "counts_scale must lie in (0, 1e+18], got 0.0"),
            (dict(good, counts_scale=1e300), "counts_scale must lie in (0, 1e+18], got 1e+300"),
            # a repeated pair would silently replace the earlier record's value
            (dict(good, visibilities=[record, dict(record, value=-0.9)]),
             "'visibilities'[1] repeats the pairs of 'visibilities'[0]"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                MeasurementSet.from_payload(corrupt)
        MeasurementSet.from_payload(good)

    def test_set_validation(self):
        with pytest.raises(ValueError):
            MeasurementSet(np.eye(2) * 2.0, {})
        with pytest.raises(ValueError):
            MeasurementSet(np.eye(2), {((0, 1), (1, 0)): 0.0})
        with pytest.raises(ValueError):
            MeasurementSet(np.eye(2), {((0, 1), (0, 1)): 1.5})

    def test_all_pairs_count(self):
        assert len(all_pairs(4)) == 36
        assert len(all_pairs(2)) == 1


def test_noise_model_validation():
    with pytest.raises(ValueError):
        MeasurementNoise(counts_scale=0.0)
    with pytest.raises(ValueError):
        MeasurementNoise(counts_scale=math.inf)
    with pytest.raises(ValueError):
        MeasurementNoise(distinguishability=1.5)
    with pytest.raises(ValueError):
        MeasurementNoise(distinguishability=math.nan)


def test_compare_masks_vanishing_entries():
    amp, phase = compare_to_truth(np.eye(4), np.eye(4))
    assert np.max(amp) == 0.0
    assert np.max(phase) == 0.0
