import math
from dataclasses import fields

import mpmath as mp
import numpy as np
import pytest

from fouriergit import (
    KernelSpec,
    PeriodicKernelParams,
    fourier_coefficient,
    gaussian_kernel,
    lambda_from_resolution,
)

from conftest import periodic_line


def mp_gaussian(nu, omega, lam):
    with mp.workdps(60):
        z = (mp.mpf(nu) - mp.mpf(omega)) / mp.mpf(lam)
        return float(mp.exp(-z * z / 2) / (mp.mpf(lam) * mp.sqrt(2 * mp.pi)))


def mp_periodic(nu, omega, lam, period, images=60):
    with mp.workdps(60):
        total = mp.mpf(0)
        for j in range(-images, images + 1):
            z = (mp.mpf(nu) - mp.mpf(omega) + j * mp.mpf(period)) / mp.mpf(lam)
            total += mp.exp(-z * z / 2)
        return float(total / (mp.mpf(lam) * mp.sqrt(2 * mp.pi)))


def spec_with_width(lam, norm_scale=1.0):
    # a KernelSpec whose actual width is exactly lam
    return KernelSpec(delta=3.0 * lam, sigma_leak=0.1, lam=lam, norm_scale=norm_scale)


class TestLambda:
    def test_reference_width(self):
        lam = lambda_from_resolution(0.02, 0.01)
        assert lam == pytest.approx(0.006590102289822608, rel=1e-15)
        assert lam == pytest.approx(0.0065901, abs=1e-6)

    def test_unit_resolution_width(self):
        assert lambda_from_resolution(1.0, 0.01) == pytest.approx(
            0.3295051144911304, rel=1e-15
        )

    def test_against_high_precision(self):
        with mp.workdps(50):
            for delta, sig in ((0.02, 0.01), (0.5, 1e-3), (2.0, 0.3)):
                want = float(mp.mpf(delta) / mp.sqrt(2 * mp.log(1 / mp.mpf(sig))))
                assert lambda_from_resolution(delta, sig) == pytest.approx(
                    want, rel=1e-14
                )

    def test_monotone_in_both_arguments(self):
        base = lambda_from_resolution(0.02, 0.01)
        assert lambda_from_resolution(0.04, 0.01) > base
        assert lambda_from_resolution(0.02, 0.001) < base

    def test_leak_below_the_inverse_range(self):
        # 1 / sigma_leak overflows below 5.6e-309, which used to give lam =
        # 0.0; there log(1 / s) is -log(s), against 50 digits. Above, lam is
        # log(1 / s) bit for bit, to the smallest normal s
        with mp.workdps(50):
            for sig in (1e-320, 5e-324, 5.5e-309):
                want = float(mp.mpf(0.02) / mp.sqrt(-2 * mp.log(mp.mpf(sig))))
                assert lambda_from_resolution(0.02, sig) == pytest.approx(
                    want, rel=1e-14)
        for sig in (5.6e-309, 2.2250738585072014e-308, 1e-300, 0.01, 0.5):
            assert lambda_from_resolution(0.02, sig) == 0.02 / math.sqrt(
                2.0 * math.log(1.0 / sig))

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_from_resolution(0.0, 0.01)
        with pytest.raises(ValueError):
            lambda_from_resolution(-1.0, 0.01)
        with pytest.raises(ValueError):
            lambda_from_resolution(0.02, 0.0)
        with pytest.raises(ValueError):
            lambda_from_resolution(0.02, 1.0)


class TestKernelSpec:
    def test_from_resolution(self, kernel001):
        assert kernel001.lam == pytest.approx(0.006590102289822608, rel=1e-15)
        assert kernel001.norm_scale == 1.0
        # norm_scale defaults to 1 in both constructors
        assert KernelSpec.from_resolution(0.02, 0.01) == kernel001
        assert KernelSpec(0.02, 0.01, kernel001.lam) == kernel001

    def test_width_cap(self):
        # cap for sigma_leak=1/2 is delta/sqrt(2 log 2)
        cap = math.sqrt(0.5 / math.log(2.0))
        KernelSpec(delta=1.0, sigma_leak=0.5, lam=cap * 0.999)
        with pytest.raises(ValueError):
            KernelSpec(delta=1.0, sigma_leak=0.5, lam=cap * 1.01)
        # the cap allows 1e-12 relative for rounding
        cap = lambda_from_resolution(1.0, 0.5)
        KernelSpec(delta=1.0, sigma_leak=0.5, lam=cap * (1.0 + 1e-12))
        with pytest.raises(ValueError, match="leaks more than"):
            KernelSpec(delta=1.0, sigma_leak=0.5, lam=cap * (1 + 1.2e-12))

    def test_cap_scales_with_delta_not_norm(self):
        KernelSpec(delta=2.0, sigma_leak=0.5, lam=1.2)
        with pytest.raises(ValueError):
            KernelSpec(delta=1.0, sigma_leak=0.5, lam=1.2)
        # norm_scale plays no role in admissibility
        KernelSpec(delta=1.0, sigma_leak=0.5, lam=0.8, norm_scale=0.01)

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            KernelSpec(delta=1.0, sigma_leak=0.5, lam=0.0)
        with pytest.raises(ValueError):
            KernelSpec(delta=-1.0, sigma_leak=0.5, lam=0.1)
        with pytest.raises(ValueError):
            KernelSpec(delta=1.0, sigma_leak=0.5, lam=0.1, norm_scale=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["delta", "lam", "norm_scale"])
    def test_non_finite_refused(self, name, bad):
        # an infinite delta or norm_scale used to pass and fail later as a
        # NaN period or an infinite omega_scale
        fields = dict(delta=1.0, sigma_leak=0.5, lam=0.1, norm_scale=1.0)
        fields[name] = bad
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            KernelSpec(**fields)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_from_resolution_refuses_non_finite_delta(self, bad):
        with pytest.raises(ValueError, match="^delta must be positive and finite"):
            KernelSpec.from_resolution(bad, 0.01)


class TestGaussianKernel:
    def test_against_high_precision(self):
        lam = 0.006590102289822608
        for nu, om in ((0.0, 0.0), (0.01, 0.0), (-0.95, -0.94), (0.3, 0.31)):
            assert gaussian_kernel(nu, om, lam) == pytest.approx(
                mp_gaussian(nu, om, lam), rel=1e-13
            )

    def test_peak_height(self):
        lam = 0.05
        assert gaussian_kernel(0.2, 0.2, lam) == pytest.approx(
            1.0 / (lam * math.sqrt(2 * math.pi)), rel=1e-14
        )

    def test_symmetry_and_broadcast(self):
        lam = 0.1
        nu = np.linspace(-1, 1, 11)
        vals = gaussian_kernel(nu, 0.25, lam)
        assert vals.shape == nu.shape
        assert gaussian_kernel(0.1, 0.4, lam) == pytest.approx(
            gaussian_kernel(0.4, 0.1, lam), rel=1e-15
        )

    def test_unit_mass(self):
        lam = 0.03
        nu = np.linspace(-1, 1, 20001)
        total = np.trapezoid(gaussian_kernel(nu, 0.0, lam), nu)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestPeriodicKernel:
    def test_against_replica_sum(self):
        lam, period = 0.05, 0.4
        params = PeriodicKernelParams.from_period(period, spec_with_width(lam))
        for nu, om in ((0.0, 0.0), (0.1, 0.35), (-0.2, 0.19), (0.2, -0.2)):
            assert periodic_line(nu, om, lam, params)[0] == pytest.approx(
                mp_periodic(nu, om, lam, period), rel=1e-12
            )

    def test_periodicity(self):
        lam = 0.03
        params = PeriodicKernelParams.from_period(0.7, spec_with_width(lam))
        base = periodic_line(0.1, 0.0, lam, params)[0]
        for j in (-3, -1, 1, 2):
            assert periodic_line(0.1 + j * 0.7, 0.0, lam, params)[0] == pytest.approx(
                base, rel=1e-12
            )

    def test_narrow_limit_matches_plain_gaussian(self):
        lam = 0.006
        params = PeriodicKernelParams.from_period(3.0, spec_with_width(lam))
        assert periodic_line(0.01, 0.0, lam, params)[0] == pytest.approx(
            gaussian_kernel(0.01, 0.0, lam), rel=1e-13
        )

    def test_array_evaluation(self):
        lam = 0.05
        params = PeriodicKernelParams.from_period(0.5, spec_with_width(lam))
        nu = np.linspace(-1, 1, 31)
        vals = periodic_line(nu, 0.2, lam, params)
        assert vals.shape == nu.shape
        assert np.all(vals > 0)

    def test_derived_fields(self):
        # the two fields, and dt derived from the period, bit for bit
        for period in (0.5, 0.16993, 2 * 7987.5, 1e-300, 1e300):
            params = PeriodicKernelParams.from_period(
                period, spec_with_width(0.05, 2.0))
            assert params.dt == 2 * math.pi / period
            assert params.wrap_count >= 0
        assert [f.name for f in fields(PeriodicKernelParams)] == [
            "period", "wrap_count"]

    def test_param_consistency_enforced(self):
        PeriodicKernelParams(period=0.5, wrap_count=0)
        with pytest.raises(ValueError, match="^wrap_count must be >= 0"):
            PeriodicKernelParams(period=0.5, wrap_count=-1)
        with pytest.raises(ValueError):
            PeriodicKernelParams.from_period(0.0, spec_with_width(0.05))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_period_refused(self, bad):
        # an infinite period used to give dt = 0.0 and fail only later, in
        # exact_moments, under the name dt
        match = "^period must be positive and finite"
        with pytest.raises(ValueError, match=match):
            PeriodicKernelParams.from_period(bad, spec_with_width(0.05))
        with pytest.raises(ValueError, match=match):
            PeriodicKernelParams(period=bad, wrap_count=1)


class TestFourierCoefficient:
    def test_zero_order(self):
        params = PeriodicKernelParams.from_period(0.5, spec_with_width(0.05))
        assert fourier_coefficient(0, 0.37, 0.05, params) == pytest.approx(1.0 + 0.0j)

    def test_gaussian_decay_envelope(self):
        lam = 0.05
        params = PeriodicKernelParams.from_period(0.5, spec_with_width(lam))
        for n in (1, 3, 10):
            c = fourier_coefficient(n, 0.0, lam, params)
            want = math.exp(-0.5 * (params.dt * lam * n) ** 2)
            assert abs(c) == pytest.approx(want, rel=1e-13)

    def test_phase_sign(self):
        # coefficient at nu carries phase +n*dt*nu so that the reassembled
        # series peaks at omega = nu
        params = PeriodicKernelParams.from_period(0.5, spec_with_width(0.05))
        c = fourier_coefficient(1, 0.1, 0.05, params)
        assert math.atan2(c.imag, c.real) == pytest.approx(params.dt * 0.1, rel=1e-12)

    def test_series_resums_to_periodic_kernel(self):
        # summing c_n(nu) * exp(-i n dt omega) over n reproduces the
        # periodically wrapped kernel
        lam = 0.05
        params = PeriodicKernelParams.from_period(0.5, spec_with_width(lam))
        omega = 0.13
        for nu in (-0.2, 0.0, 0.08, 0.24):
            total = 1.0 + 0.0j
            for n in range(1, 400):
                cn = fourier_coefficient(n, nu, lam, params)
                total += 2 * (cn * np.exp(-1j * params.dt * n * omega)).real
            total /= params.period
            assert total.real == pytest.approx(
                periodic_line(nu, omega, lam, params)[0], rel=1e-10
            )

    def test_vectorized_orders(self):
        params = PeriodicKernelParams.from_period(0.5, spec_with_width(0.05))
        ns = np.arange(0, 6)
        vals = fourier_coefficient(ns, 0.2, 0.05, params)
        assert vals.shape == ns.shape
        assert vals[0] == pytest.approx(1.0 + 0.0j)
