"""Delay/usage analytics: closed forms against brute-force oracles and
Monte Carlo cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsim.analytics import (
    DECAY_HARSH,
    DECAY_OPEN_FIELD,
    PdrSample,
    expected_enter_delay,
    fit_decay_rate,
    monte_carlo_enter_delay,
    v2v_probability,
)
from icsim.channel import CorrelatedBurst, DistanceIID, Perfect, pdr


def brute_force_expected_delay(p, F, xi):
    """Independent oracle: spell out the weighted average directly."""
    weights = []
    for m in range(F + 1):
        if xi is None:
            w = (1 - p) ** m * p
        else:
            w = p if m == 0 else (1 - p) * p * xi ** (m - 1)
        weights.append(w)
    t_en = [min(F, 2 * math.ceil(m / 2)) + 3 for m in range(F + 1)]
    return sum(w * t for w, t in zip(weights, t_en)) / sum(weights)


class TestExpectedEnterDelay:
    def test_perfect_channel_floor(self):
        assert expected_enter_delay(1.0, 30) == 3.0
        assert expected_enter_delay(1.0, 30, 0.9) == 3.0

    def test_matches_brute_force_iid(self):
        assert expected_enter_delay(0.5, 30) == pytest.approx(
            brute_force_expected_delay(0.5, 30, None), abs=1e-12
        )

    @pytest.mark.parametrize("xi", [None, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("p", [0.2, 0.5945, 0.9, 0.999])
    def test_matches_brute_force_grid(self, p, xi):
        assert expected_enter_delay(p, 30, xi) == pytest.approx(
            brute_force_expected_delay(p, 30, xi), abs=1e-12
        )

    def test_open_field_never_slower_than_harsh(self):
        for d in (50, 150, 300, 450):
            for xi in (None, 0.5, 0.9):
                open_v = expected_enter_delay(pdr(d, DECAY_OPEN_FIELD), 30, xi)
                harsh_v = expected_enter_delay(pdr(d, DECAY_HARSH), 30, xi)
                assert open_v <= harsh_v

    def test_zero_delivery_rejected(self):
        with pytest.raises(ValueError):
            expected_enter_delay(0.0, 30)

    @given(
        p1=st.floats(0.05, 1.0),
        p2=st.floats(0.05, 1.0),
        F=st.integers(0, 40),
        xi=st.one_of(st.none(), st.floats(0, 0.95)),
    )
    @settings(max_examples=200)
    def test_nonincreasing_in_delivery_probability(self, p1, p2, F, xi):
        lo, hi = sorted((p1, p2))
        assert expected_enter_delay(hi, F, xi) <= expected_enter_delay(lo, F, xi) + 1e-12

    @given(
        p=st.floats(0.05, 1.0),
        F=st.integers(0, 40),
        x1=st.floats(0, 0.95),
        x2=st.floats(0, 0.95),
    )
    @settings(max_examples=200)
    def test_nondecreasing_in_correlation(self, p, F, x1, x2):
        lo, hi = sorted((x1, x2))
        assert expected_enter_delay(p, F, hi) >= expected_enter_delay(p, F, lo) - 1e-12

    @given(p=st.floats(0.01, 1.0), F=st.integers(0, 40), xi=st.one_of(st.none(), st.floats(0, 0.95)))
    @settings(max_examples=300)
    def test_bounded_by_floor_and_fallback(self, p, F, xi):
        val = expected_enter_delay(p, F, xi)
        assert 3.0 - 1e-12 <= val <= F + 3 + 1e-12


class TestV2VProbability:
    def test_perfect_channel(self):
        assert v2v_probability(1.0, 15) == 1.0

    def test_reference_operating_point(self):
        p = pdr(400.0, DECAY_HARSH)
        got = v2v_probability(p, 15, 0.9)
        want = 1 - (1 - p) * p * 0.9**15
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.9504, abs=5e-3)
        assert 0.945 <= got <= 0.955

    @given(
        p=st.floats(0.05, 1.0),
        xi=st.one_of(st.none(), st.floats(0, 0.95)),
        F1=st.integers(0, 50),
        F2=st.integers(0, 50),
    )
    @settings(max_examples=200)
    def test_monotone_in_threshold(self, p, xi, F1, F2):
        lo, hi = sorted((F1, F2))
        assert v2v_probability(p, hi, xi) >= v2v_probability(p, lo, xi) - 1e-15

    def test_open_field_dominates_harsh(self):
        for d in (100, 200, 400):
            for xi in (None, 0.5, 0.9):
                for F in (5, 15, 30):
                    assert v2v_probability(
                        pdr(d, DECAY_OPEN_FIELD), F, xi
                    ) >= v2v_probability(pdr(d, DECAY_HARSH), F, xi)


class TestFitDecayRate:
    def test_exact_recovery(self):
        lam = 0.001
        samples = [PdrSample(d, math.exp(-lam * d)) for d in (50, 100, 200, 350, 500)]
        assert fit_decay_rate(samples) == pytest.approx(lam, abs=1e-12)

    def test_harsh_rate_recovery(self):
        lam = 0.0013
        samples = [PdrSample(d, math.exp(-lam * d)) for d in range(25, 525, 25)]
        assert fit_decay_rate(samples) == pytest.approx(lam, abs=1e-6)

    def test_single_distance_rejected(self):
        with pytest.raises(ValueError):
            fit_decay_rate([PdrSample(100, 0.9), PdrSample(100, 0.92)])

    def test_nonpositive_pdr_rejected(self):
        with pytest.raises(ValueError):
            fit_decay_rate([PdrSample(100, 0.0), PdrSample(200, 0.5)])

    def test_noisy_recovery_within_regression_band(self):
        # multiplicative log-normal noise on the delivery ratio; the slope
        # estimate through the origin has variance sigma^2 / sum(d^2)
        lam, sigma = 0.0013, 0.02
        rng = np.random.default_rng(7)
        d = np.arange(25.0, 525.0, 25.0)
        noise = rng.normal(0.0, sigma, size=d.size)
        samples = [
            PdrSample(float(di), float(math.exp(-lam * di + ni)))
            for di, ni in zip(d, noise)
        ]
        lam_hat = fit_decay_rate(samples)
        band = 4 * sigma / math.sqrt(float(np.sum(d * d)))
        assert abs(lam_hat - lam) < band

    @given(scale=st.floats(0.2, 5.0))
    @settings(max_examples=50)
    def test_scale_consistency(self, scale):
        lam = 0.002
        base = [PdrSample(d, math.exp(-lam * d)) for d in (60, 120, 240, 480)]
        scaled = [PdrSample(s.distance * scale, s.pdr) for s in base]
        assert fit_decay_rate(scaled) == pytest.approx(lam / scale, rel=1e-9)


class TestMonteCarloEnterDelay:
    def test_perfect_channel(self):
        assert monte_carlo_enter_delay(Perfect(), 100.0, 30, 1000, 0) == (3.0, 0.0)

    def test_iid_agrees_with_analytic(self):
        lam = DECAY_HARSH
        d = 150.0
        mean, err = monte_carlo_enter_delay(DistanceIID(lam), d, 30, 40_000, 11)
        analytic = expected_enter_delay(pdr(d, lam), 30)
        assert abs(mean - analytic) <= 3 * max(err, 1e-9)

    def test_correlation_raises_delay(self):
        lam, d = DECAY_HARSH, 400.0
        iid_mean, _ = monte_carlo_enter_delay(DistanceIID(lam), d, 30, 30_000, 3)
        cor_mean, _ = monte_carlo_enter_delay(CorrelatedBurst(lam, 0.9), d, 30, 30_000, 3)
        assert cor_mean > iid_mean

    @pytest.mark.parametrize("model", [Perfect(), DistanceIID(0.0013)], ids=repr)
    def test_negative_threshold_rejected(self, model):
        with pytest.raises(ValueError):
            monte_carlo_enter_delay(model, 100.0, -1, 100, 0)

    def test_deterministic_given_seed(self):
        a = monte_carlo_enter_delay(DistanceIID(0.0013), 300.0, 20, 5000, 99)
        b = monte_carlo_enter_delay(DistanceIID(0.0013), 300.0, 20, 5000, 99)
        assert a == b


class TestDelayCurve:
    def test_nondecreasing_in_distance(self):
        distances = [0.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0]
        for lam in (DECAY_OPEN_FIELD, DECAY_HARSH):
            for xi in (None, 0.5, 0.9):
                values = [expected_enter_delay(pdr(d, lam), 30, xi) for d in distances]
                assert values == sorted(values)
                assert values[0] == pytest.approx(3.0)
