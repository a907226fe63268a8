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
    _simulated_delay_by_burst,
    expected_enter_delay,
    fit_decay_rate,
    monte_carlo_enter_delay,
    v2v_probability,
)
from icsim.channel import (
    CorrelatedBurst,
    DistanceIID,
    Perfect,
    Scripted,
    burst_length_weights,
    pdr,
)
from icsim.protocol import simulate_enter_round


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

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf, -100.0])
    def test_nonfinite_or_negative_distance_rejected(self, d):
        with pytest.raises(ValueError, match="distance"):
            PdrSample(d, 0.5)

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


def reference_monte_carlo(model, d, F, n_trials, seed):
    """The Monte Carlo as NumPy's mean and std methods compute it, over an
    unpinned CDF whose out-of-range draws are clamped to burst length F."""
    p, xi = model.burst_law(d)
    weights = np.array(burst_length_weights(p, xi, F))
    cdf = np.cumsum(weights / weights.sum())
    rng = np.random.default_rng([seed, 2])
    bursts = np.minimum(np.searchsorted(cdf, rng.random(n_trials), side="right"), F)
    delays = _simulated_delay_by_burst(F)[bursts]
    mean = float(delays.mean())
    stderr = float(delays.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    return mean, stderr


def outcome(f, *args):
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc)


class FixedDraws:
    """A generator stub whose ``random(n)`` returns the given n draws."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, n):
        assert n == len(self.draws)
        return self.draws.copy()


channel_models = st.one_of(
    st.just(Perfect()),
    st.builds(DistanceIID, st.floats(0, 0.01)),
    st.builds(CorrelatedBurst, st.floats(0, 0.01), st.floats(0, 1, exclude_max=True)),
    st.just(Scripted(frozenset({(2, 1)}))),
)


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

    @given(
        model=channel_models,
        d=st.floats(0, 800),
        F=st.integers(0, 60),
        n=st.integers(1, 5000),
        seed=st.integers(min_value=0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_numpy_mean_and_std(self, model, d, F, n, seed):
        assert outcome(monte_carlo_enter_delay, model, d, F, n, seed) == outcome(
            reference_monte_carlo, model, d, F, n, seed
        )

    @pytest.mark.parametrize(
        "model,d,F,end",
        [
            (DistanceIID(DECAY_OPEN_FIELD), 100.0, 15, -1),
            (CorrelatedBurst(DECAY_HARSH, 0.7), 500.0, 30, -1),
            (DistanceIID(DECAY_OPEN_FIELD), 100.0, 2, 1),
            (DistanceIID(DECAY_OPEN_FIELD), 200.0, 2, 0),
        ],
    )
    def test_edge_draws_match_reference(self, model, d, F, end, monkeypatch):
        p, xi = model.burst_law(d)
        weights = np.array(burst_length_weights(p, xi, F))
        cdf = np.cumsum(weights / weights.sum())
        assert np.sign(cdf[-1] - 1.0) == end  # the unpinned CDF ends below, above or at 1
        draws = np.array([0.0, *cdf, np.nextafter(cdf[-1], 0), np.nextafter(1.0, 0)])
        draws = draws[draws < 1.0]  # random() never returns 1 or more
        monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedDraws(draws))
        got = monte_carlo_enter_delay(model, d, F, len(draws), 0)
        assert got == reference_monte_carlo(model, d, F, len(draws), 0)
        # below 1, the reference clamps the draws at or past cdf[-1] from F + 1
        assert np.searchsorted(cdf, draws, side="right").max() == F + (end < 0)

    def test_cached_delay_table_is_read_only(self):
        table = _simulated_delay_by_burst(4)
        with pytest.raises(ValueError):
            table[0] = 99.0
        assert _simulated_delay_by_burst(4) is table
        assert table.tolist() == [3.0, 5.0, 5.0, 7.0, 7.0]


class TestDelayTable:
    """``_simulated_delay_by_burst`` is the closed form; the protocol machine
    must resolve each burst length in the slots it gives, whichever of the
    two cars the burst hits."""

    @pytest.mark.parametrize("receiver", [1, 2])
    @pytest.mark.parametrize("F", range(61))
    def test_equals_one_round_per_burst(self, F, receiver):
        assert _simulated_delay_by_burst(F).tolist() == [
            simulate_enter_round(
                2, F=F, losses={(receiver, s) for s in range(1, m + 1)}
            ).resolution_slot()
            for m in range(F + 1)
        ]

    def test_cache_clear_rebuilds_an_equal_table(self):
        table = _simulated_delay_by_burst(12)
        _simulated_delay_by_burst.cache_clear()
        rebuilt = _simulated_delay_by_burst(12)
        assert rebuilt is not table
        assert np.array_equal(rebuilt, table)


class TestDelayCurve:
    def test_nondecreasing_in_distance(self):
        distances = [0.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0]
        for lam in (DECAY_OPEN_FIELD, DECAY_HARSH):
            for xi in (None, 0.5, 0.9):
                values = [expected_enter_delay(pdr(d, lam), 30, xi) for d in distances]
                assert values == sorted(values)
                assert values[0] == pytest.approx(3.0)


class TestRefusals:
    """Arguments outside a function's domain raise ``ValueError``, named."""

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda: expected_enter_delay(0.9, -1), "F must be nonnegative"),
            (lambda: v2v_probability(0.0, 3), "delivery probability"),
            (lambda: v2v_probability(0.9, -1), "F must be nonnegative"),
            # exp(-0.0013 * 1e6) underflows to a zero delivery ratio
            (lambda: monte_carlo_enter_delay(DistanceIID(0.0013), 1e6, 3, 10, 0), "zero-delivery"),
        ],
        ids=["delay F -1", "v2v p 0", "v2v F -1", "Monte Carlo at zero delivery"],
    )
    def test_raises(self, call, error):
        with pytest.raises(ValueError, match=error):
            call()
