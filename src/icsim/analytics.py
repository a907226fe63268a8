"""Closed-form and Monte Carlo evaluation of consensus delay and V2V usage.

The delay analysis considers the two-vehicle scenario in which one receiver
suffers a single contiguous burst of slot failures while the other receives
everything. Averaging the per-burst delay over the burst-length law, with
bursts beyond the tolerance threshold excluded by normalization, gives the
expected consensus delay; the complementary tail gives the probability that
V2V is used at all rather than the sensor fallback. NumPy is imported only
by the functions that sample or fit, when first called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .channel import ChannelModel, burst_length_pmf, burst_length_weights
from .protocol import closed_form_enter_delay

#: Fitted delivery-ratio decay rates per environment, 1/m.
DECAY_OPEN_FIELD = 0.00063
DECAY_HARSH = 0.0013


@dataclass(frozen=True)
class PdrSample:
    """One measured (distance, delivery ratio) point."""

    distance: float
    pdr: float

    def __post_init__(self):
        if not (0 <= self.pdr <= 1):
            raise ValueError("pdr must be in [0, 1]")
        if not (math.isfinite(self.distance) and self.distance >= 0):
            raise ValueError("distance must be finite and nonnegative")


def expected_enter_delay(p: float, F: int, xi: float | None = None) -> float:
    """Expected consensus delay in slots, averaged over burst lengths 0..F.

    Weights come from the burst-length law (independent slots, or correlated
    with transition probability ``xi``), renormalized over the tolerated
    range.
    """
    if not (0 < p <= 1):
        raise ValueError("delivery probability must be in (0, 1]; a zero-"
                         "delivery channel has no finite expected delay")
    if F < 0:
        raise ValueError("F must be nonnegative")
    num = 0.0
    den = 0.0
    for w, delay in zip(burst_length_weights(p, xi, F), _closed_form_delay_by_burst(F)):
        num += w * delay
        den += w
    return num / den


@lru_cache(maxsize=None)
def _closed_form_delay_by_burst(F: int) -> tuple[int, ...]:
    """``closed_form_enter_delay`` per burst length 0..F at one receiver."""
    return tuple(closed_form_enter_delay(F, m) for m in range(F + 1))


def v2v_probability(p: float, F: int, xi: float | None = None) -> float:
    """Probability that the crossing uses V2V rather than the sensor fallback.

    The fallback starts once a burst of F+1 failures hits one vehicle, so
    this is one minus the probability of that burst length.
    """
    if not (0 < p <= 1):
        raise ValueError("delivery probability must be in (0, 1]")
    if F < 0:
        raise ValueError("F must be nonnegative")
    return 1.0 - burst_length_pmf(p, xi, F + 1)


def fit_decay_rate(samples: list[PdrSample]) -> float:
    """Least-squares decay rate of an exponential delivery-ratio law.

    Fits ``-ln(pdr)`` against distance through the origin. Requires at least
    two distinct distances and strictly positive delivery ratios.
    """
    if any(s.pdr <= 0 for s in samples):
        raise ValueError("delivery ratios must be positive to fit a decay rate")
    import numpy as np
    d = np.array([s.distance for s in samples], dtype=float)
    if len(set(d.tolist())) < 2:
        raise ValueError("need samples at two or more distinct distances")
    y = -np.log(np.array([s.pdr for s in samples], dtype=float))
    return float(np.dot(d, y) / np.dot(d, d))


@lru_cache(maxsize=None)
def _simulated_delay_by_burst(F: int) -> "numpy.ndarray":
    """Resolution delay of the two-vehicle round per burst length 0..F, as
    a read-only float array: the closed form ``_closed_form_delay_by_burst``.

    That the protocol machine resolves each burst in exactly these slots is
    checked by the tests, one ``simulate_enter_round`` per burst length. The
    name stays until the benchmark, which clears this cache by it, is next
    changed. This cache is the table's only one."""
    import numpy as np
    table = np.array(_closed_form_delay_by_burst(F), dtype=float)
    table.flags.writeable = False
    return table


def monte_carlo_enter_delay(
    model: ChannelModel,
    d: float,
    F: int,
    n_trials: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Sample mean and standard error of the two-vehicle consensus delay.

    Each trial draws one initial receive-failure burst at a single receiver
    from the burst-length law of the channel model (its ``burst_law``; a
    scripted channel has none and raises ``TypeError``), conditioned on the burst
    not exceeding ``F`` (the same truncation the closed-form average
    normalizes over). The per-burst delay is read off the closed-form table
    ``_simulated_delay_by_burst``, built once per F; the tests check that
    table against the protocol machine, so what this sampler checks against
    ``expected_enter_delay`` is the burst law's sampling, not the machine.

    The mean and standard error are NumPy's ``mean()`` and ``std(ddof=1) /
    sqrt(n_trials)`` of the delays, bit for bit, from the same ufunc calls.
    The CDF ends at exactly 1, so a draw past its rounded sum still gives F.
    """
    if n_trials < 1 or F < 0:
        raise ValueError("need n_trials >= 1 and F >= 0")
    p, xi = model.burst_law(d)
    if p <= 0:
        raise ValueError("zero-delivery channel never completes a round")
    import numpy as np
    weights = np.array(burst_length_weights(p, xi, F))
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0  # every draw u < 1 lands on a burst length <= F
    rng = np.random.default_rng([seed, 2])
    bursts = np.searchsorted(cdf, rng.random(n_trials), side="right")
    delays = _simulated_delay_by_burst(F)[bursts]
    mean = float(np.add.reduce(delays)) / n_trials
    dev = delays - mean
    np.multiply(dev, dev, out=dev)
    var = float(np.add.reduce(dev)) / (n_trials - 1) if n_trials > 1 else 0.0
    return mean, math.sqrt(var) / math.sqrt(n_trials)
