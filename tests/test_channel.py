"""Channel model tests: delivery laws, burst statistics, determinism."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from icsim.channel import (
    CHANNEL_TYPES,
    CorrelatedBurst,
    DistanceIID,
    Perfect,
    ReceiverStream,
    Scripted,
    burst_length_pmf,
    burst_length_weights,
    pdr,
    sample_delivery,
)
from icsim.protocol import AckMessage, EnterMessage
from icsim.scenarios import channel_from_dict

ACK = AckMessage(uid=1)

# the two streams a draw can come from, by seed: NumPy's, and the engine's
# pure-Python copy of it
STREAMS = pytest.mark.parametrize(
    "stream",
    [lambda seed: np.random.default_rng([seed, 2]), lambda seed: ReceiverStream(seed, 2)],
    ids=["numpy", "receiver_stream"],
)


def deliver(model, rng, receiver=2, slot=1, d=100.0, prior=False):
    """Whether sender 1's ACK reaches ``receiver`` over one link."""
    got, lost, _ = sample_delivery(
        model, receiver, slot, [(1, d)], {1: frozenset({ACK})}, prior, rng
    )
    assert (ACK in got) != (ACK in lost)
    return ACK in got


class TestPdr:
    def test_zero_distance(self):
        assert pdr(0.0, 0.0013) == 1.0

    def test_open_field_rate_at_400m(self):
        assert pdr(400.0, 0.00063) == pytest.approx(math.exp(-0.252), abs=1e-12)

    def test_harsh_rate_at_400m(self):
        assert pdr(400.0, 0.0013) == pytest.approx(0.5945, abs=1e-4)

    @given(
        d1=st.floats(0, 1000),
        d2=st.floats(0, 1000),
        lam=st.floats(0, 0.01),
    )
    def test_monotone_nonincreasing_in_distance(self, d1, d2, lam):
        lo, hi = sorted((d1, d2))
        assert pdr(hi, lam) <= pdr(lo, lam)

    @given(
        d=st.floats(0, 1000),
        l1=st.floats(0, 0.01),
        l2=st.floats(0, 0.01),
    )
    def test_monotone_nonincreasing_in_rate(self, d, l1, l2):
        lo, hi = sorted((l1, l2))
        assert pdr(d, hi) <= pdr(d, lo)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            pdr(-1.0, 0.001)
        with pytest.raises(ValueError):
            pdr(1.0, -0.001)


class TestSampleDelivery:
    def test_perfect_always_delivers(self):
        assert all(
            deliver(Perfect(), None, slot=s, d=d)
            for s in range(10)
            for d in (0.0, 250.0, 5000.0)
        )

    def test_scripted_lookup(self):
        model = Scripted(losses=frozenset({(2, 1), (2, 5)}))
        assert not deliver(model, None, receiver=2, slot=1)
        assert not deliver(model, None, receiver=2, slot=5)
        # lookup miss means delivered
        assert deliver(model, None, receiver=2, slot=2)
        assert deliver(model, None, receiver=1, slot=1)

    def test_scripted_all_lost(self):
        model = Scripted(all_lost=frozenset({3}))
        assert not deliver(model, None, receiver=3, slot=99)
        assert deliver(model, None, receiver=2, slot=99)

    def test_same_seed_same_stream(self):
        model = DistanceIID(lam=0.003)
        a = [deliver(model, np.random.default_rng([7, s]), slot=s, d=300) for s in range(50)]
        b = [deliver(model, np.random.default_rng([7, s]), slot=s, d=300) for s in range(50)]
        assert a == b

    @STREAMS
    def test_iid_draws_once_per_link_in_link_order(self, stream):
        model = DistanceIID(lam=0.003)
        links = [(1, 50.0), (3, 400.0), (4, 900.0)]
        outboxes = {u: frozenset({AckMessage(uid=u)}) for u, _ in links}
        rng = stream(5)
        got, lost, _ = sample_delivery(model, 2, 1, links, outboxes, False, rng)
        ref = stream(5)
        want = {u for u, d in links if ref.random() < pdr(d, model.lam)}
        assert {m.uid for m in got} == want
        assert {m.uid for m in lost} == {u for u, _ in links} - want
        assert rng.random() == ref.random()  # exactly one draw per link was taken

    @STREAMS
    def test_correlated_one_draw_decides_every_link(self, stream):
        # the draw is taken at the longest link, and it decides all of them
        model = CorrelatedBurst(lam=0.0013, xi=0.5)
        links = [(1, 10.0), (3, 600.0)]
        outboxes = {1: frozenset({ACK}), 3: frozenset({AckMessage(uid=3)})}
        for seed in range(40):
            rng = stream(seed)
            got, lost, prior = sample_delivery(model, 2, 1, links, outboxes, False, rng)
            ref = stream(seed)
            ok = ref.random() >= 1.0 - pdr(600.0, model.lam)
            assert (len(got), len(lost), prior) == ((2, 0, False) if ok else (0, 2, True))
            assert rng.random() == ref.random()  # exactly one draw was taken

    def test_prior_lost_is_nothing_received(self):
        outboxes = {1: frozenset({ACK})}
        for model, want in ((Perfect(), False), (Scripted(all_lost=frozenset({2})), True)):
            _, _, prior = sample_delivery(model, 2, 1, [(1, 5.0)], outboxes, False, None)
            assert prior is want

    @STREAMS
    def test_no_link_draws_nothing_and_keeps_the_flag(self, stream):
        rng = stream(0)
        for prior in (False, True):
            out = sample_delivery(CorrelatedBurst(0.001, 0.5), 2, 1, [], {}, prior, rng)
            assert out == (set(), set(), prior)
        assert rng.random() == stream(0).random()

    def test_every_message_of_a_sender_shares_its_fate(self):
        enter = EnterMessage(uid=1, clane="H1R", nlane="H3L", tau_mti=4.0)
        outboxes = {1: frozenset({ACK, enter})}
        rng = np.random.default_rng(3)
        for s in range(200):
            got, lost, _ = sample_delivery(
                DistanceIID(0.003), 2, s, [(1, 300.0)], outboxes, False, rng
            )
            assert (got, lost) in (({ACK, enter}, set()), (set(), {ACK, enter}))

    def test_correlated_without_memory_matches_iid_rate(self):
        # xi = 0: the empirical loss rate equals 1 - pdr within 3 sigma
        model = CorrelatedBurst(lam=0.0013, xi=0.0)
        rng = np.random.default_rng(42)
        n = 200_000
        d = 400.0
        losses = sum(not deliver(model, rng, slot=s, d=d, prior=False) for s in range(n))
        p_loss = 1.0 - pdr(d, 0.0013)
        sigma = math.sqrt(n * p_loss * (1 - p_loss))
        assert abs(losses - n * p_loss) < 3 * sigma

    def test_correlated_burst_state_raises_loss_rate(self):
        model = CorrelatedBurst(lam=0.0013, xi=0.9)
        rng = np.random.default_rng(1)
        n = 100_000
        lost_after_loss = sum(
            not deliver(model, rng, slot=s, d=100, prior=True) for s in range(n)
        )
        assert lost_after_loss / n == pytest.approx(0.9, abs=0.01)


class TestReceiverStream:
    @pytest.mark.parametrize(
        "seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70, 2**100 + 17]
    )
    def test_draws_match_numpy_default_rng(self, seed):
        # seeds of one to four 32-bit words: with the uid's word, the entropy
        # leaves SeedSequence's pool of four part empty, fills it, or runs past it
        for uid in range(5):
            ours = ReceiverStream(seed, uid)
            ref = np.random.default_rng([seed, uid])
            assert [ours.random() for _ in range(1000)] == [ref.random() for _ in range(1000)]


class TestModelForms:
    MODELS = (
        Perfect(),
        DistanceIID(lam=0.0013),
        CorrelatedBurst(lam=0.00063, xi=0.7),
        Scripted(losses=frozenset({(2, 3), (1, 4)}), all_lost=frozenset({5})),
    )

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_json_form_reads_back(self, model):
        d = model.to_dict()
        assert type(model) is CHANNEL_TYPES[d["type"]]
        assert channel_from_dict(d) == model

    def test_burst_laws(self):
        assert Perfect().burst_law(300.0) == (1.0, None)
        assert DistanceIID(0.0013).burst_law(300.0) == (pdr(300.0, 0.0013), None)
        assert CorrelatedBurst(0.0013, 0.9).burst_law(300.0) == (pdr(300.0, 0.0013), 0.9)
        with pytest.raises(TypeError):
            Scripted().burst_law(300.0)

    def test_only_random_models_draw(self):
        assert [m.uses_rng for m in self.MODELS] == [False, True, True, False]

    @pytest.mark.parametrize("lam", [-0.001, math.inf, math.nan])
    def test_bad_decay_rate_rejected(self, lam):
        with pytest.raises(ValueError):
            DistanceIID(lam)
        with pytest.raises(ValueError):
            CorrelatedBurst(lam, 0.5)


class TestBurstLengthPmf:
    def test_iid_zero_length_is_delivery_probability(self):
        assert burst_length_pmf(0.7, None, 0) == pytest.approx(0.7)

    def test_correlated_single_failure(self):
        p = 0.6
        assert burst_length_pmf(p, 0.9, 1) == pytest.approx((1 - p) * p)

    def test_correlated_zero_length(self):
        assert burst_length_pmf(0.6, 0.9, 0) == pytest.approx(0.6)

    def test_iid_normalizes(self):
        p = 0.37
        total = sum(burst_length_pmf(p, None, m) for m in range(0, 2000))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_iid_partial_sum_closed_form(self):
        p, n = 0.52, 19
        partial = sum(burst_length_pmf(p, None, m) for m in range(n + 1))
        assert partial == pytest.approx(1 - (1 - p) ** (n + 1), abs=1e-12)

    def test_correlated_is_improper(self):
        # the correlated law deliberately does not normalize to one;
        # its total mass is p + (1-p)*p/(1-xi) by the geometric series
        p, xi = 0.6, 0.9
        total = sum(burst_length_pmf(p, xi, m) for m in range(0, 5000))
        assert total == pytest.approx(p + (1 - p) * p / (1 - xi), abs=1e-9)
        assert total != pytest.approx(1.0, abs=0.01)

    @given(
        p=st.floats(0, 1),
        xi=st.none() | st.floats(0, 1, exclude_max=True),
        F=st.integers(0, 60),
    )
    def test_weights_are_the_pmf_exactly(self, p, xi, F):
        assert burst_length_weights(p, xi, F) == [burst_length_pmf(p, xi, m) for m in range(F + 1)]

    @given(
        p=st.floats(-0.5, 1.5) | st.just(math.nan),
        xi=st.none() | st.floats(-0.5, 1.5) | st.just(math.nan),
        F=st.integers(-3, 60),
    )
    def test_weights_refuse_what_the_pmf_refuses(self, p, xi, F):
        try:
            burst_length_pmf(p, xi, F)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                burst_length_weights(p, xi, F)
        else:
            assert len(burst_length_weights(p, xi, F)) == F + 1

    def test_empirical_burst_histogram_iid(self):
        # run one receiver for >= 1e6 slots and compare burst-length counts
        # against the geometric law, bin by bin, within 3 sigma; the model
        # draws once per link in link order, whatever the slot, so one call
        # over n_slots links draws what n_slots one-link slots would
        lam, d = 0.0013, 300.0
        p = pdr(d, lam)
        rng = np.random.default_rng(2024)
        n_slots = 1_200_000
        oks = DistanceIID(lam=lam).delivers(2, 1, [(1, d)] * n_slots, False, rng)
        ends = np.flatnonzero(oks)  # each delivery ends the burst before it
        bursts = np.diff(ends, prepend=-1) - 1
        n = len(bursts)
        counts = np.bincount(bursts, minlength=8)
        for m in range(6):
            pm = (1 - p) ** m * p  # P(f=m) given a delivery ends each burst
            sigma = math.sqrt(n * pm * (1 - pm))
            assert abs(counts[m] - n * pm) < 3 * sigma, f"bin {m}"


class TestMessageAtomicity:
    def test_delivered_message_is_the_sent_object(self):
        # delivery is all-or-nothing by construction: the delivered set holds
        # the identical frozen message objects that were sent
        from icsim.protocol import EnterMessage, simulate_enter_round

        res = simulate_enter_round(2, F=4)
        received = [m for e in res.log for m in e["received"]]
        assert any(m.startswith("ENTER:1:") for m in received)
        msg = EnterMessage(uid=1, clane="H1R", nlane="H3L", tau_mti=11.0)
        assert hash(msg) == hash(EnterMessage(uid=1, clane="H1R", nlane="H3L", tau_mti=11.0))
