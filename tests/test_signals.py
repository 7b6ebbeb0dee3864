import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperkkl.errors import ContractViolation
from hyperkkl.signals import (
    InputSignal,
    difficulty_level,
    eval_signal,
    sample_signal,
    signal_window,
    window_matrix,
)


class TestEval:
    def test_sinusoid_peak(self):
        sig = InputSignal(kind="sinusoid", amplitude=1.0, frequency=1.0)
        assert eval_signal(sig, math.pi / 2) == pytest.approx(1.0)

    def test_square_sign_convention(self):
        sig = InputSignal(kind="square", amplitude=1.0, frequency=1.0)
        assert eval_signal(sig, math.pi / 4) == 1.0
        assert eval_signal(sig, 3 * math.pi / 2) == -1.0
        assert eval_signal(sig, 0.0) == 1.0  # sign(0) := +1

    @given(st.floats(min_value=0.0, max_value=1e4))
    def test_zero_is_exactly_zero(self, t):
        assert eval_signal(InputSignal(kind="zero"), t) == 0.0

    @given(st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50)
    def test_square_takes_two_values(self, t):
        sig = InputSignal(kind="square", amplitude=0.6, frequency=1.7, offset=0.1)
        assert eval_signal(sig, t) in (0.7, -0.5)

    def test_mixture_needs_two_distinct_components(self):
        with pytest.raises(ContractViolation):
            InputSignal(kind="mixture", components=((1.0, 1.0, 0.0),))
        with pytest.raises(ContractViolation):
            InputSignal(
                kind="mixture", components=((1.0, 1.0, 0.0), (0.5, 1.0, 0.2))
            )


class TestSampling:
    @pytest.mark.parametrize("seed", [0, 1, 33])
    def test_zero_regime_ignores_seed(self, seed):
        assert sample_signal("zero", seed).kind == "zero"

    def test_constant_mean(self):
        vals = [sample_signal("constant", s).offset for s in range(10_000)]
        assert abs(np.mean(vals)) < 0.05

    def test_deterministic(self):
        a = sample_signal("mixture", 42)
        b = sample_signal("mixture", 42)
        assert a == b

    def test_ranges(self):
        for s in range(50):
            sig = sample_signal("sinusoid", s)
            assert 0.2 <= sig.amplitude <= 1.0
            assert 0.2 <= sig.frequency <= 2.0
            assert 0.0 <= sig.phase < 2 * math.pi
            mix = sample_signal("mixture", s)
            assert 2 <= len(mix.components) <= 4

    def test_unknown_regime(self):
        with pytest.raises(ContractViolation):
            sample_signal("triangle", 0)


class TestWindow:
    def test_zero_window(self):
        w = signal_window(InputSignal(kind="zero"), 5.0, 100, 0.05)
        assert w.shape == (100,)
        assert np.all(w == 0.0)

    def test_constant_window(self):
        w = signal_window(InputSignal(kind="constant", offset=0.5), 1.0, 3, 0.05)
        assert np.array_equal(w, [0.5, 0.5, 0.5])

    def test_sliding_identity(self):
        sig = InputSignal(kind="sinusoid", amplitude=0.7, frequency=1.1, phase=0.3)
        dt, w = 0.05, 16
        t = 3.0
        first = signal_window(sig, t, w, dt)
        second = signal_window(sig, t + dt, w, dt)
        assert np.allclose(second[:-1], first[1:], atol=1e-15)
        assert second[-1] == pytest.approx(float(eval_signal(sig, t + dt)))

    def test_clamps_before_zero(self):
        sig = InputSignal(kind="sinusoid", amplitude=1.0, frequency=1.0, phase=0.9)
        w = signal_window(sig, 0.0, 5, 0.1)
        assert np.all(w == float(eval_signal(sig, 0.0)))

    def test_contract(self):
        with pytest.raises(ContractViolation):
            signal_window(InputSignal(kind="zero"), 0.0, 0, 0.05)

    def test_window_matrix_matches_pointwise(self):
        sig = InputSignal(kind="sinusoid", amplitude=0.5, frequency=0.8)
        dt, w, n = 0.05, 7, 40
        ts = np.arange(n + 1) * dt
        u = eval_signal(sig, ts)
        mat = window_matrix(u, w)
        assert mat.shape == (n + 1, w, 1)
        for k in (0, 1, 5, n):
            expect = signal_window(sig, ts[k], w, dt)
            assert np.allclose(mat[k, :, 0], expect, atol=1e-15)


class TestDifficulty:
    def test_zero(self):
        assert difficulty_level(InputSignal(kind="zero")) == 0

    def test_constant_level_one(self):
        assert difficulty_level(InputSignal(kind="constant", offset=0.7)) == 1

    def test_sinusoid_level(self):
        sig = InputSignal(kind="sinusoid", amplitude=1.0, frequency=1.0)
        assert difficulty_level(sig) == 2

    def test_level_ordering(self):
        levels = [
            difficulty_level(InputSignal(kind="zero")),
            difficulty_level(InputSignal(kind="constant", offset=0.3)),
            difficulty_level(
                InputSignal(kind="sinusoid", amplitude=1.0, frequency=0.5)
            ),
            difficulty_level(
                InputSignal(kind="sinusoid", amplitude=1.0, frequency=1.5)
            ),
            difficulty_level(sample_signal("mixture", 3)),
        ]
        assert levels == sorted(levels)
        assert levels == [0, 1, 2, 3, 4]

    def test_square_level(self):
        d = difficulty_level(
            InputSignal(kind="square", amplitude=0.5, frequency=0.4)
        )
        assert d == 3
