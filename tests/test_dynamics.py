import math

import numpy as np
import pytest

from conftest import oracle_rk4_step, oracle_simulate, traced_peak

from hyperkkl import dynamics
from hyperkkl.config import KINDS, SYSTEM_NAMES
from hyperkkl.dynamics import (
    SystemSpec,
    duffing,
    eval_vector_field,
    get_system,
    lorenz,
    rk4_step,
    rossler,
    sample_initial_conditions,
    simulate,
    van_der_pol,
)
from hyperkkl.errors import ContractViolation, DivergenceError, NumericError
from hyperkkl.signals import InputSignal, sample_signal


def scalar_decay():
    # test system x' = -x, domain [-1, 1]
    return SystemSpec(
        name="decay", n_x=1, n_y=1, m=0,
        f=lambda x, u: -x, h=lambda x: x,
        domain=np.array([[-1.0, 1.0]]),
    )


def blowup():
    # x' = x^2 escapes to infinity at t = 1/x0
    return SystemSpec(
        name="blowup", n_x=1, n_y=1, m=0,
        f=lambda x, u: x**2, h=lambda x: x,
        domain=np.array([[-1.0, 1.0]]),
    )


class TestVectorField:
    def test_duffing_substitution(self):
        dx = eval_vector_field(duffing(), np.array([[1.0, 2.0]]),
                               np.array([[0.0]]))
        assert np.allclose(dx, [[8.0, -1.0]], atol=0, rtol=0)

    def test_lorenz_origin_equilibrium(self):
        dx = eval_vector_field(lorenz(), np.zeros((1, 3)), np.array([[0.0]]))
        assert dx.shape == (1, 3) and np.all(dx == 0.0)

    def test_vanderpol_substitution(self):
        dx = eval_vector_field(van_der_pol(), np.array([[0.0, 1.0]]),
                               np.array([[0.0]]))
        assert np.allclose(dx, [[1.0, 3.0]], atol=0, rtol=0)

    def test_rossler_parameters(self):
        sys = rossler()
        dx = eval_vector_field(sys, np.array([[1.0, 1.0, 1.0]]),
                               np.array([[0.0]]))
        # (-x2 - x3, x1 + 0.1 x2, 0.1 + x3(x1 - 14))
        assert np.allclose(dx, [[-2.0, 1.1, 0.1 + (1.0 - 14.0)]])

    def test_input_enters_second_equation(self):
        for name in dynamics.SYSTEM_NAMES:
            sys = get_system(name)
            x = np.full((1, sys.n_x), 0.3)
            du = eval_vector_field(sys, x, np.array([[0.7]])) - eval_vector_field(
                sys, x, np.array([[0.0]])
            )
            expected = np.zeros((1, sys.n_x))
            expected[0, 1] = 0.7
            assert np.allclose(du, expected)

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_drift_is_the_stacked_formula_bitwise(self, name, rng):
        # each drift writes its coordinates into one array; the values
        # must be those of stacking the per-coordinate expressions
        formulas = {
            "duffing": lambda x: [x[:, 1] ** 3, -x[:, 0]],
            "vanderpol": lambda x: [
                x[:, 1], 3.0 * (1.0 - x[:, 0] ** 2) * x[:, 1] - x[:, 0]],
            "rossler": lambda x: [
                -x[:, 1] - x[:, 2], x[:, 0] + 0.1 * x[:, 1],
                0.1 + x[:, 2] * (x[:, 0] - 14.0)],
            "lorenz": lambda x: [
                10.0 * (x[:, 1] - x[:, 0]), x[:, 0] * (28.0 - x[:, 2]) - x[:, 1],
                x[:, 0] * x[:, 1] - 8.0 / 3.0 * x[:, 2]],
        }
        system = get_system(name)
        x = 5.0 * rng.normal(size=(7, system.n_x))
        u = rng.normal(size=(7, 1))
        want = np.stack(formulas[name](x), axis=-1)
        want[:, 1] += u[:, 0]
        assert np.array_equal(system.f(x, u), want)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation, match=r"\(B, 2\) batch"):
            eval_vector_field(duffing(), np.zeros((1, 3)), np.array([[0.0]]))
        with pytest.raises(ContractViolation, match=r"\(1, 1\) batch"):
            eval_vector_field(duffing(), np.zeros((1, 2)),
                              np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("x", [np.zeros(2), np.zeros((1, 1, 2))])
    def test_refuses_a_state_that_is_not_rows(self, x):
        with pytest.raises(ContractViolation, match="state must be"):
            eval_vector_field(duffing(), x)

    @pytest.mark.parametrize("u", [np.zeros(1), np.zeros((1, 1, 1)),
                                   np.zeros((2, 1)), 0.0])
    def test_refuses_an_input_that_is_not_one_row_per_state(self, u):
        with pytest.raises(ContractViolation, match="input must be"):
            eval_vector_field(duffing(), np.zeros((1, 2)), u)

    def test_nonfinite_state(self):
        with pytest.raises(NumericError):
            eval_vector_field(duffing(), np.array([[np.nan, 0.0]]),
                              np.array([[0.0]]))


class TestRk4:
    def test_scalar_decay_matches_taylor4(self):
        # RK4 on x' = -x reproduces the degree-4 Taylor polynomial of e^{-dt}
        out = rk4_step(scalar_decay(), np.array([[1.0]]), np.zeros((3, 1, 0)),
                       0.0, 0.1)[0]
        taylor4 = sum((-0.1) ** k / math.factorial(k) for k in range(5))
        assert out[0] == pytest.approx(taylor4, abs=1e-15)
        assert out[0] == pytest.approx(0.9048375, abs=1e-9)
        assert abs(out[0] - math.exp(-0.1)) < 1e-7  # O(dt^5)

    def test_lorenz_fixed_point_preserved(self):
        out = rk4_step(lorenz(), np.zeros((1, 3)), np.zeros((3, 1, 1)), 0.0,
                       0.05)
        assert np.all(out == 0.0)

    def test_convergence_order_forced_vdp(self):
        sys = van_der_pol()
        sig = InputSignal(kind="sinusoid", components=((0.8, 1.3, 0.4),))
        x0 = np.array([1.0, 0.5])
        horizon = 4.0

        def run(dt):
            tr = simulate(sys, x0[None], [sig], dt, horizon, sigma=0.0, seed=0)
            return tr.states[0, -1]

        ref = run(0.04 / 64)
        e1 = np.linalg.norm(run(0.04) - ref)
        e2 = np.linalg.norm(run(0.02) - ref)
        order = math.log2(e1 / e2)
        assert 3.5 <= order <= 4.5


class TestSimulate:
    def test_zero_noise_determinism(self):
        sys = duffing()
        a = simulate(sys, np.array([[0.5, 0.5]]), None, 0.05, 5.0, 0.0, seed=1)
        b = simulate(sys, np.array([[0.5, 0.5]]), None, 0.05, 5.0, 0.0, seed=99)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.outputs, b.outputs)

    def test_seeded_reproducibility_with_noise(self):
        sys = duffing()
        a = simulate(sys, np.array([[0.5, 0.5]]), None, 0.05, 5.0, 0.01, seed=7)
        b = simulate(sys, np.array([[0.5, 0.5]]), None, 0.05, 5.0, 0.01, seed=7)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.outputs, b.outputs)
        c = simulate(sys, np.array([[0.5, 0.5]]), None, 0.05, 5.0, 0.01, seed=8)
        assert not np.array_equal(a.states, c.states)

    def test_noise_actually_enters(self):
        sys = duffing()
        a = simulate(sys, np.array([[0.5, 0.5]]), None, 0.05, 5.0, 0.0, seed=7)
        b = simulate(sys, np.array([[0.5, 0.5]]), None, 0.05, 5.0, 0.01, seed=7)
        assert not np.array_equal(a.states, b.states)
        assert not np.array_equal(a.outputs, b.outputs)

    def test_duffing_energy_stays_bounded(self):
        # Reverse Duffing conserves x1^2/2 + x2^4/4; a dt/64 reference run
        # confirms the amplitude never exceeds 2x the initial one over 50 s.
        sys = duffing()
        x0 = np.array([math.cos(0.7), math.sin(0.7)])
        ref = simulate(sys, x0[None], None, 0.05 / 64, 50.0, 0.0, seed=0)
        bound = 2.0 * np.linalg.norm(x0)
        assert np.max(np.linalg.norm(ref.states[0], axis=1)) <= bound
        traj = simulate(sys, x0[None], None, 0.05, 50.0, 0.0, seed=0)
        assert np.max(np.linalg.norm(traj.states[0], axis=1)) <= bound

    def test_lorenz_origin_stays_fixed(self):
        tr = simulate(lorenz(), np.zeros((1, 3)), None, 0.05, 2.0, 0.0, seed=0)
        assert np.all(tr.states == 0.0)

    def test_inputs_column_records_signal(self):
        sig = InputSignal(kind="constant", offset=0.25)
        runs = simulate(duffing(), np.zeros((1, 2)), [sig], 0.05, 1.0, 0.0,
                        seed=0)
        assert np.all(runs.inputs == 0.25)
        assert runs.inputs.shape == (1, 21, 1)
        assert runs.signals == (sig,)

    def test_unforced_runs_carry_the_zero_signal(self):
        # signals None is the shorthand; the set holds no None
        runs = simulate(duffing(), np.zeros((2, 2)), None, 0.05, 1.0, 0.0,
                        seed=0)
        assert runs.signals == (InputSignal("zero"),) * 2
        assert np.all(runs.inputs == 0.0)

    def test_bad_dt(self):
        with pytest.raises(ContractViolation):
            simulate(duffing(), np.zeros((1, 2)), None, 0.0, 1.0, 0.0, seed=0)

    def test_bad_horizon(self):
        with pytest.raises(ContractViolation):
            simulate(duffing(), np.zeros((1, 2)), None, 0.05, 0.07, 0.0, seed=0)
        with pytest.raises(ContractViolation):
            simulate(duffing(), np.zeros((1, 2)), None, 0.05, 0.0, 0.0, seed=0)

    @pytest.mark.parametrize("horizon, dt", [
        (50.0, 0.0), (50.0, -0.05), (50.0, math.nan), (50.0, math.inf),
        (math.nan, 0.05), (math.inf, 0.05), (-1.0, 0.05), (1e300, 1e-300),
    ])
    def test_step_count_refuses_a_bad_dt_or_horizon(self, horizon, dt):
        with pytest.raises(ContractViolation, match="finite and positive"):
            dynamics.n_steps_for(horizon, dt)

    def test_divergence_guard_names_step(self):
        with pytest.raises(DivergenceError) as exc:
            simulate(blowup(), np.array([[3.0]]), None, 0.1, 10.0, 0.0, seed=0)
        assert exc.value.step > 0


class TestBatch:
    @pytest.mark.parametrize("regime", KINDS)
    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_runs_match_the_oracle_bitwise(self, name, regime):
        # 7 runs, a count no SIMD width divides; every run must be the
        # one the scalar RK4 integrates alone from its own seed
        system = get_system(name)
        x0 = sample_initial_conditions(system, 7, seed=5)
        signals = [sample_signal(regime, 5 + i) for i in range(7)]
        batch = simulate(system, x0, signals, 0.05, 10.0, 0.01, seed=5)
        assert batch.times.shape == (201,)
        assert batch.states.shape == (7, 201, system.n_x)
        for i in range(7):
            one = oracle_simulate(system, x0[i], signals[i], 0.05, 10.0, 0.01,
                                  5 + i)
            assert np.array_equal(batch.times, one.times)
            assert np.array_equal(batch.states[i], one.states[0])
            assert np.array_equal(batch.inputs[i], one.inputs[0])
            assert np.array_equal(batch.outputs[i], one.outputs[0])
            assert batch.signals[i] == signals[i]

    def test_noise_is_drawn_in_place(self):
        # 8 lorenz runs of 2000 noisy steps under inputs. Beyond what it
        # returns, simulate may hold one run's draw, 64 KiB and either the
        # half-step and end-step input grids (the recorded inputs are
        # written into the returned array) or, once they are gone, h's
        # result; stacking the runs' noise and scaling it into a new array
        # holds it twice, and a copied input grid three inputs more
        system, count = lorenz(), 8
        x0 = sample_initial_conditions(system, count, seed=3)
        signals = [sample_signal("sinusoid", 3 + i) for i in range(count)]
        simulate(system, x0, signals, 0.01, 0.1, 0.05, seed=3)
        run, peak = traced_peak(simulate, system, x0, signals, 0.01, 20.0,
                                0.05, 3)
        steps = len(run.times) - 1
        returned = run.states.nbytes + run.inputs.nbytes + run.outputs.nbytes
        draw = steps * system.n_x * 8
        slack = max(2 * run.inputs.nbytes, run.outputs.nbytes) + 64 * 1024
        assert peak <= returned + draw + slack

    def test_one_step_matches_the_scalar_step(self):
        # run 0 at zero input, run 1 under 0.8 sin(1.3 t + 0.4)
        sys = van_der_pol()
        x = np.array([[1.0, 0.5], [-0.3, 1.7]])
        t, dt = 0.35, 0.05
        u = np.array([[[0.0], [0.8 * math.sin(1.3 * tt + 0.4)]]
                      for tt in (t, t + 0.5 * dt, t + dt)])
        out = rk4_step(sys, x, u, t, dt)
        for i, drive in enumerate((lambda tt: [0.0],
                                   lambda tt: [0.8 * math.sin(1.3 * tt + 0.4)])):
            assert np.array_equal(out[i], oracle_rk4_step(sys, x[i], drive, t, dt))

    def test_divergence_names_the_first_run_to_escape(self):
        # run 2 (x0 = 3) escapes before run 0 (x0 = 2); run 1 never does
        x0 = np.array([[2.0], [0.5], [3.0]])
        with pytest.raises(DivergenceError) as alone:
            oracle_simulate(blowup(), x0[2], None, 0.01, 1.0, 0.0, 0)
        with pytest.raises(DivergenceError) as first:
            oracle_simulate(blowup(), x0[0], None, 0.01, 1.0, 0.0, 0)
        assert alone.value.step < first.value.step
        with pytest.raises(DivergenceError, match=r"^run 2 escaped") as exc:
            simulate(blowup(), x0, None, 0.01, 1.0, 0.0, seed=0)
        assert exc.value.step == alone.value.step
        assert str(exc.value).endswith(f"at step {alone.value.step}")

    def test_a_non_finite_stage_names_its_run(self):
        poisoned = SystemSpec(
            name="poisoned", n_x=1, n_y=1, m=0,
            f=lambda x, u: np.where(x < 0.0, np.nan, -x), h=lambda x: x,
            domain=np.array([[-1.0, 1.0]]),
        )
        x0 = np.array([[0.5], [0.2], [-0.5]])
        with pytest.raises(NumericError, match="stage in run 2 at t=0.0"):
            simulate(poisoned, x0, None, 0.05, 1.0, 0.0, seed=0)

    def test_one_signal_per_run(self):
        with pytest.raises(ContractViolation, match="2 signals for 3 runs"):
            simulate(duffing(), np.zeros((3, 2)), [InputSignal("zero")] * 2,
                     0.05, 1.0, 0.0, seed=0)


class TestInitialConditions:
    def test_law_of_large_numbers(self):
        box = SystemSpec(
            name="box", n_x=2, n_y=1, m=0,
            f=lambda x, u: x, h=lambda x: x[..., :1],
            domain=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        )
        pts = sample_initial_conditions(box, 1000, seed=3)
        assert pts.shape == (1000, 2)
        assert np.all(np.abs(pts.mean(axis=0)) < 0.1)
        assert np.all(pts >= -1.0) and np.all(pts <= 1.0)

    def test_degenerate_box_guard(self):
        point = SystemSpec(
            name="pt", n_x=2, n_y=1, m=0,
            f=lambda x, u: x, h=lambda x: x[..., :1],
            domain=np.array([[0.0, 0.0], [0.0, 0.0]]),
        )
        with pytest.raises(ContractViolation, match="degenerate domain"):
            sample_initial_conditions(point, 1, seed=0)

    def test_seeded(self):
        sys = van_der_pol()
        a = sample_initial_conditions(sys, 10, seed=5)
        b = sample_initial_conditions(sys, 10, seed=5)
        assert np.array_equal(a, b)

    def test_count_contract(self):
        with pytest.raises(ContractViolation):
            sample_initial_conditions(duffing(), 0, seed=0)
