"""Digital-twin wing model, actuator, gust, and noise tests."""

import numpy as np
import pytest

from morphwing.errors import BadDimension, NonFiniteState
from morphwing.numerics import SecondOrderFilter, hurwitz_margin, integrate_step
from morphwing.plant import (
    GUST_CHUNK,
    ActuatorBank,
    ActuatorConfig,
    FaultConfig,
    GustConfig,
    NoiseModel,
    WingSimulator,
    apply_fault,
    gust_angle,
    synthesize_wing_model,
)


def backlash_step(tau, u, k1, k2, u_f_plus, u_f_minus):
    """One sample of the velocity-driven backlash law, the reference that
    ActuatorBank.advance's block is checked against.

    The output rides the upper engagement line k2 (u - u_f+) while the
    drive pushes up, the lower line k1 (u - u_f-) while it pushes down,
    and holds in between.  For a monotone move within a sample this
    clip-based update is exact.
    """
    return np.minimum(np.maximum(tau, k2 * (np.asarray(u, dtype=float) - u_f_plus)),
                      k1 * (np.asarray(u, dtype=float) - u_f_minus))


class TestWingModel:
    def test_default_shapes_and_stability(self):
        model = synthesize_wing_model()
        assert model.A.shape == (4, 4)
        assert model.B.shape == (4, 12)
        assert model.C.shape == (2, 4)
        assert hurwitz_margin(model.A) < 0.0

    def test_static_gain_matches_construction_exactly(self):
        model = synthesize_wing_model()
        dc = model.C @ np.linalg.solve(-model.A, model.B) + model.D
        assert np.allclose(dc, model.B_static, atol=1e-10)

    def test_static_gain_full_row_rank(self):
        model = synthesize_wing_model()
        assert np.linalg.matrix_rank(model.B_static) == 2

    def test_moment_row_grows_with_span_location(self):
        model = synthesize_wing_model()
        assert np.all(np.diff(model.B_static[1]) > 0.0)

    def test_gust_static_gain_is_configured_value(self):
        model = synthesize_wing_model(gust_dc=(8.0, 7.6))
        dc = model.C @ np.linalg.solve(-model.A, model.B_g)
        assert np.allclose(dc[:, 0], [8.0, 7.6], atol=1e-10)

    def test_free_response_decays(self):
        model = synthesize_wing_model()
        sim = WingSimulator(model)
        sim.x = np.array([1.0, 0.0, 1.0, 0.0])
        n0 = np.linalg.norm(sim.x)
        for _ in range(2000):
            sim.step(np.zeros(12))
        assert np.linalg.norm(sim.x) < 1e-3 * n0

    def test_location_count_must_match(self):
        with pytest.raises(BadDimension):
            synthesize_wing_model(m=12, locations=np.linspace(0.1, 1.8, 5))


class TestDeadbandMaps:
    def test_backlash_ramp_up_down_hysteresis(self):
        # drive 0 -> 2 -> 0 with unit stiffness and +/-0.6 deadband:
        # the output peaks at 1.4, holds there until the drive falls to
        # 0.8, then rides the lower line down to 0.6 at u = 0
        us = np.concatenate([np.linspace(0.0, 2.0, 201), np.linspace(2.0, 0.0, 201)])
        tau = 0.0
        trace = []
        for u in us:
            tau = backlash_step(tau, u, 1.0, 1.0, 0.6, -0.6)
            trace.append(float(tau))
        trace = np.array(trace)
        assert trace.max() == pytest.approx(1.4)
        i_drop = 201 + np.argmax(us[201:] < 0.8)
        assert np.allclose(trace[201:i_drop], 1.4)
        assert trace[-1] == pytest.approx(0.6)

    def test_backlash_holds_under_constant_drive(self):
        tau = backlash_step(0.0, 1.0, 1.0, 1.0, 0.6, -0.6)
        for _ in range(50):
            tau2 = backlash_step(tau, 1.0, 1.0, 1.0, 0.6, -0.6)
            assert tau2 == tau
            tau = tau2

    def test_backlash_zero_deadband_is_passthrough(self):
        tau = 0.0
        for u in np.linspace(-1.0, 1.0, 21):
            tau = backlash_step(tau, u, 1.0, 1.0, 0.0, 0.0)
            assert tau == pytest.approx(u)

    def test_backlash_state_is_reproducible(self):
        rng = np.random.default_rng(3)
        us = np.cumsum(0.05 * rng.standard_normal(300))
        t1 = t2 = np.zeros(1)
        tr1, tr2 = [], []
        for u in us:
            t1 = backlash_step(t1, u, 1.2, 0.9, 0.6, -0.6)
            tr1.append(t1.copy())
        for u in us:
            t2 = backlash_step(t2, u, 1.2, 0.9, 0.6, -0.6)
            tr2.append(t2.copy())
        assert np.array_equal(np.array(tr1), np.array(tr2))


class TestGust:
    def test_zero_before_arrival(self):
        g = GustConfig(a_g=1.0, f_g=1.0, d_gw=2.0, v=1.0, repeat=1)
        assert gust_angle(g, 1.999) == 0.0

    def test_peak_equals_amplitude(self):
        g = GustConfig(a_g=3.5, f_g=0.5, d_gw=0.0, v=1.0, repeat=1)
        ts = np.linspace(0.0, 2.0, 2001)
        vals = np.array([gust_angle(g, t) for t in ts])
        assert vals.max() == pytest.approx(3.5, abs=1e-6)

    def test_single_period_duration(self):
        g = GustConfig(a_g=3.5, f_g=0.5, d_gw=0.0, v=1.0, repeat=1)
        assert gust_angle(g, 1.0) == pytest.approx(3.5, abs=1e-9)
        assert gust_angle(g, 2.0) == 0.0
        assert gust_angle(g, 5.0) == 0.0

    def test_repeat_extends_window(self):
        g = GustConfig(a_g=1.0, f_g=1.0, d_gw=0.0, v=1.0, repeat=3)
        assert gust_angle(g, 2.5) > 0.0
        assert gust_angle(g, 3.0) == 0.0


class TestActuators:
    def test_transport_delay_is_exact_sample_count(self):
        bank = ActuatorBank(2, ActuatorConfig(delay=0.015), dt=0.001)
        assert bank.depth == 15
        outs = [bank.step(np.ones(2))[0] for _ in range(20)]
        assert all(o == 0.0 for o in outs[:15])
        assert outs[15] > 0.0

    def test_servo_settles_to_command(self):
        bank = ActuatorBank(2, ActuatorConfig(), dt=0.001)
        u = np.array([1.0, -2.0])
        for _ in range(3000):
            out = bank.step(u)
        assert np.allclose(out, u, atol=1e-6)

    def test_instant_bypasses_dynamics(self):
        bank = ActuatorBank(3, ActuatorConfig(instant=True))
        u = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(bank.step(u), u)

    def test_default_fault_pattern(self):
        bank = apply_fault(ActuatorBank(12, ActuatorConfig()), FaultConfig())
        assert bank.scales[8] == 0.0
        assert bank.scales[7] == pytest.approx(0.468)
        assert bank.scales[9] == pytest.approx(0.7348)
        assert np.all(bank.scales[[0, 1, 2, 3, 4, 5, 6, 10, 11]] == 1.0)

    @pytest.mark.parametrize("backlash", [False, True])
    def test_fault_applied_after_healthy_steps_takes_effect(self, backlash):
        # a healthy bank skips its unit scales; a fault applied after it has
        # run scales the next block, bit for bit the servo output times the scales
        def bank():
            return ActuatorBank(12, ActuatorConfig(backlash=backlash))

        u = np.linspace(2.0, 5.0, 12)   # beyond the 0.6 deg backlash
        healthy, twin = bank(), bank()
        first = healthy.advance(u, 200)   # past the delay and the backlash
        assert np.array_equal(first, twin.advance(u, 200)) and np.all(first[-1] != 0.0)
        apply_fault(healthy, FaultConfig())
        assert not healthy.healthy and twin.healthy
        out = np.full((20, 12), np.nan)
        faulted = healthy.advance(2.0 * u, 20, out=out)
        assert faulted is out
        expected = twin.advance(2.0 * u, 20)
        assert np.array_equal(faulted, healthy.scales * expected)
        assert np.all(faulted[:, 8] == 0.0) and np.any(expected[:, 8] != 0.0)
        assert np.array_equal(faulted[:, 7], 0.468 * expected[:, 7])

    def test_scales_change_only_through_apply_fault(self):
        # a direct write would go unused while healthy stays set: it raises instead,
        # before and after a fault
        bank = ActuatorBank(12, ActuatorConfig(delay=0.0))
        for _ in range(2):
            with pytest.raises(ValueError):
                bank.scales[3] = 0.0
            with pytest.raises(AttributeError):
                bank.scales = np.zeros(12)
            apply_fault(bank, FaultConfig(failed=[3], scaled=[]))
        assert not bank.healthy and np.array_equal(bank.scales, np.arange(12) != 3)
        assert np.all(bank.advance(np.ones(12), 200)[:, 3] == 0.0)

    def test_backlash_path_shows_hysteresis(self):
        bank = ActuatorBank(2, ActuatorConfig(delay=0.0, backlash=True), dt=0.001)
        up, down = [], []
        for u in np.linspace(0.0, 2.0, 500):
            up.append((u, float(bank.step(np.array([u, u]))[0])))
        for u in np.linspace(2.0, 0.0, 500):
            down.append((u, float(bank.step(np.array([u, u]))[0])))
        up_at_1 = min(up, key=lambda p: abs(p[0] - 1.0))[1]
        down_at_1 = min(down, key=lambda p: abs(p[0] - 1.0))[1]
        assert down_at_1 > up_at_1


class TestNoise:
    def test_seeded_sequences_reproduce(self):
        n1 = NoiseModel(np.array([1.0, 1.0]), seed=7)
        n2 = NoiseModel(np.array([1.0, 1.0]), seed=7)
        s1 = np.array([n1.step() for _ in range(200)])
        s2 = np.array([n2.step() for _ in range(200)])
        assert np.array_equal(s1, s2)

    def test_stationary_std_matches_request(self):
        noise = NoiseModel(np.array([2.0, 0.5]), seed=1)
        samples = np.array([noise.step() for _ in range(60000)])
        stds = samples[5000:].std(axis=0)
        assert np.allclose(stds, [2.0, 0.5], rtol=0.05)

    def test_measurement_filter_attenuates_noise_variance(self):
        # analytic power ratio of the 10 rad/s measurement low pass on
        # the default colored spectrum (shaping at 30 rad/s) is 0.285:
        # integrate |H_meas|^2 S / integrate S over the shaped spectrum
        noise = NoiseModel(np.array([1.0, 1.0]), seed=2)
        meas = SecondOrderFilter(0.8, 10.0, 0.001, channels=2)
        raw, filt = [], []
        for _ in range(40000):
            w = noise.step()
            raw.append(w)
            filt.append(meas.step(w))
        var_raw = np.var(np.array(raw)[5000:], axis=0)
        var_filt = np.var(np.array(filt)[5000:], axis=0)
        ratio = var_filt / var_raw
        assert np.all(ratio < 0.35)
        assert np.allclose(ratio, 0.285, atol=0.05)


class TestSimulator:
    def test_measurement_filter_defaults_follow_noise(self):
        model = synthesize_wing_model()
        clean = WingSimulator(model)
        noisy = WingSimulator(model, noise=NoiseModel(np.array([1.0, 1.0]), seed=0))
        out = clean.step(np.ones(12))
        assert np.array_equal(out.y_filt, out.y_raw)
        out = noisy.step(np.ones(12))
        assert not np.array_equal(out.y_filt, out.y_raw)

    def test_step_response_reaches_static_gain(self):
        model = synthesize_wing_model()
        sim = WingSimulator(model)
        u = 0.5 * np.ones(12)
        for _ in range(4000):
            out = sim.step(u)
        assert np.allclose(out.y_true, model.B_static @ u, rtol=1e-4)

    def test_gust_drives_loads_without_command(self):
        model = synthesize_wing_model()
        gust = GustConfig(a_g=1.0, f_g=1.0, d_gw=0.5, v=1.0, repeat=1)
        sim = WingSimulator(model, gust=gust)
        peaks = []
        for _ in range(2500):
            peaks.append(np.abs(sim.step(np.zeros(12)).y_true).max())
        assert max(peaks) > 1.0
        # a spec that is not enabled is no gust
        quiet = WingSimulator(model, gust=GustConfig(enabled=False, a_g=1.0, f_g=1.0, d_gw=0.5))
        assert quiet.gust is None and not quiet.advance(np.zeros(12), 2500).y_true.any()

    def test_runs_are_deterministic(self):
        def run():
            model = synthesize_wing_model()
            sim = WingSimulator(model, noise=NoiseModel(np.array([1.0, 1.0]), seed=4),
                                gust=GustConfig(a_g=1.0, f_g=1.0, d_gw=0.0, repeat=1))
            return np.array([sim.step(0.1 * np.ones(12)).y_filt for _ in range(500)])

        assert np.array_equal(run(), run())


def per_step(sim, commands):
    """One plant step at a time, as the twin stepped before its block maps:
    a delay queue, filter steps, backlash_step and an RK4 closure.

    sim must be fresh; its filters and noise generator are used and
    advanced.  Returns rows [y_true, y_raw, y_filt, u_eff, alpha_g].
    """
    bank, noise, md = sim.actuators, sim.noise, sim.model
    queue = [np.zeros(bank.m)] * bank.depth
    x, t, tau, rows = sim.x, sim.t, np.zeros(bank.m), []
    for u in commands:
        queue.append(u)
        v = bank.filter.step(queue.pop(0))
        if bank.backlash_on:
            tau = v = backlash_step(tau, v, bank.k1, bank.k2, bank.u_f_plus, bank.u_f_minus)
        u_eff = bank.scales * v
        alpha = gust_angle(sim.gust, t) if sim.gust is not None else 0.0
        forcing = md.B @ u_eff + md.B_g[:, 0] * alpha
        x = integrate_step(lambda z, _: md.A @ z + forcing, x, None, sim.dt)
        t += sim.dt
        y = md.C @ x + md.D @ u_eff
        raw = y + noise.gain * noise.filter.step(noise.rng.standard_normal(2)) if noise else y
        filt = sim.meas_filter.step(raw) if noise else raw
        rows.append(np.concatenate([y, raw, filt, u_eff, [alpha]]))
    return np.array(rows), x


def chain(noise=False, fault=False, backlash=False, delay_s=0.015):
    bank = ActuatorBank(12, ActuatorConfig(delay=delay_s, backlash=backlash), dt=0.001)
    if fault:
        apply_fault(bank, FaultConfig())
    return WingSimulator(synthesize_wing_model(), actuators=bank,
                         noise=NoiseModel(np.array([1.0, 1.0]), seed=5) if noise else None,
                         gust=GustConfig(a_g=2.0, f_g=3.0, d_gw=0.05, v=1.0, repeat=2))


class TestBlockSteps:
    @pytest.mark.parametrize("kw", [{}, {"noise": True}, {"noise": True, "fault": True},
                                    {"noise": True, "fault": True, "backlash": True},
                                    {"backlash": True, "delay_s": 0.0},
                                    {"noise": True, "backlash": True, "delay_s": 0.022},
                                    {"noise": True, "fault": True, "delay_s": 0.040}],
                             ids=["clean", "noise", "fault", "backlash", "no-delay",
                                  "delay-22-steps", "delay-40-steps"])
    def test_advance_matches_per_step(self, kw):
        # 26 ticks of 15 plant steps and a final short block of 7
        rng = np.random.default_rng(11)
        blocks = [15] * 26 + [7]
        u_ticks = 8.0 * rng.standard_normal((len(blocks), 12))
        sim = chain(**kw)
        got = []
        for u, n in zip(u_ticks, blocks):
            out = sim.advance(u, n)
            got.append(np.column_stack([out.y_true, out.y_raw, out.y_filt, out.u_eff,
                                        out.alpha_g]))
        got = np.vstack(got)
        want, x = per_step(chain(**kw), np.repeat(u_ticks, blocks, axis=0))
        peak = np.abs(want[:, :6]).max()
        assert np.abs(got - want).max() <= 1e-9 * peak
        assert np.abs(sim.x - x).max() <= 1e-9 * np.abs(x).max()
        assert sim.t == pytest.approx(0.397, abs=1e-12)

    def test_backlash_block_is_backlash_step_row_by_row(self):
        # the block's engagement lines are taken at once, then the row loop;
        # bit for bit backlash_step on each servo output row in turn
        rng = np.random.default_rng(4)
        lash = ActuatorBank(12, ActuatorConfig(backlash=True, k1=1.2, k2=0.9))
        free = ActuatorBank(12, ActuatorConfig())
        tau = np.zeros(12)
        for u, n in zip(8.0 * rng.standard_normal((60, 12)), [15] * 59 + [7]):
            want = []
            for v in free.advance(u, n):
                tau = backlash_step(tau, v, 1.2, 0.9, lash.u_f_plus, lash.u_f_minus)
                want.append(tau)
            assert np.array_equal(lash.advance(u, n), np.array(want))
        assert np.array_equal(lash.tau, tau)

    def test_step_is_a_one_row_block(self):
        a, b = chain(noise=True, backlash=True), chain(noise=True, backlash=True)
        for u in 5.0 * np.random.default_rng(2).standard_normal((40, 12)):
            one, block = a.step(u), b.advance(u, 1)
            assert np.array_equal(one.y_filt, block.y_filt[0])
            assert np.array_equal(one.u_eff, block.u_eff[0])
            assert one.alpha_g == block.alpha_g[0]

    def test_non_finite_state_raises(self):
        for noise in (False, True):
            sim = chain(noise=noise, delay_s=0.0)
            with pytest.raises(NonFiniteState):
                sim.advance(np.full(12, np.nan), 15)

    def test_time_and_gust_are_the_step_by_step_running_sum(self):
        # 75 ticks and a short block, more plant steps than one GUST_CHUNK;
        # the time grid and the gust angle, which each advance takes from
        # _next_inputs for its own block, are bit for bit those of t += dt
        # one step at a time
        blocks = [15] * 75 + [7]
        assert sum(blocks) > GUST_CHUNK
        sim = chain()
        alpha = np.concatenate([sim.advance(np.zeros(12), n).alpha_g for n in blocks])
        t, times = 0.0, []
        for _ in range(sum(blocks)):
            times.append(t)
            t += sim.dt
        assert np.array_equal(alpha, gust_angle(sim.gust, np.array(times)))
        assert np.count_nonzero(alpha) > 500
        assert sim.t == t
