import math
from dataclasses import replace

import numpy as np
import pytest

from musclerl.muscle import MuscleParams
from musclerl.plant import (
    PlantState,
    StepMap,
    advance,
    eye_config,
    initial_state,
    mechanical_energy,
    muscle_kinematics,
    wrist_config,
)
from musclerl.randomize import RandomizationSpec, SeededRng, sample_muscle_set

DEG = math.pi / 180.0


def reference_advance(cfg, state, voltages, dt, substeps, external_torque=None):
    """Scalar RK4 of the coupled joint + thermal dynamics, one substep at a time.

    The reference the production step map is checked against: plain float
    arithmetic in radians, the derivative written out term by term, and the
    angle clamp with outward-rate zeroing after every substep.
    """
    m = cfg.n_muscles
    g = [(float(cfg.routing[i, 0]), float(cfg.routing[i, 1])) for i in range(m)]
    mus = cfg.muscles
    power = [float(voltages[i]) ** 2 / mus[i].R / mus[i].C_th for i in range(m)]
    ext1, ext2 = (0.0, 0.0) if external_torque is None else map(float, external_torque)
    lim = cfg.angle_limit * DEG

    def deriv(a1, a2, w1, w2, temps):
        tau1 = ext1 - cfg.d * w1 - cfg.kappa * a1
        tau2 = ext2 - cfg.d * w2 - cfg.kappa * a2
        dT = []
        for i, p in enumerate(mus):
            rise = temps[i] - p.T_amb
            f = (-p.k * (g[i][0] * a1 + g[i][1] * a2)
                 - p.b * (g[i][0] * w1 + g[i][1] * w2) + p.c * rise)
            tau1 += g[i][0] * f
            tau2 += g[i][1] * f
            dT.append(power[i] - p.lambda_ / p.C_th * rise)
        return [w1, w2, tau1 / cfg.J, tau2 / cfg.J] + dT

    x = ([float(a) * DEG for a in state.angles] + [float(w) * DEG for w in state.rates]
         + [float(t) for t in state.temps])
    for _ in range(substeps):
        k1 = deriv(*x[:4], x[4:])
        y = [xi + 0.5 * dt * ki for xi, ki in zip(x, k1)]
        k2 = deriv(*y[:4], y[4:])
        y = [xi + 0.5 * dt * ki for xi, ki in zip(x, k2)]
        k3 = deriv(*y[:4], y[4:])
        y = [xi + dt * ki for xi, ki in zip(x, k3)]
        k4 = deriv(*y[:4], y[4:])
        x = [xi + dt / 6.0 * (a + 2.0 * (b + c) + d)
             for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        for j in (0, 1):
            if x[j] > lim:
                x[j] = lim
                x[2 + j] = min(x[2 + j], 0.0)
            elif x[j] < -lim:
                x[j] = -lim
                x[2 + j] = max(x[2 + j], 0.0)
    return PlantState(np.array(x[0:2]) / DEG, np.array(x[2:4]) / DEG, np.array(x[4:]))


def step(cfg, state, voltages, dt=0.01, substeps=1, external_torque=None):
    return advance(StepMap(cfg, dt, substeps), state, voltages, external_torque)


def inert_muscles(n, x0=10.0):
    # effectively force-free strings: spring/damper/thermal terms ~ 0
    tiny = 1e-12
    return tuple(
        MuscleParams(k=tiny, b=tiny, c=tiny, C_th=0.3, lambda_=0.1, R=20.0, x0=x0)
        for _ in range(n)
    )


def test_kinematics_at_rest():
    for cfg in (eye_config(), wrist_config()):
        lengths, rates, g = muscle_kinematics(cfg, (0.0, 0.0), (0.0, 0.0))
        assert np.allclose(lengths, [p.x0 for p in cfg.muscles])
        assert np.all(rates == 0.0)
        assert g.shape == (cfg.n_muscles, 2)


def test_eye_yaw_pair_is_antagonistic():
    cfg = eye_config()
    lengths, _, _ = muscle_kinematics(cfg, (0.0, 5.0), (0.0, 0.0))
    d3 = lengths[2] - cfg.muscles[2].x0
    d4 = lengths[3] - cfg.muscles[3].x0
    assert d3 == pytest.approx(-d4, rel=1e-12)
    assert abs(d3) == pytest.approx(cfg.r * 5.0 * DEG, rel=1e-12)
    # pitch pair unaffected by yaw
    assert lengths[0] == cfg.muscles[0].x0 and lengths[1] == cfg.muscles[1].x0


def test_wrist_symmetric_layout_cancels_equal_tension():
    cfg = wrist_config()
    _, _, g = muscle_kinematics(cfg, (0.0, 0.0), (0.0, 0.0))
    torque = g.T @ np.ones(3)
    assert torque[0] == pytest.approx(0.0, abs=1e-12)
    assert torque[1] == pytest.approx(0.0, abs=1e-12)


def test_rest_state_is_a_fixed_point():
    for cfg in (eye_config(), wrist_config()):
        s0 = initial_state(cfg)
        s1 = step(cfg, s0, np.zeros(cfg.n_muscles), substeps=50)
        assert np.array_equal(s1.angles, s0.angles)
        assert np.array_equal(s1.rates, s0.rates)
        assert np.array_equal(s1.temps, s0.temps)


def test_ballistic_response_under_external_torque():
    cfg = replace(eye_config(), d=0.0, kappa=0.0, muscles=inert_muscles(4))
    tau0 = 0.01  # N*cm on the pitch axis
    s = initial_state(cfg)
    dt, t = 0.01, 0.0
    while t < 2.0 - 1e-9:
        s = step(cfg, s, np.zeros(4), dt, 50, external_torque=np.array([tau0, 0.0]))
        t += 50 * dt
    expected = tau0 * t * t / (2.0 * cfg.J) / DEG
    assert abs(s.angles[0] - expected) / expected < 1e-6
    assert s.angles[1] == 0.0


def test_rate_decay_matches_exponential():
    cfg = replace(eye_config(), kappa=0.0, muscles=inert_muscles(4))
    s = initial_state(cfg)
    s.rates[0] = 10.0  # deg/s
    dt, t = 0.01, 0.0
    while t < 1.0 - 1e-9:
        s = step(cfg, s, np.zeros(4), dt, 50)
        t += 50 * dt
    expected = 10.0 * math.exp(-cfg.d * t / cfg.J)
    assert abs(s.rates[0] - expected) / expected < 1e-6


def test_passive_energy_never_increases():
    for cfg in (eye_config(), wrist_config()):
        s = initial_state(cfg)
        s.angles[:] = [3.0, -2.0]
        s.rates[:] = [5.0, 4.0]
        e_prev = mechanical_energy(cfg, s)
        sm = StepMap(cfg, 0.01, 1)
        for _ in range(500):
            s = advance(sm, s, np.zeros(cfg.n_muscles))
            e = mechanical_energy(cfg, s)
            assert e <= e_prev * (1.0 + 1e-9) + 1e-12
            e_prev = e


def test_single_muscle_voltage_produces_assigned_torque_sign():
    cfg = eye_config()
    # powering the second muscle of each pair drives the axis positive
    for muscle, axis, sign in ((1, 0, 1.0), (0, 0, -1.0), (3, 1, 1.0), (2, 1, -1.0)):
        s = initial_state(cfg)
        v = np.zeros(4)
        v[muscle] = 5.0
        s = step(cfg, s, v, substeps=100)
        assert sign * s.angles[axis] > 0.0


def test_step_is_deterministic():
    cfg = wrist_config()
    s = initial_state(cfg)
    s.angles[:] = [1.0, -1.0]
    v = np.array([3.0, 1.0, 0.5])
    sm = StepMap(cfg, 0.01, 50)
    a = advance(sm, s, v)
    b = advance(sm, s, v)
    assert np.array_equal(a.angles, b.angles)
    assert np.array_equal(a.rates, b.rates)
    assert np.array_equal(a.temps, b.temps)


def test_torque_map_matches_potential_energy_gradient():
    for cfg in (eye_config(), wrist_config()):
        k_arr = np.array([p.k for p in cfg.muscles])

        def potential(angles):
            stretch = -(cfg.routing @ (np.asarray(angles) * DEG))
            return 0.5 * float(np.sum(k_arr * stretch * stretch))

        for angles in ([0.5, -0.8], [1.0, 1.0], [-0.3, 0.9]):
            lengths, _, g = muscle_kinematics(cfg, angles, (0.0, 0.0))
            forces = k_arr * (lengths - np.array([p.x0 for p in cfg.muscles]))
            torque = g.T @ forces
            h = 1e-5
            for axis in range(2):
                ap = list(angles)
                am = list(angles)
                ap[axis] += h
                am[axis] -= h
                fd = -(potential(ap) - potential(am)) / (2 * h * DEG)
                assert torque[axis] == pytest.approx(fd, rel=1e-3, abs=1e-12)


def test_voltage_validation():
    cfg = eye_config()
    s = initial_state(cfg)
    sm = StepMap(cfg, 0.01, 50)
    for bad in ([0.0, 11.0, 0.0, 0.0], [-0.1, 0.0, 0.0, 0.0], [0.0, np.nan, 0.0, 0.0],
                [0.0, 0.0, np.inf, 0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            advance(sm, s, np.array(bad))
    for dt, substeps in ((0.0, 50), (-0.01, 50), (0.01, 0)):
        with pytest.raises(ValueError):
            StepMap(cfg, dt, substeps)


def test_angle_clamp_zeroes_outward_rate():
    cfg = replace(eye_config(), angle_limit=2.0, kappa=0.0, muscles=inert_muscles(4))
    s = initial_state(cfg)
    s.rates[0] = 500.0  # overshoots the 2 deg limit within one step
    sm = StepMap(cfg, 0.01, 1)
    s = advance(sm, s, np.zeros(4))
    assert s.angles[0] == 2.0
    assert s.rates[0] == 0.0
    for _ in range(200):
        s = advance(sm, s, np.zeros(4))
        assert s.angles[0] <= 2.0


def test_clamp_inside_an_action_step_holds_the_limit():
    # the limit is reached partway through the 50 substeps: the end state
    # sits on it with the outward rate zeroed, and matches the reference
    cfg = replace(eye_config(), angle_limit=1.0, kappa=0.0, muscles=inert_muscles(4))
    s = initial_state(cfg)
    s.rates[:] = [30.0, -30.0]  # about 0.3 deg per substep: the limit comes after a few
    v, push = np.zeros(4), np.array([0.01, -0.01])  # outward torque keeps it there
    out = advance(StepMap(cfg, 0.01, 50), s, v, push)
    assert out.angles[0] == 1.0 and out.angles[1] == -1.0
    assert out.rates[0] == 0.0 and out.rates[1] == 0.0
    ref = reference_advance(cfg, s, v, 0.01, 50, push)
    for got, want in zip((out.angles, out.rates, out.temps), (ref.angles, ref.rates, ref.temps)):
        assert np.max(np.abs(got - want)) <= 1e-9


# Fixed before the comparison was run: deg, deg/s and degC, absolute.
REFERENCE_TOL = 1e-9


@pytest.mark.parametrize("preset, angle_limit", [
    ("eye", None), ("wrist", None), ("eye", 4.0), ("wrist", 4.0)])
def test_step_map_matches_scalar_rk4_reference(preset, angle_limit):
    nominal = eye_config() if preset == "eye" else wrist_config()
    if angle_limit is not None:
        nominal = replace(nominal, angle_limit=angle_limit)
    rng = SeededRng(7).split(f"plant-reference/{preset}/{angle_limit}")
    spec = RandomizationSpec(variance_multiplier=2.0)
    hits = 0
    for _ in range(3):
        cfg = nominal.with_muscles(sample_muscle_set(nominal.muscles, spec, rng))
        sm = StepMap(cfg, 0.01, 50)
        got = ref = initial_state(cfg)
        for _ in range(40):
            v = rng.uniform(0.0, 10.0, size=cfg.n_muscles)
            got = advance(sm, got, v)
            ref = reference_advance(cfg, ref, v, 0.01, 50)
            for a, b in ((got.angles, ref.angles), (got.rates, ref.rates),
                         (got.temps, ref.temps)):
                assert np.max(np.abs(a - b)) <= REFERENCE_TOL
            hits += int(np.any(np.abs(got.angles) == cfg.angle_limit))
    # the reduced travel limit is really reached; the stock one never is
    assert (hits > 0) == (angle_limit is not None)
