import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from musclerl.muscle import COLUMNS, SCP_NOMINAL, TCA_NOMINAL
from musclerl.plant import eye_config
from reference import col, steady_state_rise, thermal_time_constant


# Single-muscle oracles: the force law and the thermal ODE written out on
# their own, with a scalar RK4 step and the closed-form response. The plant
# integrates the same law in its step map; these pin the law itself. A
# muscle p is its (7,) row of constants in muscle.COLUMNS order.

X0 = 10.0  # rest length, cm: the force law depends on x - x0 only


@dataclass(frozen=True)
class MuscleThermalState:
    """Current temperature of one muscle, degC."""

    T: float


def muscle_force(p: np.ndarray, x: float, xdot: float, T: float) -> float:
    """Tension in N at length x (cm), rate xdot (cm/s), temperature T (degC).

    Affine in all three arguments; never clamped.
    """
    k, b, c, _, _, _, t_amb = p.tolist()
    return k * (x - X0) + b * xdot + c * (T - t_amb)


def thermal_derivative(p: np.ndarray, T: float, V: float) -> float:
    """dT/dt in degC/s under applied voltage V >= 0."""
    _, _, _, cth, lam, res, t_amb = p.tolist()
    return (V * V / res - lam * (T - t_amb)) / cth


def thermal_step(p: np.ndarray, s: MuscleThermalState, V: float, dt: float) -> MuscleThermalState:
    """Advance the temperature by one explicit RK4 step with V held constant.

    dt must be positive; non-finite inputs are rejected.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if not (math.isfinite(s.T) and math.isfinite(V) and math.isfinite(dt)):
        raise ValueError("thermal_step requires finite T, V, dt")
    k1 = thermal_derivative(p, s.T, V)
    k2 = thermal_derivative(p, s.T + 0.5 * dt * k1, V)
    k3 = thermal_derivative(p, s.T + 0.5 * dt * k2, V)
    k4 = thermal_derivative(p, s.T + dt * k3, V)
    return MuscleThermalState(T=s.T + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)


def thermal_response_exact(p: np.ndarray, T_init: float, V: float, t: float) -> float:
    """Closed-form temperature at time t under constant V (linear first-order ODE)."""
    T_inf = col(p, "T_amb") + steady_state_rise(p, V)
    return T_inf + (T_init - T_inf) * math.exp(-col(p, "lambda_") * t / col(p, "C_th"))


def test_force_vanishes_at_rest():
    p = SCP_NOMINAL
    assert muscle_force(p, X0, 0.0, col(p, "T_amb")) == 0.0


def test_force_scp_nominal_point():
    p = SCP_NOMINAL
    f = muscle_force(p, X0 + 1.0, 0.0, col(p, "T_amb") + 10.0)
    assert f == pytest.approx(0.305, abs=1e-12)


def test_force_tca_nominal_point():
    p = TCA_NOMINAL
    f = muscle_force(p, X0 + 0.5, -0.2, col(p, "T_amb") + 20.0)
    assert f == pytest.approx(2.338, abs=1e-12)


def test_force_is_affine_in_each_argument():
    p = TCA_NOMINAL
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, xd, dT = rng.uniform(-3, 3, size=3)
        total = muscle_force(p, X0 + x, xd, col(p, "T_amb") + dT)
        parts = (
            muscle_force(p, X0 + x, 0.0, col(p, "T_amb"))
            + col(p, "b") * xd
            + col(p, "c") * dT
        )
        assert total == pytest.approx(parts, rel=0, abs=1e-12)


def test_params_must_be_positive():
    # the nominal rows are read-only; a plant refuses a non-positive constant
    assert not SCP_NOMINAL.flags.writeable and not TCA_NOMINAL.flags.writeable
    for name, value in (("k", 0.0), ("lambda_", -0.1)):
        muscles = np.tile(SCP_NOMINAL, (4, 1))
        muscles[2, COLUMNS.index(name)] = value
        with pytest.raises(ValueError, match=f"constant {name} must"):
            replace(eye_config(), muscles=muscles)


def test_thermal_derivative_equilibrium_at_ambient():
    p = SCP_NOMINAL
    assert thermal_derivative(p, col(p, "T_amb"), 0.0) == 0.0


def test_thermal_derivative_scp_heating_rate():
    p = SCP_NOMINAL
    assert thermal_derivative(p, col(p, "T_amb"), 10.0) == pytest.approx(5.0 / 0.28, rel=1e-12)


def test_thermal_derivative_fixed_point():
    for p in (SCP_NOMINAL, TCA_NOMINAL):
        for V in (1.0, 4.0, 10.0):
            T_star = col(p, "T_amb") + V * V / (col(p, "R") * col(p, "lambda_"))
            assert thermal_derivative(p, T_star, V) == pytest.approx(0.0, abs=1e-12)


def test_thermal_step_identity_at_equilibrium():
    p = SCP_NOMINAL
    s = MuscleThermalState(T=col(p, "T_amb"))
    for dt in (0.001, 0.01, 0.5):
        assert thermal_step(p, s, 0.0, dt).T == col(p, "T_amb")


def test_thermal_step_reaches_scp_steady_state():
    p = SCP_NOMINAL
    assert steady_state_rise(p, 10.0) == pytest.approx(53.19, abs=0.01)
    assert thermal_time_constant(p) == pytest.approx(2.979, abs=1e-3)
    s = MuscleThermalState(T=col(p, "T_amb"))
    t, dt = 0.0, 0.01
    tau = thermal_time_constant(p)
    while t < 5.0 * tau:
        s = thermal_step(p, s, 10.0, dt)
        t += dt
    rise_5tau = s.T - col(p, "T_amb")
    # residual after 5 tau is exp(-5) ~ 0.67 %
    assert abs(rise_5tau - steady_state_rise(p, 10.0)) / steady_state_rise(p, 10.0) < 7e-3
    while t < 10.0 * tau:
        s = thermal_step(p, s, 10.0, dt)
        t += dt
    rise = s.T - col(p, "T_amb")
    assert abs(rise - steady_state_rise(p, 10.0)) / steady_state_rise(p, 10.0) < 1e-3


def test_thermal_step_tca_steady_state():
    p = TCA_NOMINAL
    assert steady_state_rise(p, 10.0) == pytest.approx(84.10, abs=0.01)


def test_rk4_matches_closed_form():
    p = SCP_NOMINAL
    s = MuscleThermalState(T=col(p, "T_amb"))
    dt, t = 0.01, 0.0
    while t < 20.0 - 1e-9:
        s = thermal_step(p, s, 10.0, dt)
        t += dt
    exact = thermal_response_exact(p, col(p, "T_amb"), 10.0, t)
    assert abs(s.T - exact) / abs(exact - col(p, "T_amb")) < 1e-8


def test_rk4_step_halving_is_inert():
    p = TCA_NOMINAL

    def endpoint(dt):
        s = MuscleThermalState(T=col(p, "T_amb"))
        n = round(20.0 / dt)
        for _ in range(n):
            s = thermal_step(p, s, 8.0, dt)
        return s.T

    assert abs(endpoint(0.01) - endpoint(0.005)) < 1e-9


def test_heating_is_monotone_and_bounded():
    p = TCA_NOMINAL
    V = 6.0
    bound = col(p, "T_amb") + steady_state_rise(p, V)
    s = MuscleThermalState(T=col(p, "T_amb"))
    prev = s.T
    for _ in range(2000):
        s = thermal_step(p, s, V, 0.01)
        assert s.T > prev
        assert s.T < bound
        prev = s.T


def test_thermal_step_rejects_bad_inputs():
    p = SCP_NOMINAL
    with pytest.raises(ValueError):
        thermal_step(p, MuscleThermalState(T=25.0), 5.0, 0.0)
    with pytest.raises(ValueError):
        thermal_step(p, MuscleThermalState(T=math.nan), 5.0, 0.01)
    with pytest.raises(ValueError):
        thermal_step(p, MuscleThermalState(T=25.0), math.inf, 0.01)
