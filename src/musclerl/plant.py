"""Rigid-body plants driven by string muscles: 2-DOF eye and parallel wrist.

Both plants are two independent rotational DOFs with small-angle linearized
muscle routing. A constant routing matrix G (muscles x 2) maps joint angles
to muscle lengths and, transposed, muscle tensions to joint torques:

    x_i    = x0_i - (G @ alpha_rad)_i        length of muscle i, cm
    xdot_i = -(G @ omega_rad)_i              length rate, cm/s
    tau    = G.T @ F                         joint torques, N*cm

Eye: four muscles in two antagonistic pairs, (m1, m2) on pitch and (m3, m4)
on yaw, signs chosen so that the second muscle of each pair pulls the axis
positive. Wrist: three muscles at 120 deg azimuthal spacing.

Joint dynamics per DOF: J alphaddot = tau - d alphadot - kappa alpha, with
angles hard-clamped at the travel limits (rate zeroed on contact). Angle and
rate units are degrees, in the integration state too; G acts on radians.

Integration is explicit RK4 with the voltages held over an action step.
The dynamics are then linear, so StepMap, built once per muscle draw,
holds the substep matrix and its powers: advance() gets every substep's
angles and the end state from one product. If a substep angle passes the
travel limit, advance() falls back to the substeps one at a time with the
clamp after each; otherwise that clamp never fires and both agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .muscle import MuscleParams, SCP_NOMINAL, TCA_NOMINAL

DEG = math.pi / 180.0


@dataclass(frozen=True)
class PlantConfig:
    """Geometry and rigid-body constants of one plant.

    J: inertia per DOF (torque-consistent units, N*cm*s^2/rad); d: viscous
    damping N*cm*s/rad; kappa: restoring stiffness N*cm/rad; r: moment arm cm;
    routing: (muscles x 2) matrix described above; muscles: per-muscle
    constants; angle_limit: travel limit, deg.
    """

    name: str
    J: float
    d: float
    kappa: float
    r: float
    routing: np.ndarray
    muscles: tuple[MuscleParams, ...]
    angle_limit: float = 25.0

    def __post_init__(self):
        if not (self.J > 0 and self.r > 0 and self.d >= 0 and self.kappa >= 0):
            raise ValueError("require J > 0, r > 0, d >= 0, kappa >= 0")
        routing = np.asarray(self.routing, dtype=np.float64)
        if routing.shape != (len(self.muscles), 2):
            raise ValueError("routing must be (n_muscles, 2)")
        object.__setattr__(self, "routing", routing)

    @property
    def n_muscles(self) -> int:
        return len(self.muscles)

    def with_muscles(self, muscles: tuple[MuscleParams, ...]) -> "PlantConfig":
        return replace(self, muscles=muscles)


@dataclass
class PlantState:
    """Joint angles (deg), angular rates (deg/s), muscle temperatures (degC)."""

    angles: np.ndarray
    rates: np.ndarray
    temps: np.ndarray

    def copy(self) -> "PlantState":
        return PlantState(self.angles.copy(), self.rates.copy(), self.temps.copy())


def eye_routing(r: float) -> np.ndarray:
    # rows: m1 (pitch -), m2 (pitch +), m3 (yaw -), m4 (yaw +)
    return np.array([[-r, 0.0], [r, 0.0], [0.0, -r], [0.0, r]])


def wrist_routing(r: float) -> np.ndarray:
    azimuths = np.array([90.0, 210.0, 330.0]) * DEG
    return np.stack([r * np.sin(azimuths), r * np.cos(azimuths)], axis=1)


# Default rigid-body constants are calibrated (scripts/ and the
# `calibrate-plant` CLI verb) so the stock PID gains give barely acceptable
# tracking: eye rise ~5 s, wrist rise ~10 s at a (5, 5) deg target.
def eye_config() -> PlantConfig:
    """2-DOF eyeball on two antagonistic coiled-polymer pairs."""
    r = 1.2
    return PlantConfig(
        name="eye", J=0.6, d=1.4, kappa=0.05, r=r,
        routing=eye_routing(r), muscles=(SCP_NOMINAL,) * 4,
    )


def wrist_config() -> PlantConfig:
    """Parallel wrist plate on three SMA-core muscles at 90/210/330 deg."""
    r = 1.2
    return PlantConfig(
        name="wrist", J=2.4, d=1.3, kappa=1.0, r=r,
        routing=wrist_routing(r), muscles=(TCA_NOMINAL,) * 3,
    )


PLANT_PRESETS = {"eye": eye_config, "wrist": wrist_config}


def configured_plant(
    preset: str,
    inertia: float | None = None,
    damping: float | None = None,
    stiffness: float | None = None,
    moment_arm: float | None = None,
    rest_length: float | None = None,
    angle_limit: float | None = None,
) -> PlantConfig:
    """Preset plant with selected constants overridden (config-file knobs).

    Changing the moment arm rebuilds the routing matrix; changing the rest
    length rebuilds the muscle set.
    """
    cfg = PLANT_PRESETS[preset]()
    kw = {}
    if inertia is not None:
        kw["J"] = inertia
    if damping is not None:
        kw["d"] = damping
    if stiffness is not None:
        kw["kappa"] = stiffness
    if angle_limit is not None:
        kw["angle_limit"] = angle_limit
    if moment_arm is not None:
        kw["r"] = moment_arm
        builder = eye_routing if preset == "eye" else wrist_routing
        kw["routing"] = builder(moment_arm)
    if rest_length is not None:
        kw["muscles"] = tuple(replace(p, x0=rest_length) for p in cfg.muscles)
    return replace(cfg, **kw) if kw else cfg


def initial_state(cfg: PlantConfig) -> PlantState:
    """Rest at zero angles and rates, every muscle at its ambient temperature."""
    temps = np.array([p.T_amb for p in cfg.muscles], dtype=np.float64)
    return PlantState(np.zeros(2), np.zeros(2), temps)


def muscle_kinematics(cfg: PlantConfig, angles_deg, rates_deg):
    """Per-muscle lengths (cm), length rates (cm/s), and the torque map G.

    Torque on the joints from tensions F is G.T @ F (N*cm).
    """
    alpha = np.asarray(angles_deg, dtype=np.float64) * DEG
    omega = np.asarray(rates_deg, dtype=np.float64) * DEG
    x0 = np.array([p.x0 for p in cfg.muscles])
    lengths = x0 - cfg.routing @ alpha
    rates = -(cfg.routing @ omega)
    return lengths, rates, cfg.routing.copy()


class StepMap:
    """The action step of one plant with its muscles fixed, as matrices.

    Between two actions the dynamics are linear and time-invariant on the
    augmented state

        z = [a1, a2, w1, w2, T_1 - T_amb,1 .. T_m - T_amb,m, q_1 .. q_m, e1, e2]

    (deg, deg/s, degC; q_i = V_i^2 / (R_i C_th,i) the held heating rate,
    e the external torque), so one RK4 substep of h is z <- M z with
    M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24. `one` is M; `stack` holds
    the angle rows of M^1 .. M^S and then all of M^S, so one product gives
    every substep's angles and the end state. Temperatures enter as rises
    above ambient, which makes the rest state map to itself exactly.
    """

    def __init__(self, cfg: PlantConfig, dt: float, substeps: int):
        if not (dt > 0.0 and substeps >= 1):
            raise ValueError("require dt > 0 and substeps >= 1")
        self.cfg = cfg
        self.substeps = substeps
        m = cfg.n_muscles
        k, b, c, lam, cth, res, tamb = (
            np.array([getattr(p, f) for p in cfg.muscles])
            for f in ("k", "b", "c", "lambda_", "C_th", "R", "T_amb")
        )
        self.tamb = tamb
        self.rc = res * cth
        g, n = cfg.routing, 2 * m + 6
        a = np.zeros((n, n))  # rows: angles, rates, temperature rises; q, e held
        a[0, 2] = a[1, 3] = 1.0
        a[2:4, 0:2] = -(cfg.kappa * np.eye(2) + g.T @ (k[:, None] * g)) / cfg.J
        a[2:4, 2:4] = -(cfg.d * np.eye(2) + g.T @ (b[:, None] * g)) / cfg.J
        a[2:4, 4:4 + m] = g.T * c / (cfg.J * DEG)
        a[2:4, n - 2:] = np.eye(2) / (cfg.J * DEG)
        a[4:4 + m, 4:4 + m] = np.diag(-lam / cth)
        a[4:4 + m, 4 + m:4 + 2 * m] = np.eye(m)
        one = term = np.eye(n)
        for j in (1, 2, 3, 4):
            term = term @ (dt * a) / j
            one = one + term
        powers = [one]
        for _ in range(substeps - 1):
            powers.append(one @ powers[-1])
        self.one = one
        self.stack = np.concatenate([p[:2] for p in powers] + [powers[-1]])


_NO_TORQUE = np.zeros(2)


def advance(
    sm: StepMap,
    state: PlantState,
    voltages: np.ndarray,
    external_torque: np.ndarray | None = None,
) -> PlantState:
    """Integrate the map's `substeps` RK4 steps with voltages held constant.

    Voltages must lie in [0, 10] (the action mapping clamps). Angles are
    clamped at the travel limit after every substep, with the outward rate
    zeroed; when no substep reaches the limit that clamp is idle and the
    end state is one product. external_torque (N*cm per DOF) is a test hook.
    """
    cfg = sm.cfg
    v = np.asarray(voltages, dtype=np.float64)
    if v.shape != (cfg.n_muscles,):
        raise ValueError(f"expected {cfg.n_muscles} voltages, got shape {v.shape}")
    if not (v.min() >= 0.0 and v.max() <= 10.0):
        raise ValueError(f"voltages out of range [0, 10]: {v}")
    ext = _NO_TORQUE if external_torque is None else external_torque
    z = np.concatenate((state.angles, state.rates, state.temps - sm.tamb, v * v / sm.rc, ext))
    out = sm.stack @ z
    lim, n_ang = cfg.angle_limit, 2 * sm.substeps
    if np.abs(out[:n_ang]).max() <= lim:
        z = out[n_ang:]
    else:
        for _ in range(sm.substeps):
            z = sm.one @ z
            for j in (0, 1):
                if abs(z[j]) > lim:
                    z[j] = math.copysign(lim, z[j])
                    if z[2 + j] * z[j] > 0.0:
                        z[2 + j] = 0.0
    m = cfg.n_muscles
    return PlantState(z[0:2], z[2:4], z[4:4 + m] + sm.tamb)


def mechanical_energy(cfg: PlantConfig, state: PlantState) -> float:
    """Kinetic + joint-spring + muscle-spring energy (N*cm), for passivity checks."""
    alpha = state.angles * DEG
    omega = state.rates * DEG
    stretch = -(cfg.routing @ alpha)
    k_arr = np.array([p.k for p in cfg.muscles])
    return float(
        0.5 * cfg.J * (omega @ omega)
        + 0.5 * cfg.kappa * (alpha @ alpha)
        + 0.5 * np.sum(k_arr * stretch * stretch)
    )
