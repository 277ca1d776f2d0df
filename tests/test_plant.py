import hashlib
import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from musclerl.env import PRESETS
from musclerl.muscle import COLUMNS
from musclerl.plant import PlantRows, StepMap, advance, eye_config, wrist_config
from musclerl.randomize import RandomizationSpec, SeededRng, sample_muscle_set
from reference import col, step_map_row

DEG = math.pi / 180.0
REST_LENGTH = {"eye": 14.5, "wrist": 6.0}  # cm: the routing cancels it, lengths show it


@dataclass
class PlantState:
    """One plant's joint angles (deg), angular rates (deg/s), muscle temperatures (degC)."""

    angles: np.ndarray
    rates: np.ndarray
    temps: np.ndarray


def initial_state(cfg):
    """Rest: zero angles and rates, every muscle at its ambient temperature."""
    return PlantState(np.zeros(2), np.zeros(2), col(cfg.muscles, "T_amb").copy())


def row_state(rows, b):
    """Row b of a PlantRows as a PlantState of copies (z's layout: angles, rates, temps)."""
    z = rows.z[b]
    return PlantState(z[0:2].copy(), z[2:4].copy(), z[4:4 + rows.m].copy())


def advance_one(sm, state, voltages, external_torque=None):
    """One action step of one plant, as a one-row PlantRows through advance()."""
    rows = PlantRows(sm)
    rows.z[0, :4 + rows.m] = np.concatenate((state.angles, state.rates, state.temps))
    advance(rows, [voltages], None if external_torque is None else [external_torque])
    return row_state(rows, 0)


def muscle_kinematics(cfg, angles_deg, rates_deg):
    """Per-muscle lengths (cm), length rates (cm/s), and the torque map G.

    Torque on the joints from tensions F is G.T @ F (N*cm).
    """
    alpha = np.asarray(angles_deg, dtype=np.float64) * DEG
    omega = np.asarray(rates_deg, dtype=np.float64) * DEG
    lengths = REST_LENGTH[cfg.name] - cfg.routing @ alpha
    rates = -(cfg.routing @ omega)
    return lengths, rates, cfg.routing.copy()


def mechanical_energy(cfg, state):
    """Kinetic + joint-spring + muscle-spring energy (N*cm), for passivity checks."""
    alpha = state.angles * DEG
    omega = state.rates * DEG
    stretch = -(cfg.routing @ alpha)
    k_arr = col(cfg.muscles, "k")
    return float(
        0.5 * cfg.J * (omega @ omega)
        + 0.5 * cfg.kappa * (alpha @ alpha)
        + 0.5 * np.sum(k_arr * stretch * stretch)
    )


def oracle_step_map(cfg, dt, substeps):
    """(one, stack, tamb, rc) built the array way: a list of powers, then concatenate.

    The production StepMap must give the same bytes.
    """
    m = cfg.n_muscles
    k, b, c, lam, cth, res, tamb = (
        col(cfg.muscles, f).copy() for f in ("k", "b", "c", "lambda_", "C_th", "R", "T_amb"))
    g, n = cfg.routing, 2 * m + 6
    a = np.zeros((n, n))
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
    stack = np.concatenate([p[:2] for p in powers] + [powers[-1]])
    return one, stack, tamb, res * cth


def oracle_advance(cfg, maps, state, voltages, substeps, external_torque=None):
    """advance() the array way: concatenate z, then np.abs(...).max() against the limit.

    Returns the end state and whether the substep fallback ran.
    """
    one, stack, tamb, rc = maps
    v = np.asarray(voltages, dtype=np.float64)
    ext = np.zeros(2) if external_torque is None else external_torque
    z = np.concatenate((state.angles, state.rates, state.temps - tamb, v * v / rc, ext))
    out = stack @ z
    lim, n_ang = cfg.angle_limit, 2 * substeps
    clamped = not np.abs(out[:n_ang]).max() <= lim
    if not clamped:
        z = out[n_ang:]
    else:
        for _ in range(substeps):
            z = one @ z
            for j in (0, 1):
                if abs(z[j]) > lim:
                    z[j] = math.copysign(lim, z[j])
                    if z[2 + j] * z[j] > 0.0:
                        z[2 + j] = 0.0
    m = cfg.n_muscles
    return PlantState(z[0:2], z[2:4], z[4:4 + m] + tamb), clamped


def reference_advance(cfg, state, voltages, dt, substeps, external_torque=None):
    """Scalar RK4 of the coupled joint + thermal dynamics, one substep at a time.

    The reference the production step map is checked against: plain float
    arithmetic in radians, the derivative written out term by term, and the
    angle clamp with outward-rate zeroing after every substep.
    """
    m = cfg.n_muscles
    g = [(float(cfg.routing[i, 0]), float(cfg.routing[i, 1])) for i in range(m)]
    mus = [dict(zip(COLUMNS, row)) for row in cfg.muscles.tolist()]
    power = [float(voltages[i]) ** 2 / mus[i]["R"] / mus[i]["C_th"] for i in range(m)]
    ext1, ext2 = (0.0, 0.0) if external_torque is None else map(float, external_torque)
    lim = cfg.angle_limit * DEG

    def deriv(a1, a2, w1, w2, temps):
        tau1 = ext1 - cfg.d * w1 - cfg.kappa * a1
        tau2 = ext2 - cfg.d * w2 - cfg.kappa * a2
        dT = []
        for i, p in enumerate(mus):
            rise = temps[i] - p["T_amb"]
            f = (-p["k"] * (g[i][0] * a1 + g[i][1] * a2)
                 - p["b"] * (g[i][0] * w1 + g[i][1] * w2) + p["c"] * rise)
            tau1 += g[i][0] * f
            tau2 += g[i][1] * f
            dT.append(power[i] - p["lambda_"] / p["C_th"] * rise)
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
    return advance_one(StepMap(cfg, dt, substeps), state, voltages, external_torque)


def inert_muscles(n):
    # effectively force-free strings: spring/damper/thermal terms ~ 0
    tiny = 1e-12
    return np.tile([tiny, tiny, tiny, 0.3, 0.1, 20.0, 25.0], (n, 1))


def test_kinematics_at_rest():
    for cfg in (eye_config(), wrist_config()):
        lengths, rates, g = muscle_kinematics(cfg, (0.0, 0.0), (0.0, 0.0))
        assert np.allclose(lengths, REST_LENGTH[cfg.name])
        assert np.all(rates == 0.0)
        assert g.shape == (cfg.n_muscles, 2)


def test_eye_yaw_pair_is_antagonistic():
    cfg = eye_config()
    lengths, _, _ = muscle_kinematics(cfg, (0.0, 5.0), (0.0, 0.0))
    x0 = REST_LENGTH["eye"]
    d3 = lengths[2] - x0
    d4 = lengths[3] - x0
    assert d3 == pytest.approx(-d4, rel=1e-12)
    assert abs(d3) == pytest.approx(cfg.r * 5.0 * DEG, rel=1e-12)
    # pitch pair unaffected by yaw
    assert lengths[0] == x0 and lengths[1] == x0


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
            s = advance_one(sm, s, np.zeros(cfg.n_muscles))
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
    a = advance_one(sm, s, v)
    b = advance_one(sm, s, v)
    assert np.array_equal(a.angles, b.angles)
    assert np.array_equal(a.rates, b.rates)
    assert np.array_equal(a.temps, b.temps)


def test_torque_map_matches_potential_energy_gradient():
    for cfg in (eye_config(), wrist_config()):
        k_arr = col(cfg.muscles, "k")

        def potential(angles):
            stretch = -(cfg.routing @ (np.asarray(angles) * DEG))
            return 0.5 * float(np.sum(k_arr * stretch * stretch))

        for angles in ([0.5, -0.8], [1.0, 1.0], [-0.3, 0.9]):
            lengths, _, g = muscle_kinematics(cfg, angles, (0.0, 0.0))
            forces = k_arr * (lengths - REST_LENGTH[cfg.name])
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
    nan_anywhere = [[np.nan if j == i else 5.0 for j in range(4)] for i in range(4)]
    for bad in ([0.0, 11.0, 0.0, 0.0], [-0.1, 0.0, 0.0, 0.0], [0.0, 0.0, np.inf, 0.0],
                [10.0, 10.0, 10.0, 10.000000000000002], [0.0, 0.0, 0.0],
                [[0.0, 0.0], [0.0, 0.0]], *nan_anywhere):
        for form in (bad, np.array(bad)):
            with pytest.raises(ValueError):
                advance_one(sm, s, form)
    advance_one(sm, s, [0.0, -0.0, 10.0, 10])  # both ends are inside
    for dt, substeps in ((0.0, 50), (-0.01, 50), (0.01, 0)):
        with pytest.raises(ValueError):
            StepMap(cfg, dt, substeps)


def test_angle_clamp_zeroes_outward_rate():
    cfg = replace(eye_config(), angle_limit=2.0, kappa=0.0, muscles=inert_muscles(4))
    s = initial_state(cfg)
    s.rates[0] = 500.0  # overshoots the 2 deg limit within one step
    sm = StepMap(cfg, 0.01, 1)
    s = advance_one(sm, s, np.zeros(4))
    assert s.angles[0] == 2.0
    assert s.rates[0] == 0.0
    for _ in range(200):
        s = advance_one(sm, s, np.zeros(4))
        assert s.angles[0] <= 2.0


def test_clamp_inside_an_action_step_holds_the_limit():
    # the limit is reached partway through the 50 substeps: the end state
    # sits on it with the outward rate zeroed, and matches the reference
    cfg = replace(eye_config(), angle_limit=1.0, kappa=0.0, muscles=inert_muscles(4))
    s = initial_state(cfg)
    s.rates[:] = [30.0, -30.0]  # about 0.3 deg per substep: the limit comes after a few
    v, push = np.zeros(4), np.array([0.01, -0.01])  # outward torque keeps it there
    out = advance_one(StepMap(cfg, 0.01, 50), s, v, push)
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
        table = sample_muscle_set(nominal.muscles, spec, rng)
        cfg = replace(nominal, muscles=table[0])
        sm = StepMap(nominal, 0.01, 50, table)
        got = ref = initial_state(cfg)
        for _ in range(40):
            v = rng.uniform(0.0, 10.0, size=cfg.n_muscles)
            got = advance_one(sm, got, v)
            ref = reference_advance(cfg, ref, v, 0.01, 50)
            for a, b in ((got.angles, ref.angles), (got.rates, ref.rates),
                         (got.temps, ref.temps)):
                assert np.max(np.abs(a - b)) <= REFERENCE_TOL
            hits += int(np.any(np.abs(got.angles) == cfg.angle_limit))
    # the reduced travel limit is really reached; the stock one never is
    assert (hits > 0) == (angle_limit is not None)


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("preset", ["eye", "wrist"])
@pytest.mark.parametrize("multiplier", [1.0, 2.0])
def test_step_map_and_advance_match_the_array_oracles_bit_for_bit(preset, multiplier):
    # random voltages (fast path), then saturated voltages with an outward
    # torque given as a list and then as an array, which drive the stock
    # 25 deg limit and take the substep fallback
    nominal = PRESETS[preset].plant()
    rng = SeededRng(23).split(f"plant-oracle/{preset}/{multiplier}")
    spec = RandomizationSpec(variance_multiplier=multiplier)
    m = nominal.n_muscles
    branches = {False: 0, True: 0}
    for _ in range(20):
        table = sample_muscle_set(nominal.muscles, spec, rng)
        cfg = replace(nominal, muscles=table[0])
        sm = StepMap(nominal, 0.01, 50, table)
        maps = oracle_step_map(cfg, 0.01, 50)
        assert _same_bytes(sm.one[0], maps[0]) and _same_bytes(sm.stack[0], maps[1])
        got = ref = initial_state(cfg)
        for t in range(16):
            ext = None
            if t < 6:
                v = rng.uniform(0.0, 10.0, size=m)
            else:
                v = np.full(m, 10.0)
                v[rng.gen.integers(m)] = 0.0
                push = [float(x) for x in rng.uniform(-40.0, 40.0, size=2)]
                ext = push if t < 11 else np.array(push)
            got = advance_one(sm, got, v, ext)
            ref, clamped = oracle_advance(cfg, maps, ref, v, 50, ext)
            branches[clamped] += 1
            for a, b in ((got.angles, ref.angles), (got.rates, ref.rates),
                         (got.temps, ref.temps)):
                assert _same_bytes(a, b)
    assert branches[False] >= 20 * 6 and branches[True] >= 20 * 5


@pytest.mark.parametrize("preset", ["eye", "wrist"])
@pytest.mark.parametrize("multiplier", [1.0, 2.0])
@pytest.mark.parametrize("shared", [False, True])
def test_batched_step_map_equals_the_per_row_build_bit_for_bit(preset, multiplier, shared):
    # 25 randomized rows and the nominal plant in one build from their
    # table: every row's one, stack, ambient temperatures and R C_th are
    # the bytes of that row's map built alone from Python floats
    nominal = PRESETS[preset].plant()
    spec = RandomizationSpec(variance_multiplier=multiplier, shared_across_muscles=shared)
    rng = SeededRng(41).split(f"plant-batched/{preset}/{multiplier}/{shared}")
    m, n = nominal.n_muscles, 2 * nominal.n_muscles + 6
    drawn = sample_muscle_set(nominal.muscles, spec, rng, 25)
    table = np.concatenate([drawn, nominal.muscles[None]])
    sm = StepMap(nominal, 0.01, 50, table)
    assert sm.rows == 26 and sm.one.shape == (26, n, n) and sm.stack.shape == (26, 100 + n, n)
    assert sm.muscles is table
    for b, row in enumerate(table):
        one, stack = step_map_row(nominal, row, 0.01, 50)
        assert _same_bytes(sm.one[b], one) and _same_bytes(sm.stack[b], stack)
        assert sm.t_amb[b].tolist() == col(row, "T_amb").tolist()
        assert sm.rc[b].tolist() == [r * c for r, c in zip(col(row, "R").tolist(),
                                                           col(row, "C_th").tolist())]
    alone = StepMap(nominal, 0.01, 50)
    one, stack = step_map_row(nominal, nominal.muscles, 0.01, 50)
    assert alone.rows == 1 and alone.muscles.tobytes() == nominal.muscles.tobytes()
    assert _same_bytes(alone.one[0], one) and _same_bytes(alone.stack[0], stack)
    for bad in (drawn[:, :m - 1], drawn[0], drawn[:0]):
        with pytest.raises(ValueError):
            StepMap(nominal, 0.01, 50, bad)


def test_step_map_build_peaks_under_twice_its_stack():
    # a 100-row build, as in one call of the demonstration phase, keeps two
    # substep powers in flight, not all 50 of them
    nominal = wrist_config()
    table = sample_muscle_set(nominal.muscles, RandomizationSpec(),
                              SeededRng(43).split("plant-peak"), 100)
    tracemalloc.start()
    try:
        sm = StepMap(nominal, 0.01, 50, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sm.stack.nbytes, (peak, sm.stack.nbytes)


def test_nan_torque_takes_the_substep_fallback_like_the_oracle():
    cfg = wrist_config()
    sm = StepMap(cfg, 0.01, 50)
    maps = oracle_step_map(cfg, 0.01, 50)
    s = initial_state(cfg)
    v = np.array([4.0, 0.0, 2.0])
    for ext in ([np.nan, 0.0], np.array([0.0, np.nan])):
        got = advance_one(sm, s, v, ext)
        ref, clamped = oracle_advance(cfg, maps, s, v, 50, ext)
        assert clamped
        for a, b in ((got.angles, ref.angles), (got.rates, ref.rates), (got.temps, ref.temps)):
            assert _same_bytes(a, b)


@pytest.mark.parametrize("preset", ["eye", "wrist"])
def test_rows_in_one_product_equal_each_row_alone(preset):
    # rows with their own muscles, states and voltages, at a 3 deg travel
    # limit that some rows pass within a step and others do not: each row
    # of the lockstep product (and each fallback row) is bitwise that row
    # stepped alone
    nominal = replace(PRESETS[preset].plant(), angle_limit=3.0)
    rng = SeededRng(31).split(f"plant-rows/{preset}")
    spec = RandomizationSpec(variance_multiplier=2.0)
    sets = [sample_muscle_set(nominal.muscles, spec, rng) for _ in range(6)]
    sets[4] = sets[1]  # the batched map also takes repeated muscles
    rows = PlantRows(StepMap(nominal, 0.01, 50, np.concatenate(sets)))
    maps = [StepMap(nominal, 0.01, 50, s) for s in sets]
    alone = [initial_state(sm.cfg) for sm in maps]
    m = nominal.n_muscles
    clamped_rows = set()
    for t in range(20):
        v = rng.uniform(0.0, 0.5, size=(len(maps), m))  # gentle: inside the limit
        v[1::2] = 0.0
        v[1::2, 0] = 10.0  # every other row holds one muscle saturated and hits it
        advance(rows, v)
        for b, sm in enumerate(maps):
            alone[b] = advance_one(sm, alone[b], v[b])
            got = row_state(rows, b)
            for a, w in ((got.angles, alone[b].angles), (got.rates, alone[b].rates),
                         (got.temps, alone[b].temps)):
                assert _same_bytes(a, w)
            if np.any(np.abs(alone[b].angles) == 3.0):
                clamped_rows.add(b)
    assert clamped_rows and clamped_rows != set(range(len(maps)))
    shared = PlantRows(maps[0], 3)
    assert shared.stack is maps[0].stack  # one map for every row: no stacked copy
    with pytest.raises(ValueError):
        PlantRows(StepMap(nominal, 0.01, 50, np.concatenate(sets[:2])), 3)


def test_voltage_check_refuses_the_whole_batch_before_any_row_moves():
    sm = StepMap(wrist_config(), 0.01, 50)
    rows = PlantRows(sm, 2)
    before = rows.z.copy()
    with pytest.raises(ValueError):
        advance(rows, [[1.0, 2.0, 3.0], [1.0, np.nan, 3.0]])
    assert rows.z.tobytes() == before.tobytes()


# sha256 of the presets' (m, 7) muscle tables: the bytes the nominal
# constants had when each muscle was its own object
PRESET_MUSCLES_SHA256 = {
    "eye": "db513c89ec9736984e5d2d7a618384dc88c5ead6660da9479d03da9c1a855f6f",
    "wrist": "0fc4a9fca7516915df2a6eeb731138dc31be03a15912628dd159c96e8a0fb326",
}


@pytest.mark.parametrize("preset", ["eye", "wrist"])
def test_preset_muscle_tables_are_pinned_and_read_only(preset):
    muscles = PRESETS[preset].plant().muscles
    assert muscles.dtype == np.float64 and muscles.shape == (4 if preset == "eye" else 3, 7)
    assert hashlib.sha256(muscles.tobytes()).hexdigest() == PRESET_MUSCLES_SHA256[preset]
    with pytest.raises(ValueError):
        muscles[0, 0] = 1.0


def test_plant_config_refuses_a_bad_muscle_table():
    nominal = eye_config()
    for shape in ((4, 6), (4, 8), (7,), (4, 7, 1), (3, 7)):
        with pytest.raises(ValueError):
            replace(nominal, muscles=np.ones(shape))
    for name in COLUMNS[:6]:
        for value in (0.0, -1.0, math.nan, math.inf):
            muscles = nominal.muscles.copy()
            muscles[1, COLUMNS.index(name)] = value
            with pytest.raises(ValueError, match=f"constant {name} must"):
                replace(nominal, muscles=muscles)
    muscles = nominal.muscles.copy()
    muscles[:, COLUMNS.index("T_amb")] = -5.0  # the ambient may be any temperature
    assert replace(nominal, muscles=muscles).muscles[0, -1] == -5.0


def test_replacing_the_muscles_revalidates_and_copies_the_row():
    # a held-out plant is replace(nominal, muscles=table[k]): validated again,
    # stored as a read-only copy of the row's bytes
    nominal = wrist_config()
    table = sample_muscle_set(nominal.muscles, RandomizationSpec(), SeededRng(5), 3)
    cfg = replace(nominal, muscles=table[1])
    assert cfg.muscles.tobytes() == table[1].tobytes() and not cfg.muscles.flags.writeable
    table[1] = 0.0
    assert (cfg.muscles > 0.0).all()
    with pytest.raises(ValueError, match="constant k must"):
        replace(nominal, muscles=table[1])
