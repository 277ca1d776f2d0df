import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from musclerl.muscle import COLUMNS, SCP_NOMINAL, TCA_NOMINAL
from musclerl.randomize import (
    INTERVALS,
    NO_RANDOMIZATION,
    RANDOMIZED_NAMES,
    RandomizationSpec,
    SeededRng,
    apply_observation_noise,
    draw_observation_noise,
    sample_muscle_set,
)
from musclerl.plant import eye_config

SCP, TCA = SCP_NOMINAL[None], TCA_NOMINAL[None]


def test_degenerate_intervals_return_nominal_exactly():
    spec = RandomizationSpec(variance_multiplier=0.0)
    out = sample_muscle_set(SCP, spec, SeededRng(3))
    assert out.shape == (1, 1, len(COLUMNS)) and out.tobytes() == SCP.tobytes()


def test_scp_stiffness_stays_in_scaled_interval():
    spec = RandomizationSpec()
    rng = SeededRng(11)
    for _ in range(2000):
        k = sample_muscle_set(SCP, spec, rng)[0, 0, COLUMNS.index("k")]
        assert 0.20 <= k <= 0.30


def test_support_containment_all_parameters():
    spec = RandomizationSpec()
    rng = SeededRng(12)
    draws = {n: [] for n in RANDOMIZED_NAMES}
    for _ in range(10_000):
        row = sample_muscle_set(TCA, spec, rng)[0, 0]
        for j, n in enumerate(RANDOMIZED_NAMES):
            v = row[j] / TCA[0, j]
            lo, hi = INTERVALS[j]
            assert lo <= v <= hi
            draws[n].append(v)
        assert row[COLUMNS.index("T_amb")] == TCA[0, COLUMNS.index("T_amb")]
    # empirical mean of each scaling factor within 1 % of 1
    for n in RANDOMIZED_NAMES:
        assert abs(np.mean(draws[n]) - 1.0) < 0.01


def test_same_seed_gives_bitwise_identical_draws():
    spec = RandomizationSpec()
    a = sample_muscle_set(SCP, spec, SeededRng(99))
    b = sample_muscle_set(SCP, spec, SeededRng(99))
    assert a.tobytes() == b.tobytes()
    set_a = sample_muscle_set(np.repeat(TCA, 3, axis=0), spec, SeededRng(5))
    set_b = sample_muscle_set(np.repeat(TCA, 3, axis=0), spec, SeededRng(5))
    assert set_a.tobytes() == set_b.tobytes()
    assert not np.array_equal(set_a[0, 0], set_a[0, 1])  # independent per muscle


def test_shared_scaling_applies_same_factors():
    spec = RandomizationSpec(shared_across_muscles=True)
    muscles = sample_muscle_set(np.repeat(TCA, 3, axis=0), spec, SeededRng(5))[0]
    assert np.array_equal(muscles[0], muscles[1]) and np.array_equal(muscles[1], muscles[2])


def test_overflowing_draw_is_refused_naming_the_constant():
    # at a multiplier of 1e308 an R factor reaches 1e307, which times the
    # eye's 20 ohm overflows to inf; no other drawn eye constant can
    spec = RandomizationSpec(variance_multiplier=1e308)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="constant R must be"):
        sample_muscle_set(eye_config().muscles, spec, SeededRng(1), 50)


def test_split_streams_are_independent():
    root = SeededRng(42)
    a = root.split("one").uniform(size=5)
    b = root.split("two").uniform(size=5)
    a2 = SeededRng(42).split("one").uniform(size=5)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_zero_noise_returns_observation_unchanged():
    # no channel draws, and a -0.0 component keeps its sign: nothing is added
    obs = np.array([[1.0, -0.0, 3.0, 0.5, 7.0, -7.0]])
    rngs = [SeededRng(0).split(str(i)) for i in range(4)]
    before = repr([r.get_state() for r in rngs])
    channels, noise = draw_observation_noise(NO_RANDOMIZATION, rngs, 5)
    assert channels == [] and noise.shape == (5, 1, 0)
    assert repr([r.get_state() for r in rngs]) == before
    out = obs.copy()
    apply_observation_noise(out, channels, noise[0])
    assert out.tobytes() == obs.tobytes()


def test_noise_touches_only_motion_components():
    spec = RandomizationSpec()
    rngs = [SeededRng(1).split(str(i)) for i in range(4)]
    obs = np.array([[0.0, 0.0, 0.0, 0.0, 4.5, -3.25]])
    channels, noise = draw_observation_noise(spec, rngs, 50)
    assert channels == [0, 1, 2, 3]
    for step in noise:
        out = obs.copy()
        apply_observation_noise(out, channels, step)
        assert out[0, 4] == 4.5 and out[0, 5] == -3.25
        assert not np.array_equal(out[0, :4], obs[0, :4])
    with pytest.raises(ValueError):
        apply_observation_noise(np.array([[0.0, np.nan, 0.0, 0.0, 0.0, 0.0]]), channels,
                                noise[0])


def test_noise_empirical_sd_and_independence():
    spec = RandomizationSpec()
    rngs = [SeededRng(2).split(str(i)) for i in range(4)]
    n = 100_000
    _, noise = draw_observation_noise(spec, rngs, n)
    angle_noise = noise[:, 0, 0]
    sd = angle_noise.std()
    assert 0.097 <= sd <= 0.103
    x = angle_noise - angle_noise.mean()
    lag1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert abs(lag1) < 0.02


# six times the smallest denormal: the angle SD rounds to that denormal and
# the velocity SD to 0, so only the angle channels draw
DENORMAL = 6 * 5e-324


@pytest.mark.parametrize("spec", [RandomizationSpec(),
                                  RandomizationSpec(variance_multiplier=DENORMAL),
                                  RandomizationSpec(variance_multiplier=2.5)])
def test_episode_noise_draw_matches_per_step_scalar_draws(spec):
    # one size-(T+1) call per channel gives the values and the stream state
    # of one scalar draw per step, channel by channel
    rngs = [SeededRng(4).split(f"obs-noise/{i}") for i in range(4)]
    oracle = [SeededRng(4).split(f"obs-noise/{i}") for i in range(4)]
    angle_sd, vel_sd = spec.effective_noise_sds()
    sds = (angle_sd, vel_sd, angle_sd, vel_sd)
    for _ in range(3):  # successive episodes continue the streams
        channels, noise = draw_observation_noise(spec, rngs, 41)
        assert channels == [i for i in range(4) if sds[i] > 0.0]
        want = np.array([[float(oracle[i].gen.normal(0.0, sds[i])) for i in channels]
                         for _ in range(41)]).reshape(41, len(channels))
        assert noise.tobytes() == want.tobytes()
        assert repr([r.get_state() for r in rngs]) == repr([r.get_state() for r in oracle])


def test_variance_multiplier_scales_intervals_and_noise():
    base = RandomizationSpec()
    assert [end.tolist() for end in base.effective_intervals()] == [
        [0.8, 0.9, 0.85, 0.8, 0.85, 0.9], [1.2, 1.1, 1.15, 1.2, 1.15, 1.1]]
    assert base.effective_noise_sds() == (0.1, 0.05)
    doubled = RandomizationSpec(variance_multiplier=2.0)
    lo, hi = doubled.effective_intervals()
    assert lo[0] == pytest.approx(0.6) and hi[0] == pytest.approx(1.4)
    assert doubled.effective_noise_sds() == (0.2, 0.1)
    frozen = RandomizationSpec(variance_multiplier=0.0)
    assert all(end.tolist() == [1.0] * 6 for end in frozen.effective_intervals())
    assert frozen.effective_noise_sds() == (0.0, 0.0)
    # positivity clamp engages for extreme multipliers
    extreme = RandomizationSpec(variance_multiplier=10.0)
    lo, hi = extreme.effective_intervals()
    assert lo[0] == 0.05 and hi[0] == pytest.approx(3.0)


@pytest.mark.parametrize("m", [0.0, DENORMAL, 1e-17, 0.5, 1.0, 2.0, 2.5, 10.0, 2000.0, 1e308])
def test_effective_intervals_equal_the_scalar_formula(m):
    # each array end is, bit for bit, the per-constant scalar formula
    lo, hi = RandomizationSpec(variance_multiplier=m).effective_intervals()
    for j, (lo_j, hi_j) in enumerate(INTERVALS.tolist()):
        assert lo[j].tobytes() == np.float64(max(1.0 - m * (1.0 - lo_j), 0.05)).tobytes()
        assert hi[j].tobytes() == np.float64(1.0 + m * (hi_j - 1.0)).tobytes()


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        RandomizationSpec(variance_multiplier=-1.0)
    with pytest.raises(ValueError):
        RandomizationSpec(variance_multiplier=-5e-324)


# the noise SDs are fixed constants times the multiplier, so it is the one
# value to refuse
@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["variance_multiplier"])
def test_non_finite_multiplier_and_noise_sds_rejected(name, value):
    # refused at build time, before any draw could overflow numpy's uniform
    with pytest.raises(ValueError, match=name):
        RandomizationSpec(**{name: value})


def test_rng_state_roundtrip():
    rng = SeededRng(123)
    rng.uniform(size=7)
    state = rng.get_state()
    a = rng.uniform(size=5)
    rng2 = SeededRng(0)
    rng2.set_state(state)
    assert np.array_equal(rng2.uniform(size=5), a)


def oracle_draw_factors(spec, rng):
    """One scalar uniform call per factor, in RANDOMIZED_NAMES order."""
    lo, hi = (end.tolist() for end in spec.effective_intervals())
    return {name: float(rng.uniform(lo[j], hi[j])) for j, name in enumerate(RANDOMIZED_NAMES)}


def oracle_scaled(p, factors):
    """Muscle row p with each drawn constant times its factor, as Python floats."""
    return [v * factors[name] if name in factors else v
            for name, v in zip(COLUMNS, p.tolist())]


def oracle_sample_muscle_set(nominals, spec, rng, rows=1):
    """rows episodes' muscles the per-muscle way: each row scaled by scalar draws.

    Returns the rows * len(nominals) muscle rows, episode after episode.
    """
    out = []
    for _ in range(rows):
        if spec.shared_across_muscles:
            factors = oracle_draw_factors(spec, rng)
            out += [oracle_scaled(p, factors) for p in nominals]
        else:
            out += [oracle_scaled(p, oracle_draw_factors(spec, rng)) for p in nominals]
    return tuple(out)


def rng_state(rng):
    """get_state() with its arrays as lists, so two states compare with ==."""
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x
    return plain(rng.get_state())


ORACLE_SPECS = [
    RandomizationSpec(variance_multiplier=0.0),
    RandomizationSpec(variance_multiplier=1.0),
    RandomizationSpec(variance_multiplier=2.0),
    RandomizationSpec(variance_multiplier=10.0),  # every lower end clamps at 0.05
    NO_RANDOMIZATION,
]


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_one_call_draw_matches_the_scalar_oracle(spec, shared):
    # the table of 1 or 25 rows holds the oracle's muscles bit for bit,
    # episode after episode, and the stream state after is the oracle's
    spec = replace(spec, shared_across_muscles=shared)
    for table, rows in itertools.product((eye_config().muscles, np.repeat(TCA, 3, axis=0)),
                                         (1, 25)):
        m = len(table)
        got_rng, want_rng = SeededRng(31), SeededRng(31)
        for _ in range(20 if rows == 1 else 3):
            got = sample_muscle_set(table, spec, got_rng, rows)
            want = np.array(oracle_sample_muscle_set(table, spec, want_rng, rows))
            assert got.shape == (rows, m, len(COLUMNS))
            assert got.tobytes() == want.tobytes()
            assert rng_state(got_rng) == rng_state(want_rng)
        got = sample_muscle_set(TCA, spec, got_rng)
        want = np.array(oracle_scaled(TCA_NOMINAL, oracle_draw_factors(spec, want_rng)))
        assert got.tobytes() == want.tobytes()
        assert rng_state(got_rng) == rng_state(want_rng)


def test_clamped_oracle_spec_sits_at_the_lower_end():
    assert ORACLE_SPECS[3].effective_intervals()[0].tolist() == [0.05] * len(RANDOMIZED_NAMES)
