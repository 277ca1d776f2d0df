"""Run configuration: defaults, key=value config files, CLI/env overrides.

A config file is plain lines of `key = value` with `#` comments, keys matching
RunConfig fields. Override precedence: CLI flag > MUSCLERL_SEED environment
variable (seed only) > config file > preset default. The resolved config has
a stable hash that is stamped into every output artifact, next to CODE_STAMP:
the package version and the numerics version, which moves whenever the last
bits of simulated trajectories change while the config hash does not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass

from .plant import PlantConfig, configured_plant

__version__ = "0.1.0"
NUMERICS = 2  # 2: the per-episode RK4 step map of plant.StepMap
CODE_STAMP = f"version={__version__} numerics={NUMERICS}"
PRESET_EPISODES = {"eye": 2000, "wrist": 3500}
PRESET_BOOTSTRAP = {"eye": 250, "wrist": 500}
PRESET_STEPS = {"eye": 30, "wrist": 40}
SEED_ENV_VAR = "MUSCLERL_SEED"


@dataclass
class RunConfig:
    preset: str = "wrist"
    seed: int = 0
    episodes: int | None = None            # total episodes N (preset default)
    bootstrap_episodes: int | None = None  # demonstration episodes M (preset default)
    episode_length: int | None = None      # steps per episode (preset default)
    gru_hidden: int = 256
    lr: float = 3e-4
    tau: float = 0.005
    gamma: float = 0.99
    batch_size: int = 20
    buffer_capacity: int = 100_000
    updates_per_episode: int | None = None  # default: one per environment step
    augment_copies: int = 10
    augment_delta: float = 2.0
    pid_gain_scale: float = 1.0
    no_bootstrap: bool = False
    no_augment: bool = False
    no_randomize: bool = False
    variance_multiplier: float = 1.0
    shared_muscle_scaling: bool = False
    target_range: float = 10.0
    checkpoint_every: int = 100
    out_dir: str = "runs/run"
    # rigid-body overrides; None keeps the preset's calibrated default
    plant_inertia: float | None = None
    plant_damping: float | None = None
    plant_stiffness: float | None = None
    plant_moment_arm: float | None = None
    plant_rest_length: float | None = None
    plant_angle_limit: float | None = None

    def __post_init__(self):
        if self.preset not in PRESET_EPISODES:
            raise ValueError(f"unknown preset {self.preset!r}")

    def resolved(self) -> "RunConfig":
        """Fill preset-dependent defaults; validates M <= N."""
        cfg = dataclasses.replace(
            self,
            episodes=self.episodes if self.episodes is not None else PRESET_EPISODES[self.preset],
            bootstrap_episodes=(
                self.bootstrap_episodes
                if self.bootstrap_episodes is not None
                else PRESET_BOOTSTRAP[self.preset]
            ),
            episode_length=(
                self.episode_length
                if self.episode_length is not None
                else PRESET_STEPS[self.preset]
            ),
        )
        if cfg.bootstrap_episodes > cfg.episodes:
            raise ValueError("bootstrap_episodes must not exceed episodes")
        if cfg.updates_per_episode is None:
            cfg = dataclasses.replace(cfg, updates_per_episode=cfg.episode_length)
        return cfg

    def canonical_items(self) -> list[tuple[str, str]]:
        out = []
        for f in dataclasses.fields(self):
            if f.name == "out_dir":  # artifact location does not affect behaviour
                continue
            v = getattr(self, f.name)
            out.append((f.name, repr(v)))
        return sorted(out)

    def config_hash(self) -> str:
        text = "\n".join(f"{k} = {v}" for k, v in self.canonical_items())
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def plant_config(self) -> PlantConfig:
        """The preset plant with this config's plant_* overrides applied."""
        return configured_plant(
            self.preset,
            inertia=self.plant_inertia,
            damping=self.plant_damping,
            stiffness=self.plant_stiffness,
            moment_arm=self.plant_moment_arm,
            rest_length=self.plant_rest_length,
            angle_limit=self.plant_angle_limit,
        )


_BOOL_FIELDS = {"no_bootstrap", "no_augment", "no_randomize", "shared_muscle_scaling"}
_OPTIONAL_INT_FIELDS = {"episodes", "bootstrap_episodes", "episode_length", "updates_per_episode"}
_OPTIONAL_FLOAT_FIELDS = {"plant_inertia", "plant_damping", "plant_stiffness",
                          "plant_moment_arm", "plant_rest_length", "plant_angle_limit"}


def _coerce(name: str, raw: str):
    raw = raw.strip()
    if name in _BOOL_FIELDS:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"bad boolean for {name}: {raw!r}")
    if name in ("preset", "out_dir"):
        return raw
    if name in _OPTIONAL_INT_FIELDS:
        return None if raw.lower() == "none" else int(raw)
    if name in _OPTIONAL_FLOAT_FIELDS:
        return None if raw.lower() == "none" else float(raw)
    if name in ("seed", "batch_size", "buffer_capacity", "checkpoint_every",
                "gru_hidden", "augment_copies"):
        return int(raw)
    return float(raw)


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines into a field dict."""
    names = {f.name for f in dataclasses.fields(RunConfig)}
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in names:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _coerce(key, raw)
    return out


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from file + environment + explicit overrides."""
    fields: dict = {}
    if path:
        fields.update(parse_config_file(path))
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        fields["seed"] = int(env_seed)
    if overrides:
        fields.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**fields)
