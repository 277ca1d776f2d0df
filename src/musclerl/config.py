"""Run configuration: defaults, key=value config files, CLI overrides.

A config file is plain lines of `key = value` with `#` comments, keys matching
RunConfig fields. Override precedence: CLI flag > config file > preset
default (env.PRESETS: N, M and the episode steps). The resolved config has
a stable hash that is stamped into every output artifact, next to
CODE_STAMP: the package version and the numerics version, which moves
whenever the last bits of simulated trajectories change while the config
hash does not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import typing
from dataclasses import dataclass

from .env import PRESETS
from .plant import PlantConfig, configured_plant

__version__ = "0.1.0"
NUMERICS = 3  # 2: the RK4 step map of plant.StepMap; 3: float32 SAC update passes
CODE_STAMP = f"version={__version__} numerics={NUMERICS}"


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
    plant_rest_length: float | None = None  # refused by resolved(); kept in the hash
    plant_angle_limit: float | None = None

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")

    def resolved(self) -> "RunConfig":
        """Fill preset-dependent defaults; refuses M > N and each out-of-range number below."""
        p = PRESETS[self.preset]
        cfg = dataclasses.replace(
            self,
            episodes=p.episodes if self.episodes is None else self.episodes,
            bootstrap_episodes=(p.bootstrap if self.bootstrap_episodes is None
                                else self.bootstrap_episodes),
            episode_length=p.steps if self.episode_length is None else self.episode_length,
        )
        if cfg.updates_per_episode is None:
            cfg = dataclasses.replace(cfg, updates_per_episode=cfg.episode_length)
        if cfg.plant_rest_length is not None:
            raise ValueError("plant_rest_length is not supported: the linearized muscle "
                             "routing cancels the rest length, so it changes no dynamics")
        if cfg.bootstrap_episodes > cfg.episodes:
            raise ValueError("bootstrap_episodes must not exceed episodes")
        if not 0 < cfg.gamma <= 1:
            raise ValueError(f"gamma must lie in (0, 1], got {cfg.gamma!r}")
        if not 0 <= cfg.tau <= 1:
            raise ValueError(f"tau must lie in [0, 1], got {cfg.tau!r}")
        if not 0 < cfg.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {cfg.lr!r}")
        for key in ("batch_size", "checkpoint_every", "episode_length", "updates_per_episode"):
            if getattr(cfg, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(cfg, key)!r}")
        for key in ("bootstrap_episodes", "augment_copies"):
            if getattr(cfg, key) < 0:
                raise ValueError(f"{key} must not be negative, got {getattr(cfg, key)!r}")
        for key in ("target_range", "augment_delta", "pid_gain_scale"):
            if not 0 <= getattr(cfg, key) < math.inf:
                raise ValueError(f"{key} must be finite and nonnegative, "
                                 f"got {getattr(cfg, key)!r}")
        if cfg.buffer_capacity < cfg.batch_size:  # no update could ever sample a batch
            raise ValueError(f"buffer_capacity ({cfg.buffer_capacity!r}) must be at least "
                             f"batch_size ({cfg.batch_size!r})")
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
            PRESETS[self.preset].plant(),
            inertia=self.plant_inertia,
            damping=self.plant_damping,
            stiffness=self.plant_stiffness,
            moment_arm=self.plant_moment_arm,
            angle_limit=self.plant_angle_limit,
        )


_HINTS = typing.get_type_hints(RunConfig)


def field_type(name: str) -> tuple[type, bool]:
    """A RunConfig field's value type from its annotation, and whether it takes None."""
    args = typing.get_args(_HINTS[name])
    if type(None) in args:
        (kind,) = (a for a in args if a is not type(None))
        return kind, True
    return _HINTS[name], False


def _coerce(name: str, raw: str):
    raw = raw.strip()
    kind, optional = field_type(name)
    if optional and raw.lower() == "none":
        return None
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"bad boolean for {name}: {raw!r}")
    return kind(raw)


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
    """Build a RunConfig from file + explicit overrides."""
    fields: dict = {}
    if path:
        fields.update(parse_config_file(path))
    if overrides:
        fields.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**fields)
