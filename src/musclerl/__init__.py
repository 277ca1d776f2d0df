"""Learning-based setpoint control for thermally actuated string-muscle robots.

Simulation of coiled-polymer / SMA-core muscle strings and two plants built
on them (a 2-DOF robotic eye, a 3-muscle parallel wrist), plus a recurrent
soft actor-critic trainer with PID-seeded replay, target-relabelling data
augmentation, and per-episode muscle-dynamics randomization, and a
reproducible training/evaluation harness.
"""

from .muscle import MuscleParams, MuscleThermalState, SCP_NOMINAL, TCA_NOMINAL
from .plant import PlantConfig, PlantState, eye_config, wrist_config
from .randomize import RandomizationSpec, SeededRng
from .env import EpisodeConfig, RewardSpec, TrackingEnv, make_env
from .sac import ReplayBuffer, SacAgent, Trajectory
from .augment import AugmentationSpec, augment_trajectory
from .pid import PidController, PidGains
from .config import RunConfig, __version__, load_config
from .trainer import Trainer, load_policy
from .fieldtest import FieldTestSpec, run_field_test, summarize

__all__ = [
    "MuscleParams", "MuscleThermalState", "SCP_NOMINAL", "TCA_NOMINAL",
    "PlantConfig", "PlantState", "eye_config", "wrist_config",
    "RandomizationSpec", "SeededRng",
    "EpisodeConfig", "RewardSpec", "TrackingEnv", "make_env",
    "ReplayBuffer", "SacAgent", "Trajectory",
    "AugmentationSpec", "augment_trajectory",
    "PidController", "PidGains",
    "RunConfig", "load_config",
    "Trainer", "load_policy",
    "FieldTestSpec", "run_field_test", "summarize",
    "__version__",
]
