"""Learning-based setpoint control for thermally actuated string-muscle robots.

Simulation of coiled-polymer / SMA-core muscle strings and two plants built
on them (a 2-DOF robotic eye, a 3-muscle parallel wrist), plus a recurrent
soft actor-critic trainer with PID-seeded replay, target-relabelling data
augmentation, and per-episode muscle-dynamics randomization, and a
reproducible training/evaluation harness.
"""

from .muscle import SCP_NOMINAL, TCA_NOMINAL
from .plant import PlantConfig, PlantRows, eye_config, wrist_config
from .randomize import RandomizationSpec, SeededRng
from .env import RewardSpec, TrackingEnv, run_episode
from .sac import ReplayBuffer, SacAgent, Trajectory
from .augment import AugmentationSpec, augment_trajectory
from .pid import PidController, PidGains
from .config import RunConfig, __version__, load_config
from .trainer import Trainer, load_policy
from .fieldtest import FieldTestSpec, run_field_test, summarize

__all__ = [
    "SCP_NOMINAL", "TCA_NOMINAL",
    "PlantConfig", "PlantRows", "eye_config", "wrist_config",
    "RandomizationSpec", "SeededRng",
    "RewardSpec", "TrackingEnv", "run_episode",
    "ReplayBuffer", "SacAgent", "Trajectory",
    "AugmentationSpec", "augment_trajectory",
    "PidController", "PidGains",
    "RunConfig", "load_config",
    "Trainer", "load_policy",
    "FieldTestSpec", "run_field_test", "summarize",
    "__version__",
]
