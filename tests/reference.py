"""Reference code the tests compare the package against.

forward and backward run one float64 net through the stacked kernel at
S = 1, the exact reference for the gradient checks. steady_state_rise and
thermal_time_constant are the closed forms of one muscle's thermal law.
"""

import numpy as np

from musclerl.muscle import MuscleParams
from musclerl.nets import (
    GruNet,
    StackCache,
    StackedNets,
    backward_stacked,
    forward_stacked,
    grads_to_flat,
)


def forward(net: GruNet, x: np.ndarray, h0: np.ndarray | None = None):
    """Run one net over a (T, B, input_dim) sequence.

    Returns (outputs (T, B, output_dim), h_T (B, H), cache).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] < 1:
        raise ValueError(f"expected nonempty (T, B, input) sequence, got shape {x.shape}")
    if x.shape[2] != net.shape.input_dim:
        raise ValueError(f"input dim {x.shape[2]} != {net.shape.input_dim}")
    sp = StackedNets([net])
    h0s = None if h0 is None else np.asarray(h0, dtype=np.float64)[None]
    y, hT, cache = forward_stacked(sp, x[None], h0s)
    return y[0], hT[0], cache


def backward(cache: StackCache, dy: np.ndarray, dh_final: np.ndarray | None = None,
             need_param_grads: bool = True):
    """Exact reverse-mode gradients for a single-net forward.

    dy is (T, B, output_dim); optional dh_final seeds the gradient of h_T.
    Returns (flat param gradient or None, dx (T, B, input_dim), dh0 (B, H)).
    """
    dy = np.asarray(dy, dtype=np.float64)
    dhf = None if dh_final is None else np.asarray(dh_final, dtype=np.float64)[None]
    grads, dx, dh0 = backward_stacked(cache, dy[None], dhf, need_param_grads)
    flat = grads_to_flat(cache.nets.shape, grads, 0) if need_param_grads else None
    return flat, dx[0], dh0[0]


def steady_state_rise(p: MuscleParams, V: float) -> float:
    """Equilibrium temperature rise V^2 / (R lambda_) above ambient, degC."""
    return V * V / (p.R * p.lambda_)


def thermal_time_constant(p: MuscleParams) -> float:
    """Cooling time constant C_th / lambda_, s."""
    return p.C_th / p.lambda_
