"""Reference code the tests compare the package against.

forward and backward run one float64 net through the stacked kernel at
S = 1, the exact reference for the gradient checks. col reads one constant
of a muscle table by name. steady_state_rise and thermal_time_constant are
the closed forms of one muscle's thermal law.
step_map_row builds one plant's RK4 step map a row at a time, from
Python floats: the byte reference for each row of plant.StepMap's
batched build from a muscle table.
"""

import numpy as np

from musclerl.muscle import COLUMNS
from musclerl.nets import (
    GruNet,
    StackCache,
    StackedNets,
    backward_stacked,
    forward_stacked,
    grads_to_flat,
)
from musclerl.plant import DEG, PlantConfig


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


def col(muscles: np.ndarray, name: str):
    """Constant name of a muscle table's rows (last axis in muscle.COLUMNS order)."""
    return muscles[..., COLUMNS.index(name)]


def steady_state_rise(p: np.ndarray, V: float) -> float:
    """Equilibrium temperature rise V^2 / (R lambda_) above ambient of muscle row p, degC."""
    return V * V / (col(p, "R") * col(p, "lambda_"))


def thermal_time_constant(p: np.ndarray) -> float:
    """Cooling time constant C_th / lambda_ of muscle row p, s."""
    return col(p, "C_th") / col(p, "lambda_")


def step_map_row(cfg: PlantConfig, muscles: np.ndarray, dt: float,
                 substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """(one (n, n), stack (2S+n, n)) of one plant of cfg's geometry, built alone.

    muscles is the plant's (m, 7) muscle table row (muscle.COLUMNS order);
    its constants are read as Python floats.

    A is built as nested Python floats (rows: angles, rates, temperature
    rises; q and e are held), each entry computed as the block form
      A[2:4, 0:2] = -(kappa I + G^T diag(k) G) / J   (d and b for 2:4)
      A[2:4, 4:4+m] = G^T diag(c) / (J DEG),  A[2:4, n-2:] = I / (J DEG)
      A[4:4+m, 4:4+m] = diag(-lambda / C_th),  A[4:4+m, 4+m:4+2m] = I
    computes it; only the two G^T diag(.) G products run in numpy. The
    powers are written by np.dot(M, M^(s-1), out=...) into one (S, n, n)
    buffer and the stack filled from it by two slice copies.
    """
    m, n, J = cfg.n_muscles, 2 * cfg.n_muscles + 6, cfg.J
    k, b, c, cth, lam = (muscles[:, j].tolist() for j in range(5))
    g = cfg.routing
    gkg, gbg = ((g.T @ (np.array(w)[:, None] * g)).tolist() for w in (k, b))
    gt = g.T.tolist()
    a = [[0.0] * n for _ in range(n)]
    a[0][2] = a[1][3] = 1.0
    for r, eye in ((0, (1.0, 0.0)), (1, (0.0, 1.0))):
        row = a[2 + r]
        for s in (0, 1):
            row[s] = -(cfg.kappa * eye[s] + gkg[r][s]) / J
            row[2 + s] = -(cfg.d * eye[s] + gbg[r][s]) / J
        for i in range(m):
            row[4 + i] = gt[r][i] * c[i] / (J * DEG)
        row[n - 2 + r] = 1.0 / (J * DEG)
    for i in range(m):
        a[4 + i][4 + i] = -lam[i] / cth[i]
        a[4 + i][4 + m + i] = 1.0
    ha = dt * np.array(a)
    one = term = np.eye(n)
    for j in (1, 2, 3, 4):
        term = term @ ha / j
        one = one + term
    powers = np.empty((substeps, n, n))
    powers[0] = one
    for prev, cur in zip(powers, powers[1:]):
        np.dot(one, prev, out=cur)
    stack = np.empty((2 * substeps + n, n))
    stack[:2 * substeps].reshape(substeps, 2, n)[...] = powers[:, :2]
    stack[2 * substeps:] = powers[-1]
    return one, stack
