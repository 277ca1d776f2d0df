"""Reference code the tests compare the package against.

forward and backward run one float64 net through the stacked kernel at
S = 1, the exact reference for the gradient checks. stacked_forward and
stacked_backward run the stacked kernel's operations on fresh (S, T, B,
dim) sequence arrays, reading the gates as strided slices of one joint
[z | r] array: the byte reference for nets.forward_stacked and
nets.backward_stacked, which store the gates by step, and for each row of
nets.ActCell. col reads one constant of a muscle table by name.
steady_state_rise and thermal_time_constant are the closed forms of one
muscle's thermal law.
step_map_row builds one plant's RK4 step map a row at a time, from
Python floats: the byte reference for each row of plant.StepMap's
batched build from a muscle table.
"""

from types import SimpleNamespace

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
    _, dx, dh0 = backward_stacked(cache, dy[None], dhf, need_param_grads)
    flat = grads_to_flat(cache.grad_flat, 0) if need_param_grads else None
    return flat, dx[0], dh0[0]


def stacked_forward(sp: StackedNets, x: np.ndarray, h0: np.ndarray | None = None):
    """forward_stacked's operations on fresh (S, T, B, dim) arrays.

    x is (S_x, T, B, input_dim) with S_x in {1, S}. Returns (y, h_T, acts),
    acts holding what stacked_backward reads.
    """
    S_x, T, B, I = x.shape
    S, H, O = sp.S, sp.shape.gru_hidden, sp.shape.output_dim
    N = T * B

    def empty(*shape):
        return np.empty(shape, dtype=sp.dtype)

    acts = SimpleNamespace(
        x=x, T=T, S=S, B=B, pre=empty(S, T, B, H), relu_mask=np.empty((S, T, B, H), dtype=bool),
        a=empty(S, T, B, H), zr=empty(S, T, B, 2 * H), c=empty(S, T, B, H),
        rh=empty(S, T, B, H), h_states=empty(S, T + 1, B, H), gx=empty(S, T, B, 3 * H))
    pre, a, gx = (arr.reshape(S, N, -1) for arr in (acts.pre, acts.a, acts.gx))
    np.matmul(np.ascontiguousarray(x).reshape(S_x, N, I), sp.W_in, out=pre)
    pre += sp.b_in
    np.greater(pre, 0.0, out=acts.relu_mask.reshape(S, N, H))
    np.multiply(pre, acts.relu_mask.reshape(S, N, H), out=a)
    np.matmul(a, sp.Wg, out=gx)
    gx += sp.bg

    h, hn = empty(S, B, H), empty(S, B, H)
    zr, rh, c = empty(S, B, 2 * H), empty(S, B, H), empty(S, B, H)
    if h0 is None:
        h[:] = 0.0
    else:
        h[:] = h0.reshape(S, B, H)
    acts.h_states[:, 0] = h
    for t in range(T):
        g = acts.gx[:, t]
        np.matmul(h, sp.Ug_zr, out=zr)
        zr += g[:, :, : 2 * H]
        zr *= 0.5
        np.tanh(zr, out=zr)
        zr += 1.0
        zr *= 0.5
        np.multiply(zr[:, :, H:], h, out=rh)
        np.matmul(rh, sp.Ug_c, out=c)
        c += g[:, :, 2 * H :]
        np.tanh(c, out=c)
        np.subtract(c, h, out=hn)
        hn *= zr[:, :, :H]
        hn += h
        acts.zr[:, t] = zr
        acts.rh[:, t] = rh
        acts.c[:, t] = c
        acts.h_states[:, t + 1] = hn
        h, hn = hn, h
    y = empty(S, T, B, O)
    y_flat = y.reshape(S, N, O)
    np.matmul(acts.h_states[:, 1:].reshape(S, N, H), sp.W_out, out=y_flat)
    y_flat += sp.b_out
    return y, h.copy(), acts


def stacked_backward(sp: StackedNets, acts: SimpleNamespace, dy: np.ndarray,
                     dh_final: np.ndarray | None = None):
    """backward_stacked's operations on stacked_forward's acts, which it spends.

    Returns (param_grads dict of (S, ...) arrays, dx, dh0).
    """
    T, S, B, H = acts.T, acts.S, acts.B, sp.shape.gru_hidden
    I, O = sp.shape.input_dim, sp.shape.output_dim
    N = T * B
    dy_flat = np.ascontiguousarray(dy).reshape(S, N, O)
    dh_out = acts.pre
    np.matmul(dy_flat, sp.W_outT, out=dh_out.reshape(S, N, H))
    dgx = acts.gx

    def empty(*shape):
        return np.empty(shape, dtype=sp.dtype)

    dh, dh_prev = empty(S, B, H), empty(S, B, H)
    if dh_final is None:
        dh[:] = 0.0
    else:
        dh[:] = dh_final.reshape(S, B, H)
    buf_zr, sig = empty(S, B, 2 * H), empty(S, B, 2 * H)
    tmp, tmp2, drh = empty(S, B, H), empty(S, B, H), empty(S, B, H)
    for t in range(T - 1, -1, -1):
        dh += dh_out[:, t]
        zr = acts.zr[:, t]
        z = zr[:, :, :H]
        r = zr[:, :, H:]
        c = acts.c[:, t]
        h_prev = acts.h_states[:, t]
        dz = buf_zr[:, :, :H]
        np.subtract(c, h_prev, out=dz)
        dz *= dh
        np.multiply(c, c, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(dh, z, out=tmp2)
        tmp2 *= tmp
        dgx[:, t, :, 2 * H :] = tmp2
        np.matmul(tmp2, sp.UcT, out=drh)
        dr = buf_zr[:, :, H:]
        np.multiply(drh, h_prev, out=dr)
        np.subtract(1.0, z, out=tmp)
        np.multiply(dh, tmp, out=dh_prev)
        np.multiply(drh, r, out=tmp)
        dh_prev += tmp
        np.subtract(1.0, zr, out=sig)
        sig *= zr
        buf_zr *= sig
        dgx[:, t, :, : 2 * H] = buf_zr
        np.matmul(buf_zr, sp.UzrT, out=sig[:, :, :H])
        dh_prev += sig[:, :, :H]
        dh, dh_prev = dh_prev, dh
    dh0 = dh.copy()

    dgx_flat = dgx.reshape(S, N, 3 * H)
    dpre = acts.pre
    np.matmul(dgx_flat, sp.WgT, out=dpre.reshape(S, N, H))
    dpre *= acts.relu_mask
    dx = (dpre.reshape(S, N, H) @ sp.W_inT).reshape(S, T, B, I)

    S_x = acts.x.shape[0]
    f_x = np.ascontiguousarray(acts.x).reshape(S_x, N, I)
    f_h = acts.h_states[:, 1:].reshape(S, N, H)
    f_hprev = acts.h_states[:, :T].reshape(S, N, H)
    f_dpre = dpre.reshape(S, N, H)
    grads = {"W_in": f_x.transpose(0, 2, 1) @ f_dpre, "b_in": f_dpre.sum(axis=1),
             "Wg": acts.a.reshape(S, N, H).transpose(0, 2, 1) @ dgx_flat,
             "Ug": empty(S, H, 3 * H), "bg": dgx_flat.sum(axis=1),
             "W_out": f_h.transpose(0, 2, 1) @ dy_flat, "b_out": dy_flat.sum(axis=1)}
    np.matmul(f_hprev.transpose(0, 2, 1), dgx_flat[:, :, : 2 * H], out=grads["Ug"][:, :, : 2 * H])
    np.matmul(acts.rh.reshape(S, N, H).transpose(0, 2, 1), dgx_flat[:, :, 2 * H :],
              out=grads["Ug"][:, :, 2 * H :])
    return grads, dx, dh0


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
