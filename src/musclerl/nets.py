"""Self-contained recurrent function approximator with exact gradients.

One network is ReLU(FC) -> GRU -> FC over a sequence:

    a_t = relu(x_t W_in + b_in)
    z_t = sigmoid(a_t Wg[:, :H]   + h_{t-1} Ug[:, :H]   + bg[:H])
    r_t = sigmoid(a_t Wg[:, H:2H] + h_{t-1} Ug[:, H:2H] + bg[H:2H])
    c_t = tanh   (a_t Wg[:, 2H:]  + (r_t * h_{t-1}) Ug[:, 2H:] + bg[2H:])
    h_t = (1 - z_t) * h_{t-1} + z_t * c_t          (z = 1 fully rewrites h)
    y_t = h_t W_out + b_out

Parameters live in one flat float64 vector with named views, so the Adam
step and checkpointing are single-array operations and two identical runs
stay bitwise identical. backward_stacked is exact reverse-mode through the
whole sequence and also returns input gradients (the actor update needs
d loss / d action through the critics).

The compute kernel carries a leading stack axis S so the twin critics run
as one broadcasted pass: inputs and outputs are (S, T, B, dim), and one
net is a stack of S = 1. Stacking changes call counts, not the per-element
operations, so results are bitwise identical either way.

At desk widths the step loops are bound by numpy's per-call cost, and an
elementwise call on a strided view costs two to three times one on a
contiguous block. So no per-step elementwise operation takes a strided
operand: the gates and the candidate, which only the loops read, are
stored by step, (T, S, B, H), and the loops copy one step of any other
sequence array to or from contiguous (S, B, dim) scratch (see
StackCache). Strided slices appear only in copies and as matmul operands.
For the same reason the loops index no sequence array in a step: each
storage builds its step views (each step's block of every sequence array a
loop reads or writes) once, and the loops walk them; every numpy
call in them passes its output positionally, and its constants 0.5 and 1.0
as 0-d arrays of the stack's dtype. These change which Python objects
the loops touch, not one operation or operand, so the bytes are those of
indexing the blocks step by step.

The gate equations are written once, as three step functions:
input_projection (x W_in + b_in, the ReLU, a Wg + bg over a whole
sequence), gru_step (one step of the recurrence) and output_projection.
forward_stacked's loop calls them, and so does ActCell, the forward-only
acting path: one float64 net stepped one input at a time for B rows on
(B, 1, dim) scratch, with no cache and no sequence arrays, each row
bitwise a T = 1 forward_stacked pass.

Master parameters, Adam moments and checkpoints are float64. A stack may
be built in float32 (StackedNets(..., dtype=np.float32)), casting as it
copies: its passes then compute in float32, take float32 inputs and return
float32 gradients, which grads_to_flat writes back into a float64 flat.
A float64 stack is the exact reference for the gradient checks.

The path from backward to the Adam step allocates no parameter-sized
array. A backward pass writes its parameter gradients into an (S, P) flat,
laid out like GruNet's, that its StackCache keeps as grad_flat (built on
the first backward that asks for them), and grads_to_flat casts one row
of it into a caller's float64 flat in one copy. adam_update walks the
vectors in blocks of BLOCK elements through the module's one block-sized
SCRATCH, with the whole-vector operations in their order, so its result
is bitwise that of the whole-vector step.

Passes of one signature whose lifetimes do not overlap can hold their
activations in one storage: forward_stacked(..., share=cache) returns a
cache of its own (own x, nets and gradient flat) on cache's sequence arrays
and step scratch. A cache's activations are then valid until the next
forward through any cache that shares its storage, and backward_stacked
refuses one whose activations were overwritten. A forward without share
keeps private storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .randomize import SeededRng

LOG_SD_MIN = -20.0
LOG_SD_MAX = 2.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class NetworkShape:
    input_dim: int
    gru_hidden: int
    output_dim: int

    def __post_init__(self):
        if min(self.input_dim, self.gru_hidden, self.output_dim) < 1:
            raise ValueError("network dimensions must be >= 1")


def _layout(shape: NetworkShape):
    i, h, o = shape.input_dim, shape.gru_hidden, shape.output_dim
    specs = [
        ("W_in", (i, h)),
        ("b_in", (h,)),
        ("Wg", (h, 3 * h)),
        ("Ug", (h, 3 * h)),
        ("bg", (3 * h,)),
        ("W_out", (h, o)),
        ("b_out", (o,)),
    ]
    offsets, off = {}, 0
    for name, shp in specs:
        n = int(np.prod(shp))
        offsets[name] = (off, shp)
        off += n
    return offsets, off


def _views(offsets: dict, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Named views into flat (..., P): each parameter's slice of the last axis."""
    return {
        name: flat[..., off : off + int(np.prod(shp))].reshape(flat.shape[:-1] + shp)
        for name, (off, shp) in offsets.items()
    }


class GruNet:
    """Parameter container: flat vector plus named views into it."""

    def __init__(self, shape: NetworkShape, flat: np.ndarray | None = None):
        self.shape = shape
        self.offsets, self.size = _layout(shape)
        if flat is None:
            flat = np.zeros(self.size)
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != (self.size,):
            raise ValueError(f"expected flat parameter vector of length {self.size}")
        self.flat = flat
        self.v = _views(self.offsets, flat)

    def copy(self) -> "GruNet":
        return GruNet(self.shape, self.flat.copy())


def init_params(shape: NetworkShape, rng: SeededRng) -> GruNet:
    """Uniform +-1/sqrt(fan_in) for the dense layers and GRU weights, zero biases."""
    net = GruNet(shape)
    i, h = shape.input_dim, shape.gru_hidden
    net.v["W_in"][:] = rng.uniform(-1, 1, size=net.v["W_in"].shape) / math.sqrt(i)
    net.v["Wg"][:] = rng.uniform(-1, 1, size=net.v["Wg"].shape) / math.sqrt(h)
    net.v["Ug"][:] = rng.uniform(-1, 1, size=net.v["Ug"].shape) / math.sqrt(h)
    net.v["W_out"][:] = rng.uniform(-1, 1, size=net.v["W_out"].shape) / math.sqrt(h)
    return net


def _aligned_empty(shape: tuple, dtype) -> np.ndarray:
    """An uninitialised C-contiguous array whose data starts on a 64-byte boundary."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start : start + nbytes].view(dtype).reshape(shape)


class StackedNets:
    """Copies of S same-shape networks stacked for one broadcasted pass.

    Each weight array starts on a 64-byte cache line. malloc aligns to 16
    bytes, so without this the line a matrix starts on would be fixed by
    whatever the process allocated before it, and the width-64 products
    take up to a quarter longer on a matrix that straddles lines.
    """

    def __init__(self, nets: list[GruNet], dtype=np.float64):
        shape = nets[0].shape
        for n in nets:
            if n.shape != shape:
                raise ValueError("stacked networks must share one shape")
        self.shape = shape
        self.S = len(nets)
        self.dtype = np.dtype(dtype)
        H = shape.gru_hidden

        def stack(name, cols=slice(None)):
            parts = [n.v[name][..., cols] for n in nets]
            return np.stack(parts, out=_aligned_empty((self.S,) + parts[0].shape, self.dtype))

        def transposed(w):
            out = _aligned_empty((self.S, w.shape[2], w.shape[1]), self.dtype)
            out[...] = w.transpose(0, 2, 1)
            return out

        self.W_in = stack("W_in")
        self.b_in = stack("b_in")[:, None, :]
        self.Wg = stack("Wg")
        self.Ug_zr = stack("Ug", slice(None, 2 * H))
        self.Ug_c = stack("Ug", slice(2 * H, None))
        self.UzrT = transposed(self.Ug_zr)
        self.UcT = transposed(self.Ug_c)
        self.WgT = transposed(self.Wg)
        self.W_inT = transposed(self.W_in)
        self.bg = stack("bg")[:, None, :]
        self.W_out = stack("W_out")
        self.W_outT = transposed(self.W_out)
        self.b_out = stack("b_out")[:, None, :]
        # 0.5 and 1.0 for the step loops, as read-only 0-d arrays of the
        # stack's dtype: a ufunc takes one in about half the time it takes to
        # convert a Python float, and computes with the same value
        self.half_one = np.array(0.5, self.dtype), np.array(1.0, self.dtype)
        for c in self.half_one:
            c.flags.writeable = False


def _check_dtype(sp: StackedNets, **arrays) -> None:
    """Refuse inputs whose dtype differs from the stack's: out= would cast them silently."""
    for name, a in arrays.items():
        if a is not None and a.dtype != sp.dtype:
            raise ValueError(f"{name} is {a.dtype}, the stack computes in {sp.dtype}")


class StackCache:
    """Reusable forward activations for one (T, S, B) signature.

    The step loops read and write one step's block of a sequence array per
    step, and no per-step elementwise operation takes a strided operand:
    strided slices appear only in copies and as matmul operands. The gates
    z, r and the candidate c, which the step loops alone read, are laid out
    (T, S, B, H), so each step's block is one contiguous (S, B, H) array.
    Every other sequence array is (S, T, B, dim), contiguous per stack slot,
    so the whole-sequence products and parameter-gradient contractions read
    it as a plain reshape, and the loops copy one step of it to or from
    contiguous (S, B, dim) scratch. Reusing the cache across updates avoids
    re-touching tens of megabytes of fresh pages every call. The backward
    reads relu_mask, not pre, so it reuses pre for its (S, T, B, H)
    temporaries; nor does it read gx, which the forward reads only inside
    its step loop, so dgx, the gate gradients it writes, is the same array
    as gx.

    The storage also holds the views the loops walk, built with it: the
    halves _zr_z and _zr_r of the [z | r] scratch _zr, and _steps, which
    holds, per step t, the [z | r] and candidate halves of gx[:, t] (the
    input projections the forward reads, and the blocks of dgx the
    backward writes), z[t], r[t], c[t], rh[:, t], h_states[:, t + 1],
    pre[:, t] (the backward's output gradient dh_out) and h_states[:, t].
    The forward walks _steps in order, the backward in reverse.

    A cache built with share=other, a cache of the same signature, has no
    storage of its own: it takes other's sequence arrays and step scratch
    (every array in STORAGE), so passes whose lifetimes do not overlap hold
    one allocation between them. Each cache keeps its own x, nets and
    parameter-gradient flat. The rule: a cache's activations are valid
    until the next forward through any cache that shares its storage.
    backward_stacked refuses a cache whose activations another cache's
    forward has since overwritten.
    """

    STORAGE = ("pre", "relu_mask", "a", "z", "r", "c", "rh", "h_states", "h_out", "gx", "dgx",
               "y", "_gzr", "_gc", "_zr", "_zr_z", "_zr_r", "_rh", "_h", "_h2", "_t1", "_t2",
               "_t3", "_t4", "_t5", "_steps", "_forwards")

    def __init__(self, sp: StackedNets, T: int, B: int, share: "StackCache | None" = None):
        S, H = sp.S, sp.shape.gru_hidden
        self.sig = (sp.shape, T, S, B, sp.dtype)
        self.nets = sp
        self.T, self.S, self.B = T, S, B
        self.x: np.ndarray | None = None  # (S_x, T, B, I) with S_x in {1, S}
        # an (S, P) parameter-gradient flat laid out like GruNet, and named
        # views into it; built by the first backward that needs them
        self.grad_flat: np.ndarray | None = None
        self.grads: dict[str, np.ndarray] | None = None
        self._filled_at = 0  # the storage's forward count that this cache's forward left
        if share is not None:
            if share.sig != self.sig:
                raise ValueError("a cache can share storage only with one of its signature")
            for name in self.STORAGE:
                setattr(self, name, getattr(share, name))
            return

        def empty(*shape):
            return np.empty(shape, dtype=sp.dtype)

        # forwards through any cache on this storage, one slot they all share
        self._forwards = [0]
        self.pre = empty(S, T, B, H)
        self.relu_mask = np.empty((S, T, B, H), dtype=bool)
        self.a = empty(S, T, B, H)
        self.z, self.r, self.c = empty(T, S, B, H), empty(T, S, B, H), empty(T, S, B, H)
        self.rh = empty(S, T, B, H)
        self.h_states = empty(S, T + 1, B, H)  # row 0 is h0
        self.h_out = self.h_states[:, 1:]      # rows 1..T, a view
        self.gx = empty(S, T, B, 3 * H)
        self.dgx = self.gx  # one array (see above)
        self.y = empty(S, T, B, sp.shape.output_dim)
        # step-loop scratch
        self._gzr, self._zr = empty(S, B, 2 * H), empty(S, B, 2 * H)
        self._zr_z, self._zr_r = self._zr[:, :, :H], self._zr[:, :, H:]
        self._gc, self._rh, self._h, self._h2 = (empty(S, B, H) for _ in range(4))
        self._t1, self._t2, self._t3, self._t4, self._t5 = (empty(S, B, H) for _ in range(5))
        # each step's blocks, which the forward walks in order, the backward in reverse
        gx_zr, gx_c = self.gx[..., : 2 * H], self.gx[..., 2 * H :]
        self._steps = [(gx_zr[:, t], gx_c[:, t], self.z[t], self.r[t], self.c[t],
                        self.rh[:, t], self.h_states[:, t + 1], self.pre[:, t],
                        self.h_states[:, t]) for t in range(T)]


def make_cache(sp: StackedNets, T: int, B: int, old: "StackCache | None" = None,
               share: "StackCache | None" = None) -> StackCache:
    """old if it fits (sp, T, B) and uses share's storage, else a new cache on share's."""
    if (old is not None and old.sig == (sp.shape, T, sp.S, B, sp.dtype)
            and (share is None or old.pre is share.pre)):
        old.nets = sp
        return old
    return StackCache(sp, T, B, share)


def input_projection(sp: StackedNets, x, pre, relu_mask, a, gx) -> None:
    """pre = x W_in + b_in, a = relu(pre), gx = a Wg + bg, all (S, N, dim).

    x is (S_x, N, I) with S_x in {1, S}; relu_mask keeps pre > 0 for the
    backward. The ReLU is pre * relu_mask, so a negative pre gives -0.0
    (np.maximum would give +0.0).
    """
    np.matmul(x, sp.W_in, out=pre)
    pre += sp.b_in
    np.greater(pre, 0.0, out=relu_mask)
    np.multiply(pre, relu_mask, out=a)
    np.matmul(a, sp.Wg, out=gx)
    gx += sp.bg


def gru_step(sp: StackedNets, h, gzr, gc, zr, zr_z, zr_r, z, r, rh, c, hn) -> None:
    """One GRU step from h (S, B, H) with input projections gzr (S, B, 2H), gc (S, B, H).

    Every argument but zr_z and zr_r is a contiguous array. Writes h_t into
    hn, and leaves the gates in z and r, r * h in rh and the candidate in
    c, which the backward reads; zr is scratch for the joint [z | r]
    block, and zr_z and zr_r are its halves, zr[:, :, :H] and zr[:, :, H:].
    """
    matmul, add, multiply, tanh = np.matmul, np.add, np.multiply, np.tanh
    half, one = sp.half_one
    matmul(h, sp.Ug_zr, zr)
    add(zr, gzr, zr)
    # sigmoid(v) = (tanh(v/2) + 1) / 2, one fused block for both gates
    multiply(zr, half, zr)
    tanh(zr, zr)
    add(zr, one, zr)
    multiply(zr, half, zr)
    z[...] = zr_z
    r[...] = zr_r
    multiply(r, h, rh)
    matmul(rh, sp.Ug_c, c)
    add(c, gc, c)
    tanh(c, c)
    # h <- h + z * (c - h)
    np.subtract(c, h, hn)
    multiply(hn, z, hn)
    add(hn, h, hn)


def output_projection(sp: StackedNets, h, y) -> None:
    """y = h W_out + b_out for h (S, N, H) into y (S, N, output_dim)."""
    np.matmul(h, sp.W_out, out=y)
    y += sp.b_out


def forward_stacked(sp: StackedNets, x: np.ndarray, h0: np.ndarray | None = None,
                    cache: StackCache | None = None, share: StackCache | None = None):
    """Run S stacked nets over x = (S_x, T, B, input_dim), S_x in {1, S}.

    A shared input (S_x = 1) broadcasts across the stack without copying.
    x and h0 must have the stack's dtype. Returns (y (S, T, B, out),
    h_T (S, B, H), cache); passing cache reuses its buffers when the
    signature matches. With share, the returned cache keeps its activations
    in share's storage (see StackCache), and y is a view into it.
    """
    S_x, T, B, I = x.shape
    S = sp.S
    if S_x not in (1, S) or I != sp.shape.input_dim or T < 1:
        raise ValueError(
            f"input shape {x.shape} does not match stack (S={sp.S}, in={sp.shape.input_dim})"
        )
    _check_dtype(sp, x=x, h0=h0)
    H = sp.shape.gru_hidden
    ws = make_cache(sp, T, B, cache, share)
    ws.x = x
    ws._forwards[0] += 1
    ws._filled_at = ws._forwards[0]

    # input-side projections for the whole sequence, flattened over (T, B)
    N = T * B
    x_flat = np.ascontiguousarray(x).reshape(S_x, N, I)
    input_projection(sp, x_flat, ws.pre.reshape(S, N, H), ws.relu_mask.reshape(S, N, H),
                     ws.a.reshape(S, N, H), ws.gx.reshape(S, N, 3 * H))

    h = ws._h
    if h0 is None:
        h[:] = 0.0
    else:
        h[:] = h0.reshape(S, B, H)
    ws.h_states[:, 0] = h
    gzr, gc, zr, rh, hn = ws._gzr, ws._gc, ws._zr, ws._rh, ws._h2
    zr_z, zr_r = ws._zr_z, ws._zr_r
    for gx_zr, gx_c, z, r, c, rh_t, h_t, _, _ in ws._steps:
        gzr[...] = gx_zr
        gc[...] = gx_c
        gru_step(sp, h, gzr, gc, zr, zr_z, zr_r, z, r, rh, c, hn)
        rh_t[...] = rh
        h_t[...] = hn
        h, hn = hn, h
    output_projection(sp, ws.h_out.reshape(S, N, H), ws.y.reshape(S, N, sp.shape.output_dim))
    return ws.y, h.copy(), ws


class ActCell:
    """One float64 net stepped one input at a time, forward only: acting.

    step(x, h) advances B independent rows at once. The rows ride on the
    stack axis, so each operand is (B, 1, dim) against the (1, dim, dim')
    weights, and numpy's matmul makes for each row the call that
    forward_stacked over S = T = B = 1 makes: each row's outputs are
    bitwise those of that pass. The cell keeps no activations for a
    backward: its scratch holds one step of B rows and is rebuilt, with
    the halves of it the step reads, when B changes. It reads x and h where
    they are and copies only the two halves of the input projection into
    contiguous scratch, as forward_stacked's loop does.
    """

    def __init__(self, net: GruNet):
        self.nets = StackedNets([net])
        self._rows = 0

    def _build(self, B: int) -> None:
        sp = self.nets
        H = sp.shape.gru_hidden

        def empty(n, dtype=np.float64):
            return np.empty((B, 1, n), dtype=dtype)

        self._pre, self._mask, self._a = empty(H), empty(H, bool), empty(H)
        self._gx, self._gzr, self._gc = empty(3 * H), empty(2 * H), empty(H)
        self._gx_zr, self._gx_c = self._gx[:, :, : 2 * H], self._gx[:, :, 2 * H :]
        self._zr, self._z, self._r, self._rh, self._c = (
            empty(2 * H), empty(H), empty(H), empty(H), empty(H))
        self._zr_z, self._zr_r = self._zr[:, :, :H], self._zr[:, :, H:]
        self._y = empty(sp.shape.output_dim)
        self._rows = B

    def step(self, x: np.ndarray, h: np.ndarray):
        """(y, h_next) from inputs x (B, 1, I) and states h (B, 1, H), float64.

        h_next is a new array, so a caller may keep it; y is the cell's
        scratch, which the next step overwrites.
        """
        if x.shape[0] != self._rows:
            self._build(x.shape[0])
        sp = self.nets
        input_projection(sp, x, self._pre, self._mask, self._a, self._gx)
        self._gzr[...] = self._gx_zr
        self._gc[...] = self._gx_c
        h_next = np.empty_like(self._c)
        gru_step(sp, h, self._gzr, self._gc, self._zr, self._zr_z, self._zr_r, self._z, self._r,
                 self._rh, self._c, h_next)
        output_projection(sp, h_next, self._y)
        return self._y, h_next


def backward_stacked(cache: StackCache, dy: np.ndarray, dh_final: np.ndarray | None = None,
                     need_param_grads: bool = True):
    """Reverse-mode through forward_stacked.

    dy is (S, T, B, output_dim); dy and dh_final must have the stack's
    dtype. Returns (param_grads dict of stacked arrays or None,
    dx (S, T, B, input_dim), dh0 (S, B, H)), all in that dtype. The
    parameter gradients are views into the cache's own (S, P) flat,
    cache.grad_flat, which the next backward through this cache overwrites.
    A cache whose nets were released (set to None) after its pass is
    refused until a forward sets them again.
    """
    sp = cache.nets
    if cache.x is None:
        raise ValueError("cache has not been through a forward pass")
    if sp is None:
        raise ValueError("cache's stack was released after its pass (SacAgent.update does "
                         "so); run a forward through the cache first")
    if cache._filled_at != cache._forwards[0]:
        raise ValueError("cache's activations were overwritten by a forward through "
                         "a cache that shares its storage")
    T, S, B, H = cache.T, cache.S, cache.B, sp.shape.gru_hidden
    O = sp.shape.output_dim
    if dy.shape != (S, T, B, O):
        raise ValueError(f"dy shape {dy.shape} does not match outputs {(S, T, B, O)}")
    _check_dtype(sp, dy=dy, dh_final=dh_final)

    dy_flat = np.ascontiguousarray(dy).reshape(S, T * B, O)
    dh_out = cache.pre
    np.matmul(dy_flat, sp.W_outT, out=dh_out.reshape(S, T * B, H))
    dgx = cache.dgx
    dh = cache._h
    if dh_final is None:
        dh[:] = 0.0
    else:
        dh[:] = dh_final.reshape(S, B, H)
    dh_prev = cache._h2
    buf_zr, dh_t, h_prev, drh = cache._zr, cache._gc, cache._t1, cache._rh
    tmp, dsc, dz, dr = cache._t2, cache._t3, cache._t4, cache._t5
    buf_z, buf_r = cache._zr_z, cache._zr_r
    matmul, add, subtract, multiply = np.matmul, np.add, np.subtract, np.multiply
    UcT, UzrT = sp.UcT, sp.UzrT
    one = sp.half_one[1]
    for dgx_zr, dgx_c, z, r, c, _, _, dh_out_t, h_prev_t in reversed(cache._steps):
        dh_t[...] = dh_out_t
        h_prev[...] = h_prev_t
        add(dh, dh_t, dh)
        subtract(c, h_prev, dz)
        multiply(dz, dh, dz)
        # dsc = dh * z * (1 - c^2) into the candidate block of dgx
        multiply(c, c, tmp)
        subtract(one, tmp, tmp)
        multiply(dh, z, dsc)
        multiply(dsc, tmp, dsc)
        dgx_c[...] = dsc
        matmul(dsc, UcT, drh)
        multiply(drh, h_prev, dr)
        # dh_prev = dh*(1-z) + drh*r, and each gate's sigmoid derivative
        # upstream * (1 - g) * g
        subtract(one, z, tmp)
        multiply(dh, tmp, dh_prev)
        multiply(tmp, z, tmp)
        multiply(dz, tmp, dz)
        multiply(drh, r, tmp)
        add(dh_prev, tmp, dh_prev)
        subtract(one, r, tmp)
        multiply(tmp, r, tmp)
        multiply(dr, tmp, dr)
        buf_z[...] = dz
        buf_r[...] = dr
        dgx_zr[...] = buf_zr
        matmul(buf_zr, UzrT, tmp)
        add(dh_prev, tmp, dh_prev)
        dh, dh_prev = dh_prev, dh
    dh0 = dh.copy()

    dgx_flat = dgx.reshape(S, T * B, 3 * H)
    dpre = cache.pre  # dh_out is spent
    np.matmul(dgx_flat, sp.WgT, out=dpre.reshape(S, T * B, H))
    dpre *= cache.relu_mask
    dx = (dpre.reshape(S, T * B, H) @ sp.W_inT).reshape(S, T, B, sp.shape.input_dim)

    grads = None
    if need_param_grads:
        I = sp.shape.input_dim
        S_x = cache.x.shape[0]
        f_x = np.ascontiguousarray(cache.x).reshape(S_x, T * B, I)
        f_a = cache.a.reshape(S, T * B, H)
        f_h = cache.h_out.reshape(S, T * B, H)
        f_hprev = cache.h_states[:, :T].reshape(S, T * B, H)
        f_rh = cache.rh.reshape(S, T * B, H)
        f_dpre = dpre.reshape(S, T * B, H)
        if cache.grads is None:
            offsets, size = _layout(sp.shape)
            cache.grad_flat = np.empty((S, size), dtype=sp.dtype)
            cache.grads = _views(offsets, cache.grad_flat)
        grads = cache.grads
        np.matmul(f_x.transpose(0, 2, 1), f_dpre, out=grads["W_in"])
        np.sum(f_dpre, axis=1, out=grads["b_in"])
        np.matmul(f_a.transpose(0, 2, 1), dgx_flat, out=grads["Wg"])
        np.sum(dgx_flat, axis=1, out=grads["bg"])
        g_Ug = grads["Ug"]
        np.matmul(f_hprev.transpose(0, 2, 1), dgx_flat[:, :, : 2 * H], out=g_Ug[:, :, : 2 * H])
        np.matmul(f_rh.transpose(0, 2, 1), dgx_flat[:, :, 2 * H :], out=g_Ug[:, :, 2 * H :])
        np.matmul(f_h.transpose(0, 2, 1), dy_flat, out=grads["W_out"])
        np.sum(dy_flat, axis=1, out=grads["b_out"])
    return grads, dx, dh0


def grads_to_flat(flat: np.ndarray, s: int, out: np.ndarray | None = None) -> np.ndarray:
    """Row s of an (S, P) gradient flat (a StackCache's grad_flat) as float64.

    The vector is out (float64, of length P) when given, else a new one.
    """
    if out is None:
        return flat[s].astype(np.float64)
    np.copyto(out, flat[s])
    return out


# -- optimizer ---------------------------------------------------------------


# Length of the slices the optimizer walks a flat vector in: each step of
# a slice works on arrays of at most BLOCK float64 (256 kB), so Adam and the
# Polyak blend write into SCRATCH instead of allocating parameter-sized
# temporaries, and their working set stays in cache. The package runs no
# threads and neither user calls the other, so one scratch serves both.
BLOCK = 32_768
SCRATCH = np.empty((2, BLOCK))


def blocks(n: int):
    """Consecutive slices of at most BLOCK elements covering range(n)."""
    return (slice(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK))


@dataclass
class AdamState:
    """Bias-corrected Adam moments for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    skipped: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float = 3e-4) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


def adam_update(params: np.ndarray, grads: np.ndarray, state: AdamState):
    """One Adam step, in place; non-finite gradients are counted and skipped.

    The step runs block by block through SCRATCH, with the
    same operations in the same order as the whole-vector form

        m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g^2
        p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    so the result is bitwise identical to it.
    """
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ValueError("parameter/gradient/moment shapes do not match")
    spans = list(blocks(params.size))
    if not all(np.isfinite(grads[sl]).all() for sl in spans):
        state.skipped += 1
        state.t += 1
        return params, state
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    for sl in spans:
        m, v, g, p = state.m[sl], state.v[sl], grads[sl], params[sl]
        mhat, vhat = SCRATCH[:, : p.size]
        m *= b1
        np.multiply(1.0 - b1, g, out=mhat)
        m += mhat
        v *= b2
        np.multiply(g, g, out=vhat)
        np.multiply(1.0 - b2, vhat, out=vhat)
        v += vhat
        np.divide(m, c1, out=mhat)
        np.divide(v, c2, out=vhat)
        np.sqrt(vhat, out=vhat)
        vhat += state.eps
        mhat /= vhat
        mhat *= state.lr
        p -= mhat
    return params, state


# -- squashed-Gaussian head ---------------------------------------------------


def split_head(outputs: np.ndarray):
    """Split raw head outputs into (mu, log_sd clipped, clip mask)."""
    A = outputs.shape[-1] // 2
    mu = outputs[..., :A]
    raw = outputs[..., A:]
    log_sd = np.clip(raw, LOG_SD_MIN, LOG_SD_MAX)
    mask = (raw > LOG_SD_MIN) & (raw < LOG_SD_MAX)
    return mu, log_sd, mask


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def log1m_tanh_sq(u):
    """log(1 - tanh(u)^2), stable for large |u|."""
    return 2.0 * (math.log(2.0) - u - _softplus(-2.0 * u))


def squash_sample(mu, log_sd, noise, center, half):
    """Reparameterized sample of the tanh-squashed Gaussian on a box.

    action = center + half * tanh(mu + sd * noise); log_prob includes the
    change-of-variables correction. Returns (action, log_prob, u) with
    log_prob summed over action dimensions.
    """
    sd = np.exp(log_sd)
    u = mu + sd * noise
    th = np.tanh(u)
    action = center + half * th
    log_prob = (
        -0.5 * noise * noise - log_sd - _HALF_LOG_2PI
        - np.log(half) - log1m_tanh_sq(u)
    ).sum(axis=-1)
    return action, log_prob, u


def squash_mean(mu, center, half):
    """Deterministic (evaluation) action: the squashed mean."""
    return center + half * np.tanh(mu)


def log_prob_grads(noise, u, sd):
    """d log_prob / d mu and d log_prob / d log_sd under reparameterization.

    With u = mu + sd * noise and noise held fixed, the Gaussian term loses
    its mu dependence and only the tanh correction varies:
        d/d mu     = 2 tanh(u)
        d/d log_sd = -1 + 2 tanh(u) * sd * noise
    """
    th = np.tanh(u)
    dmu = 2.0 * th
    dlog_sd = -1.0 + 2.0 * th * sd * noise
    return dmu, dlog_sd


def action_grads(noise, u, sd, half):
    """d action / d mu and d action / d log_sd under reparameterization."""
    sech2 = 1.0 - np.tanh(u) ** 2
    dmu = half * sech2
    dlog_sd = half * sech2 * sd * noise
    return dmu, dlog_sd
