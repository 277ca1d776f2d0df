import math
import tracemalloc

import numpy as np
import pytest

from musclerl.nets import (
    BLOCK,
    ActCell,
    AdamState,
    GruNet,
    NetworkShape,
    StackedNets,
    action_grads,
    adam_update,
    backward_stacked,
    forward_stacked,
    grads_to_flat,
    init_params,
    log_prob_grads,
    split_head,
    squash_mean,
    squash_sample,
)
from musclerl.randomize import SeededRng
from reference import backward, forward, stacked_backward, stacked_forward


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_zero_params_give_zero_outputs():
    shape = NetworkShape(input_dim=4, gru_hidden=8, output_dim=3)
    net = GruNet(shape)
    x = np.random.default_rng(0).normal(size=(5, 2, 4))
    y, hT, _ = forward(net, x)
    assert np.all(y == 0.0)
    assert np.all(hT == 0.0)


def test_forward_is_pure():
    shape = NetworkShape(input_dim=3, gru_hidden=6, output_dim=2)
    net = init_params(shape, SeededRng(1))
    x = np.random.default_rng(1).normal(size=(7, 3, 3))
    h0 = np.random.default_rng(2).normal(size=(3, 6))
    y1, h1, _ = forward(net, x, h0)
    y2, h2, _ = forward(net, x, h0)
    assert np.array_equal(y1, y2)
    assert np.array_equal(h1, h2)


def test_hidden_state_continuity():
    shape = NetworkShape(input_dim=5, gru_hidden=9, output_dim=2)
    net = init_params(shape, SeededRng(3))
    x = np.random.default_rng(3).normal(size=(10, 2, 5))
    y_full, h_full, _ = forward(net, x)
    for split in (1, 4, 9):
        y_a, h_a, _ = forward(net, x[:split])
        y_b, h_b, _ = forward(net, x[split:], h_a)
        assert np.array_equal(np.concatenate([y_a, y_b]), y_full)
        assert np.array_equal(h_b, h_full)


def manual_gru_step(net, x_row, h_row):
    """Independent single-step oracle, written directly from the update rules."""
    H = net.shape.gru_hidden
    a = np.maximum(x_row @ net.v["W_in"] + net.v["b_in"], 0.0)
    z = sigmoid(a @ net.v["Wg"][:, :H] + h_row @ net.v["Ug"][:, :H] + net.v["bg"][:H])
    r = sigmoid(a @ net.v["Wg"][:, H:2 * H] + h_row @ net.v["Ug"][:, H:2 * H] + net.v["bg"][H:2 * H])
    c = np.tanh(a @ net.v["Wg"][:, 2 * H:] + (r * h_row) @ net.v["Ug"][:, 2 * H:] + net.v["bg"][2 * H:])
    h = (1.0 - z) * h_row + z * c
    return h @ net.v["W_out"] + net.v["b_out"], h


def test_single_step_matches_manual_oracle():
    shape = NetworkShape(input_dim=4, gru_hidden=7, output_dim=3)
    net = init_params(shape, SeededRng(11))
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1, 1, 4))
    h0 = rng.normal(size=(1, 7))
    y, hT, _ = forward(net, x, h0)
    y_ref, h_ref = manual_gru_step(net, x[0, 0], h0[0])
    assert np.allclose(y[0, 0], y_ref, rtol=0, atol=1e-12)
    assert np.allclose(hT[0], h_ref, rtol=0, atol=1e-12)


def test_saturated_update_gate_is_feedforward():
    # bias the update gate hard positive: h_t == candidate, ignoring h0
    shape = NetworkShape(input_dim=4, gru_hidden=6, output_dim=2)
    net = init_params(shape, SeededRng(12))
    H = 6
    net.v["Ug"][:, :H] = 0.0
    net.v["bg"][:H] = 60.0  # sigmoid(60) == 1 to double precision
    rng = np.random.default_rng(12)
    x = rng.normal(size=(1, 2, 4))
    h0 = rng.normal(size=(2, H))
    _, hT, _ = forward(net, x, h0)
    a = np.maximum(x[0] @ net.v["W_in"] + net.v["b_in"], 0.0)
    r = sigmoid(a @ net.v["Wg"][:, H:2 * H] + h0 @ net.v["Ug"][:, H:2 * H] + net.v["bg"][H:2 * H])
    c = np.tanh(a @ net.v["Wg"][:, 2 * H:] + (r * h0) @ net.v["Ug"][:, 2 * H:] + net.v["bg"][2 * H:])
    assert np.allclose(hT, c, rtol=0, atol=1e-12)


def _loss_and_grads(net, x, h0, dy):
    y, _, cache = forward(net, x, h0)
    loss = float(np.sum(y * dy))
    grads, dx, dh0 = backward(cache, dy)
    return loss, grads, dx, dh0


def _central_diff(f, vec, h=1e-5):
    out = np.empty_like(vec)
    for i in range(vec.size):
        orig = vec.flat[i]
        vec.flat[i] = orig + h
        fp = f()
        vec.flat[i] = orig - h
        fm = f()
        vec.flat[i] = orig
        out.flat[i] = (fp - fm) / (2 * h)
    return out


@pytest.mark.parametrize("T", [1, 3, 10])
def test_gradients_match_central_differences(T):
    shape = NetworkShape(input_dim=6, gru_hidden=8, output_dim=2)
    net = init_params(shape, SeededRng(100 + T))
    rng = np.random.default_rng(100 + T)
    x = rng.normal(size=(T, 2, 6))
    h0 = rng.normal(size=(2, 8)) * 0.5
    dy = rng.normal(size=(T, 2, 2))

    loss, grads, dx, dh0 = _loss_and_grads(net, x, h0, dy)

    def f():
        y, _, _ = forward(net, x, h0)
        return float(np.sum(y * dy))

    num = _central_diff(f, net.flat)
    rel = np.abs(grads - num) / np.maximum(np.abs(num), 1e-6)
    assert rel.max() < 1e-5

    num_dx = _central_diff(f, x)
    rel = np.abs(dx - num_dx) / np.maximum(np.abs(num_dx), 1e-6)
    assert rel.max() < 1e-5

    num_dh0 = _central_diff(f, h0)
    rel = np.abs(dh0 - num_dh0) / np.maximum(np.abs(num_dh0), 1e-6)
    assert rel.max() < 1e-5


def test_gradient_check_tight_tolerance_T5():
    shape = NetworkShape(input_dim=6, gru_hidden=8, output_dim=2)
    net = init_params(shape, SeededRng(55))
    rng = np.random.default_rng(55)
    x = rng.normal(size=(5, 2, 6))
    h0 = rng.normal(size=(2, 8)) * 0.5
    dy = rng.normal(size=(5, 2, 2))
    _, grads, _, _ = _loss_and_grads(net, x, h0, dy)

    def f():
        y, _, _ = forward(net, x, h0)
        return float(np.sum(y * dy))

    num = _central_diff(f, net.flat)
    rel = np.abs(grads - num) / np.maximum(np.abs(num), 1e-4)
    assert rel.max() < 1e-6


def test_dead_relu_blocks_input_layer_gradient():
    shape = NetworkShape(input_dim=4, gru_hidden=6, output_dim=2)
    net = init_params(shape, SeededRng(9))
    net.v["b_in"][:] = -100.0  # all preactivations negative for unit inputs
    x = np.abs(np.random.default_rng(9).normal(size=(5, 2, 4)))
    y, _, cache = forward(net, x)
    grads, dx, _ = backward(cache, np.ones_like(y))
    g = GruNet(shape, grads)
    assert np.all(g.v["W_in"] == 0.0)
    assert np.all(g.v["b_in"] == 0.0)
    assert np.all(dx == 0.0)


def test_linear_head_weight_gradient_is_summed_hidden():
    shape = NetworkShape(input_dim=3, gru_hidden=5, output_dim=2)
    net = init_params(shape, SeededRng(10))
    x = np.random.default_rng(10).normal(size=(6, 2, 3))
    y, _, cache = forward(net, x)
    grads, _, _ = backward(cache, np.ones_like(y))
    g = GruNet(shape, grads)
    summed = cache.h_states[0, 1:].reshape(-1, 5).sum(axis=0)
    for j in range(2):
        assert np.allclose(g.v["W_out"][:, j], summed, rtol=0, atol=1e-12)
    assert np.allclose(g.v["b_out"], [12.0, 12.0])


def test_adam_zero_gradient_keeps_params():
    p = np.array([1.0, -2.0, 3.0])
    st = AdamState.for_params(p, lr=1e-3)
    p2, st = adam_update(p, np.zeros(3), st)
    assert np.array_equal(p2, [1.0, -2.0, 3.0])
    assert st.t == 1


def test_adam_first_step_magnitude():
    p = np.array([0.0])
    st = AdamState.for_params(p, lr=3e-4)
    p, st = adam_update(p, np.array([1.0]), st)
    assert p[0] == pytest.approx(-3e-4 / (1.0 + 1e-8), rel=1e-12)


def test_adam_is_deterministic():
    def run():
        p = np.linspace(-1, 1, 11)
        st = AdamState.for_params(p)
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = rng.normal(size=11)
            p, st = adam_update(p, g, st)
        return p

    assert np.array_equal(run(), run())


def test_adam_skips_nonfinite_gradients():
    p = np.array([1.0, 2.0])
    st = AdamState.for_params(p)
    g = np.array([np.nan, 0.0])
    p2, st = adam_update(p, g, st)
    assert np.array_equal(p2, [1.0, 2.0])
    assert st.skipped == 1


def reference_adam(params, grads, m, v, t, lr=3e-4, b1=0.9, b2=0.999, eps=1e-8):
    """The whole-vector Adam step, long hand: one parameter-sized temporary per line."""
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * (grads * grads)
    mhat = m / (1.0 - b1 ** t)
    vhat = v / (1.0 - b2 ** t)
    np.sqrt(vhat, out=vhat)
    vhat += eps
    mhat /= vhat
    mhat *= lr
    params -= mhat


def test_blockwise_adam_matches_whole_vector_oracle():
    # 2.5 blocks plus a tail, so full blocks, a half block and a ragged end
    n = 5 * BLOCK // 2 + 37
    rng = np.random.default_rng(21)
    p = rng.normal(size=n)
    ref_p, ref_m, ref_v = p.copy(), np.zeros(n), np.zeros(n)
    st = AdamState.for_params(p, lr=1e-3)
    for t in range(1, 6):
        g = rng.normal(scale=10.0 ** rng.uniform(-6, 2, size=n))
        adam_update(p, g, st)
        reference_adam(ref_p, g, ref_m, ref_v, t, lr=1e-3)
        assert st.t == t
        assert np.array_equal(p, ref_p) and np.array_equal(st.m, ref_m)
        assert np.array_equal(st.v, ref_v)


def test_adam_nonfinite_gradient_leaves_params_and_moments_untouched():
    n = 2 * BLOCK + 5
    rng = np.random.default_rng(22)
    p = rng.normal(size=n)
    st = AdamState.for_params(p)
    adam_update(p, rng.normal(size=n), st)
    before = (p.copy(), st.m.copy(), st.v.copy())
    for bad in (np.inf, -np.inf, np.nan):
        g = rng.normal(size=n)
        g[-1] = bad  # in the last block, after the first blocks would have been stepped
        adam_update(p, g, st)
        assert all(np.array_equal(a, b) for a, b in zip((p, st.m, st.v), before))
    assert st.skipped == 3 and st.t == 4


def test_adam_update_allocates_under_one_block():
    p = np.random.default_rng(23).normal(size=100_000)
    g = np.ones_like(p)
    st = AdamState.for_params(p)
    tracemalloc.start()
    try:
        adam_update(p, g, st)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < BLOCK * 8, peak


def test_param_count_matches_views():
    shape = NetworkShape(input_dim=6, gru_hidden=16, output_dim=4)
    net = init_params(shape, SeededRng(0))
    total = sum(v.size for v in net.v.values())
    assert total == GruNet(shape).size == net.flat.size


def test_squashed_head_degenerate_sd_is_deterministic():
    mu = np.array([0.3, -1.2])
    log_sd = np.full(2, -20.0)
    noise = np.array([5.0, -7.0])  # huge noise, but sd ~ 2e-9
    action, _, _ = squash_sample(mu, log_sd, noise, center=0.0, half=10.0)
    assert np.allclose(action, 10.0 * np.tanh(mu), atol=1e-6)
    assert np.array_equal(squash_mean(mu, 0.0, 10.0), 10.0 * np.tanh(mu))


def test_squashed_actions_stay_in_box():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        mu = rng.normal(scale=5.0, size=3)
        log_sd = rng.uniform(-3, 2, size=3)
        noise = rng.normal(size=3)
        a, _, _ = squash_sample(mu, log_sd, noise, center=5.0, half=5.0)
        assert np.all(a >= 0.0) and np.all(a <= 10.0)


def test_log_prob_matches_cdf_derivative_oracle():
    # 1-D: density of action = center + half*tanh(mu + sd*n) via the exact
    # Gaussian CDF, differentiated numerically.
    from math import erf, sqrt

    mu, log_sd = 0.4, -0.3
    sd = math.exp(log_sd)
    center, half = 0.0, 10.0

    def cdf(a):
        u = np.arctanh((a - center) / half)
        return 0.5 * (1.0 + erf((u - mu) / (sd * sqrt(2.0))))

    for noise in (-1.5, -0.2, 0.0, 0.7, 2.1):
        a, lp, _ = squash_sample(np.array([mu]), np.array([log_sd]), np.array([noise]), center, half)
        eps = 1e-6
        density = (cdf(a[0] + eps) - cdf(a[0] - eps)) / (2 * eps)
        assert lp == pytest.approx(math.log(density), abs=1e-4)


def test_squashed_density_integrates_to_one():
    mu, log_sd = -0.8, 0.2
    center, half = 5.0, 5.0
    sd = math.exp(log_sd)
    grid = np.linspace(center - half + 1e-9, center + half - 1e-9, 400001)
    u = np.arctanh((grid - center) / half)
    noise = (u - mu) / sd
    log_p = (
        -0.5 * noise**2 - log_sd - 0.5 * math.log(2 * math.pi)
        - math.log(half) - np.log(1.0 - np.tanh(u) ** 2)
    )
    integral = np.trapezoid(np.exp(log_p), grid)
    assert integral == pytest.approx(1.0, abs=1e-4)


def test_head_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(50):
        mu = rng.normal(size=2)
        log_sd = rng.uniform(-2, 1, size=2)
        noise = rng.normal(size=2)
        half = np.array([10.0, 10.0])
        sd = np.exp(log_sd)
        u = mu + sd * noise
        dmu, dls = log_prob_grads(noise, u, sd)
        damu, dals = action_grads(noise, u, sd, half)

        def lp(m, ls):
            _, val, _ = squash_sample(m, ls, noise, 0.0, half)
            return val

        def act(m, ls, i):
            a, _, _ = squash_sample(m, ls, noise, 0.0, half)
            return a[i]

        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            assert dmu[i] == pytest.approx((lp(mu + e, log_sd) - lp(mu - e, log_sd)) / (2 * h), abs=1e-5)
            assert dls[i] == pytest.approx((lp(mu, log_sd + e) - lp(mu, log_sd - e)) / (2 * h), abs=1e-5)
            assert damu[i] == pytest.approx((act(mu + e, log_sd, i) - act(mu - e, log_sd, i)) / (2 * h), abs=1e-5)
            assert dals[i] == pytest.approx((act(mu, log_sd + e, i) - act(mu, log_sd - e, i)) / (2 * h), abs=1e-5)


def test_split_head_clips_and_masks():
    out = np.array([[0.5, -1.0, -25.0, 3.0]])
    mu, log_sd, mask = split_head(out)
    assert np.array_equal(mu, [[0.5, -1.0]])
    assert np.array_equal(log_sd, [[-20.0, 2.0]])
    assert np.array_equal(mask, [[False, False]])


def test_shape_validation():
    with pytest.raises(ValueError):
        NetworkShape(input_dim=0, gru_hidden=4, output_dim=1)
    shape = NetworkShape(input_dim=2, gru_hidden=3, output_dim=1)
    net = init_params(shape, SeededRng(0))
    with pytest.raises(ValueError):
        forward(net, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        forward(net, np.zeros((3, 2, 5)))


@pytest.mark.parametrize("H", [16, 64])
@pytest.mark.parametrize("S", [1, 2])
def test_float32_passes_track_float64(S, H):
    # the update's pass shapes: S=1 is the wrist actor (6 -> 6), S=2 the twin
    # critics (obs + action = 9 -> 1), over T=41 steps of a 20-episode batch;
    # every output and gradient within a relative norm error of 1e-5
    T, B = 41, 20
    shape = NetworkShape(6, H, 6) if S == 1 else NetworkShape(9, H, 1)
    nets = [init_params(shape, SeededRng(10 + s)) for s in range(S)]
    rng = np.random.default_rng(S * 100 + H)
    x = rng.normal(size=(S, T, B, shape.input_dim))
    h0 = rng.normal(scale=0.5, size=(S, B, H))
    dy = rng.normal(size=(S, T, B, shape.output_dim))
    dh_final = rng.normal(size=(S, B, H))
    out = {}
    for dt in (np.float64, np.float32):
        sp = StackedNets(nets, dtype=dt)
        y, h_T, cache = forward_stacked(sp, x.astype(dt), h0.astype(dt))
        grads, dx, dh0 = backward_stacked(cache, dy.astype(dt), dh_final.astype(dt))
        out[dt] = {"y": y, "h_T": h_T, "dx": dx, "dh0": dh0, **grads}
        assert all(a.dtype == dt for a in out[dt].values())
    for name, ref in out[np.float64].items():
        err = np.linalg.norm(out[np.float32][name] - ref) / np.linalg.norm(ref)
        assert err <= 1e-5, (name, err)


def test_stacked_passes_refuse_another_dtype():
    shape = NetworkShape(input_dim=3, gru_hidden=4, output_dim=2)
    sp = StackedNets([init_params(shape, SeededRng(0))], dtype=np.float32)
    x = np.zeros((1, 5, 2, 3), dtype=np.float32)
    dy = np.zeros((1, 5, 2, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="x is float64"):
        forward_stacked(sp, x.astype(np.float64))
    with pytest.raises(ValueError, match="h0 is float64"):
        forward_stacked(sp, x, np.zeros((1, 2, 4)))
    _, _, cache = forward_stacked(sp, x)
    with pytest.raises(ValueError, match="dy is float64"):
        backward_stacked(cache, dy.astype(np.float64))
    with pytest.raises(ValueError, match="dh_final is float64"):
        backward_stacked(cache, dy, np.zeros((1, 2, 4)))
    grads, _, _ = backward_stacked(cache, dy)
    assert grads["Wg"].dtype == np.float32
    assert grads_to_flat(cache.grad_flat, 0).dtype == np.float64


def test_stacked_weights_start_on_cache_lines():
    # malloc aligns to 16 bytes; every weight array must start on a 64-byte
    # line whatever the process allocated before it
    nets = [init_params(NetworkShape(6, 64, 12), SeededRng(s)) for s in range(2)]
    pads = []
    for dtype in (np.float64, np.float32):
        for n in range(4):
            pads.append(np.empty(n + 1))  # moves malloc's next address
            sp = StackedNets(nets[: n % 2 + 1], dtype=dtype)
            weights = {k: w for k, w in vars(sp).items() if isinstance(w, np.ndarray)}
            assert len(weights) == 13
            for name, w in weights.items():
                assert w.ctypes.data % 64 == 0 and w.dtype == dtype, (name, n)


@pytest.mark.parametrize("S, out_dim, T", [(2, 1, 7), (1, 6, 8)])
def test_stacked_param_grads_match_allocating_oracle(S, out_dim, T):
    # the gradients written into the cache's flat equal, bit for bit, the
    # freshly allocated products and sums they replace, in float32 as in
    # the update; passes without parameter gradients leave the flat unbuilt
    H, B = 16, 5
    shape = NetworkShape(9 if S == 2 else 6, H, out_dim)
    sp = StackedNets([init_params(shape, SeededRng(30 + s)) for s in range(S)],
                     dtype=np.float32)
    rng = np.random.default_rng(31)
    x = rng.normal(size=(1, T, B, shape.input_dim)).astype(np.float32)
    dy = rng.normal(size=(S, T, B, out_dim)).astype(np.float32)
    _, _, cache = forward_stacked(sp, x)
    backward_stacked(cache, dy, need_param_grads=False)
    assert cache.grads is None
    grads, _, _ = backward_stacked(cache, dy)
    flat = cache.grad_flat
    assert flat.shape == (S, GruNet(shape).size) and flat.dtype == np.float32
    assert all(g.base is flat for g in grads.values())

    f_x = x.reshape(1, T * B, -1)
    # dpre is not returned: rebuild it from the cache as backward does
    dgx = cache.dgx.reshape(S, T * B, 3 * H)
    da = (dgx @ sp.WgT).reshape(S, T, B, H)
    da *= cache.relu_mask
    f_dpre = da.reshape(S, T * B, H)
    f_dy = dy.reshape(S, T * B, out_dim)
    f_hprev = np.ascontiguousarray(cache.h_states[:, :T]).reshape(S, T * B, H)
    ref_Ug = np.empty((S, H, 3 * H), dtype=np.float32)
    np.matmul(f_hprev.transpose(0, 2, 1), dgx[:, :, : 2 * H], out=ref_Ug[:, :, : 2 * H])
    np.matmul(cache.rh.reshape(S, T * B, H).transpose(0, 2, 1), dgx[:, :, 2 * H :],
              out=ref_Ug[:, :, 2 * H :])
    ref = {
        "W_in": f_x.transpose(0, 2, 1) @ f_dpre,
        "b_in": f_dpre.sum(axis=1),
        "Wg": cache.a.reshape(S, T * B, H).transpose(0, 2, 1) @ dgx,
        "bg": dgx.sum(axis=1),
        "Ug": ref_Ug,
        "W_out": np.ascontiguousarray(cache.h_states[:, 1:]).reshape(S, T * B, H)
        .transpose(0, 2, 1) @ f_dy,
        "b_out": f_dy.sum(axis=1),
    }
    for name, want in ref.items():
        assert grads[name].dtype == np.float32
        assert np.array_equal(grads[name], want), name
    # a row of the flat, cast, is each gradient of that slot in layout order
    out = np.full(GruNet(shape).size, np.nan)
    for s in range(S):
        assert grads_to_flat(flat, s, out) is out
        assert np.array_equal(out, grads_to_flat(flat, s))
        want = GruNet(shape)
        for name, view in want.v.items():
            view[:] = grads[name][s]
        assert out.dtype == np.float64 and out.tobytes() == want.flat.tobytes()


def _pass_bytes(y, hT, out):
    """The bytes of a stacked pass: outputs, final state, dx, dh0, then each gradient."""
    grads, dx, dh0 = out
    return [y.tobytes(), hT.tobytes(), dx.tobytes(), dh0.tobytes()] + \
           [grads[k].tobytes() for k in sorted(grads)]


def test_caches_sharing_storage_compute_as_private_ones():
    # two S=2 passes of one signature on one storage, as in the update: each
    # pass gives the bytes of the same pass on private storage, and the
    # earlier cache's activations expire with the later forward
    T, B, H = 6, 4, 8
    shape = NetworkShape(9, H, 1)
    stacks = [StackedNets([init_params(shape, SeededRng(40 + 2 * k + s)) for s in range(2)],
                          dtype=np.float32) for k in range(2)]
    rng = np.random.default_rng(41)
    xs = [rng.normal(size=(1, T, B, 9)).astype(np.float32) for _ in range(2)]
    dy = rng.normal(size=(2, T, B, 1)).astype(np.float32)
    private = []
    for sp, x in zip(stacks, xs):
        y, hT, cache = forward_stacked(sp, x)
        private.append(_pass_bytes(y.copy(), hT, backward_stacked(cache, dy)))

    y0, hT0, first = forward_stacked(stacks[0], xs[0])
    y0 = y0.copy()
    _, _, second = forward_stacked(stacks[1], xs[1], share=first)
    assert second is not first and second.pre is first.pre and second.grads is None
    with pytest.raises(ValueError, match="overwritten"):
        backward_stacked(first, dy)
    y1, hT1, second = forward_stacked(stacks[1], xs[1], cache=second, share=first)
    assert _pass_bytes(y1, hT1, backward_stacked(second, dy)) == private[1]
    # the first cache comes back on the same storage and its own gradient flat
    _, _, again = forward_stacked(stacks[0], xs[0], cache=first)
    assert again is first
    assert _pass_bytes(y0, hT0, backward_stacked(first, dy)) == private[0]
    assert first.grads["Wg"].base is not second.grads["Wg"].base

    # caches built without share keep private storage; share must match
    _, _, lone = forward_stacked(stacks[0], xs[0])
    assert lone.pre is not first.pre
    with pytest.raises(ValueError, match="signature"):
        forward_stacked(stacks[0], xs[0][:, :3], share=first)


@pytest.mark.parametrize("T", [1, 7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("S", [1, 2])
def test_stacked_passes_give_the_reference_loops_bytes(S, dtype, T):
    # the step-major gate layout changes which arrays the loops read, not
    # one operation: outputs, every gradient, dx and dh0 are the bytes of
    # the (S, T, B, dim) reference loops, with or without h0 and dh_final,
    # on private and on shared storage; each step's gate and candidate
    # blocks are contiguous
    H, B = 16, 5
    shape = NetworkShape(7, H, 3)
    sp = StackedNets([init_params(shape, SeededRng(60 + s)) for s in range(S)], dtype=dtype)
    rng = np.random.default_rng(61)
    dy = rng.normal(size=(S, T, B, 3)).astype(dtype)
    _, _, storage = forward_stacked(sp, np.zeros((1, T, B, 7), dtype=dtype))
    # a shared input without initial or final state, then one per slot with both
    for S_x, seeded in ((1, False), (S, True)):
        x = rng.normal(size=(S_x, T, B, 7)).astype(dtype)
        h0 = rng.normal(scale=0.5, size=(S, B, H)).astype(dtype) if seeded else None
        dhf = rng.normal(size=(S, B, H)).astype(dtype) if seeded else None
        y, hT, acts = stacked_forward(sp, x, h0)
        want = _pass_bytes(y, hT, stacked_backward(sp, acts, dy, dhf))
        for share in (None, storage):
            y, hT, cache = forward_stacked(sp, x, h0, share=share)
            assert (cache.pre is storage.pre) == (share is not None)
            assert all(a[t].flags.c_contiguous
                       for a in (cache.z, cache.r, cache.c) for t in range(T))
            assert _pass_bytes(y, hT, backward_stacked(cache, dy, dhf)) == want


@pytest.mark.parametrize("B", [1, 81])
def test_act_cell_rows_give_the_reference_t1_bytes(B):
    shape = NetworkShape(6, 16, 6)
    net = init_params(shape, SeededRng(62))
    sp = StackedNets([net])
    rng = np.random.default_rng(63)
    cell = ActCell(net)
    h = rng.normal(scale=0.5, size=(B, 1, 16))
    for _ in range(2):  # the second step runs on the cell's built scratch
        x = rng.normal(size=(B, 1, 6))
        y, h_next = cell.step(x, h)
        for b in range(B):
            y_ref, h_ref, _ = stacked_forward(sp, x[b][None, None], h[b][None])
            assert y[b].tobytes() == y_ref.tobytes() and h_next[b].tobytes() == h_ref.tobytes()
        h = h_next


def _is_block(view, block):
    """Whether view is block itself: the same memory, start, shape and strides."""
    return (np.shares_memory(view, block) and view.ctypes.data == block.ctypes.data
            and view.shape == block.shape and view.strides == block.strides)


def test_step_views_are_their_storage_blocks():
    # the loops walk per-step views built once per storage: each is its
    # block of the storage, caches sharing the storage hold its lists, a
    # cache re-made for another (T, B) gets its own, and a reused cache's
    # later passes still give the reference loops' bytes
    T, B, H = 5, 3, 8
    shape = NetworkShape(5, H, 2)
    stacks = [StackedNets([init_params(shape, SeededRng(70 + 2 * k + s)) for s in range(2)],
                          dtype=np.float32) for k in range(2)]
    rng = np.random.default_rng(71)
    x = rng.normal(size=(1, T, B, 5)).astype(np.float32)
    _, _, owner = forward_stacked(stacks[0], x)
    assert len(owner._steps) == T
    for t in range(T):
        gx = owner.gx
        blocks = (gx[:, t, :, : 2 * H], gx[:, t, :, 2 * H :], owner.z[t], owner.r[t],
                  owner.c[t], owner.rh[:, t], owner.h_states[:, t + 1], owner.pre[:, t],
                  owner.h_states[:, t])
        assert all(map(_is_block, owner._steps[t], blocks))
    assert owner.dgx is owner.gx  # the backward writes its gate gradients into gx's blocks
    # the [z | r] scratch's halves, which both loops read or write
    assert _is_block(owner._zr_z, owner._zr[:, :, :H])
    assert _is_block(owner._zr_r, owner._zr[:, :, H:])

    _, _, shared = forward_stacked(stacks[1], x, share=owner)
    assert shared._steps is owner._steps
    assert shared._zr_z is owner._zr_z and shared._zr_r is owner._zr_r
    _, _, other = forward_stacked(stacks[0], x[:, :3], cache=owner)
    assert other is not owner and len(other._steps) == 3
    assert _is_block(other._steps[0][2], other.z[0])
    assert not np.shares_memory(other._steps[0][2], owner.z)
    # the loops' constants are read-only 0-d arrays of the stack's dtype
    for const, value in zip(stacks[0].half_one, (0.5, 1.0)):
        assert const.shape == () and const.dtype == np.float32 and const == value
        assert not const.flags.writeable

    dy = rng.normal(size=(2, T, B, 2)).astype(np.float32)
    for _ in range(3):  # each pass after the first runs on the owner's built lists
        x = rng.normal(size=(1, T, B, 5)).astype(np.float32)
        h0, dhf = (rng.normal(size=(2, B, H)).astype(np.float32) for _ in range(2))
        y_ref, hT_ref, acts = stacked_forward(stacks[0], x, h0)
        want = _pass_bytes(y_ref, hT_ref, stacked_backward(stacks[0], acts, dy, dhf))
        y, hT, cache = forward_stacked(stacks[0], x, h0, cache=owner)
        assert cache is owner
        assert _pass_bytes(y, hT, backward_stacked(cache, dy, dhf)) == want

    # the acting cell's input-projection and [z | r] halves are views built with its scratch
    cell = ActCell(init_params(NetworkShape(6, H, 4), SeededRng(72)))
    for rows in (4, 1):
        cell.step(np.zeros((rows, 1, 6)), np.zeros((rows, 1, H)))
        assert _is_block(cell._gx_zr, cell._gx[:, :, : 2 * H])
        assert _is_block(cell._gx_c, cell._gx[:, :, 2 * H :])
        assert _is_block(cell._zr_z, cell._zr[:, :, :H])
        assert _is_block(cell._zr_r, cell._zr[:, :, H:])
