import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nomalink.nn import INFER_BLOCK_ROWS, Mlp, dense_macs
from nomalink.rng import stream_rng

B = INFER_BLOCK_ROWS


def _loss_of(mlp, x, target):
    diff = mlp.forward(x)[0] - target
    return float(np.sum(diff * diff) / len(x))


def test_dense_forward_is_affine():
    mlp = Mlp([3, 2], stream_rng(0))
    x = stream_rng(1).standard_normal((5, 3))
    out, acts = mlp.forward(x)
    assert np.allclose(out, x @ mlp.W[0] + mlp.b[0])
    assert len(acts) == 1 and acts[0] is x


def test_relu_masks_negative():
    # identity layers around one ReLU: forward zeroes what is not > 0, NaN
    # included, and backward passes gradient only where forward kept it
    mlp = Mlp([4, 4, 4])
    for W in mlp.W:
        W[:] = np.eye(4)
    mlp.b[0][3] = np.nan
    x = np.array([[-1.0, 0.0, 2.0, 5.0]])
    out, acts = mlp.forward(x)
    assert np.array_equal(out, [[0.0, 0.0, 2.0, 0.0]])
    (gW, gb), g_in = mlp.backward(acts, np.ones((1, 4)))
    assert np.array_equal(g_in, [[0.0, 0.0, 1.0, 0.0]])
    assert np.array_equal(gb[0], [0.0, 0.0, 1.0, 0.0])


def test_mlp_gradients_match_finite_differences():
    rng = stream_rng(3)
    mlp = Mlp([2, 5, 4, 3], rng)
    x = rng.standard_normal((6, 2))
    target = rng.standard_normal((6, 3))

    pred, acts = mlp.forward(x)
    g = 2.0 * (pred - target) / len(x)  # gradient of the batch-mean squared error
    (gW, gb), g_in = mlp.backward(acts, g)

    for params, grads in ((mlp.W, gW), (mlp.b, gb)):
        assert len(grads) == len(params) == 3
        for arr, got in zip(params, grads):
            fd = oracles.fd_gradient(lambda: _loss_of(mlp, x, target), arr)
            assert np.allclose(got, fd, rtol=1e-6, atol=1e-8)
    fd_x = oracles.fd_gradient(lambda: _loss_of(mlp, x, target), x)
    assert np.allclose(g_in, fd_x, rtol=1e-6, atol=1e-8)


def test_backward_returns_fresh_gradients():
    # nothing accumulates between calls: the same pass gives the same grads
    mlp = Mlp([2, 3, 1], stream_rng(4))
    _, acts = mlp.forward(np.ones((2, 2)))
    g = np.ones((2, 1))
    (gW1, gb1), g_in1 = mlp.backward(acts, g)
    (gW2, gb2), g_in2 = mlp.backward(acts, g)
    for a, b in zip([*gW1, *gb1, g_in1], [*gW2, *gb2, g_in2]):
        assert a is not b and np.array_equal(a, b)
    assert np.array_equal(gW1[0], acts[0].T @ ((g @ mlp.W[1].T) * (acts[1] > 0)))


def test_sgd_step_moves_against_gradient():
    mlp = Mlp([1, 2, 1], stream_rng(5))
    before = [a.copy() for a in (*mlp.W, *mlp.b)]
    grads = ([np.full_like(W, 2.0) for W in mlp.W], [np.full_like(b, -1.0) for b in mlp.b])
    mlp.sgd_step(grads, 0.1)
    assert all(np.allclose(W, w0 - 0.2) for W, w0 in zip(mlp.W, before[:2]))
    assert all(np.allclose(b, b0 + 0.1) for b, b0 in zip(mlp.b, before[2:]))


def test_macs_counts_weights_only():
    mlp = Mlp([2, 32, 32, 32, 2])
    assert dense_macs(mlp.widths) == 2 * 32 + 32 * 32 + 32 * 32 + 32 * 2
    assert dense_macs(Mlp([7, 3]).widths) == 21


def test_zero_init_without_rng():
    mlp = Mlp([4, 4, 2])
    assert [W.shape for W in mlp.W] == [(4, 4), (4, 2)]
    assert [b.shape for b in mlp.b] == [(4,), (2,)]
    assert all(np.all(a == 0) for a in (*mlp.W, *mlp.b))
    with pytest.raises(ValueError):
        Mlp([3])


def _inputs(seed, n, n_in, nonfinite):
    """Standard normal rows; the first rows hold NaN, +inf or -inf entries."""
    x = stream_rng(seed, 1).standard_normal((n, n_in))
    bad = x[:min(n, 3 * nonfinite)]
    bad[0::3, 0] = np.nan
    bad[1::3, -1] = np.inf
    bad[2::3, 0] = -np.inf
    return x


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


hidden_widths = st.lists(st.integers(1, 40), min_size=0, max_size=3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_in=st.integers(1, 4), hidden=hidden_widths,
       n_out=st.integers(1, 3), nonfinite=st.integers(0, 2),
       n=st.sampled_from([0, 1, 2, 7, B - 1, B, B + 1, 2 * B - 1]))
def test_infer_equals_forward_bit_for_bit_within_one_block(seed, n_in, hidden, n_out,
                                                           nonfinite, n):
    # a batch shorter than two blocks is one block, so every product is the
    # one forward computes; only the in-place bias add and fmax ReLU differ
    mlp = Mlp([n_in, *hidden, n_out], stream_rng(seed))
    x = _inputs(seed, n, n_in, nonfinite)
    with np.errstate(invalid="ignore"):
        assert _same_bits(mlp.infer(x), mlp.forward(x)[0])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_out=st.sampled_from([1, 2]),
       nonfinite=st.integers(0, 2),
       n=st.sampled_from([1, B - 1, B, B + 1, 2 * B, 2 * B + 1, 3 * B - 1, 20000]))
def test_infer_equals_forward_bit_for_bit_for_the_demodulators(seed, n_out, nonfinite, n):
    # the shipped architecture [2, 32, 32, 32, out]: the sweep's CSVs rest on this
    mlp = Mlp([2, 32, 32, 32, n_out], stream_rng(seed))
    x = _inputs(seed, n, 2, nonfinite)
    with np.errstate(invalid="ignore"):
        assert _same_bits(mlp.infer(x), mlp.forward(x)[0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_in=st.integers(1, 4), hidden=hidden_widths,
       n_out=st.integers(1, 3), nonfinite=st.integers(0, 2),
       n=st.sampled_from([2 * B, 2 * B + 1, 3 * B + 5, 20000]))
def test_infer_matches_forward_across_blocks_for_any_widths(seed, n_in, hidden, n_out,
                                                            nonfinite, n):
    # the BLAS may pick another kernel for a block than for the whole batch
    # (OpenBLAS 0.3.31 does for some narrow layers, e.g. 16 -> 4), so across
    # blocks the pass is exact only up to rounding for arbitrary widths
    mlp = Mlp([n_in, *hidden, n_out], stream_rng(seed))
    x = _inputs(seed, n, n_in, nonfinite)
    with np.errstate(invalid="ignore"):
        got, want = mlp.infer(x), mlp.forward(x)[0]
    for where in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(where(got), where(want))
    # activations here are O(1); a reordered sum moves them by a few ulps
    fin = np.isfinite(want)
    assert np.allclose(got[fin], want[fin], rtol=1e-12, atol=1e-12)


def test_forward_backward_and_infer_leave_the_mlp_unchanged():
    mlp = Mlp([2, 8, 8, 1], stream_rng(6))
    attrs = dict(vars(mlp))
    values = [a.copy() for a in (*mlp.W, *mlp.b)]
    x = stream_rng(7).standard_normal((4, 2))
    out, acts = mlp.forward(x)
    mlp.backward(acts, np.ones_like(out))
    mlp.infer(stream_rng(8).standard_normal((3 * B, 2)))
    assert vars(mlp).keys() == attrs.keys()
    assert all(vars(mlp)[k] is v for k, v in attrs.items())
    assert mlp.widths == [2, 8, 8, 1] and len(mlp.W) == len(mlp.b) == 3
    assert all(np.array_equal(a, v) for a, v in zip((*mlp.W, *mlp.b), values))


def test_infer_without_hidden_layers_is_one_whole_batch_product():
    mlp = Mlp([3, 2], stream_rng(10))
    x = _inputs(10, 3 * B + 5, 3, 1)
    with np.errstate(invalid="ignore"):
        assert _same_bits(mlp.infer(x), mlp.forward(x)[0])


def test_infer_peak_memory_is_its_outputs_plus_block_buffers():
    # h_all (20000, 32) and out (20000, 2) are the only batch-sized arrays;
    # the bias tiles and block buffers are a few block-sized ones
    mlp = Mlp([2, 32, 32, 32, 2], stream_rng(11))
    x = stream_rng(12).standard_normal((20000, 2))
    tracemalloc.start()
    try:
        mlp.infer(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20000 * 32 * 8 + 20000 * 2 * 8 + 2e6


@pytest.mark.parametrize("widths", [[2, 32, 32, 32, 2], [2, 5, 1], [2, 3]])
def test_infer_returns_fresh_arrays(widths):
    mlp = Mlp(widths, stream_rng(13))
    x = stream_rng(14).standard_normal((2 * B + 3, 2))
    x0 = x.copy()
    a, b = mlp.infer(x), mlp.infer(x)
    assert not np.shares_memory(a, x) and not np.shares_memory(a, b)
    assert _same_bits(a, b)
    a[:] = np.nan
    assert np.array_equal(b, mlp.infer(x)) and np.array_equal(x, x0)


def _stack(nets):
    """One Mlp whose slice k on a leading axis is nets[k]."""
    stacked = Mlp(nets[0].widths)
    stacked.W = [np.stack(ws) for ws in zip(*(net.W for net in nets))]
    stacked.b = [np.stack(bs)[:, None] for bs in zip(*(net.b for net in nets))]
    return stacked


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("widths", [[2, 32, 32, 32], [2, 32, 32, 32, 2], [2, 16, 4],
                                    [3, 5, 1], [2, 7]])
@pytest.mark.parametrize("rows", [1, 4, 9])
def test_stacked_calls_equal_per_slice_calls_bit_for_bit(k, widths, rows):
    # K networks on a leading axis: forward, backward and sgd_step of the
    # stack equal the calls on each network alone, bit for bit
    nets = [Mlp(widths, stream_rng(30, j)) for j in range(k)]
    stacked = _stack(nets)
    x = stream_rng(31).standard_normal((k, rows, widths[0]))
    gout = stream_rng(32).standard_normal((k, rows, widths[-1]))

    out, acts = stacked.forward(x)
    (gW, gb), g_in = stacked.backward(acts, gout)
    assert [g.shape for g in gb] == [b.shape for b in stacked.b]
    stacked.sgd_step((gW, gb), 0.1)
    for j, net in enumerate(nets):
        out_j, acts_j = net.forward(x[j])
        (gW_j, gb_j), g_in_j = net.backward(acts_j, gout[j])
        net.sgd_step((gW_j, gb_j), 0.1)
        pairs = [(out[j], out_j), (g_in[j], g_in_j),
                 *zip((a[j] for a in acts), acts_j),
                 *zip((g[j] for g in gW), gW_j), *zip((g[j, 0] for g in gb), gb_j),
                 *zip((W[j] for W in stacked.W), net.W),
                 *zip((b[j, 0] for b in stacked.b), net.b)]
        assert all(_same_bits(a, b) for a, b in pairs)
