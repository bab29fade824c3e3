import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nomalink.nn import INFER_BLOCK_ROWS, Dense, Mlp, Relu
from nomalink.rng import stream_rng

B = INFER_BLOCK_ROWS


def _loss_of(mlp, x, target):
    diff = mlp.forward(x) - target
    return float(np.sum(diff * diff) / len(x))


def test_dense_forward_is_affine():
    layer = Dense(3, 2, stream_rng(0))
    x = stream_rng(1).standard_normal((5, 3))
    assert np.allclose(layer.forward(x), x @ layer.W + layer.b)


def test_relu_masks_negative():
    r = Relu()
    x = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(r.forward(x), [[0.0, 0.0, 2.0]])
    assert np.array_equal(r.backward(np.ones((1, 3))), [[0.0, 0.0, 1.0]])


def test_mlp_gradients_match_finite_differences():
    rng = stream_rng(3)
    mlp = Mlp([2, 5, 4, 3], rng)
    x = rng.standard_normal((6, 2))
    target = rng.standard_normal((6, 3))

    pred = mlp.forward(x)
    g = 2.0 * (pred - target) / len(x)  # gradient of the batch-mean squared error
    mlp.zero_grad()
    g_in = mlp.backward(g)

    for layer in mlp.dense_layers():
        for arr, got in ((layer.W, layer.gW), (layer.b, layer.gb)):
            fd = oracles.fd_gradient(lambda: _loss_of(mlp, x, target), arr)
            assert np.allclose(got, fd, rtol=1e-6, atol=1e-8)
    fd_x = oracles.fd_gradient(lambda: _loss_of(mlp, x, target), x)
    assert np.allclose(g_in, fd_x, rtol=1e-6, atol=1e-8)


def test_gradients_accumulate_until_zero_grad():
    mlp = Mlp([2, 3, 1], stream_rng(4))
    x = np.ones((2, 2))
    g = np.ones((2, 1))
    mlp.forward(x)
    mlp.backward(g)
    once = mlp.dense_layers()[0].gW.copy()
    mlp.forward(x)
    mlp.backward(g)
    assert np.allclose(mlp.dense_layers()[0].gW, 2 * once)
    mlp.zero_grad()
    assert np.all(mlp.dense_layers()[0].gW == 0)


def test_sgd_step_moves_against_gradient():
    layer = Dense(1, 1, stream_rng(5))
    layer.gW[:] = 2.0
    w0 = layer.W.copy()
    layer.sgd_step(0.1)
    assert np.allclose(layer.W, w0 - 0.2)


def test_macs_counts_weights_only():
    mlp = Mlp([2, 32, 32, 32, 2])
    assert mlp.macs == 2 * 32 + 32 * 32 + 32 * 32 + 32 * 2
    assert Dense(7, 3).macs == 21


def test_zero_init_without_rng():
    layer = Dense(4, 4)
    assert np.all(layer.W == 0) and np.all(layer.b == 0)
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
        assert _same_bits(mlp.infer(x), mlp.forward(x))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_out=st.sampled_from([1, 2]),
       nonfinite=st.integers(0, 2),
       n=st.sampled_from([1, B - 1, B, B + 1, 2 * B, 2 * B + 1, 3 * B - 1, 20000]))
def test_infer_equals_forward_bit_for_bit_for_the_demodulators(seed, n_out, nonfinite, n):
    # the shipped architecture [2, 32, 32, 32, out]: the sweep's CSVs rest on this
    mlp = Mlp([2, 32, 32, 32, n_out], stream_rng(seed))
    x = _inputs(seed, n, 2, nonfinite)
    with np.errstate(invalid="ignore"):
        assert _same_bits(mlp.infer(x), mlp.forward(x))


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
        got, want = mlp.infer(x), mlp.forward(x)
    for where in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(where(got), where(want))
    # activations here are O(1); a reordered sum moves them by a few ulps
    fin = np.isfinite(want)
    assert np.allclose(got[fin], want[fin], rtol=1e-12, atol=1e-12)


def test_infer_leaves_training_caches_untouched():
    mlp = Mlp([2, 8, 8, 1], stream_rng(6))
    assert all(l._x is None for l in mlp.dense_layers())
    mlp.infer(np.ones((3 * B, 2)))
    assert all(getattr(l, "_x", None) is None and getattr(l, "_mask", None) is None
               for l in mlp.layers)
    mlp.forward(np.ones((4, 2)))
    cached = [(l.__dict__.get("_x"), l.__dict__.get("_mask")) for l in mlp.layers]
    mlp.infer(stream_rng(7).standard_normal((3 * B, 2)))
    assert all(l.__dict__.get("_x") is x and l.__dict__.get("_mask") is m
               for l, (x, m) in zip(mlp.layers, cached))
