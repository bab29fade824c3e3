"""Minimal dense network with hand-written backprop.

Only what the modem needs: fully connected layers with ReLU between them,
an identity output and plain SGD.  An Mlp is its weight and bias lists
and nothing else: the forward pass returns the layer inputs it saw, the
backward pass takes them back and returns fresh gradients, and the SGD
step applies gradients handed to it, so no call leaves state behind.

forward, backward and sgd_step also run K networks of equal widths at
once, stacked on a leading axis: W[i] of shape (K, n_in, n_out), b[i] of
shape (K, 1, n_out) and inputs of shape (K, rows, n_in).  np.matmul then
runs one product per slice, which with numpy 2.4.6 and OpenBLAS 0.3.31
equals the 2-D product bit for bit, and every other step is elementwise
or a sum over the rows of one slice, so each slice of a stacked call
equals the call on that network alone.

Inference (`Mlp.infer`) is a separate pass that keeps no activations: it
runs the hidden layers over row blocks of INFER_BLOCK_ROWS rows and the
output layer once over the whole batch.  It allocates its working memory
once per call, not per block: each hidden bias tiled to a block's rows,
one block buffer per hidden layer that `np.matmul(h, W, out=buf)` writes
and the bias add and fmax ReLU update in place, and the (n, width)
buffer of the last hidden layer, whose rows each block writes directly.
So a block's activations stay in cache and nothing outlives the call.

Blocking changes no bit where the BLAS rounds a block's rows as it rounds
them in the whole batch.  With numpy 2.4.6 and OpenBLAS 0.3.31, 42 of 252
(n_in, n_out) shapes scanned at 512-row blocks (34 at 2048) do not: narrow
outputs after inputs of 16 or more, such as 16->4 or 32->9.  The shipped
demodulators' hidden layers (2->32, 32->32) are exact, and their 32->2
and 32->1 output layer runs over the whole batch.
"""

import numpy as np

# Rows per block of the inference pass: on 20k-row batches through the
# [2, 32, 32, 32, 2] demodulator at one BLAS thread, 512 rows ran faster
# than 256, 1024, 2048 and 4096
INFER_BLOCK_ROWS = 512


def dense_macs(widths) -> int:
    """Multiply-accumulates per input row through dense layers of these
    widths: one per weight."""
    return sum(n_in * n_out for n_in, n_out in zip(widths[:-1], widths[1:]))


class Mlp:
    """Dense stack with ReLU between layers and identity output.

    W[i] has shape (widths[i], widths[i + 1]) and b[i] shape
    (widths[i + 1],).  With an rng, each layer draws W then b from
    uniform(-1/sqrt(n_in), 1/sqrt(n_in)), layer by layer; without one
    both are zero.
    """

    def __init__(self, widths: list[int], rng: np.random.Generator | None = None):
        if len(widths) < 2:
            raise ValueError("need at least input and output width")
        self.widths = list(widths)
        self.W, self.b = [], []
        for n_in, n_out in zip(widths[:-1], widths[1:]):
            if rng is None:
                self.W.append(np.zeros((n_in, n_out)))
                self.b.append(np.zeros(n_out))
            else:
                bound = 1.0 / np.sqrt(n_in)
                self.W.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
                self.b.append(rng.uniform(-bound, bound, size=n_out))

    def forward(self, x: np.ndarray):
        """(output, acts): acts[i] is the input of layer i, which backward
        needs.  ReLU is np.fmax against 0, in place, which sends NaN to 0."""
        acts = [x]
        for W, b in zip(self.W[:-1], self.b[:-1]):
            x = x @ W
            x += b
            np.fmax(x, 0.0, out=x)
            acts.append(x)
        out = x @ self.W[-1]
        out += self.b[-1]
        return out, acts

    def backward(self, acts, gout: np.ndarray):
        """((gW, gb), g_in): per-layer gradients of the loss whose gradient
        with respect to the output is gout, and the gradient with respect
        to the input, for the pass that returned acts."""
        n = len(self.W)
        gW, gb = [None] * n, [None] * n
        for i in reversed(range(n)):
            if i < n - 1:
                gout = gout * (acts[i + 1] > 0)
            gW[i] = acts[i].swapaxes(-1, -2) @ gout
            gb[i] = gout.sum(axis=-2, keepdims=gout.ndim > 2)
            gout = gout @ self.W[i].swapaxes(-1, -2)
        return (gW, gb), gout

    def sgd_step(self, grads, lr: float):
        """Move every weight and bias against the (gW, gb) gradients."""
        for W, b, gW, gb in zip(self.W, self.b, *grads):
            W -= lr * gW
            b -= lr * gb

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Forward pass for inference, keeping no activations.

        Equal to forward bit for bit wherever the BLAS computes a block's
        rows exactly as it does within the whole batch.  OpenBLAS 0.3.31
        does for the demodulators' 2->32 and 32->32 layers, but not for
        narrow outputs after wide inputs such as 32->2 or 16->4, which then
        move by a few ulps; so the output layer runs unblocked, and an Mlp
        with no hidden layer is one whole-batch product.  The tiled bias
        add rounds exactly as the broadcast one in forward.  A trailing
        partial block joins the one before it, so no block is shorter than
        INFER_BLOCK_ROWS unless it is the whole batch (numpy sends a 1-row
        product down another path).  ReLU is np.fmax against 0, which
        sends NaN to 0, as in forward.
        """
        if len(self.W) == 1:
            out = x @ self.W[0]
            out += self.b[0]
            return out
        n = len(x)
        stops = list(range(INFER_BLOCK_ROWS, n - INFER_BLOCK_ROWS + 1, INFER_BLOCK_ROWS))
        blocks = list(zip([0, *stops], [*stops, n]))
        rows = max(hi - lo for lo, hi in blocks)
        # per call: each hidden bias tiled to a block, and one output buffer
        # per hidden layer but the last, which writes into h_all.  h_all goes
        # first: allocated after the small buffers, it leaves glibc's heap
        # fragmented, and a default sweep --detector both peaks 5 MB higher
        # (58.7-58.9 against 53.7-53.9 MB) and takes 84,000-167,000 minor
        # page faults against 47,000-50,000
        h_all = np.empty((n, self.widths[-2]))
        tiles = [np.tile(b, (rows, 1)) for b in self.b[:-1]]
        bufs = [np.empty((rows, w)) for w in self.widths[1:-2]]
        # ReLU against a zeros block: fmax of two arrays runs faster than
        # against the scalar 0.0, with the same result
        zeros = np.zeros(rows * max(self.widths[1:-1]))
        for lo, hi in blocks:
            h = x[lo:hi]
            for W, tile, buf in zip(self.W[:-1], tiles, [*bufs, h_all[lo:hi]]):
                h = np.matmul(h, W, out=buf[:hi - lo])
                h += tile[:hi - lo]
                np.fmax(h, zeros[:h.size].reshape(h.shape), out=h)
        out = h_all @ self.W[-1]
        out += self.b[-1]
        return out
