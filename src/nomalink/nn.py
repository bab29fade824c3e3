"""Minimal dense network with hand-written backprop.

Only what the modem needs: fully connected layers with ReLU between them,
an identity output and plain SGD.  An Mlp is its weight and bias lists
and nothing else: the forward pass returns the layer inputs it saw, the
backward pass takes them back and returns fresh gradients, and the SGD
step applies gradients handed to it, so no call leaves state behind.

Inference (`Mlp.infer`) is a separate pass that keeps no activations: it
runs the hidden layers over row blocks of INFER_BLOCK_ROWS rows, each
layer in place (`h = x @ W; h += b; fmax(h, 0)`), so a block's
activations stay in cache, and runs the output layer once over the whole
batch.
"""

import numpy as np

# Rows per block of the inference pass; 512-2048 rows measured about equally
# fast on 20k-row batches through 32-wide layers.
INFER_BLOCK_ROWS = 2048


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
        needs.  ReLU sends NaN to 0."""
        acts = [x]
        for W, b in zip(self.W[:-1], self.b[:-1]):
            z = x @ W + b
            x = np.where(z > 0, z, 0.0)
            acts.append(x)
        return x @ self.W[-1] + self.b[-1], acts

    def backward(self, acts, gout: np.ndarray):
        """((gW, gb), g_in): per-layer gradients of the loss whose gradient
        with respect to the output is gout, and the gradient with respect
        to the input, for the pass that returned acts."""
        n = len(self.W)
        gW, gb = [None] * n, [None] * n
        for i in reversed(range(n)):
            if i < n - 1:
                gout = gout * (acts[i + 1] > 0)
            gW[i] = acts[i].T @ gout
            gb[i] = gout.sum(axis=0)
            gout = gout @ self.W[i].T
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
        narrow outputs such as 32->2 or 16->4, which then move by a few
        ulps; so the output layer runs unblocked.  A trailing partial block
        joins the one before it, so no block is shorter than
        INFER_BLOCK_ROWS unless it is the whole batch (numpy sends a 1-row
        product down another path).  ReLU is np.fmax, which sends NaN to 0
        like forward.
        """
        n = len(x)
        h_all = np.empty((n, self.widths[-2]))
        stops = list(range(INFER_BLOCK_ROWS, n - INFER_BLOCK_ROWS + 1, INFER_BLOCK_ROWS))
        for lo, hi in zip([0, *stops], [*stops, n]):
            h = x[lo:hi]
            for W, b in zip(self.W[:-1], self.b[:-1]):
                h = h @ W
                h += b
                np.fmax(h, 0.0, out=h)
            h_all[lo:hi] = h
        out = h_all @ self.W[-1]
        out += self.b[-1]
        return out

    @property
    def macs(self) -> int:
        return dense_macs(self.widths)
