"""Minimal dense network with hand-written backprop.

Only what the modem needs: fully connected layers, ReLU, mean squared
error, and plain SGD.  Forward passes cache their inputs; backward passes
accumulate parameter gradients and return the gradient with respect to
the layer input.

Inference (`Mlp.infer`) is a separate, cache-free pass: it runs the hidden
layers over row blocks of INFER_BLOCK_ROWS rows, each layer in place
(`h = x @ W; h += b; fmax(h, 0)`), so a block's activations stay in cache,
and runs the output layer once over the whole batch.
"""

import numpy as np

# Rows per block of the inference pass; 512-2048 rows measured about equally
# fast on 20k-row batches through 32-wide layers.
INFER_BLOCK_ROWS = 2048


class Dense:
    """y = x @ W + b with uniform(-1/sqrt(n_in), 1/sqrt(n_in)) init."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None = None):
        self.n_in = n_in
        self.n_out = n_out
        bound = 1.0 / np.sqrt(n_in)
        if rng is None:
            self.W = np.zeros((n_in, n_out))
            self.b = np.zeros(n_out)
        else:
            self.W = rng.uniform(-bound, bound, size=(n_in, n_out))
            self.b = rng.uniform(-bound, bound, size=n_out)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W + self.b

    def backward(self, gout: np.ndarray) -> np.ndarray:
        self.gW += self._x.T @ gout
        self.gb += gout.sum(axis=0)
        return gout @ self.W.T

    def zero_grad(self):
        self.gW[:] = 0.0
        self.gb[:] = 0.0

    def sgd_step(self, lr: float):
        self.W -= lr * self.gW
        self.b -= lr * self.gb

    @property
    def macs(self) -> int:
        # one multiply-accumulate per weight per input sample
        return self.n_in * self.n_out


class Relu:
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return gout * self._mask


class Mlp:
    """Dense stack with ReLU between layers and identity output."""

    def __init__(self, widths: list[int], rng: np.random.Generator | None = None):
        if len(widths) < 2:
            raise ValueError("need at least input and output width")
        self.widths = list(widths)
        self.layers = []
        for i in range(len(widths) - 1):
            self.layers.append(Dense(widths[i], widths[i + 1], rng))
            if i < len(widths) - 2:
                self.layers.append(Relu())

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Forward pass without caches, for inference.

        Equal to forward bit for bit wherever the BLAS computes a block's
        rows exactly as it does within the whole batch.  OpenBLAS 0.3.31
        does for the demodulators' 2->32 and 32->32 layers, but not for
        narrow outputs such as 32->2 or 16->4, which then move by a few
        ulps; so the output layer runs unblocked.  A trailing partial block
        joins the one before it, so no block is shorter than
        INFER_BLOCK_ROWS unless it is the whole batch (numpy sends a 1-row
        product down another path).  ReLU is np.fmax, which sends NaN to 0
        like forward's mask.
        """
        *hidden, last = self.dense_layers()
        n = len(x)
        h_all = np.empty((n, last.n_in))
        stops = list(range(INFER_BLOCK_ROWS, n - INFER_BLOCK_ROWS + 1, INFER_BLOCK_ROWS))
        for lo, hi in zip([0, *stops], [*stops, n]):
            h = x[lo:hi]
            for layer in hidden:
                h = h @ layer.W
                h += layer.b
                np.fmax(h, 0.0, out=h)
            h_all[lo:hi] = h
        out = h_all @ last.W
        out += last.b
        return out

    def backward(self, gout: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            gout = layer.backward(gout)
        return gout

    def dense_layers(self) -> list[Dense]:
        return [l for l in self.layers if isinstance(l, Dense)]

    def zero_grad(self):
        for l in self.dense_layers():
            l.zero_grad()

    def sgd_step(self, lr: float):
        for l in self.dense_layers():
            l.sgd_step(lr)

    @property
    def macs(self) -> int:
        return sum(l.macs for l in self.dense_layers())


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean squared Euclidean distance and its gradient w.r.t. pred."""
    diff = pred - target
    n = pred.shape[0]
    loss = float(np.sum(diff * diff) / n)
    return loss, 2.0 * diff / n
