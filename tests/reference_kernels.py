"""Reference forms of kernels, for tests only.

The training-step kernels appear as they were before they were fused or
rewritten in place; the equivalence tests require the package's kernels to
match them bit for bit, value and gradient. ``softmax_rows`` is the plain
row softmax that ``group_attention`` is checked against.
"""

import numpy as np

from i2vmatch import autodiff as ad
from i2vmatch.autodiff import (
    Tensor,
    gather,
    log_softmax_rows,
    mean_all,
    scale,
    shift,
)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by per-row max subtraction."""
    ad._as2d(a, "softmax_rows")
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        # full Jacobian-vector product: y * (g - <g, y> per row)
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return ad._record(Tensor(y), (a,), bw)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0))
    return ad._record(out, (a,), lambda g: (g * mask,))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    return ad._record(out, (a, b), lambda g: (g, -g))


def pairwise_euclidean(x: Tensor, y: Tensor) -> Tensor:
    xd, yd = x.data, y.data
    sq = (
        (xd * xd).sum(axis=1)[:, None]
        + (yd * yd).sum(axis=1)[None, :]
        - 2.0 * (xd @ yd.T)
    )
    active = sq > 0
    d = np.sqrt(np.where(active, sq, 0.0) + ad.DISTANCE_EPS)

    def bw(g):
        w = np.where(active, g / d, 0.0)
        if y is x:
            w = w + w.T
            return (w.sum(axis=1)[:, None] * xd - w @ xd,)
        gx = w.sum(axis=1)[:, None] * xd - w @ yd
        gy = w.sum(axis=0)[:, None] * yd - w.T @ xd
        return gx, gy

    return ad._record(Tensor(d), (x,) if y is x else (x, y), bw)


def triplet_hinge_mean(dists: Tensor, pos_idx, neg_idx, margin: float) -> Tensor:
    rows = np.arange(dists.data.shape[0])
    hinge = relu(shift(sub(gather(dists, rows, pos_idx), gather(dists, rows, neg_idx)),
                       margin))
    return mean_all(hinge)


def cross_entropy_mean(logits: Tensor, labels) -> Tensor:
    n = logits.data.shape[0]
    picked = gather(log_softmax_rows(logits), np.arange(n), labels)
    return scale(mean_all(picked), -1.0)


class Adam:
    """The per-tensor Adam loop, one update expression per parameter."""

    def __init__(self, params, weight_decay=0.0):
        self.params = dict(params)
        self.weight_decay = weight_decay
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.steps = 0

    def step(self, lr):
        self.steps += 1
        bc1 = 1.0 - 0.9 ** self.steps
        bc2 = 1.0 - 0.999 ** self.steps
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.m[name] = 0.9 * self.m[name] + (1.0 - 0.9) * g
            self.v[name] = 0.999 * self.v[name] + (1.0 - 0.999) * (g * g)
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def bits(a) -> np.ndarray:
    """The float64 bit patterns of ``a``: equal bits mean equal values,
    signed zeros and NaN payloads included."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)
