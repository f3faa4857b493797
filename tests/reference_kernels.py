"""Reference forms of kernels, for tests only.

The training-step kernels appear as they were before they were fused or
rewritten in place; the equivalence tests require the package's kernels to
match them bit for bit, value and gradient. The primitives that only tests
use live here too: ``shift``, ``mean_all``, ``gather`` and
``log_softmax_rows``, which build the unfused chains, ``transpose``,
``square`` and ``sum_all``, which build scalar test objectives, and
``softmax_rows``, the plain row softmax that ``group_attention`` is checked
against.
"""

import numpy as np

from i2vmatch import autodiff as ad
from i2vmatch.autodiff import ShapeError, Tensor, scale


def transpose(a: Tensor) -> Tensor:
    x = ad._as2d(a, "transpose")
    out = Tensor(x.T.copy())

    def bw(g):
        return (g.T,)

    return ad._record(out, (a,), bw)


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data)

    def bw(g):
        return (2.0 * a.data * g,)

    return ad._record(out, (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())

    def bw(g):
        return (np.full_like(a.data, float(g)),)

    return ad._record(out, (a,), bw)


def shift(a: Tensor, c: float) -> Tensor:
    """Add the constant ``c`` to every entry."""
    out = Tensor(a.data + float(c))

    def bw(g):
        return (g,)

    return ad._record(out, (a,), bw)


def mean_all(a: Tensor) -> Tensor:
    """Mean of all entries."""
    n = a.data.size
    out = Tensor(a.data.sum() / n)

    def bw(g):
        return (np.full_like(a.data, float(g) / n),)

    return ad._record(out, (a,), bw)


def gather(a: Tensor, rows, cols) -> Tensor:
    """Pick entries (rows[i], cols[i]) into a 1-d tensor."""
    x = ad._as2d(a, "gather")
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ShapeError(f"gather index shapes disagree: {rows.shape} vs {cols.shape}")
    out = Tensor(x[rows, cols])

    def bw(g):
        ga = np.zeros_like(x)
        np.add.at(ga, (rows, cols), g)
        return (ga,)

    return ad._record(out, (a,), bw)


def log_softmax_rows(a: Tensor) -> Tensor:
    """Row-wise log-softmax, numerically stable."""
    x = ad._as2d(a, "log_softmax_rows")
    z = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = Tensor(z - lse)
    sm = np.exp(z - lse)

    def bw(g):
        return (g - sm * g.sum(axis=1, keepdims=True),)

    return ad._record(out, (a,), bw)


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


def triplet_hinge_mean(dists: Tensor, pos, neg, margin: float) -> Tensor:
    hinge = relu(shift(sub(gather(dists, *pos), gather(dists, *neg)), margin))
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
