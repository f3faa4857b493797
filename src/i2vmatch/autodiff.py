"""Dense float64 tensors with tape-based reverse-mode differentiation.

Inside ``with Tape():`` every primitive records an entry during the
forward pass; outside any tape nothing is recorded, as under ``no_grad``.
``backward`` replays the tape in exact reverse execution order, so
gradient accumulation order is deterministic and fixed seeds give
bitwise-identical runs. Shapes are plain numpy shapes; primitives accept
the ranks they document and raise :class:`ShapeError` otherwise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

# epsilon added under the square root of pairwise distances so the
# gradient is defined at coincident points (hard-mined zero-distance pairs)
DISTANCE_EPS = 1e-12


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested primitive."""


class NonFiniteError(FloatingPointError):
    """A forward or finite-difference evaluation produced NaN/Inf."""


class _TapeEntry:
    """One executed primitive: output, inputs, and its local backward rule."""

    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out, inputs, backward):
        self.out = out
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Execution-ordered record of primitives for one unit of work.

    Use as a context manager: primitives record only while a tape is open
    (the trainer opens a fresh tape per batch so memory stays bounded). A
    tape and its tensors belong to one thread; independent tapes may run
    concurrently.
    """

    def __init__(self):
        self.entries: list[_TapeEntry] = []

    def __enter__(self) -> "Tape":
        _STATE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.stack.pop()
        return False


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[Tape] = []
        self.grad_enabled = True


_STATE = _ThreadState()


def active_tape() -> Tape:
    """The innermost open tape of this thread; ValueError when none is open."""
    if not _STATE.stack:
        raise ValueError("no tape is open; primitives record only inside `with Tape():`")
    return _STATE.stack[-1]


class no_grad:
    """Context manager disabling tape recording (forward-only evaluation)."""

    def __enter__(self):
        self._prev = _STATE.grad_enabled
        _STATE.grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.grad_enabled = self._prev
        return False


class Tensor:
    """Dense float64 array, optionally participating in differentiation.

    ``grad`` is lazily allocated by ``backward`` and accumulates across
    calls; it always matches ``data`` in shape when present.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Same values, severed from the tape: gradients stop here."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self):
        self.grad = None

    # operator sugar over the add primitive (loss sums read as a + b)
    def __add__(self, other):
        return add(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _STATE.grad_enabled and _STATE.stack and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _STATE.stack[-1].entries.append(_TapeEntry(out, inputs, backward_fn))
    return out


def _as2d(x: Tensor, op: str) -> np.ndarray:
    if x.data.ndim != 2:
        raise ShapeError(f"{op} expects a 2-d tensor, got shape {x.data.shape}")
    return x.data


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of an m*k and a k*n tensor."""
    ad, bd = _as2d(a, "matmul"), _as2d(b, "matmul")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {ad.shape} x {bd.shape}")
    out = Tensor(ad @ bd)

    def bw(g):
        return g @ bd.T, ad.T @ g

    return _record(out, (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1*n row added to every row of m*n."""
    ad, bd = a.data, b.data
    if ad.shape == bd.shape:
        def bw(g):
            return g, g
    elif ad.ndim == 2 and bd.shape == (1, ad.shape[1]):
        def bw(g):
            return g, g.sum(axis=0, keepdims=True)
    else:
        raise ShapeError(f"add shapes disagree: {ad.shape} vs {bd.shape}")
    return _record(Tensor(ad + bd), (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shapes disagree: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data - b.data)

    def bw(g):
        # backward skips an input that needs no grad: spare the negated copy
        return g, (-g if b.requires_grad else None)

    return _record(out, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def bw(g):
        return (g * c,)

    return _record(out, (a,), bw)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    # where(mask, a, 0) bit for bit without a per-element branch: fmax maps
    # NaN to 0, and adding +0 turns the -0 it keeps into +0
    out = Tensor(np.fmax(a.data, 0.0))
    out.data += 0.0

    def bw(g):
        return (g * mask,)

    return _record(out, (a,), bw)


def frobenius_sq(a: Tensor) -> Tensor:
    """Sum of squared entries (squared Frobenius norm)."""
    out = Tensor(np.sum(a.data * a.data))

    def bw(g):
        return (2.0 * float(g) * a.data,)

    return _record(out, (a,), bw)


def mean_row_groups(a: Tensor, group: int) -> Tensor:
    """Average consecutive blocks of ``group`` rows: (G*group, n) -> (G, n)."""
    ad = _as2d(a, "mean_row_groups")
    m, n = ad.shape
    if group < 1 or m % group != 0:
        raise ShapeError(f"mean_row_groups: {m} rows not divisible into groups of {group}")
    out = Tensor(ad.reshape(m // group, group, n).mean(axis=1))

    def bw(g):
        return (np.repeat(g / group, group, axis=0),)

    return _record(out, (a,), bw)


def group_attention(q: Tensor, k: Tensor, v: Tensor, group: int) -> Tensor:
    """Softmax attention within consecutive blocks of ``group`` rows.

    Output row i is sum_j softmax_j(q_i . k_j) v_j, with j ranging over the
    rows of i's block; rows of different blocks never mix. q and k are m*d,
    v is m*e, and ``group`` must divide m.
    """
    qd, kd, vd = (_as2d(t, "group_attention") for t in (q, k, v))
    m, d = qd.shape
    if kd.shape != (m, d) or vd.shape[0] != m:
        raise ShapeError(f"group_attention operands disagree: q {qd.shape}, "
                         f"k {kd.shape}, v {vd.shape}")
    if group < 1 or m % group != 0:
        raise ShapeError(f"group_attention: {m} rows not divisible into groups of {group}")
    n, e = m // group, vd.shape[1]
    q3, k3, v3 = qd.reshape(n, group, d), kd.reshape(n, group, d), vd.reshape(n, group, e)
    att = q3 @ k3.transpose(0, 2, 1)  # softmax in place: no block-sized temporaries
    att -= att.max(axis=2, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=2, keepdims=True)
    out = Tensor((att @ v3).reshape(m, e))

    def bw(g):
        g3 = g.reshape(n, group, e)
        g_att = g3 @ v3.transpose(0, 2, 1)
        g_logits = att * (g_att - (g_att * att).sum(axis=2, keepdims=True))
        return ((g_logits @ k3).reshape(m, d),
                (g_logits.transpose(0, 2, 1) @ q3).reshape(m, d),
                (att.transpose(0, 2, 1) @ g3).reshape(m, e))

    return _record(out, (q, k, v), bw)


def pairwise_euclidean(x: Tensor, y: Tensor) -> Tensor:
    """Matrix of Euclidean distances between rows of x (m*d) and y (n*d).

    Entry (i, j) is sqrt(max(|x_i|^2 + |y_j|^2 - 2 x_i.y_j, 0) + eps); the
    epsilon keeps the gradient finite for coincident pairs. With ``y is x``
    the tape records one input, and backward folds both sides into one
    product with the symmetrized weights.
    """
    xd, yd = _as2d(x, "pairwise_euclidean"), _as2d(y, "pairwise_euclidean")
    if xd.shape[1] != yd.shape[1]:
        raise ShapeError(
            f"pairwise_euclidean feature dims disagree: {xd.shape} vs {yd.shape}"
        )
    # one m*n buffer, in place: (|x|^2 + |y|^2) - 2 xy, clamp, + eps, sqrt
    nx = (xd * xd).sum(axis=1)
    ny = nx if y is x else (yd * yd).sum(axis=1)
    d = nx[:, None] + ny[None, :]
    xy = xd @ yd.T
    xy *= 2.0
    d -= xy
    active = d > 0
    np.copyto(d, 0.0, where=~active)
    d += DISTANCE_EPS
    np.sqrt(d, out=d)
    out = Tensor(d)

    def bw(g):
        w = np.zeros_like(d)
        np.divide(g, d, out=w, where=active)
        if y is x:
            w = w + w.T
            return (w.sum(axis=1)[:, None] * xd - w @ xd,)
        gx = w.sum(axis=1)[:, None] * xd - w @ yd
        gy = w.sum(axis=0)[:, None] * yd - w.T @ xd
        return gx, gy

    return _record(out, (x,) if y is x else (x, y), bw)


def triplet_hinge_mean(dists: Tensor, pos, neg, margin: float) -> Tensor:
    """Mean of relu(dists[pos] - dists[neg] + margin) over anchors, ``pos``
    and ``neg`` being (row indices, column indices) pairs; one tape entry for
    gather, gather, sub, shift, relu, mean_all with the chain's arithmetic,
    and its gradient bit for bit when no entry is picked twice (mining never)."""
    d = _as2d(dists, "triplet_hinge_mean")
    h = (d[pos] - d[neg]) + float(margin)
    mask = h > 0
    n = h.size
    out = Tensor((np.fmax(h, 0.0) + 0.0).sum() / n)  # relu's exact where-form

    def bw(g):
        gh = np.full_like(h, float(g) / n) * mask
        # onto zeros, as the chain's two zero-padded gathers add their picks
        ga = np.zeros_like(d)
        ga[neg] -= gh
        ga[pos] += gh
        return (ga,)

    return _record(out, (dists,), bw)


def cross_entropy_mean(logits: Tensor, labels) -> Tensor:
    """Mean cross entropy of row-wise logits against integer labels, one tape
    entry for log_softmax_rows, gather, mean_all, scale(-1) with the chain's
    arithmetic: value and gradient equal the chain's bit for bit."""
    ad = _as2d(logits, "cross_entropy_mean")
    rows = np.arange(ad.shape[0])
    z = ad - ad.max(axis=1, keepdims=True)
    lsm = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    sm = np.exp(lsm)
    n = rows.size
    out = Tensor((lsm[rows, labels].sum() / n) * -1.0)

    def bw(g):
        ga = np.zeros_like(ad)
        ga[rows, labels] += float(g * -1.0) / n
        return (ga - sm * ga.sum(axis=1, keepdims=True),)

    return _record(out, (logits,), bw)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate grads of every leaf tensor the loss depends on.

    Replays the active tape in reverse execution order; gradient flow is
    restricted to ancestors of ``loss``. Only leaves (tensors that no
    replayed entry produced) receive ``.grad``; an intermediate's gradient
    is dropped once its entry has consumed it. Leaf grads accumulate across
    calls, so backward of a sum equals the sum of backwards.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to differentiate")
    flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for entry in reversed(active_tape().entries):
        g_out = flow.pop(id(entry.out), None)
        if g_out is None:
            continue
        del holders[id(entry.out)]
        grads = entry.backward(g_out)
        for inp, g_in in zip(entry.inputs, grads):
            if not inp.requires_grad:
                continue
            key = id(inp)
            if key in flow:
                flow[key] = flow[key] + g_in
            else:
                flow[key] = g_in
                holders[key] = inp
    for key, t in holders.items():
        g = flow[key].reshape(t.data.shape)
        t.grad = g.copy() if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Outcome of one analytic-vs-central-difference comparison."""

    max_rel_err: float
    tol: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.max_rel_err <= self.tol


def _compare(analytic: np.ndarray, numeric: np.ndarray, tol: float) -> GradCheckReport:
    # relative where the reference gradient is large, absolute where it
    # vanishes (central differences of a zero gradient still carry noise)
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    return GradCheckReport(max_rel_err=float(err.max()) if err.size else 0.0, tol=tol)


def grad_check(f, x0: Tensor, step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare the analytic gradient of scalar-valued ``f`` against central
    finite differences at ``x0``."""
    x = Tensor(x0.data.copy(), requires_grad=True)
    return grad_check_params(lambda: f(x), {"x": x}, step, tol)["x"]


def grad_check_params(
    loss_fn,
    params: dict[str, Tensor],
    step: float = 1e-5,
    tol: float = 1e-4,
) -> dict[str, GradCheckReport]:
    """Finite-difference check of ``loss_fn()`` against every named parameter.

    One backward pass supplies all analytic gradients; numeric gradients
    come from perturbing each parameter coordinate in place and re-running
    the forward pass. The parameters are restored exactly afterwards.
    """
    with Tape():
        for p in params.values():
            p.zero_grad()
        loss = loss_fn()
        if not np.isfinite(loss.item()):
            raise NonFiniteError("non-finite loss at the expansion point")
        backward(loss)
        analytic = {
            name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }
        for p in params.values():
            p.zero_grad()

    def eval_loss(idx) -> float:
        with no_grad():
            v = loss_fn().item()
        if not np.isfinite(v):
            raise NonFiniteError(f"non-finite evaluation while perturbing coordinate {idx}")
        return v

    reports = {}
    for name, p in params.items():
        numeric = np.zeros_like(p.data)
        flat_n = numeric.reshape(-1)
        for i in range(p.data.size):
            idx = np.unravel_index(i, p.data.shape)
            orig = p.data[idx]
            p.data[idx] = orig + step
            fp = eval_loss((name, idx))
            p.data[idx] = orig - step
            fm = eval_loss((name, idx))
            p.data[idx] = orig
            flat_n[i] = (fp - fm) / (2.0 * step)
        reports[name] = _compare(analytic[name], numeric, tol)
    return reports
