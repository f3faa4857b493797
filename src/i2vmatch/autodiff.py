"""Dense float64 tensors with tape-based reverse-mode differentiation.

Inside ``with Tape():`` every primitive records an entry during the
forward pass; outside any tape nothing is recorded, as under ``no_grad``.
Tapes and ``no_grad`` share one process-wide stack, not one per thread,
and the innermost context wins: a tape opened inside ``no_grad``
records, and ``no_grad`` inside a tape pauses it.
``backward`` replays the tape in exact reverse execution order, so
gradient accumulation order is deterministic and fixed seeds give
bitwise-identical runs. Shapes are plain numpy shapes; primitives accept
the ranks they document and raise :class:`ShapeError` otherwise.

Tape entries are few and fat: ``affine`` (matmul, bias, relu),
``nonlocal_block`` (projections, key-major block attention normalised in
the value product, output projection, residual), ``add_n``,
``scaled_sq_diff``, the mined triplet hinge and the mean cross entropy of
``x @ w`` each stand for a chain of primitives, value and gradients that
chain's bit for bit; a ``benchmark_config()`` step records 22.
``grad_check_params`` is the one finite-difference check: central
differences of half-width ``FD_STEP``, one sweep of the coordinates for
all the outputs of a dict-valued function.
"""

from __future__ import annotations

import ctypes

import numpy as np

# epsilon added under the square root of pairwise distances so the
# gradient is defined at coincident points (hard-mined zero-distance pairs)
DISTANCE_EPS = 1e-12


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested primitive."""


class NonFiniteError(FloatingPointError):
    """The one numerical-failure class: a loss, an update, a finite-difference
    evaluation or extracted features produced NaN/Inf."""


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
    (the trainer opens a fresh tape per batch so memory stays bounded).
    """

    def __init__(self):
        self.entries: list[_TapeEntry] = []

    def __enter__(self) -> "Tape":
        _STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STACK.pop()
        return False


# open recording contexts, innermost last: a Tape, or None for no_grad
_STACK: list[Tape | None] = []


def active_tape() -> Tape:
    """The innermost open tape; ValueError when none is open or a
    ``no_grad`` is open inside it."""
    if not _STACK or _STACK[-1] is None:
        raise ValueError("no tape is open; primitives record only inside `with Tape():`")
    return _STACK[-1]


class no_grad:
    """Context manager disabling tape recording (forward-only evaluation)."""

    def __enter__(self):
        _STACK.append(None)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STACK.pop()
        return False


def keep_heap() -> bool:
    """Have glibc keep freed memory for reuse; False where libc has no
    ``mallopt``. Else large temporaries, such as a step's distance matrices
    or a block's scores, go back to the kernel when freed and are faulted in
    afresh on the next call. The thresholds are process-wide and stay set:
    the process keeps up to 64 MiB of freed heap for the rest of its life."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # both, as fixing only one threshold stops glibc adjusting the other,
    # which faults more than leaving both alone
    mmap_ok = mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: blocks under 4 MiB from the heap
    trim_ok = mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MiB free on top
    return mmap_ok == trim_ok == 1


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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _STACK and _STACK[-1] is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _STACK[-1].entries.append(_TapeEntry(out, inputs, backward_fn))
    return out


def _as2d(x: Tensor, op: str) -> np.ndarray:
    if x.data.ndim != 2:
        raise ShapeError(f"{op} expects a 2-d tensor, got shape {x.data.shape}")
    return x.data


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def _relu_in_place(z: np.ndarray) -> np.ndarray:
    """where(z > 0, z, 0) written over z, bit for bit, without a per-element
    branch: fmax maps NaN to 0, and adding +0 turns the -0 it keeps into +0."""
    np.fmax(z, 0.0, out=z)
    z += 0.0
    return z


def add_n(terms) -> Tensor:
    """Left-to-right sum of an iterable of equal-shape tensors as one tape
    entry; every input's gradient is the output's."""
    terms = tuple(terms)
    total = terms[0].data.copy()
    for t in terms[1:]:
        if t.data.shape != total.shape:
            raise ShapeError(f"add_n shapes disagree: {total.shape} vs {t.data.shape}")
        total += t.data
    return _record(Tensor(total), terms, lambda g: (g,) * len(terms))


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w + b`` for an m*k x, k*n w and 1*n b, clamped by ``relu`` to
    where(z > 0, z, 0): one tape entry with the matmul, add, relu chain's
    arithmetic. The input gradient is skipped when x needs none; the relu
    mask is read off the output, as ``out > 0`` is ``z > 0`` bit for bit."""
    xd, wd, bd = _as2d(x, "affine"), _as2d(w, "affine"), b.data
    if xd.shape[1] != wd.shape[0] or bd.shape != (1, wd.shape[1]):
        raise ShapeError(f"affine operands disagree: x {xd.shape}, w {wd.shape}, b {bd.shape}")
    z = xd @ wd
    z += bd
    if relu:
        _relu_in_place(z)

    def bw(g):
        if relu:
            g = g * (z > 0)
        return (g @ wd.T if x.requires_grad else None), xd.T @ g, g.sum(axis=0, keepdims=True)

    return _record(Tensor(z), (x, w, b), bw)


def scaled_sq_diff(a: Tensor, b: Tensor, c: float) -> Tensor:
    """``c`` times the sum of squared entries of ``a - b``, for equal shapes:
    one tape entry with the sub, frobenius_sq, scale chain's arithmetic, the
    squares summed per row by ``np.vecdot``, then over the rows: BLAS splits
    a dot of over 10,000 entries across threads, whose count would then move
    its last bit. The gradient of b is skipped when b needs none."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"scaled_sq_diff shapes disagree: {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    out = Tensor(np.vecdot(diff, diff).sum() * c)

    def bw(g):
        ga = 2.0 * float(g * c) * diff
        return ga, (-ga if b.requires_grad else None)

    return _record(out, (a, b), bw)


def mean_row_groups(a: Tensor, group: int) -> Tensor:
    """Average consecutive blocks of ``group`` rows: (G*group, n) -> (G, n),
    each block summed by its product with a ones vector."""
    ad = _as2d(a, "mean_row_groups")
    m, n = ad.shape
    if group < 1 or m % group != 0:
        raise ShapeError(f"mean_row_groups: {m} rows not divisible into groups of {group}")
    out = Tensor(np.ones(group) @ ad.reshape(m // group, group, n) / group)

    def bw(g):
        return (np.repeat(g / group, group, axis=0),)

    return _record(out, (a,), bw)


def nonlocal_block(x: Tensor, w_theta: Tensor, w_phi: Tensor, w_g: Tensor, w_z: Tensor,
                   group: int | None = None) -> Tensor:
    """Residual attention ``x + A(x w_theta, x w_phi, x w_g) w_z`` within
    consecutive blocks of ``group`` rows (all rows when None): row i of
    A(q, k, v) is sum_j softmax_j(q_i . k_j) v_j over the rows j of i's block.
    One tape entry. The projections are one product, ``x @ [w_theta | w_phi |
    w_g | 0]``, whose last column is then set to ones. The scores are
    key-major, and the value product with that ones column also sums each
    query's weights, so one divide ends the softmax. Backward makes one
    product for the three weight gradients and one for the input's."""
    xd = _as2d(x, "nonlocal_block")
    wt, wp, wg, wz = (w.data for w in (w_theta, w_phi, w_g, w_z))
    (m, c), d, e = xd.shape, wt.shape[-1], wg.shape[-1]
    shapes = [wt.shape, wp.shape, wg.shape, wz.shape]
    if shapes != [(c, d), (c, d), (c, e), (e, c)]:
        raise ShapeError(f"nonlocal_block operands disagree: x {xd.shape}, weights {shapes}")
    group = m if group is None else group
    if group < 1 or m % group != 0:
        raise ShapeError(f"nonlocal_block: {m} rows not divisible into groups of {group}")
    n = m // group
    w = np.zeros((c, 2 * d + e + 1))
    w[:, :d], w[:, d:2 * d], w[:, 2 * d:-1] = wt, wp, wg
    proj = xd @ w
    proj[:, -1] = 1.0
    p3 = proj.reshape(n, group, -1)
    q3, k3, v1 = p3[..., :d], p3[..., d:2 * d], p3[..., 2 * d:]  # v1: the values and ones
    # scores (n, key, query) stored key-outermost, so that the max over keys
    # and its subtraction run along whole contiguous rows
    ex = np.empty((group, n, group)).transpose(1, 0, 2)
    np.matmul(k3, np.ascontiguousarray(q3.transpose(0, 2, 1)), out=ex)
    ex -= ex.max(axis=1, keepdims=True)
    np.exp(ex, out=ex)
    num = ex.transpose(0, 2, 1) @ v1  # last column: the normaliser, >= exp(0)
    mixed = (num[..., :e] / num[..., e:]).reshape(m, e)
    out = mixed @ wz
    out += xd

    def bw(g):
        att = ex / num[..., e:].transpose(0, 2, 1)  # ex's layout, and g_att's
        g3 = (g @ wz.T).reshape(n, group, e)
        g_att = np.matmul(v1[..., :e], g3.transpose(0, 2, 1), out=np.empty_like(att))
        g_logits = att * (g_att - (g_att * att).sum(axis=1, keepdims=True))
        gp = np.zeros_like(p3)  # the projections' gradient; the ones column has none
        np.matmul(g_logits.transpose(0, 2, 1), k3, out=gp[..., :d])
        np.matmul(g_logits, q3, out=gp[..., d:2 * d])
        np.matmul(att, g3, out=gp[..., 2 * d:-1])
        gp = gp.reshape(m, -1)
        gw = xd.T @ gp
        gx = g + gp @ w.T if x.requires_grad else None
        return gx, gw[:, :d], gw[:, d:2 * d], gw[:, 2 * d:-1], mixed.T @ g

    return _record(Tensor(out), (x, w_theta, w_phi, w_g, w_z), bw)


def pairwise_euclidean(x: Tensor, y: Tensor) -> Tensor:
    """Matrix of Euclidean distances between rows of x (m*d) and y (n*d).

    Entry (i, j) is sqrt(max(|x_i|^2 + |y_j|^2 - 2 x_i.y_j, 0) + eps); the
    epsilon keeps the gradient finite for coincident pairs. With ``y is x``
    the tape records one input, and backward adds the products of both
    sides of the weights, ``w @ x + w.T @ x``.
    """
    xd, yd = _as2d(x, "pairwise_euclidean"), _as2d(y, "pairwise_euclidean")
    if xd.shape[1] != yd.shape[1]:
        raise ShapeError(
            f"pairwise_euclidean feature dims disagree: {xd.shape} vs {yd.shape}"
        )
    # one m*n buffer, in place: (|x|^2 + |y|^2) + x.(-2y), clamp, + eps, sqrt.
    # The -2 scales the GEMM's right operand, exactly; that operand is a new
    # C-order array, as numpy would run x @ x.T as SYRK
    nx = (xd * xd).sum(axis=1)
    ny = nx if y is x else (yd * yd).sum(axis=1)
    d = nx[:, None] + ny[None, :]
    d += xd @ np.multiply(yd.T, -2.0, order="C")
    active = d > 0
    np.fmax(d, 0.0, out=d)  # a -0 it keeps reads eps once eps is added
    d += DISTANCE_EPS
    np.sqrt(d, out=d)

    def bw(g):
        w = g / d  # d >= sqrt(eps) > 0; zeroed where the clamp held
        w[~active] = 0.0
        if y is x:  # both sides of w at once, without forming w + w.T
            s = w.sum(axis=1) + w.sum(axis=0)
            return (s[:, None] * xd - (w @ xd + w.T @ xd),)
        gx = w.sum(axis=1)[:, None] * xd - w @ yd
        gy = w.sum(axis=0)[:, None] * yd - w.T @ xd
        return gx, gy

    return _record(Tensor(d), (x,) if y is x else (x, y), bw)


def triplet_hinge_mean(dists: Tensor, pos, neg, margin: float) -> Tensor:
    """Mean of relu(dists[pos] - dists[neg] + margin) over anchors, ``pos``
    and ``neg`` being (row indices, column indices) pairs; one tape entry for
    gather, gather, sub, shift, relu, mean_all with the chain's arithmetic,
    and its gradient bit for bit when no entry is picked twice (mining never)."""
    d = _as2d(dists, "triplet_hinge_mean")
    h = (d[pos] - d[neg]) + float(margin)
    mask = h > 0
    n = h.size
    out = Tensor(_relu_in_place(h).sum() / n)

    def bw(g):
        gh = np.full_like(h, float(g) / n) * mask
        # onto zeros, as the chain's two zero-padded gathers add their picks
        ga = np.zeros_like(d)
        ga[neg] -= gh
        ga[pos] += gh
        return (ga,)

    return _record(out, (dists,), bw)


def cross_entropy_mean(x: Tensor, w: Tensor, labels) -> Tensor:
    """Mean cross entropy of the logits ``x @ w`` against integer row labels:
    one tape entry for matmul, log_softmax_rows, gather, mean_all, scale(-1),
    whose value and gradients equal the chain's bit for bit."""
    xd, wd = _as2d(x, "cross_entropy_mean"), _as2d(w, "cross_entropy_mean")
    if xd.shape[1] != wd.shape[0]:
        raise ShapeError(f"cross_entropy_mean inner extents disagree: {xd.shape} x {wd.shape}")
    logits = xd @ wd
    rows = np.arange(logits.shape[0])
    z = logits - logits.max(axis=1, keepdims=True)
    lsm = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    sm = np.exp(lsm)
    n = rows.size
    out = Tensor((lsm[rows, labels].sum() / n) * -1.0)

    def bw(g):
        ga = np.zeros_like(logits)
        ga[rows, labels] += float(g * -1.0) / n
        gl = ga - sm * ga.sum(axis=1, keepdims=True)
        return gl @ wd.T, xd.T @ gl

    return _record(out, (x, w), bw)


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
    # id -> (tensor, gradient so far) for every tensor the loss reached
    flow: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, np.ones_like(loss.data))}
    for entry in reversed(active_tape().entries):
        held = flow.pop(id(entry.out), None)
        if held is None:
            continue
        for inp, g_in in zip(entry.inputs, entry.backward(held[1])):
            if inp.requires_grad:
                prev = flow.get(id(inp))
                flow[id(inp)] = (inp, g_in if prev is None else prev[1] + g_in)
    for t, g in flow.values():
        g = g.reshape(t.data.shape)
        t.grad = g.copy() if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

FD_STEP = 1e-5


def grad_check_params(loss_fn, params: dict[str, Tensor]) -> dict:
    """Finite-difference check of ``loss_fn()`` against every named parameter.

    ``loss_fn`` returns a scalar tensor or a dict of named scalar tensors.
    One forward pass on one tape, then one backward per output with grads
    zeroed in between, gives the analytic gradients. Each parameter
    coordinate is then moved by ``±FD_STEP`` in place and ``loss_fn``
    evaluated twice, every output read off each evaluation; the parameters
    are restored exactly afterwards. Each (output, parameter) reads the
    largest error over the parameter's coordinates, NaN if any coordinate's
    is; the caller judges it against its tolerance. A scalar gives
    ``{param: error}``, a dict ``{output: {param: error}}``.
    """
    def evaluate(idx=None) -> dict:
        values = loss_fn()
        outs = values if isinstance(values, dict) else {None: values}
        if not all(np.isfinite(v.item()) for v in outs.values()):
            raise NonFiniteError("non-finite loss at the expansion point" if idx is None else
                                 f"non-finite evaluation while perturbing coordinate {idx}")
        return outs

    with Tape():
        analytic = {}
        for key, out in evaluate().items():
            for p in params.values():
                p.zero_grad()
            backward(out)
            analytic[key] = {name: p.grad.copy() if p.grad is not None
                             else np.zeros_like(p.data) for name, p in params.items()}
        for p in params.values():
            p.zero_grad()

    errors = {key: {} for key in analytic}
    with no_grad():
        for name, p in params.items():
            numeric = np.zeros((len(errors), p.data.size))  # one row per output
            for i in range(p.data.size):
                idx = np.unravel_index(i, p.data.shape)
                orig = p.data[idx]
                p.data[idx] = orig + FD_STEP
                fp = evaluate((name, idx))
                p.data[idx] = orig - FD_STEP
                fm = evaluate((name, idx))
                p.data[idx] = orig
                numeric[:, i] = [(fp[k].item() - fm[k].item()) / (2.0 * FD_STEP) for k in errors]
            for key, n in zip(errors, numeric.reshape(len(errors), *p.data.shape)):
                # relative where the reference gradient is large, absolute where it
                # vanishes (central differences of a zero gradient still carry noise)
                err = np.abs(analytic[key][name] - n) / np.maximum(1.0, np.abs(n))
                errors[key][name] = float(err.max(initial=0.0))
    return errors[None] if None in errors else errors
