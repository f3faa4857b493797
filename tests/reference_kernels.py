"""Reference forms of kernels, for tests only.

The training-step kernels appear as they were before they were fused or
rewritten in place: ``affine`` as the matmul, add, relu chain,
``nonlocal_block`` as three projection matmuls, ``group_attention`` with
its out-of-place softmax, the output matmul and the residual add,
``add_n`` as a chain of adds, ``scaled_sq_diff`` as the sub,
frobenius_sq, scale chain and ``cross_entropy_mean`` as the logits matmul
followed by the log_softmax_rows, gather, mean_all, scale(-1) chain. The
equivalence tests require the package's kernels to match them bit for
bit, value and gradient. ``split_into_clips`` is the per-video clip split
that gallery extraction once called, kept as the oracle for its
vectorized frame rows, and ``generate_dataset`` is the per-frame loop
the synthetic generator ran before its arithmetic moved to one pass per
video, kept as its byte oracle. The primitives that only tests use live
here too: ``matmul``, ``add``, ``sub``, ``relu``, ``shift``, ``scale``,
``frobenius_sq``, ``mean_all``, ``gather`` and ``log_softmax_rows``,
which build the unfused chains, ``transpose``, ``square`` and
``sum_all``, which build scalar test objectives, and ``softmax_rows``,
the plain row softmax that ``group_attention`` is checked against.
``grad_check`` is the one-tensor form of ``grad_check_params`` that the
primitive gradient tests call, and ``gradcheck_suite`` is the gradient
suite as it ran before one sweep checked every output: one objective and
one ``grad_check_params`` call per check, over that check's own
parameters, kept as the oracle of the suite's outcomes.
"""

import numpy as np

from i2vmatch import autodiff as ad
from i2vmatch.autodiff import ShapeError, Tensor
from i2vmatch.data import SyntheticConfig, SyntheticDataset, VideoRecord
from i2vmatch.encoders import encode_clip_batch, encode_image, encode_video, nonlocal_forward
from i2vmatch.losses import BatchFeatures, loss_terms, sum_terms
from i2vmatch.training import (ENCODER_CHECKS, EXTENDED_LOSS_CHECKS, LOSS_CHECKS,
                               LOSS_SET_PRESETS, CheckOutcome, _micro_setup, _sq_norm)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of an m*k and a k*n tensor."""
    x, y = ad._as2d(a, "matmul"), ad._as2d(b, "matmul")
    if x.shape[1] != y.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {x.shape} x {y.shape}")
    out = Tensor(x @ y)

    def bw(g):
        return g @ y.T, x.T @ g

    return ad._record(out, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def bw(g):
        return (g * c,)

    return ad._record(out, (a,), bw)


def frobenius_sq(a: Tensor) -> Tensor:
    """Sum of squared entries (squared Frobenius norm)."""
    out = Tensor(np.sum(a.data * a.data))

    def bw(g):
        return (2.0 * float(g) * a.data,)

    return ad._record(out, (a,), bw)


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


def group_attention(q: Tensor, k: Tensor, v: Tensor, group: int) -> Tensor:
    """Block softmax attention with an out-of-place softmax."""
    qd, kd, vd = q.data, k.data, v.data
    (m, d), e = qd.shape, vd.shape[1]
    n = m // group
    q3, k3, v3 = qd.reshape(n, group, d), kd.reshape(n, group, d), vd.reshape(n, group, e)
    logits = q3 @ k3.transpose(0, 2, 1)
    ex = np.exp(logits - logits.max(axis=2, keepdims=True))
    att = ex / ex.sum(axis=2, keepdims=True)
    out = Tensor((att @ v3).reshape(m, e))

    def bw(g):
        g3 = g.reshape(n, group, e)
        g_att = g3 @ v3.transpose(0, 2, 1)
        g_logits = att * (g_att - (g_att * att).sum(axis=2, keepdims=True))
        return ((g_logits @ k3).reshape(m, d),
                (g_logits.transpose(0, 2, 1) @ q3).reshape(m, d),
                (att.transpose(0, 2, 1) @ g3).reshape(m, e))

    return ad._record(out, (q, k, v), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1*n row added to every row of m*n."""
    da, db = a.data, b.data
    if da.shape == db.shape:
        def bw(g):
            return g, g
    elif da.ndim == 2 and db.shape == (1, da.shape[1]):
        def bw(g):
            return g, g.sum(axis=0, keepdims=True)
    else:
        raise ShapeError(f"add shapes disagree: {da.shape} vs {db.shape}")
    return ad._record(Tensor(da + db), (a, b), bw)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0))
    return ad._record(out, (a,), lambda g: (g * mask,))


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    out = add(matmul(x, w), b)
    return where_relu(out) if relu else out


where_relu = relu  # affine's ``relu`` flag shadows the function inside it


def nonlocal_block(x: Tensor, w_theta: Tensor, w_phi: Tensor, w_g: Tensor, w_z: Tensor,
                   group: int | None = None) -> Tensor:
    group = x.data.shape[0] if group is None else group
    theta = matmul(x, w_theta)
    phi = matmul(x, w_phi)
    g = matmul(x, w_g)
    return add(matmul(group_attention(theta, phi, g, group), w_z), x)


def add_n(terms: list[Tensor]) -> Tensor:
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return total


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


def scaled_sq_diff(a: Tensor, b: Tensor, c: float) -> Tensor:
    return scale(frobenius_sq(sub(a, b)), c)


def cross_entropy_mean(x: Tensor, w: Tensor, labels) -> Tensor:
    logits = matmul(x, w)
    n = logits.data.shape[0]
    picked = gather(log_softmax_rows(logits), np.arange(n), labels)
    return scale(mean_all(picked), -1.0)


def split_into_clips(frames: np.ndarray, clip_len: int) -> list[np.ndarray]:
    """Consecutive clip_len-frame chunks; a short final chunk is repeated
    cyclically up to clip_len (same duplication rule as training clips)."""
    if clip_len < 1:
        raise ValueError("clip_len must be >= 1")
    length = frames.shape[0]
    if length == 0:
        raise ValueError("empty video")
    clips = [frames[start:start + clip_len] for start in range(0, length, clip_len)]
    last = clips[-1]  # the one chunk that may be short
    clips[-1] = np.tile(last, (-(-clip_len // len(last)), 1))[:clip_len]
    return clips


@np.errstate(over="ignore", invalid="ignore")  # VideoRecord rejects what overflows
def generate_dataset(cfg: SyntheticConfig) -> SyntheticDataset:
    """The synthetic generator with one noise draw and one frame sum per frame."""
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    dim = cfg.input_dim
    if cfg.prototype_rank is None:
        prototypes = cfg.prototype_scale * rng.standard_normal((cfg.num_identities, dim))
    else:
        r = cfg.prototype_rank
        mixing = rng.standard_normal((r, dim)) / np.sqrt(r)
        latents = rng.standard_normal((cfg.num_identities, r))
        prototypes = cfg.prototype_scale * (latents @ mixing)
    videos: list[VideoRecord] = []
    lo, hi = cfg.frames_per_video
    for ident in range(cfg.num_identities):
        for cam in range(cfg.cameras_per_identity):
            # identity plus camera offset, summed once per video, not per frame
            view = prototypes[ident] + cfg.camera_offset_scale * rng.standard_normal(dim)
            length = int(rng.integers(lo, hi + 1))
            drift_a = cfg.drift_scale * rng.standard_normal(dim)
            drift_b = cfg.drift_scale * rng.standard_normal(dim)
            frames = np.empty((length, dim))
            for t in range(length):
                alpha = t / (length - 1) if length > 1 else 0.0
                frame = (view + (1.0 - alpha) * drift_a + alpha * drift_b
                         + cfg.frame_noise_scale * rng.standard_normal(dim))
                # frame 0 is the enrollment view serving as the query image
                # and stays occlusion-free (it still carries noise)
                if t > 0 and cfg.occlusion_prob > 0 and rng.random() < cfg.occlusion_prob:
                    width = int(round(cfg.occlusion_mask_fraction * dim))
                    if width > 0:
                        start = int(rng.integers(0, dim - width + 1))
                        frame[start:start + width] = 0.0
                frames[t] = frame
            videos.append(VideoRecord(identity=ident, camera=cam, frames=frames))
    return SyntheticDataset(config=cfg, videos=videos)


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


def grad_check(f, x0: Tensor) -> ad.GradCheckReport:
    """Check the gradient of scalar-valued ``f`` at a copy of ``x0``."""
    x = Tensor(x0.data.copy(), requires_grad=True)
    return ad.grad_check_params(lambda: f(x), {"x": x})["x"]


def bits(a) -> np.ndarray:
    """The float64 bit patterns of ``a``: equal bits mean equal values,
    signed zeros and NaN payloads included."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _loss_fn_for(check: str, encoder, cls, clips, labels, cfg):
    """The training objective restricted to the terms a check names: one
    term, the four triplets (tri_integrated) or all of them (total)."""
    terms = {"tri_integrated": LOSS_SET_PRESETS["integrated-tri"],
             "total": LOSS_SET_PRESETS["full"]}.get(check, (check,))
    check_cfg = cfg.with_terms(terms)

    def f():
        i, fr, v = encode_clip_batch(clips, encoder)
        return sum_terms(loss_terms(BatchFeatures(i, fr, v, labels), cls, check_cfg))
    return f


def _encoder_check(check: str, encoder, clips):
    if check == "nonlocal_block":
        blk = encoder.blocks[0]
        h = np.random.default_rng(7).standard_normal((4, blk.channels))
        weights = {k: p for k, p in encoder.named_parameters().items() if k.startswith("block0.")}
        return (lambda: _sq_norm(nonlocal_forward(Tensor(h), blk))), weights
    if check == "image_encoder":
        frames = clips.reshape(-1, clips.shape[2])
        return (lambda: _sq_norm(encode_image(frames, encoder))), \
            encoder.image_parameters()
    if check == "video_encoder":
        def f():
            ff, vf = encode_video(clips, encoder)
            return ad.add_n([_sq_norm(ff), _sq_norm(vf)])

        return f, encoder.video_parameters()
    raise ValueError(f"unknown check {check!r}")


def gradcheck_suite(scope: str = "all", seeds=(0,), tol: float = 1e-4,
                    extended: bool = False) -> list[CheckOutcome]:
    """The per-check gradient suite: each check rebuilds its objective and
    runs its own finite-difference sweep."""
    loss_names = LOSS_CHECKS + (EXTENDED_LOSS_CHECKS if extended else ())
    names: tuple[str, ...] = ()
    if scope in ("all", "losses"):
        names += loss_names
    if scope in ("all", "encoders"):
        names += ENCODER_CHECKS
    outcomes = []
    for seed in seeds:
        encoder, cls, clips, labels, cfg = _micro_setup(seed)
        everything = {**encoder.named_parameters(), **cls.named_parameters()}
        for name in names:
            if name in ENCODER_CHECKS:
                fn, params = _encoder_check(name, encoder, clips)
            else:
                fn, params = _loss_fn_for(name, encoder, cls, clips, labels, cfg), everything
            reports = ad.grad_check_params(fn, params, tol=tol)
            worst_param, worst = max(reports.items(), key=lambda kv: kv[1].max_rel_err)
            outcomes.append(CheckOutcome(name=name, seed=seed,
                                         max_rel_err=worst.max_rel_err,
                                         passed=all(r.passed for r in reports.values()),
                                         worst_param=worst_param))
    return outcomes
