"""Training objective: classification, four-way hard-mined triplets, and
the two cross-network transfer losses.

The transfer losses pull per-frame image features toward the video
encoder's frame features -- directly (mean squared error) and structurally
(matching the two cross-sample distance matrices). By default they do not
send gradient into the video branch: the video features act as a fixed
target within each step, since letting the transfer losses reshape the
video network would push its attention blocks toward zero and destroy the
temporal modelling the image branch is supposed to inherit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import (
    Tensor,
    add_n,
    cross_entropy_mean,
    pairwise_euclidean,
    scaled_sq_diff,
    triplet_hinge_mean,
)

# each objective term, in the order loss_terms builds them, and its enable flag
TERM_FLAGS = {"cls": "use_cls", "tri_i2v": "use_i2v", "tri_v2i": "use_v2i",
              "tri_i2i": "use_i2i", "tri_v2v": "use_v2v",
              "transfer_feat": "use_transfer_feat", "transfer_dist": "use_transfer_dist"}


@dataclass(frozen=True)
class LossConfig:
    """Enable flags and knobs for every term of the objective.

    ``bp_to_video`` is off by default: the transfer losses then treat the
    video branch as a detached target and send it no gradient.
    """

    num_identities: int
    margin: float = 0.3
    use_cls: bool = True
    use_i2v: bool = True
    use_v2i: bool = True
    use_i2i: bool = True
    use_v2v: bool = True
    use_transfer_feat: bool = True
    use_transfer_dist: bool = True
    bp_to_video: bool = False

    def __post_init__(self):
        if self.num_identities < 1:
            raise ValueError("num_identities must be positive")
        if not math.isfinite(self.margin) or self.margin < 0:
            raise ValueError("margin must be finite and non-negative")
        if not any(getattr(self, flag) for flag in TERM_FLAGS.values()):
            raise ValueError("at least one loss term must be enabled")

    def with_terms(self, terms) -> "LossConfig":
        """A copy with exactly the named terms enabled; the other knobs stay."""
        return replace(self, **{flag: name in terms for name, flag in TERM_FLAGS.items()})


@dataclass
class BatchFeatures:
    """Features of one training batch.

    Row (n, t) of ``image_feats`` and ``frame_feats`` encode the same
    physical frame, through the image and video networks respectively;
    ``video_feats`` holds the temporally pooled clip features. The shapes
    are those ``encode_clip_batch`` returns, and are not checked again.
    """

    image_feats: Tensor    # (N*T, D)
    frame_feats: Tensor    # (N*T, D)
    video_feats: Tensor    # (N, D)
    labels: np.ndarray     # (N,) identity per clip

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def frame_labels(self) -> np.ndarray:
        """The identity of each frame row: its clip's label, T times."""
        return np.repeat(self.labels, self.image_feats.data.shape[0] // len(self.labels))


@dataclass
class ClassifierParams:
    """One linear identity classifier shared by both modalities."""

    w: Tensor  # (D, num_identities)

    @classmethod
    def init(cls, feature_dim: int, num_identities: int, seed: int = 0) -> "ClassifierParams":
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((feature_dim, num_identities)) / np.sqrt(feature_dim)
        return cls(w=Tensor(w, requires_grad=True))

    def named_parameters(self) -> dict[str, Tensor]:
        return {"classifier.w": self.w}


def _target(feats: Tensor, bp_to_video: bool) -> Tensor:
    return feats if bp_to_video else feats.detach()


def feature_transfer_loss(bf: BatchFeatures, bp_to_video: bool = False) -> Tensor:
    """Mean over frames of the squared distance between each image feature
    and the matching video frame feature."""
    target = _target(bf.frame_feats, bp_to_video)
    return scaled_sq_diff(bf.image_feats, target, 1.0 / bf.image_feats.data.shape[0])


def distance_transfer_loss(bf: BatchFeatures, bp_to_video: bool = False,
                           d_img: Tensor | None = None) -> Tensor:
    """Squared Frobenius mismatch of the two cross-sample distance matrices,
    scaled by 1/(N*T); a single frame reads 0. Blind to any joint isometry
    of either feature set, as it reads only pairwise distances. ``d_img`` is
    the image-image distance matrix when the caller has already built it."""
    n_frames = bf.image_feats.data.shape[0]
    target = _target(bf.frame_feats, bp_to_video)
    if d_img is None:
        d_img = pairwise_euclidean(bf.image_feats, bf.image_feats)
    d_vid = pairwise_euclidean(target, target)
    return scaled_sq_diff(d_img, d_vid, 1.0 / n_frames)


def _triplet_masks(anchor_labels, candidate_labels,
                   exclude_self: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative candidate masks, one row per anchor; raises
    ValueError naming an identity whose anchor lacks either."""
    anchor_labels = np.asarray(anchor_labels)
    candidate_labels = np.asarray(candidate_labels)
    same = anchor_labels[:, None] == candidate_labels[None, :]
    positive = same.copy()
    negative = ~same
    if exclude_self:
        np.fill_diagonal(positive, False)
    for kind, mask in (("positive", positive), ("negative", negative)):
        missing = ~mask.any(axis=1)
        if missing.any():
            ident = int(anchor_labels[int(np.argmax(missing))])
            raise ValueError(f"anchor of identity {ident} has no {kind} candidate in batch")
    return positive, negative


_TERM_MASKS: dict[tuple[str, bytes, int], tuple[np.ndarray, np.ndarray]] = {}


def _term_masks(kind: str, clip_labels: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_triplet_masks` of the ``kind`` term, "i2v" or "i2i", for clips
    labelled ``clip_labels`` of ``t`` frames each; kept read-only per label
    equality pattern, which P*K batches share, 8 at most. A miss builds them
    from the batch's own labels, so a missing candidate names its identity."""
    key = (kind, (clip_labels[:, None] == clip_labels[None, :]).tobytes(), t)
    masks = _TERM_MASKS.get(key)
    if masks is None:
        frames = np.repeat(clip_labels, t)
        masks = _triplet_masks(frames, clip_labels if kind == "i2v" else frames, kind == "i2i")
        for mask in masks:
            mask.flags.writeable = False
        if len(_TERM_MASKS) >= 8:
            _TERM_MASKS.clear()
        _TERM_MASKS[key] = masks
    return masks


def _hardest_triplet(dists: Tensor, masks: tuple[np.ndarray, np.ndarray],
                     margin: float, by_column: bool = False) -> Tensor:
    """Mean hinge over the anchors of a distance matrix, with the farthest
    positive and nearest negative of each. The anchors are its rows, or its
    columns with ``by_column``. ``masks`` match the matrix, one row per row,
    and are transposed with it by column: the v2i masks are the i2v ones."""
    positive, negative = (m.T for m in masks) if by_column else masks
    d = dists.data.T if by_column else dists.data
    # mining is a data-dependent selection; gradients flow through the
    # selected entries only (first index wins ties, deterministically)
    pos_idx = np.argmax(np.where(positive, d, -np.inf), axis=1)
    neg_idx = np.argmin(np.where(negative, d, np.inf), axis=1)
    anchors = np.arange(d.shape[0])
    if by_column:
        return triplet_hinge_mean(dists, (pos_idx, anchors), (neg_idx, anchors), margin)
    return triplet_hinge_mean(dists, (anchors, pos_idx), (anchors, neg_idx), margin)


def batch_hard_triplet(
    anchors: Tensor,
    candidates: Tensor,
    anchor_labels: np.ndarray,
    candidate_labels: np.ndarray,
    margin: float,
) -> Tensor:
    """Mean hinge over anchors with the farthest positive and nearest
    negative mined inside the batch. When ``candidates is anchors`` (one
    feature set against itself), no anchor is its own positive."""
    masks = _triplet_masks(anchor_labels, candidate_labels, anchors is candidates)
    return _hardest_triplet(pairwise_euclidean(anchors, candidates), masks, margin)


def classification_loss(bf: BatchFeatures, cls: ClassifierParams) -> Tensor:
    """Cross entropy of both modalities through the one shared classifier:
    mean over the N*T image features plus mean over the N video features."""
    num_classes = cls.w.data.shape[1]
    fl, cl = bf.frame_labels, bf.labels
    if fl.min() < 0 or fl.max() >= num_classes:
        bad = int(fl[(fl < 0) | (fl >= num_classes)][0])
        raise ValueError(f"label {bad} out of range for {num_classes} identities")
    return add_n([cross_entropy_mean(bf.image_feats, cls.w, fl),
                  cross_entropy_mean(bf.video_feats, cls.w, cl)])


def loss_terms(bf: BatchFeatures, cls: ClassifierParams, cfg: LossConfig) -> dict[str, Tensor]:
    """Every enabled objective term, keyed by name (all unit-weighted).

    Each distance matrix is built once: i2v mines the image-video matrix
    by rows and v2i by columns, and the image-image one serves both tri_i2i
    and the distance-transfer loss. The i2v and i2i masks come from
    :func:`_term_masks`; v2i mines the i2v masks by column."""
    i, v = bf.image_feats, bf.video_feats
    cl = bf.labels
    t, m = i.data.shape[0] // len(cl), cfg.margin
    terms: dict[str, Tensor] = {}
    if cfg.use_cls:
        terms["cls"] = classification_loss(bf, cls)
    if cfg.use_i2i or cfg.use_transfer_dist:
        d_ii = pairwise_euclidean(i, i)
    if cfg.use_i2v or cfg.use_v2i:
        d_iv = pairwise_euclidean(i, v)
    if cfg.use_i2v:
        # an image anchor's own clip counts as a positive
        terms["tri_i2v"] = _hardest_triplet(d_iv, _term_masks("i2v", cl, t), m)
    if cfg.use_v2i:
        terms["tri_v2i"] = _hardest_triplet(d_iv, _term_masks("i2v", cl, t), m, by_column=True)
    if cfg.use_i2i:
        terms["tri_i2i"] = _hardest_triplet(d_ii, _term_masks("i2i", cl, t), m)
    if cfg.use_v2v:
        terms["tri_v2v"] = batch_hard_triplet(v, v, cl, cl, m)
    if cfg.use_transfer_feat:
        terms["transfer_feat"] = feature_transfer_loss(bf, cfg.bp_to_video)
    if cfg.use_transfer_dist:
        terms["transfer_dist"] = distance_transfer_loss(bf, cfg.bp_to_video, d_ii)
    return terms
