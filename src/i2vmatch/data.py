"""Synthetic identity sequences and the clip/batch samplers.

Each video is a sequence of frame vectors: identity prototype + camera
offset + a smooth linear drift across the video + per-frame noise, with
occasional occlusion zeroing a contiguous block of coordinates. One video
exists per (identity, camera) pair. Within the retrieval cohort (all
identities, or the held-out ones when ``num_eval_identities`` is set),
the first camera's videos are the designated query videos -- their first
frames serve as the query images -- and the remaining videos form the
gallery. All randomness flows through numpy's PCG64 generator, so a fixed
seed reproduces the dataset bit for bit. Training batches hold P
identities with K clips of T frames each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DATASET_FORMAT = "i2vmatch-dataset/1"


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator knobs.

    ``num_eval_identities`` carves the LAST identities out as a held-out
    retrieval cohort: training batches draw only from the remaining
    (train) identities, whose labels stay contiguous from 0. Left at None,
    the whole cast is used for both training and evaluation (closed
    world).
    """

    num_identities: int = 10
    cameras_per_identity: int = 2
    frames_per_video: tuple[int, int] = (40, 64)  # uniform inclusive range
    input_dim: int = 20
    prototype_scale: float = 1.0
    prototype_rank: int | None = None
    camera_offset_scale: float = 0.4
    drift_scale: float = 0.2
    frame_noise_scale: float = 0.3
    occlusion_prob: float = 0.5
    occlusion_mask_fraction: float = 0.5
    num_eval_identities: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.num_identities < 2:
            raise ValueError("need at least 2 identities")
        if self.cameras_per_identity < 2:
            raise ValueError("need at least 2 cameras per identity")
        lo, hi = self.frames_per_video
        if lo < 1 or hi < lo:
            raise ValueError(f"bad frames_per_video range {self.frames_per_video}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.seed < 0:
            raise ValueError(f"synth seed must be non-negative, got {self.seed}")
        for name in ("prototype_scale", "camera_offset_scale", "drift_scale",
                     "frame_noise_scale"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        for name in ("occlusion_prob", "occlusion_mask_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.prototype_rank is not None and not 1 <= self.prototype_rank <= self.input_dim:
            raise ValueError("prototype_rank must be in 1..input_dim")
        if self.num_eval_identities is not None:
            if not 2 <= self.num_eval_identities <= self.num_identities - 2:
                raise ValueError(
                    "num_eval_identities must leave at least 2 train and "
                    "2 eval identities")

    @property
    def num_train_identities(self) -> int:
        if self.num_eval_identities is None:
            return self.num_identities
        return self.num_identities - self.num_eval_identities


@dataclass
class VideoRecord:
    identity: int
    camera: int
    frames: np.ndarray  # (L, input_dim)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise ValueError(f"video needs (L>=1, dim) frames, got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError(f"video of identity {self.identity} camera {self.camera} "
                             f"holds a non-finite frame value")

    @property
    def length(self) -> int:
        return self.frames.shape[0]


@dataclass
class SyntheticDataset:
    """The videos and their train/query/gallery split (see the module
    docstring), derived once at construction."""

    config: SyntheticConfig
    videos: list[VideoRecord]
    train_videos: list[VideoRecord] = field(init=False, repr=False, compare=False)
    query: list[VideoRecord] = field(init=False, repr=False, compare=False)
    gallery: list[VideoRecord] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idents = sorted({v.identity for v in self.videos})
        k = self.config.num_eval_identities
        evals = set(idents[-k:] if k else idents)
        first_cam = min((v.camera for v in self.videos), default=None)
        self.train_videos = [v for v in self.videos if not k or v.identity not in evals]
        self.query = [v for v in self.videos if v.identity in evals and v.camera == first_cam]
        self.gallery = [v for v in self.videos if v.identity in evals and v.camera != first_cam]


@dataclass(frozen=True)
class ClipBatch:
    """P*K clips of T frames each; the flat frame view doubles as the
    image batch (clip-major order)."""

    clips: np.ndarray          # (N, T, input_dim)
    labels: np.ndarray         # (N,)
    provenance: tuple[tuple[int, int, int], ...]  # (identity, camera, start)


@np.errstate(over="ignore", invalid="ignore")  # VideoRecord rejects what overflows
def generate_dataset(cfg: SyntheticConfig) -> SyntheticDataset:
    """Deterministically emit one video per (identity, camera) pair.

    With ``prototype_rank`` set, identity prototypes live on a shared
    low-dimensional linear manifold, so coordinates are correlated and an
    occluded block is in principle recoverable from the visible ones -- the
    structure an encoder must pick up to be robust.

    The draws stay per frame and in order; the arithmetic is done per video,
    each element through the same float operations as a per-frame sum.
    """
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
    width = int(round(cfg.occlusion_mask_fraction * dim))
    for ident in range(cfg.num_identities):
        for cam in range(cfg.cameras_per_identity):
            # identity plus camera offset, summed once per video, not per frame
            view = prototypes[ident] + cfg.camera_offset_scale * rng.standard_normal(dim)
            length = int(rng.integers(lo, hi + 1))
            drift_a = cfg.drift_scale * rng.standard_normal(dim)
            drift_b = cfg.drift_scale * rng.standard_normal(dim)
            noise = np.empty((length, dim))
            cuts = []
            for t in range(length):
                rng.standard_normal(out=noise[t])
                # frame 0 is the enrollment view serving as the query image
                # and stays occlusion-free (it still carries noise)
                if (t > 0 and cfg.occlusion_prob > 0 and rng.random() < cfg.occlusion_prob
                        and width > 0):
                    cuts.append((t, int(rng.integers(0, dim - width + 1))))
            alpha = (np.arange(length) / max(length - 1, 1))[:, None]
            # in place over the noise, made before any temporary, so the heap does not grow
            noise *= cfg.frame_noise_scale
            frames = np.add(view + (1.0 - alpha) * drift_a + alpha * drift_b, noise, out=noise)
            for t, start in cuts:
                frames[t, start:start + width] = 0.0
            videos.append(VideoRecord(identity=ident, camera=cam, frames=frames))
    return SyntheticDataset(config=cfg, videos=videos)


def sample_clip(video: VideoRecord, t: int, stride: int,
                rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Pick T frames with the given stride from a uniform random start.

    Videos shorter than the required span of (T-1)*stride + 1 frames are
    repeated cyclically until they cover it. Returns the clip and the
    start index (in the possibly-repeated timeline).
    """
    if t < 1 or stride < 1:
        raise ValueError("t and stride must be >= 1")
    length = video.length
    span = (t - 1) * stride + 1
    # the start ranges over ceil(span / length) repeats of a short video
    timeline = -(-span // length) * length if length < span else length
    start = int(rng.integers(0, timeline - span + 1))
    # reduce the stride first, so the int64 products cannot wrap at any stride
    return video.frames[(start + stride % length * np.arange(t)) % length], start


def pk_batch_sampler(dataset: SyntheticDataset, p: int, k: int, t: int,
                     stride: int, rng: np.random.Generator):
    """Endless stream of batches: P train identities, K clips each, T frames.

    Identities with fewer than K videos are sampled with replacement. Any
    K >= 1 is drawn as asked: ``training.RunConfig`` checks which batch
    shapes the enabled loss terms can train on.
    """
    by_identity: dict[int, list[VideoRecord]] = {}
    for v in dataset.train_videos:
        by_identity.setdefault(v.identity, []).append(v)
    idents = sorted(by_identity)
    if len(idents) < p:
        raise ValueError(f"dataset has {len(idents)} train identities, need P={p}")

    def stream():
        while True:
            chosen = rng.choice(idents, size=p, replace=False)
            clips, labels, prov = [], [], []
            for ident in chosen:
                vids = by_identity[int(ident)]
                replace = len(vids) < k
                picks = rng.choice(len(vids), size=k, replace=replace)
                for vi in picks:
                    video = vids[int(vi)]
                    clip, start = sample_clip(video, t, stride, rng)
                    clips.append(clip)
                    labels.append(video.identity)
                    prov.append((video.identity, video.camera, start))
            yield ClipBatch(clips=np.stack(clips), labels=np.asarray(labels),
                            provenance=tuple(prov))

    return stream()


# ---------------------------------------------------------------------------
# line-oriented text export
# ---------------------------------------------------------------------------

def format_floats(values: np.ndarray) -> str:
    """Space-separated ``repr`` of each value: parsing it back is exact."""
    return " ".join(repr(float(x)) for x in values)


def parse_floats(tokens: list[str], what: str) -> np.ndarray:
    """The inverse of :func:`format_floats`; a token that is no number or
    a non-finite value raises ValueError naming ``what``."""
    try:
        values = np.array([float(x) for x in tokens])
    except ValueError as exc:  # float() names the token
        raise ValueError(f"{what}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} holds a non-finite value")
    return values


def write_records(path, dim: int, records) -> None:
    """Write ``(identity, camera, rows)`` records, rows a (count, dim)
    array, one per line after a header carrying the format tag and dim."""
    lines = [f"{DATASET_FORMAT} dim={dim}"]
    for identity, camera, rows in records:
        lines.append(f"{identity} {camera} {len(rows)} {format_floats(rows.reshape(-1))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_dataset(dataset: SyntheticDataset, path) -> None:
    """One record per line: identity, camera, frame count, frame vectors
    (row-major)."""
    write_records(path, dataset.config.input_dim,
                  ((v.identity, v.camera, v.frames) for v in dataset.videos))
