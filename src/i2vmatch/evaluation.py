"""Retrieval-time pipeline and ranked-retrieval metrics.

Three protocols share one machinery: image-to-video (query = first frame
of each query video through the image network, gallery = full videos
through the video network), image-to-image (both sides are first frames),
and video-to-video (both sides are full videos). Videos are cut into
fixed-length clips by frame-row index arithmetic; each bounded encoder
batch gathers its clips' rows with one index, and a video's feature is the
mean over its clips. Rankings are by Euclidean distance with stable index
tie-breaking, scored with CMC top-k curves and mean average precision.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import NonFiniteError, Tensor, keep_heap, no_grad, pairwise_euclidean
from .data import SyntheticDataset, VideoRecord
from .encoders import EncoderParams, encode_image, encode_video

# (query side, gallery side) per protocol: "image" is each video's first
# frame through the image network, "video" its clip-pooled video features
PROTOCOL_SIDES = {"I2V": ("image", "video"), "I2I": ("image", "image"),
                  "V2V": ("video", "video")}
PROTOCOLS = tuple(PROTOCOL_SIDES)
METRICS_FORMAT = "i2vmatch-metrics/1"
# positions (clips x frames x grid cells) encoded in one call while extracting
# gallery features. It is not a memory knob: no bound from 256 to 2,048 ran
# faster (2,048 was slower, 256 17% slower). The feature bytes depend on it:
# 2,048-row matmuls matched their 1,024-row halves, 4,096-row ones did not.
GALLERY_BATCH_POSITIONS = 1024


@dataclass
class GalleryIndex:
    """Per-video features with their labels."""

    features: np.ndarray    # (G, D)
    identities: np.ndarray  # (G,)
    cameras: np.ndarray     # (G,)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.identities = np.asarray(self.identities, dtype=np.int64)
        self.cameras = np.asarray(self.cameras, dtype=np.int64)
        if not np.all(np.isfinite(self.features)):
            raise NonFiniteError("features must be finite")


@dataclass
class MetricsReport:
    protocol: str
    cmc: list[float]          # top-1 .. top-K_max
    map: float
    num_queries: int

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if any(b < a - 1e-12 for a, b in zip(self.cmc, self.cmc[1:])):
            raise ValueError("CMC must be non-decreasing in k")
        if not all(0.0 <= c <= 1.0 for c in self.cmc) or not 0.0 <= self.map <= 1.0:
            raise ValueError("metric values must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {"format": METRICS_FORMAT, **asdict(self)}

    def table(self) -> str:
        ranks = [1, 5, 10, 20]
        cells = [f"top-{r}: {self.cmc[r - 1]:.4f}" for r in ranks if r <= len(self.cmc)]
        cells.append(f"mAP: {self.map:.4f}")
        return f"{self.protocol:>4}  " + "  ".join(cells)


def extract_gallery_features(videos: list[VideoRecord], params: EncoderParams,
                             clip_len: int) -> GalleryIndex:
    """Encode each video as the mean of its clips' pooled features: its
    consecutive ``clip_len``-frame chunks, a short last one repeated
    cyclically. Clips of consecutive videos are encoded together, at most
    ``GALLERY_BATCH_POSITIONS`` positions per call, so memory stays bounded."""
    if clip_len < 1:
        raise ValueError("clip_len must be >= 1")
    lengths = np.array([v.length for v in videos], dtype=np.intp)
    counts = -(-lengths // clip_len)
    first = np.cumsum(counts) - counts  # each video's first clip
    # per clip: its start in its video, its frames before the repeat, its rows
    start = (np.arange(counts.sum()) - np.repeat(first, counts)) * clip_len
    avail = np.minimum(clip_len, np.repeat(lengths, counts) - start)
    start += np.repeat(np.cumsum(lengths) - lengths, counts)
    rows = start[:, None] + np.arange(clip_len) % avail[:, None]
    frames = np.concatenate([v.frames for v in videos])
    per_call = max(1, GALLERY_BATCH_POSITIONS // (clip_len * params.config.positions_per_frame))
    with no_grad():
        clip_feats = np.concatenate([encode_video(frames[rows[s:s + per_call]], params)[1].data
                                     for s in range(0, len(rows), per_call)])
    # clip j of all videos at once: the sequential sum of .mean(axis=0), where
    # np.add.reduceat would add a pairwise sum of the later clips to the first
    feats = clip_feats[first]
    for j in range(1, counts.max(initial=1)):
        feats[counts > j] += clip_feats[first[counts > j] + j]
    return GalleryIndex(feats / counts[:, None], [v.identity for v in videos],
                        [v.camera for v in videos])


def rank_queries(query_feats: np.ndarray, gallery: GalleryIndex) -> np.ndarray:
    """Per query, gallery indices sorted by ascending Euclidean distance.

    Distances come from :func:`~i2vmatch.autodiff.pairwise_euclidean` (its
    1e-12 under the root keeps their order). Rows are quicksorted, and those
    holding an exact tie (or a NaN) sorted again stably: ties go by index.
    """
    d = pairwise_euclidean(Tensor(query_feats), Tensor(gallery.features)).data
    order = np.argsort(d, axis=1)
    tied = ~(np.diff(np.take_along_axis(d, order, axis=1)) > 0).all(axis=1)
    order[tied] = np.argsort(d[tied], axis=1, kind="stable")
    return order


def hit_matrix(rankings: np.ndarray, query_ids, gallery_ids) -> np.ndarray:
    """hits[q, r]: whether query q's rank-(r+1) gallery item shares its
    identity; both metrics read it. Raises ValueError naming the first
    query without a hit."""
    query_ids = np.asarray(query_ids)
    hits = np.asarray(gallery_ids)[rankings] == query_ids[:, None]
    matched = hits.any(axis=1)
    if not matched.all():
        qi = int(np.argmin(matched))
        raise ValueError(f"query {qi} (identity {int(query_ids[qi])}) "
                         f"has no correct gallery item")
    return hits


def cmc(hits: np.ndarray, k_max: int) -> list[float]:
    """top-k accuracy for k = 1..k_max from a :func:`hit_matrix`: the
    fraction of queries whose first correct match appears at rank <= k."""
    first = hits.argmax(axis=1)  # 0-based
    return [float((first < k).mean()) for k in range(1, min(k_max, hits.shape[1]) + 1)]


def mean_average_precision(hits: np.ndarray) -> float:
    """Mean over the queries of a :func:`hit_matrix` of average precision:
    per query, the mean of precision-at-rank over the ranks holding
    relevant items."""
    precision = np.cumsum(hits, axis=1) / np.arange(1, hits.shape[1] + 1)
    # a mean per row over its own hits: one sum over a whole row would add
    # zeros between the hits and move the last bit; one (rows, c) mean per hit count c
    counts, ap = hits.sum(axis=1), np.empty(len(hits))
    for c in np.unique(counts):
        rows = counts == c
        ap[rows] = precision[rows][hits[rows]].reshape(-1, c).mean(axis=1)
    return float(np.mean(ap))


def build_side(dataset: SyntheticDataset, split: str, kind: str, params: EncoderParams,
               clip_len: int) -> GalleryIndex:
    """Features of one protocol side of a split: ``"image"`` encodes each
    video's first frame with the image network, ``"video"`` the whole video
    with the video network (see :func:`extract_gallery_features`). numpy's
    floating-point errors name the side."""
    videos = getattr(dataset, split)
    try:
        if kind == "video":
            return extract_gallery_features(videos, params, clip_len)
        with no_grad():
            feats = encode_image(np.stack([v.frames[0] for v in videos]), params).data
        return GalleryIndex(feats, [v.identity for v in videos], [v.camera for v in videos])
    except FloatingPointError as exc:
        raise NonFiniteError(f"{split} {kind} features: {exc}") from None


def evaluate(dataset: SyntheticDataset, params: EncoderParams, protocols=PROTOCOLS, *,
             clip_len: int, k_max: int) -> dict[str, MetricsReport]:
    """Score each named protocol on the dataset's query/gallery split.

    Protocols share their sides: each (kind, split) side is built once, so
    all three protocols encode the query and gallery videos once each
    through either network. Every name is checked before any encoding.
    """
    unknown = [p for p in protocols if p not in PROTOCOL_SIDES]
    if unknown:
        raise ValueError(f"unknown protocol {unknown[0]!r}; expected one of {PROTOCOLS}")
    keep_heap()
    side = functools.cache(lambda kind, split: build_side(dataset, split, kind, params,
                                                          clip_len))
    reports = {}
    for protocol in protocols:
        query_kind, gallery_kind = PROTOCOL_SIDES[protocol]
        queries, gallery = side(query_kind, "query"), side(gallery_kind, "gallery")
        try:
            rankings = rank_queries(queries.features, gallery)
        except FloatingPointError as exc:
            raise NonFiniteError(f"{protocol} distances: {exc}") from None
        hits = hit_matrix(rankings, queries.identities, gallery.identities)
        reports[protocol] = MetricsReport(protocol=protocol, cmc=cmc(hits, k_max),
                                          map=mean_average_precision(hits),
                                          num_queries=len(queries.identities))
    return reports


def run_protocol(protocol: str, dataset: SyntheticDataset, params: EncoderParams,
                 clip_len: int, k_max: int) -> MetricsReport:
    """Evaluate one retrieval protocol: :func:`evaluate` of that one name."""
    return evaluate(dataset, params, (protocol,), clip_len=clip_len, k_max=k_max)[protocol]
