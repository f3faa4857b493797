"""The two representation networks.

Both encoders share one trunk design: a small stack of affine+relu layers
mapping per-frame input vectors to D-dimensional features. The video
encoder additionally runs non-local attention blocks mid-trunk, mixing
information across all positions of a clip (never across the clips of a
batch), and pools spatially then temporally. Image and video trunks have
identical shapes but independent storage; they are initialized from the
same random draw so the two networks start feature-identical (the
attention blocks open as exact identities because their output projection
starts at zero). Each trunk layer records one ``affine`` tape entry and
each attention block one ``nonlocal_block`` entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    ShapeError,
    affine,
    mean_row_groups,
    nonlocal_block,
)

MAX_NONLOCAL_BLOCKS = 4


@dataclass(frozen=True)
class TrunkConfig:
    """Shape of the shared trunk design.

    ``input_dim`` is the per-position input size. With the spatial grid
    enabled, a frame vector carries H*W positions of ``input_dim`` values
    each (length H*W*input_dim); attention then runs over T*H*W positions
    and spatial average pooling reduces each frame back to one D-vector.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = (24, 24)
    output_dim: int = 16
    use_spatial_grid: bool = False
    grid_hw: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden layer widths must be positive")
        if self.use_spatial_grid and (self.grid_hw[0] < 1 or self.grid_hw[1] < 1):
            raise ValueError("grid extents must be positive")
        if not self.use_spatial_grid and tuple(self.grid_hw) != (1, 1):
            raise ValueError(f"grid_hw {self.grid_hw} needs use_spatial_grid: without the "
                             f"grid a frame is one position")

    @property
    def positions_per_frame(self) -> int:
        return self.grid_hw[0] * self.grid_hw[1] if self.use_spatial_grid else 1

    @property
    def frame_vector_len(self) -> int:
        return self.positions_per_frame * self.input_dim

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))


@dataclass
class AffineLayer:
    w: Tensor
    b: Tensor


@dataclass
class NonLocalParams:
    """One residual attention block over the positions axis.

    ``w_z`` starts at zero, so the block is an exact identity at
    initialization and the residual path dominates early training.
    """

    w_theta: Tensor
    w_phi: Tensor
    w_g: Tensor
    w_z: Tensor

    @property
    def channels(self) -> int:
        return self.w_theta.data.shape[0]


@dataclass
class EncoderParams:
    """All trainable arrays of the image and video networks."""

    config: TrunkConfig
    image_layers: list[AffineLayer]
    video_layers: list[AffineLayer]
    blocks: list[NonLocalParams]

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for branch, layers in (("image", self.image_layers), ("video", self.video_layers)):
            for i, layer in enumerate(layers):
                out[f"{branch}.{i}.w"] = layer.w
                out[f"{branch}.{i}.b"] = layer.b
        for i, blk in enumerate(self.blocks):
            out[f"block{i}.theta"] = blk.w_theta
            out[f"block{i}.phi"] = blk.w_phi
            out[f"block{i}.g"] = blk.w_g
            out[f"block{i}.z"] = blk.w_z
        return out

    def image_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.named_parameters().items() if k.startswith("image.")}

    def video_parameters(self) -> dict[str, Tensor]:
        """Video-branch parameters: video trunk plus attention blocks."""
        return {k: v for k, v in self.named_parameters().items() if not k.startswith("image.")}


def init_encoder_params(config: TrunkConfig, num_blocks: int = 2,
                        seed: int = 0) -> EncoderParams:
    """Draw fresh parameters; image and video trunks get the same draw.

    The identical initialization (plus zeroed attention outputs) makes the
    two networks feature-identical at step 0, so the transfer losses start
    at zero and grow only as the branches diverge.
    """
    if not 0 <= num_blocks <= MAX_NONLOCAL_BLOCKS:
        raise ValueError(f"num_blocks must be in 0..{MAX_NONLOCAL_BLOCKS}, got {num_blocks}")
    if not config.hidden_dims:
        raise ValueError("the trunk needs a hidden layer for the blocks to follow")
    rng = np.random.default_rng(seed)
    trunk = [(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in),
              np.zeros((1, fan_out))) for fan_in, fan_out in config.layer_dims]

    def copy_trunk() -> list[AffineLayer]:
        return [AffineLayer(Tensor(w.copy(), requires_grad=True),
                            Tensor(b.copy(), requires_grad=True)) for w, b in trunk]

    channels = config.hidden_dims[0]
    inner = max(1, channels // 2)

    def projection() -> Tensor:
        return Tensor(rng.standard_normal((channels, inner)) / np.sqrt(channels),
                      requires_grad=True)

    # the call order draws theta, then phi, then g from the stream
    blocks = [NonLocalParams(projection(), projection(), projection(),
                             Tensor(np.zeros((inner, channels)), requires_grad=True))
              for _ in range(num_blocks)]
    return EncoderParams(config, copy_trunk(), copy_trunk(), blocks)


def nonlocal_forward(x: Tensor, params: NonLocalParams, group: int | None = None) -> Tensor:
    """Residual attention: each position's output is a softmax-weighted sum
    of projected features at the positions of its group (``group``
    consecutive rows; all rows when None), added back onto the input."""
    return nonlocal_block(x, params.w_theta, params.w_phi, params.w_g, params.w_z, group)


def _encode(frames: np.ndarray, params: EncoderParams, op: str, layers: list[AffineLayer],
            blocks: list[NonLocalParams] | tuple = (), clip_len: int = 1) -> Tensor:
    """Run (frames, frame_len) rows position by position through the
    affine+relu stack, with the attention blocks, if any, after the first
    activation and grouped by ``clip_len`` frames; then average each frame's
    positions back into one row (spatial pooling)."""
    config = params.config
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != config.frame_vector_len:
        raise ShapeError(
            f"{op} expects (frames, {config.frame_vector_len}), got {frames.shape}"
        )
    ppf = config.positions_per_frame
    h = Tensor(frames.reshape(frames.shape[0] * ppf, config.input_dim))
    for i, layer in enumerate(layers):
        h = affine(h, layer.w, layer.b, relu=i < len(layers) - 1)
        if i == 0:  # init_encoder_params guarantees a hidden layer
            for blk in blocks:
                h = nonlocal_forward(h, blk, clip_len * ppf)
    return mean_row_groups(h, ppf) if ppf > 1 else h


def encode_image(frames: np.ndarray, params: EncoderParams) -> Tensor:
    """Encode frames independently: row nt of the output depends only on
    frame nt. Returns an (n_frames, D) feature matrix."""
    return _encode(frames, params, "encode_image", params.image_layers)


def encode_video(clips: np.ndarray, params: EncoderParams) -> tuple[Tensor, Tensor]:
    """Encode one clip (T, frame_len) or a batch of N clips (N, T, frame_len)
    through the video trunk with attention.

    The trunk runs once over all N*T positions; attention mixes positions
    only within their own clip. Returns ``(frame_feats, video_feat)``:
    per-frame features (N*T, D) in clip-major order, after cross-position
    mixing and spatial pooling, and each clip's temporal average (N, D).
    """
    clips = np.asarray(clips, dtype=np.float64)
    if clips.ndim == 2:
        clips = clips[None]
    if clips.ndim != 3:
        raise ShapeError(f"encode_video expects (frames, frame_len) or "
                         f"(clips, frames, frame_len), got {clips.shape}")
    n, t, flen = clips.shape
    if n * t < 1:
        raise ShapeError("encode_video needs at least one frame")
    feats = _encode(clips.reshape(n * t, flen), params, "encode_video",
                    params.video_layers, params.blocks, clip_len=t)
    return feats, mean_row_groups(feats, t)  # temporal average pooling


def encode_clip_batch(
    clips: np.ndarray, params: EncoderParams
) -> tuple[Tensor, Tensor, Tensor]:
    """Run an (N, T, frame_len) batch through both networks.

    Returns ``(image_feats, frame_feats, video_feats)`` with the image and
    frame rows in matching clip-major order.
    """
    clips = np.asarray(clips, dtype=np.float64)
    if clips.ndim != 3:
        raise ShapeError(f"expected (clips, frames, frame_len), got {clips.shape}")
    n, t, flen = clips.shape
    image_feats = encode_image(clips.reshape(n * t, flen), params)
    frame_feats, video_feats = encode_video(clips, params)
    return image_feats, frame_feats, video_feats
