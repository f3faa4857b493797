import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from i2vmatch import autodiff as ad
from i2vmatch.autodiff import Tape, Tensor
from i2vmatch.encoders import (
    EncoderParams,
    TrunkConfig,
    encode_image,
    encode_video,
    init_encoder_params,
    nonlocal_forward,
)

import reference_kernels as ref
from reference_kernels import grad_check, square, sum_all


@pytest.fixture(autouse=True)
def fresh_tape():
    with Tape():
        yield


def small_params(seed=0, num_blocks=1, **kw):
    cfg = TrunkConfig(input_dim=kw.pop("input_dim", 5),
                      hidden_dims=kw.pop("hidden_dims", (6, 6)),
                      output_dim=kw.pop("output_dim", 4), **kw)
    return init_encoder_params(cfg, num_blocks=num_blocks, seed=seed)


def test_identical_frames_give_identical_rows():
    params = small_params()
    frame = np.random.default_rng(0).standard_normal(5)
    frames = np.tile(frame, (4, 1))
    out = encode_image(frames, params).data
    for t in range(1, 4):
        np.testing.assert_array_equal(out[t], out[0])


def test_encode_image_permutation_commutes():
    params = small_params()
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((6, 5))
    perm = rng.permutation(6)
    a = encode_image(frames, params).data[perm]
    b = encode_image(frames[perm], params).data
    np.testing.assert_array_equal(a, b)


def test_encode_image_rowwise_independence():
    params = small_params()
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((5, 5))
    base = encode_image(frames, params).data
    bumped = frames.copy()
    bumped[2] += 1.0
    out = encode_image(bumped, params).data
    changed = np.any(out != base, axis=1)
    assert changed[2]
    assert not changed[[0, 1, 3, 4]].any()


def test_encode_image_shape_error():
    params = small_params()
    with pytest.raises(ad.ShapeError):
        encode_image(np.zeros((3, 7)), params)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trunk_gradients_match_finite_differences(seed):
    params = small_params(seed=seed)
    rng = np.random.default_rng(seed + 10)
    frame = rng.standard_normal((1, 5))
    errors = ad.grad_check_params(
        lambda: sum_all(square(encode_image(frame, params))),
        params.image_parameters(),
    )
    for name, err in errors.items():
        assert err <= 1e-4, (name, err)


# ---------------------------------------------------------------------------
# non-local block
# ---------------------------------------------------------------------------

def test_zero_output_projection_is_identity():
    params = small_params(num_blocks=1)
    blk = params.blocks[0]
    x = Tensor(np.random.default_rng(3).standard_normal((4, blk.channels)))
    out = nonlocal_forward(x, blk)
    np.testing.assert_array_equal(out.data, x.data)


def test_attention_rows_sum_to_one():
    params = small_params(num_blocks=1)
    blk = params.blocks[0]
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((5, blk.channels)))
    att = ref.softmax_rows(
        ref.matmul(ref.matmul(x, blk.w_theta), ref.transpose(ref.matmul(x, blk.w_phi)))
    ).data
    np.testing.assert_allclose(att.sum(axis=1), np.ones(5), atol=1e-12)


def test_nonlocal_permutation_equivariance():
    params = small_params(num_blocks=1, hidden_dims=(8, 8))
    blk = params.blocks[0]
    blk.w_z.data = np.random.default_rng(5).standard_normal(blk.w_z.data.shape)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 8))
    perm = rng.permutation(4)
    a = nonlocal_forward(Tensor(x), blk).data[perm]
    b = nonlocal_forward(Tensor(x[perm]), blk).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_nonlocal_channel_mismatch():
    params = small_params(num_blocks=1)
    with pytest.raises(ad.ShapeError):
        nonlocal_forward(Tensor(np.zeros((3, 9))), params.blocks[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nonlocal_gradients_match_finite_differences(seed):
    params = small_params(seed=seed, num_blocks=1, hidden_dims=(6,), output_dim=3)
    blk = params.blocks[0]
    # activate the block so w_z gradients are exercised
    blk.w_z.data = 0.5 * np.random.default_rng(seed).standard_normal(blk.w_z.data.shape)
    rng = np.random.default_rng(seed + 20)
    x0 = rng.standard_normal((4, 6))
    weights = {"theta": blk.w_theta, "phi": blk.w_phi, "g": blk.w_g, "z": blk.w_z}
    errors = ad.grad_check_params(
        lambda: sum_all(square(nonlocal_forward(Tensor(x0), blk))), weights)
    for name, err in errors.items():
        assert err <= 1e-4, (name, err)

    err = grad_check(lambda x: sum_all(square(nonlocal_forward(x, blk))), Tensor(x0))
    assert err <= 1e-4, err


# ---------------------------------------------------------------------------
# video encoder
# ---------------------------------------------------------------------------

def test_video_collapses_to_image_at_init():
    # trunks share the init draw and w_z = 0, so both paths agree exactly
    params = small_params(num_blocks=2)
    rng = np.random.default_rng(7)
    clip = rng.standard_normal((4, 5))
    frame_feats, _ = encode_video(clip[None], params)
    image_feats = encode_image(clip, params)
    np.testing.assert_array_equal(frame_feats.data, image_feats.data)


def test_video_feat_is_mean_of_frame_feats():
    params = small_params(num_blocks=2)
    rng = np.random.default_rng(8)
    for blk in params.blocks:
        blk.w_z.data = rng.standard_normal(blk.w_z.data.shape)
    clip = rng.standard_normal((5, 5))
    frame_feats, video_feat = encode_video(clip[None], params)
    np.testing.assert_allclose(video_feat.data, frame_feats.data.mean(axis=0, keepdims=True),
                               atol=1e-12)


def test_cross_frame_dependence_with_active_block():
    params = small_params(num_blocks=1)
    rng = np.random.default_rng(9)
    params.blocks[0].w_z.data = rng.standard_normal(params.blocks[0].w_z.data.shape)
    clip = rng.standard_normal((4, 5))
    base, _ = encode_video(clip[None], params)
    bumped = clip.copy()
    bumped[1] += 0.5
    out, _ = encode_video(bumped[None], params)
    assert np.linalg.norm(out.data[3] - base.data[3]) > 0


def test_temporal_pooling_permutation_invariant():
    params = small_params(num_blocks=1)
    rng = np.random.default_rng(10)
    params.blocks[0].w_z.data = rng.standard_normal(params.blocks[0].w_z.data.shape)
    clip = rng.standard_normal((6, 5))
    _, v1 = encode_video(clip[None], params)
    _, v2 = encode_video(clip[rng.permutation(6)][None], params)
    np.testing.assert_allclose(v1.data, v2.data, atol=1e-12)


def test_empty_clip_rejected():
    params = small_params()
    with pytest.raises(ad.ShapeError):
        encode_video(np.zeros((1, 0, 5)), params)


def test_spatial_grid_pooling():
    cfg = TrunkConfig(input_dim=3, hidden_dims=(6,), output_dim=4,
                      use_spatial_grid=True, grid_hw=(2, 2))
    params = init_encoder_params(cfg, num_blocks=1, seed=0)
    rng = np.random.default_rng(11)
    clip = rng.standard_normal((3, cfg.frame_vector_len))
    frame_feats, video_feat = encode_video(clip[None], params)
    assert frame_feats.data.shape == (3, 4)
    assert video_feat.data.shape == (1, 4)
    # a frame of identical positions pools to the single-position encoding
    pos = rng.standard_normal(3)
    flat = np.tile(pos, 4)[None, :]
    out = encode_image(flat, params).data
    single_cfg = TrunkConfig(input_dim=3, hidden_dims=(6,), output_dim=4)
    single = EncoderParams(single_cfg, params.image_layers, params.video_layers, [])
    ref = encode_image(pos[None, :], single).data
    np.testing.assert_allclose(out, ref, atol=1e-12)


@pytest.mark.parametrize("grid", [False, True], ids=["flat", "grid"])
def test_batched_video_matches_single_clips(grid):
    cfg = TrunkConfig(input_dim=3, hidden_dims=(6, 6), output_dim=4,
                      use_spatial_grid=grid, grid_hw=(2, 2) if grid else (1, 1))
    params = init_encoder_params(cfg, num_blocks=2, seed=4)
    rng = np.random.default_rng(12)
    for blk in params.blocks:
        blk.w_z.data = rng.standard_normal(blk.w_z.data.shape)
    clips = rng.standard_normal((5, 3, cfg.frame_vector_len))
    frame_feats, video_feats = encode_video(clips, params)
    assert frame_feats.data.shape == (15, 4) and video_feats.data.shape == (5, 4)
    for c in range(5):
        ff, vf = encode_video(clips[c][None], params)
        np.testing.assert_allclose(frame_feats.data[3 * c:3 * c + 3], ff.data,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(video_feats.data[c], vf.data[0], rtol=0, atol=1e-12)


def test_encode_video_rank_error():
    params = small_params()
    with pytest.raises(ad.ShapeError):
        encode_video(np.zeros((2, 2, 2, 5)), params)


def test_encode_video_rejects_a_single_unbatched_clip():
    with pytest.raises(ad.ShapeError, match=r"\(clips, frames, frame_len\), got \(4, 5\)"):
        encode_video(np.zeros((4, 5)), small_params())


def test_num_blocks_range_validated():
    cfg = TrunkConfig(input_dim=4)
    with pytest.raises(ValueError):
        init_encoder_params(cfg, num_blocks=5)
    with pytest.raises(ValueError):
        init_encoder_params(TrunkConfig(input_dim=4, hidden_dims=()), num_blocks=2)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_video_feat_shuffle_invariance_property(t, seed):
    params = small_params(num_blocks=1, seed=3)
    params.blocks[0].w_z.data = np.random.default_rng(99).standard_normal(
        params.blocks[0].w_z.data.shape)
    rng = np.random.default_rng(seed)
    clip = rng.standard_normal((t, 5))
    with Tape():
        _, v1 = encode_video(clip[None], params)
        _, v2 = encode_video(clip[rng.permutation(t)][None], params)
    np.testing.assert_allclose(v1.data, v2.data, atol=1e-12)


def test_named_parameters_cover_everything():
    params = small_params(num_blocks=2)
    names = set(params.named_parameters())
    assert {"image.0.w", "image.2.b", "video.1.w", "block0.z", "block1.theta"} <= names
    assert set(params.image_parameters()) | set(params.video_parameters()) == names
    assert not set(params.image_parameters()) & set(params.video_parameters())
