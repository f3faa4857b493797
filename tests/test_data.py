import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from i2vmatch.data import (
    SyntheticConfig,
    SyntheticDataset,
    VideoRecord,
    generate_dataset,
    pk_batch_sampler,
    sample_clip,
    save_dataset,
)
from i2vmatch.encoders import TrunkConfig, encode_clip_batch, encode_image, init_encoder_params
from i2vmatch.losses import BatchFeatures

import reference_kernels as ref
from dataset_reader import load_dataset


def quiet_cfg(**kw):
    base = dict(num_identities=4, cameras_per_identity=2, frames_per_video=(8, 12),
                input_dim=6, seed=0)
    base.update(kw)
    return SyntheticConfig(**base)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_degenerate_generator_emits_prototypes():
    cfg = quiet_cfg(camera_offset_scale=0.0, drift_scale=0.0,
                    frame_noise_scale=0.0, occlusion_prob=0.0)
    ds = generate_dataset(cfg)
    for ident in range(cfg.num_identities):
        vids = [v for v in ds.videos if v.identity == ident]
        proto = vids[0].frames[0]
        for v in vids:
            np.testing.assert_array_equal(v.frames, np.tile(proto, (v.length, 1)))


def test_same_seed_bitwise_identical():
    a = generate_dataset(quiet_cfg(seed=42))
    b = generate_dataset(quiet_cfg(seed=42))
    assert len(a.videos) == len(b.videos)
    for va, vb in zip(a.videos, b.videos):
        assert (va.identity, va.camera) == (vb.identity, vb.camera)
        np.testing.assert_array_equal(va.frames, vb.frames)


def test_different_seed_differs():
    a = generate_dataset(quiet_cfg(seed=1))
    b = generate_dataset(quiet_cfg(seed=2))
    assert any(not np.array_equal(va.frames, vb.frames)
               for va, vb in zip(a.videos, b.videos))


def assert_same_bytes_as_per_frame_loop(cfg):
    got, want = generate_dataset(cfg), ref.generate_dataset(cfg)
    assert len(got.videos) == len(want.videos)
    for g, w in zip(got.videos, want.videos):
        assert (g.identity, g.camera) == (w.identity, w.camera)
        assert g.frames.tobytes() == w.frames.tobytes()


# the edges of each branch of the frame loop: a one-frame video (no drift
# interpolation), no coin or every coin occluding, empty and full cuts,
# prototypes of full and low rank, and every scale at zero
@pytest.mark.parametrize("over", [
    dict(frames_per_video=(1, 1)),
    dict(frames_per_video=(1, 3), occlusion_prob=1.0),
    dict(occlusion_prob=0.0),
    dict(occlusion_prob=1.0),
    dict(occlusion_mask_fraction=0.0),
    dict(occlusion_mask_fraction=1.0, occlusion_prob=1.0),
    dict(prototype_rank=None),
    dict(prototype_rank=2),
    dict(prototype_scale=0.0, camera_offset_scale=0.0, drift_scale=0.0,
         frame_noise_scale=0.0),
], ids=["one-frame", "short-all-occluded", "no-occlusion", "all-occluded", "empty-cut",
        "full-cut", "full-rank", "rank-2", "zero-scales"])
def test_generator_bytes_match_the_per_frame_loop(over):
    assert_same_bytes_as_per_frame_loop(quiet_cfg(**over))


@st.composite
def synthetic_configs(draw):
    lo = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 8))
    scale = st.sampled_from([0.0, 0.3, 1.0, 7.5])
    unit = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    return SyntheticConfig(
        num_identities=draw(st.integers(2, 4)), cameras_per_identity=draw(st.integers(2, 3)),
        frames_per_video=(lo, lo + draw(st.integers(0, 5))), input_dim=dim,
        prototype_scale=draw(scale), prototype_rank=draw(st.none() | st.integers(1, dim)),
        camera_offset_scale=draw(scale), drift_scale=draw(scale),
        frame_noise_scale=draw(scale), occlusion_prob=draw(unit),
        occlusion_mask_fraction=draw(unit), seed=draw(st.integers(0, 2**32)))


@settings(max_examples=100, deadline=None)
@given(synthetic_configs())
def test_generator_bytes_match_the_per_frame_loop_on_drawn_configs(cfg):
    assert_same_bytes_as_per_frame_loop(cfg)


def test_generator_overflow_is_reported_as_by_the_per_frame_loop():
    cfg = quiet_cfg(drift_scale=1e308)
    with pytest.raises(ValueError) as got:
        generate_dataset(cfg)
    with pytest.raises(ValueError) as want:
        ref.generate_dataset(cfg)
    assert str(got.value) == str(want.value)
    assert "holds a non-finite frame value" in str(got.value)


def test_within_identity_distances_below_between():
    ds = generate_dataset(SyntheticConfig())  # default scales
    frames, idents = [], []
    for v in ds.videos:
        frames.append(v.frames)
        idents.extend([v.identity] * v.length)
    x = np.vstack(frames)
    idents = np.asarray(idents)
    rng = np.random.default_rng(0)
    pick = rng.choice(len(x), size=400)
    within, between = [], []
    for i, j in zip(pick[::2], pick[1::2]):
        d = np.linalg.norm(x[i] - x[j])
        (within if idents[i] == idents[j] else between).append(d)
    assert np.mean(within) < np.mean(between)


def test_occlusion_zeroes_contiguous_block_after_first_frame():
    cfg = quiet_cfg(occlusion_prob=1.0, occlusion_mask_fraction=0.5,
                    camera_offset_scale=0.0, drift_scale=0.0, frame_noise_scale=0.0,
                    prototype_scale=5.0)
    ds = generate_dataset(cfg)
    width = round(0.5 * cfg.input_dim)
    for v in ds.videos:
        # frame 0 is the enrollment view and is never occluded
        assert not np.any(v.frames[0] == 0.0)
        for frame in v.frames[1:]:
            zeros = np.flatnonzero(frame == 0.0)
            assert len(zeros) >= width
            assert np.all(np.diff(zeros) == 1)


def test_query_gallery_partition():
    ds = generate_dataset(quiet_cfg(cameras_per_identity=3))
    assert len(ds.query) == 4
    assert len(ds.gallery) == 8
    assert {v.camera for v in ds.query} == {0}
    assert len(ds.query) + len(ds.gallery) == len(ds.videos)


@pytest.mark.parametrize("held_out", [None, 2])
def test_split_is_fixed_at_construction_in_video_order(held_out):
    ds = generate_dataset(quiet_cfg(num_identities=6, cameras_per_identity=3,
                                    num_eval_identities=held_out))
    evals = {4, 5} if held_out else set(range(6))
    train = set(range(4)) if held_out else evals
    assert ds.train_videos == [v for v in ds.videos if v.identity in train]
    assert ds.query == [v for v in ds.videos if v.identity in evals and v.camera == 0]
    assert ds.gallery == [v for v in ds.videos if v.identity in evals and v.camera > 0]
    assert ds.query is ds.query  # stored, not derived again on each read
    assert "query" not in repr(ds)
    assert SyntheticDataset(ds.config, ds.videos) == ds


def test_empty_dataset_has_three_empty_splits():
    ds = SyntheticDataset(quiet_cfg(), [])
    assert ds.train_videos == ds.query == ds.gallery == []


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(num_identities=1)
    with pytest.raises(ValueError):
        SyntheticConfig(cameras_per_identity=1)
    with pytest.raises(ValueError):
        SyntheticConfig(occlusion_prob=1.5)
    with pytest.raises(ValueError):
        SyntheticConfig(frames_per_video=(5, 3))


# ---------------------------------------------------------------------------
# clip sampling
# ---------------------------------------------------------------------------

def test_sample_clip_stride_indices():
    video = VideoRecord(0, 0, np.arange(40, dtype=float)[:, None])
    for trial in range(200):
        rng = np.random.default_rng(trial)
        clip, start = sample_clip(video, t=4, stride=8, rng=rng)
        assert 0 <= start <= 15
        np.testing.assert_array_equal(clip[:, 0], start + 8 * np.arange(4))


def test_sample_clip_single_frame_video():
    video = VideoRecord(0, 0, np.array([[7.0, 7.0]]))
    clip, start = sample_clip(video, t=4, stride=8, rng=np.random.default_rng(0))
    assert start == 0
    np.testing.assert_array_equal(clip, np.tile([7.0, 7.0], (4, 1)))


def test_sample_clip_short_video_duplicates_cyclically():
    # L=10 < span=25: tiled to 30 frames; every draw must index validly
    video = VideoRecord(0, 0, np.arange(10, dtype=float)[:, None])
    for trial in range(100):
        rng = np.random.default_rng(trial)
        clip, start = sample_clip(video, t=4, stride=8, rng=rng)
        assert 0 <= start <= 30 - 25
        want = [(start + 8 * k) % 10 for k in range(4)]
        np.testing.assert_array_equal(clip[:, 0], want)


def test_sample_clip_validation():
    video = VideoRecord(0, 0, np.zeros((5, 2)))
    with pytest.raises(ValueError):
        sample_clip(video, t=0, stride=1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        VideoRecord(0, 0, np.zeros((0, 2)))


@pytest.mark.parametrize("stride", [8, 2**62, 10**20])
def test_sample_clip_rows_at_any_stride(stride):
    # the rows are (start + stride*j) % length in Python ints, which never wrap
    video = VideoRecord(0, 0, np.arange(50, dtype=float)[:, None])
    for trial in range(20):
        clip, start = sample_clip(video, 4, stride, np.random.default_rng(trial))
        np.testing.assert_array_equal(clip[:, 0], [(start + stride * j) % 50 for j in range(4)])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 30), st.integers(1, 6), st.integers(1, 10),
       st.integers(0, 2 ** 31 - 1))
def test_sample_clip_always_valid(length, t, stride, seed):
    video = VideoRecord(0, 0, np.arange(length, dtype=float)[:, None])
    clip, _ = sample_clip(video, t, stride, np.random.default_rng(seed))
    assert clip.shape == (t, 1)
    assert set(clip[:, 0]) <= set(range(length))


# ---------------------------------------------------------------------------
# batch sampler
# ---------------------------------------------------------------------------

def test_pk_batch_shape_and_counts():
    ds = generate_dataset(quiet_cfg())
    stream = pk_batch_sampler(ds, p=4, k=4, t=4, stride=8,
                              rng=np.random.default_rng(0))
    batch = next(stream)
    assert batch.clips.shape == (16, 4, 6)
    ident_counts = {i: int((batch.labels == i).sum()) for i in set(batch.labels)}
    assert len(ident_counts) == 4
    assert all(c == 4 for c in ident_counts.values())


def test_pk_batch_frame_labels_align():
    ds = generate_dataset(quiet_cfg())
    batch = next(pk_batch_sampler(ds, 2, 2, 3, 1, np.random.default_rng(1)))
    encoder = init_encoder_params(TrunkConfig(input_dim=6), num_blocks=0)
    bf = BatchFeatures(*encode_clip_batch(batch.clips, encoder), batch.labels)
    np.testing.assert_array_equal(bf.frame_labels, np.repeat(batch.labels, 3))
    np.testing.assert_array_equal(bf.image_feats.data[3:6],
                                  encode_image(batch.clips[1], encoder).data)


def test_k1_batch_draws_without_a_warning():
    ds = generate_dataset(quiet_cfg())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = next(pk_batch_sampler(ds, 2, 1, 2, 1, np.random.default_rng(0)))
    assert batch.clips.shape == (2, 2, 6)


def test_too_few_identities_rejected():
    ds = generate_dataset(quiet_cfg())
    with pytest.raises(ValueError, match="identities"):
        next(pk_batch_sampler(ds, p=9, k=1, t=2, stride=1,
                              rng=np.random.default_rng(0)))


def test_clip_provenance_single_video_origin():
    ds = generate_dataset(quiet_cfg(frame_noise_scale=0.0, occlusion_prob=0.0,
                                    drift_scale=0.0))
    stream = pk_batch_sampler(ds, 3, 2, 2, 3, np.random.default_rng(2))
    for batch in itertools.islice(stream, 5):
        for clip, (ident, cam, _start) in zip(batch.clips, batch.provenance):
            source = next(v for v in ds.videos
                          if v.identity == ident and v.camera == cam)
            # every clip frame exists verbatim in its source video
            for frame in clip:
                assert any(np.array_equal(frame, vf) for vf in source.frames)


def test_identity_selection_frequency():
    ds = generate_dataset(quiet_cfg(num_identities=8))
    p, batches = 2, 1000
    counts = np.zeros(8)
    stream = pk_batch_sampler(ds, p, 1, 1, 1, np.random.default_rng(3))
    for batch in itertools.islice(stream, batches):
        for ident in set(batch.labels.tolist()):
            counts[ident] += 1
    expect = batches * p / 8
    sigma = np.sqrt(batches * (p / 8) * (1 - p / 8))
    assert np.all(np.abs(counts - expect) <= 3 * sigma)


def test_mining_precondition_p2k2():
    ds = generate_dataset(quiet_cfg())
    batch = next(pk_batch_sampler(ds, 2, 2, 2, 1, np.random.default_rng(4)))
    labels = batch.labels
    for i, ident in enumerate(labels):
        others = np.delete(labels, i)
        assert (others == ident).any() and (others != ident).any()


# ---------------------------------------------------------------------------
# text round-trip
# ---------------------------------------------------------------------------

def test_dataset_roundtrip_bitwise(tmp_path):
    ds = generate_dataset(quiet_cfg(seed=5))
    path = tmp_path / "data.txt"
    save_dataset(ds, path)
    back = load_dataset(path, config=ds.config)
    assert len(back.videos) == len(ds.videos)
    for va, vb in zip(ds.videos, back.videos):
        assert (va.identity, va.camera) == (vb.identity, vb.camera)
        np.testing.assert_array_equal(va.frames, vb.frames)
    # saving the reloaded dataset reproduces the file byte for byte
    path2 = tmp_path / "data2.txt"
    save_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.txt"
    p.write_text("something else\n1 2 3\n")
    with pytest.raises(ValueError, match="not a"):
        load_dataset(p)


def test_load_rejects_truncated_record(tmp_path):
    p = tmp_path / "short.txt"
    p.write_text("i2vmatch-dataset/1 dim=3\n0 0 2 1.0 2.0 3.0\n")
    with pytest.raises(ValueError, match="identity 0"):
        load_dataset(p)


@pytest.mark.parametrize("record, words", [
    ("0 1", "line 2 has 2 fields"),
    ("0 0 1 1.0 nan 3.0", "identity 0 camera 0 holds a non-finite"),
    ("0 0 1 1.0 -inf 3.0", "identity 0 camera 0 holds a non-finite"),
], ids=["short", "nan", "inf"])
def test_load_rejects_malformed_record(tmp_path, record, words):
    p = tmp_path / "bad.txt"
    p.write_text(f"i2vmatch-dataset/1 dim=3\n{record}\n")
    with pytest.raises(ValueError, match=words):
        load_dataset(p)


def test_load_rejects_header_without_dim(tmp_path):
    p = tmp_path / "nodim.txt"
    p.write_text("i2vmatch-dataset/1\n0 0 1 1.0\n")
    with pytest.raises(ValueError, match="malformed dataset header"):
        load_dataset(p)
