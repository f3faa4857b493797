import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from i2vmatch import evaluation
from i2vmatch.autodiff import NonFiniteError, ShapeError, Tensor, pairwise_euclidean
from i2vmatch.data import SyntheticConfig, SyntheticDataset, VideoRecord, generate_dataset
from i2vmatch.encoders import TrunkConfig, encode_video, init_encoder_params
from i2vmatch.evaluation import (
    GalleryIndex,
    MetricsReport,
    build_side,
    cmc,
    evaluate,
    extract_gallery_features,
    hit_matrix,
    mean_average_precision,
    rank_queries,
    run_protocol,
)

from reference_kernels import split_into_clips


def gallery_of(feats, ids, cams=None):
    ids = np.asarray(ids)
    cams = np.zeros_like(ids) if cams is None else np.asarray(cams)
    return GalleryIndex(np.asarray(feats, dtype=float), ids, cams)


# ---------------------------------------------------------------------------
# clip splitting and gallery extraction
# ---------------------------------------------------------------------------

def test_clip_count_matches_ceil_formula():
    for length in range(1, 101):
        frames = np.zeros((length, 3))
        clips = split_into_clips(frames, 32)
        assert len(clips) == -(-length // 32)
        assert all(c.shape == (32, 3) for c in clips)


def test_short_final_clip_repeats_cyclically():
    frames = np.arange(5, dtype=float)[:, None]
    clips = split_into_clips(frames, 4)
    np.testing.assert_array_equal(clips[0][:, 0], [0, 1, 2, 3])
    np.testing.assert_array_equal(clips[1][:, 0], [4, 4, 4, 4])


def small_encoder(seed=0):
    params = init_encoder_params(TrunkConfig(input_dim=4, hidden_dims=(6,), output_dim=3),
                                 num_blocks=1, seed=seed)
    params.blocks[0].w_z.data = 0.2 * np.random.default_rng(seed + 1).standard_normal(
        params.blocks[0].w_z.data.shape)
    return params


def test_single_clip_video_feature():
    params = small_encoder()
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((32, 4))
    video = VideoRecord(3, 1, frames)
    index = extract_gallery_features([video], params, clip_len=32)
    _, want = encode_video(frames[None], params)
    np.testing.assert_array_equal(index.features[0], want.data[0])
    assert index.identities[0] == 3 and index.cameras[0] == 1


def test_constant_video_pooling_degeneracy():
    params = small_encoder()
    frame = np.random.default_rng(3).standard_normal(4)
    video = VideoRecord(0, 0, np.tile(frame, (64, 1)))
    index = extract_gallery_features([video], params, clip_len=32)
    _, one_clip = encode_video(np.tile(frame, (32, 1))[None], params)
    np.testing.assert_allclose(index.features[0], one_clip.data[0], atol=1e-12)


@pytest.mark.parametrize("positions", [12, evaluation.GALLERY_BATCH_POSITIONS])
def test_batched_gallery_matches_per_video_encoding(monkeypatch, positions):
    # 12 positions hold three 4-frame clips, so batches split videos
    monkeypatch.setattr(evaluation, "GALLERY_BATCH_POSITIONS", positions)
    params = small_encoder(seed=5)
    rng = np.random.default_rng(6)
    videos = [VideoRecord(i, i % 2, rng.standard_normal((n, 4)))
              for i, n in enumerate([9, 4, 1, 13, 7, 3, 8])]
    index = extract_gallery_features(videos, params, clip_len=4)
    for v, got in zip(videos, index.features):
        clip_feats = [encode_video(c[None], params)[1].data[0]
                      for c in split_into_clips(v.frames, 4)]
        np.testing.assert_allclose(got, np.mean(clip_feats, axis=0), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(index.identities, np.arange(7))
    np.testing.assert_array_equal(index.cameras, np.arange(7) % 2)


def per_video_reference(videos, params, clip_len, per_call):
    """Gallery features as extraction computed them video by video: each
    video split with ``split_into_clips``, the clips stacked in the same
    encoder batches, and each video's clip features averaged."""
    clips, counts = [], []
    for v in videos:
        parts = split_into_clips(v.frames, clip_len)
        clips.extend(parts)
        counts.append(len(parts))
    clip_feats = np.concatenate([encode_video(np.stack(clips[s:s + per_call]), params)[1].data
                                 for s in range(0, len(clips), per_call)])
    ends = np.cumsum(counts)
    return np.stack([clip_feats[end - c:end].mean(axis=0) for end, c in zip(ends, counts)])


@pytest.mark.parametrize("clip_len", [1, 3, 4, 32])
def test_extraction_matches_per_video_clips_bit_for_bit(monkeypatch, clip_len):
    # lengths 1..100 in shuffled order: short last chunks of every size, and
    # 7 clips per encoder call, so batches split videos
    monkeypatch.setattr(evaluation, "GALLERY_BATCH_POSITIONS", 7 * clip_len)
    params = small_encoder(seed=7)
    rng = np.random.default_rng(clip_len)
    videos = [VideoRecord(i, 0, rng.standard_normal((n, 4)))
              for i, n in enumerate(rng.permutation(np.arange(1, 101)))]
    batches = []

    def capture(clips, p):
        batches.append(clips)
        return encode_video(clips, p)

    monkeypatch.setattr(evaluation, "encode_video", capture)
    got = extract_gallery_features(videos, params, clip_len).features
    want_clips = [c for v in videos for c in split_into_clips(v.frames, clip_len)]
    assert [len(b) for b in batches[:-1]] == [7] * (len(batches) - 1)
    np.testing.assert_array_equal(np.concatenate(batches), np.stack(want_clips))
    np.testing.assert_array_equal(got, per_video_reference(videos, params, clip_len, 7))


def test_empty_video_rejected():
    with pytest.raises(ValueError):
        split_into_clips(np.zeros((0, 3)), 32)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def test_exact_match_ranks_first():
    g = gallery_of([[1.0, 0.0], [5.0, 5.0], [0.0, 2.0]], [0, 1, 2])
    order = rank_queries(np.array([[5.0, 5.0]]), g)[0]
    assert order[0] == 1


def test_two_item_ordering():
    g = gallery_of([[1.0, 0.0], [2.0, 0.0]], [0, 1])
    order = rank_queries(np.array([[0.0, 0.0]]), g)[0]
    np.testing.assert_array_equal(order, [0, 1])


def test_rank_queries_matches_independent_sort():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((5, 3))
    gf = rng.standard_normal((20, 3))
    g = gallery_of(gf, np.arange(20))
    got = rank_queries(q, g)
    for i in range(5):
        d = np.linalg.norm(gf - q[i], axis=1)
        want = sorted(range(20), key=lambda j: (d[j], j))
        np.testing.assert_array_equal(got[i], want)


def test_rank_queries_ties_break_by_index():
    g = gallery_of([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]], [0, 1, 2])
    order = rank_queries(np.array([[0.0, 0.0]]), g)[0]
    np.testing.assert_array_equal(order, [0, 1, 2])


def _planted_ties(rng, form):
    """Queries and gallery features of 200 items holding exact distance ties:
    with "duplicates" rows 100-149 repeat rows 50-99, so every query ties;
    with "equidistant" query 0 lies 3 away from six items on integer
    coordinates, every square exact, and the random queries tie nowhere."""
    q, gf = rng.standard_normal((6, 16)), rng.standard_normal((200, 16))
    if form == "duplicates":
        gf[100:150] = gf[50:100]
    else:
        q[0] = 0.0
        q[0, :2] = [1.0, 2.0]
        for slot, axis, step in [(7, 0, 3.0), (40, 3, -3.0), (41, 0, -3.0), (120, 9, 3.0),
                                 (180, 15, 3.0), (199, 3, 3.0)]:
            gf[slot] = q[0]
            gf[slot, axis] += step
    return q, gf


@pytest.mark.parametrize("form", ["duplicates", "equidistant"])
def test_rank_queries_equals_the_stable_sort_with_planted_ties(form):
    q, gf = _planted_ties(np.random.default_rng(9), form)
    d = pairwise_euclidean(Tensor(q), Tensor(gf)).data
    tied = np.array([len(np.unique(row)) < len(row) for row in d])
    assert tied.tolist() == ([True] * 6 if form == "duplicates" else [True] + [False] * 5)
    np.testing.assert_array_equal(rank_queries(q, gallery_of(gf, np.arange(200))),
                                  np.argsort(d, axis=1, kind="stable"))


def test_rank_queries_is_permutation():
    rng = np.random.default_rng(5)
    g = gallery_of(rng.standard_normal((11, 4)), np.arange(11))
    for order in rank_queries(rng.standard_normal((7, 4)), g):
        assert sorted(order.tolist()) == list(range(11))


def test_rank_queries_dimension_mismatch():
    g = gallery_of(np.zeros((3, 4)), [0, 1, 2])
    with pytest.raises(ShapeError):
        rank_queries(np.zeros((2, 3)), g)


def test_rank_queries_rejects_a_1d_query():
    g = gallery_of(np.zeros((3, 4)), [0, 1, 2])
    with pytest.raises(ShapeError, match="2-d"):
        rank_queries(np.zeros(4), g)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gallery_index_rejects_non_finite_features_as_a_numerical_failure(bad):
    with pytest.raises(NonFiniteError, match="^features must be finite$"):
        gallery_of([[0.0, 1.0], [bad, 0.0]], [0, 1])


# ---------------------------------------------------------------------------
# CMC
# ---------------------------------------------------------------------------

def test_cmc_single_query_rank_two():
    rankings = np.array([[2, 0, 1]])
    got = cmc(hit_matrix(rankings, [7], [7, 1, 2]), k_max=3)
    assert got == [0.0, 1.0, 1.0]


def test_cmc_all_first_hits():
    rankings = np.array([[0, 1], [1, 0]])
    got = cmc(hit_matrix(rankings, [5, 6], [5, 6]), k_max=2)
    assert got == [1.0, 1.0]


def test_cmc_matches_first_hit_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n_g, n_q = 12, 6
        gallery_ids = rng.integers(0, 4, size=n_g)
        query_ids = np.array([rng.choice(gallery_ids) for _ in range(n_q)])
        rankings = np.stack([rng.permutation(n_g) for _ in range(n_q)])
        got = cmc(hit_matrix(rankings, query_ids, gallery_ids), k_max=n_g)
        first = []
        for qi in range(n_q):
            ranked = gallery_ids[rankings[qi]]
            first.append(1 + min(r for r in range(n_g) if ranked[r] == query_ids[qi]))
        want = [np.mean([f <= k for f in first]) for k in range(1, n_g + 1)]
        np.testing.assert_allclose(got, want)


def test_cmc_query_without_match_errors():
    rankings = np.array([[0, 1]])
    with pytest.raises(ValueError, match="query 0"):
        hit_matrix(rankings, [9], [0, 1])


def test_cmc_error_names_the_first_unmatched_query():
    rankings = np.array([[0, 1, 2]] * 5)
    # queries 1, 3 and 4 have no gallery item of their identity
    with pytest.raises(ValueError, match=r"query 1 \(identity 8\)"):
        hit_matrix(rankings, [0, 8, 1, 9, 7], [0, 1, 2])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_cmc_monotone_property(seed):
    rng = np.random.default_rng(seed)
    n_g = int(rng.integers(2, 15))
    gallery_ids = rng.integers(0, 3, size=n_g)
    query_ids = np.array([rng.choice(gallery_ids) for _ in range(4)])
    rankings = np.stack([rng.permutation(n_g) for _ in range(4)])
    curve = cmc(hit_matrix(rankings, query_ids, gallery_ids), k_max=n_g)
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert curve[-1] == 1.0


# ---------------------------------------------------------------------------
# mAP
# ---------------------------------------------------------------------------

def test_ap_single_relevant_at_rank_one():
    rankings = np.array([[0, 1, 2]])
    assert mean_average_precision(hit_matrix(rankings, [3], [3, 1, 2])) == 1.0


def test_ap_two_relevant_ranks_1_and_3():
    # AP = (1/1 + 2/3) / 2 = 5/6
    rankings = np.array([[0, 1, 2, 3, 4]])
    got = mean_average_precision(hit_matrix(rankings, [1], [1, 0, 1, 0, 0]))
    assert got == pytest.approx(5.0 / 6.0)


def brute_force_ap(ranked_relevance):
    hits, precisions = 0, []
    for rank, rel in enumerate(ranked_relevance, start=1):
        if rel:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


def test_map_matches_bruteforce_on_all_720_orderings():
    # 6 gallery items, 2 relevant; every permutation checked exactly
    gallery_ids = np.array([1, 1, 0, 0, 0, 0])
    for perm in itertools.permutations(range(6)):
        rankings = np.array([perm])
        got = mean_average_precision(hit_matrix(rankings, [1], gallery_ids))
        want = brute_force_ap([gallery_ids[j] == 1 for j in perm])
        assert got == want


def test_map_with_many_relevant_items_matches_per_query_reference():
    # 9 to 24 relevant items per query, so each AP's mean runs through
    # numpy's pairwise summation; the reference takes the same per-query
    # mean, where Python's sequential brute_force_ap may differ in the last bit
    rng = np.random.default_rng(23)
    for _ in range(50):
        gallery_ids = np.repeat(np.arange(4), rng.integers(9, 25, size=4))
        query_ids = rng.integers(0, 4, size=7)
        rankings = np.stack([rng.permutation(gallery_ids.size) for _ in query_ids])
        aps = []
        for order, qid in zip(rankings, query_ids):
            hit_positions = np.flatnonzero(gallery_ids[order] == qid)
            h = hit_positions.size
            aps.append((np.arange(1, h + 1) / (hit_positions + 1)).mean())
        hits = hit_matrix(rankings, query_ids, gallery_ids)
        assert mean_average_precision(hits) == float(np.mean(aps))


def test_map_over_many_hit_counts_in_one_call_matches_per_row_means():
    # identity i has i + 1 gallery items, so the queries of one call have
    # 1 to 24 hits: several groups on both sides of numpy's 8-element
    # pairwise-summation threshold, with repeated counts in shuffled order
    rng = np.random.default_rng(29)
    gallery_ids = np.repeat(np.arange(24), np.arange(1, 25))
    for _ in range(20):
        query_ids = rng.permutation(np.concatenate([np.arange(24), rng.integers(0, 24, 16)]))
        rankings = np.stack([rng.permutation(gallery_ids.size) for _ in query_ids])
        hits = gallery_ids[rankings] == query_ids[:, None]
        precision = np.cumsum(hits, axis=1) / np.arange(1, gallery_ids.size + 1)
        want = float(np.mean([row[hit].mean() for row, hit in zip(precision, hits)]))
        assert mean_average_precision(hit_matrix(rankings, query_ids, gallery_ids)) == want


def test_metrics_isometry_invariance():
    rng = np.random.default_rng(7)
    q = rng.standard_normal((6, 4))
    gf = rng.standard_normal((15, 4))
    g_ids = rng.integers(0, 6, size=15)
    q_ids = np.array([rng.choice(g_ids) for _ in range(6)])
    rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    shiftv = rng.standard_normal(4)
    base_rank = rank_queries(q, gallery_of(gf, g_ids))
    moved_rank = rank_queries(q @ rot + shiftv, gallery_of(gf @ rot + shiftv, g_ids))
    base, moved = hit_matrix(base_rank, q_ids, g_ids), hit_matrix(moved_rank, q_ids, g_ids)
    assert cmc(base, 15) == cmc(moved, 15)
    assert mean_average_precision(base) == pytest.approx(mean_average_precision(moved))


# ---------------------------------------------------------------------------
# protocol runs
# ---------------------------------------------------------------------------

def degenerate_dataset(params, num_ids=4, t=8):
    """Each identity's gallery video is its query frame repeated."""
    rng = np.random.default_rng(8)
    videos = []
    for ident in range(num_ids):
        frame = 3.0 * rng.standard_normal(4) + ident * 10.0
        frames = np.tile(frame, (t, 1))
        videos.append(VideoRecord(ident, 0, frames.copy()))
        videos.append(VideoRecord(ident, 1, frames.copy()))
    cfg = SyntheticConfig(num_identities=num_ids, cameras_per_identity=2,
                          frames_per_video=(t, t), input_dim=4)
    return SyntheticDataset(config=cfg, videos=videos)


def test_degenerate_dataset_all_protocols_perfect():
    params = small_encoder()
    ds = degenerate_dataset(params)
    for protocol in ("I2V", "I2I", "V2V"):
        rep = run_protocol(protocol, ds, params, clip_len=8, k_max=4)
        assert rep.cmc[0] == 1.0, protocol
        assert rep.num_queries == 4


def test_untrained_encoder_near_chance_level():
    # Identity-free frames (prototype scale 0): with no identity signal in
    # the input, an untrained encoder must score inside the band of mAPs
    # obtained by shuffling the gallery labels. (With informative frames a
    # random projection legitimately beats chance, so that setup cannot
    # serve as a null check.)
    cfg = SyntheticConfig(num_identities=10, cameras_per_identity=2,
                          frames_per_video=(12, 16), input_dim=8,
                          prototype_scale=0.0, seed=3)
    ds = generate_dataset(cfg)
    params = init_encoder_params(TrunkConfig(input_dim=8, hidden_dims=(10,), output_dim=6),
                                 num_blocks=1, seed=17)
    rep = run_protocol("I2V", ds, params, clip_len=8, k_max=10)
    # label-permutation null: shuffle gallery identities, recompute mAP
    queries = build_side(ds, "query", "image", params, clip_len=8)
    gallery = extract_gallery_features(ds.gallery, params, clip_len=8)
    rankings = rank_queries(queries.features, gallery)
    q_ids = queries.identities
    rng = np.random.default_rng(0)
    null = []
    for _ in range(200):
        shuffled = rng.permutation(gallery.identities)
        null.append(mean_average_precision(hit_matrix(rankings, q_ids, shuffled)))
    lo, hi = np.quantile(null, [0.025, 0.975])
    assert lo <= rep.map <= hi


def test_report_bookkeeping_and_validation():
    rep = MetricsReport(protocol="I2V", cmc=[0.5, 0.7, 1.0], map=0.6, num_queries=10)
    d = rep.to_dict()
    assert d["format"].startswith("i2vmatch-metrics/")
    assert "top-1: 0.5000" in rep.table()
    with pytest.raises(ValueError):
        MetricsReport(protocol="I2V", cmc=[0.9, 0.5], map=0.6, num_queries=1)
    with pytest.raises(ValueError):
        MetricsReport(protocol="X2X", cmc=[1.0], map=0.5, num_queries=1)
    with pytest.raises(ValueError):
        MetricsReport(protocol="V2V", cmc=[1.0], map=1.5, num_queries=1)


def test_protocol_uses_right_encoders():
    # I2I must ignore every frame except the first
    params = small_encoder()
    ds = degenerate_dataset(params)
    for v in ds.gallery:
        v.frames[1:] = 999.0  # poison the non-first frames
    rep = run_protocol("I2I", ds, params, clip_len=8, k_max=4)
    assert rep.cmc[0] == 1.0


def multi_camera_cohort():
    """Four cameras per identity: three relevant gallery videos per query."""
    cfg = SyntheticConfig(num_identities=8, cameras_per_identity=4, frames_per_video=(9, 20),
                          input_dim=4, seed=6)
    return generate_dataset(cfg), small_encoder(seed=2)


def test_evaluate_builds_each_side_once(monkeypatch):
    ds, params = multi_camera_cohort()
    calls = {"build_side": 0, "extract_gallery_features": 0}
    for name in calls:
        real = getattr(evaluation, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(evaluation, name, counted)
    reports = evaluate(ds, params, clip_len=8, k_max=5)
    assert list(reports) == ["I2V", "I2I", "V2V"]
    # image and video sides of the query and of the gallery split
    assert calls == {"build_side": 4, "extract_gallery_features": 2}


def test_evaluate_keeps_freed_memory_for_reuse(monkeypatch):
    calls = []
    monkeypatch.setattr(evaluation, "keep_heap", lambda: calls.append(True))
    evaluate(*multi_camera_cohort(), ("I2I",), clip_len=8, k_max=4)
    assert calls == [True]


@pytest.mark.parametrize("protocols", [("I2V", "I2I", "V2V"), ("V2V", "I2I", "I2V"),
                                       ("I2I", "V2V"), ("V2V", "I2V"), ("I2I",)])
def test_evaluate_matches_separate_protocol_runs(protocols):
    ds, params = multi_camera_cohort()
    reports = evaluate(ds, params, protocols, clip_len=8, k_max=5)
    assert list(reports) == list(protocols)
    for protocol, report in reports.items():
        alone = run_protocol(protocol, ds, params, clip_len=8, k_max=5)
        assert report.to_dict() == alone.to_dict()


def test_evaluate_names_the_side_or_protocol_of_a_floating_point_error(monkeypatch):
    ds, params = multi_camera_cohort()

    def overflow(*args):
        raise FloatingPointError("overflow encountered in matmul")

    monkeypatch.setattr(evaluation, "rank_queries", overflow)
    with pytest.raises(NonFiniteError, match="^V2V distances: overflow encountered in matmul$"):
        evaluate(ds, params, ("V2V",), clip_len=8, k_max=4)
    monkeypatch.setattr(evaluation, "extract_gallery_features", overflow)
    with pytest.raises(NonFiniteError, match="^query video features: overflow encountered in"):
        evaluate(ds, params, ("V2V",), clip_len=8, k_max=4)  # before any ranking


@pytest.mark.parametrize("protocols", [("X2X",), ("I2V", "i2v"), ("I2V", "V2V", "V2I")])
def test_evaluate_rejects_unknown_protocol_before_encoding(monkeypatch, protocols):
    def no_side(*args, **kwargs):
        raise AssertionError("a side was encoded")

    monkeypatch.setattr(evaluation, "build_side", no_side)
    with pytest.raises(ValueError, match="unknown protocol"):
        evaluate(*multi_camera_cohort(), protocols, clip_len=8, k_max=4)
