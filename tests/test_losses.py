import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from i2vmatch import autodiff as ad
from i2vmatch import losses
from i2vmatch.autodiff import Tape, Tensor, add_n, backward, grad_check_params
from i2vmatch.encoders import TrunkConfig, encode_clip_batch, init_encoder_params
from i2vmatch.losses import (
    BatchFeatures,
    ClassifierParams,
    LossConfig,
    batch_hard_triplet,
    classification_loss,
    distance_transfer_loss,
    feature_transfer_loss,
    loss_terms,
)

TRIPLETS = ("tri_i2v", "tri_v2i", "tri_i2i", "tri_v2v")


@pytest.fixture(autouse=True)
def fresh_tape():
    with Tape():
        yield


def make_bf(i, f, v, labels, grad=True):
    return BatchFeatures(
        image_feats=Tensor(np.asarray(i, dtype=float), requires_grad=grad),
        frame_feats=Tensor(np.asarray(f, dtype=float), requires_grad=grad),
        video_feats=Tensor(np.asarray(v, dtype=float), requires_grad=grad),
        labels=labels,
    )


def random_bf(rng, n=4, t=2, d=3, num_ids=2):
    i = rng.standard_normal((n * t, d))
    f = rng.standard_normal((n * t, d))
    v = rng.standard_normal((n, d))
    labels = np.arange(n) % num_ids
    return make_bf(i, f, v, labels)


# ---------------------------------------------------------------------------
# transfer losses
# ---------------------------------------------------------------------------

def test_feature_transfer_zero_on_identical_features():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3))
    bf = make_bf(x, x.copy(), rng.standard_normal((2, 3)), [0, 1])
    assert feature_transfer_loss(bf).item() == 0.0


def test_feature_transfer_single_pair():
    bf = make_bf([[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]], [0])
    assert feature_transfer_loss(bf).item() == pytest.approx(1.0)


def test_feature_transfer_matches_loop_oracle():
    rng = np.random.default_rng(1)
    n, t, d = 2, 2, 5
    i = rng.standard_normal((n * t, d))
    f = rng.standard_normal((n * t, d))
    bf = make_bf(i, f, rng.standard_normal((n, d)), [0, 1])
    want = sum(np.sum((i[r] - f[r]) ** 2) for r in range(n * t)) / (n * t)
    assert feature_transfer_loss(bf).item() == pytest.approx(want, abs=1e-12)


def test_distance_transfer_zero_on_identical_features():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 4))
    bf = make_bf(x, x.copy(), rng.standard_normal((3, 4)), [0, 1, 2])
    assert distance_transfer_loss(bf).item() <= 1e-10


def test_distance_transfer_two_frame_example():
    # image pair at distance 2, frame pair at distance 1:
    # two off-diagonal entries of (2-1)^2, divided by NT=2
    i = [[0.0, 0.0], [2.0, 0.0]]
    f = [[0.0, 0.0], [1.0, 0.0]]
    bf = make_bf(i, f, [[0.0, 0.0]], [0])
    np.testing.assert_array_equal(bf.frame_labels, [0, 0])
    assert distance_transfer_loss(bf).item() == pytest.approx(1.0, abs=1e-9)


def test_distance_transfer_isometry_invariant():
    rng = np.random.default_rng(3)
    n, t, d = 3, 2, 4
    i = rng.standard_normal((n * t, d))
    f = rng.standard_normal((n * t, d))
    v = rng.standard_normal((n, d))
    bf = make_bf(i, f, v, [0, 1, 2])
    base = distance_transfer_loss(bf).item()
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    moved = i @ q + rng.standard_normal(d)
    bf2 = make_bf(moved, f, v, [0, 1, 2])
    assert distance_transfer_loss(bf2).item() == pytest.approx(base, abs=1e-9)


def test_distance_transfer_of_one_frame_is_zero():
    # one frame has no pair to match, whatever its two features
    bf = make_bf([[1.0, 2.0]], [[3.0, -1.0]], [[3.0, -1.0]], [0])
    assert distance_transfer_loss(bf).item() == 0.0


# ---------------------------------------------------------------------------
# batch-hard triplet
# ---------------------------------------------------------------------------

def test_triplet_satisfied_margin_is_zero():
    anchors = Tensor([[0.0, 0.0]])
    cands = Tensor([[0.2, 0.0], [1.0, 0.0]])
    out = batch_hard_triplet(anchors, cands, [0], [0, 1], margin=0.3)
    assert out.item() == pytest.approx(0.0, abs=1e-7)


def test_triplet_violated_margin_value():
    anchors = Tensor([[0.0, 0.0]])
    cands = Tensor([[0.8, 0.0], [0.9, 0.0]])
    out = batch_hard_triplet(anchors, cands, [0], [0, 1], margin=0.3)
    assert out.item() == pytest.approx(0.2, abs=1e-7)


def brute_force_batch_hard(a, b, la, lb, margin, exclude_self=False):
    total = 0.0
    for i in range(len(a)):
        pos, neg = [], []
        for j in range(len(b)):
            if exclude_self and i == j:
                continue
            d = np.sqrt(np.sum((a[i] - b[j]) ** 2) + ad.DISTANCE_EPS)
            (pos if la[i] == lb[j] else neg).append(d)
        total += max(0.0, margin + max(pos) - min(neg))
    return total / len(a)


@pytest.mark.parametrize("seed", range(5))
def test_triplet_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    p, k, t, d = 2, 2, 2, 3
    img = rng.standard_normal((p * k * t, d))
    vid = rng.standard_normal((p * k, d))
    il = np.repeat(np.arange(p), k * t)
    vl = np.repeat(np.arange(p), k)
    got = batch_hard_triplet(Tensor(img), Tensor(vid), il, vl, 0.3).item()
    want = brute_force_batch_hard(img, vid, il, vl, 0.3)
    assert got == pytest.approx(want, abs=1e-12)
    x = Tensor(img)
    got_ii = batch_hard_triplet(x, x, il, il, 0.3).item()
    want_ii = brute_force_batch_hard(img, img, il, il, 0.3, exclude_self=True)
    assert got_ii == pytest.approx(want_ii, abs=1e-12)


def test_triplet_missing_positive_names_identity():
    # identity 1 has a single clip: excluding the anchor leaves no positive
    x = Tensor([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="identity 1.*no positive"):
        batch_hard_triplet(x, x, [0, 0, 1], [0, 0, 1], 0.3)


def test_triplet_missing_negative_names_identity():
    x = Tensor([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="identity 7.*no negative"):
        batch_hard_triplet(x, x, [7, 7], [7, 7], 0.3)


def _terms_with_fresh_masks(bf, margin):
    """The three frame-level triplet terms, mined with masks built afresh
    by ``_triplet_masks`` from the batch's own labels; v2i mines the i2v
    masks by column."""
    i, v, fl, cl = bf.image_feats, bf.video_feats, bf.frame_labels, bf.labels
    d_iv, d_ii = ad.pairwise_euclidean(i, v), ad.pairwise_euclidean(i, i)
    mine, i2v = losses._hardest_triplet, losses._triplet_masks(fl, cl)
    return {"tri_i2v": mine(d_iv, i2v, margin),
            "tri_v2i": mine(d_iv, i2v, margin, by_column=True),
            "tri_i2i": mine(d_ii, losses._triplet_masks(fl, fl, True), margin)}


@pytest.mark.parametrize("labels", [[4, 4, 9, 9], [3, 3, 5, 9, 9, 9]],
                         ids=["p2k2", "uneven"])
def test_cached_masks_mine_as_fresh_ones(labels):
    # the uneven pattern is no P*K batch's; each batch runs twice, so the
    # second run reads the masks the first one cached
    rng = np.random.default_rng(len(labels))
    bf = random_bf(rng, n=len(labels), t=3, d=4)
    bf.labels = np.asarray(labels)
    c = cfg(use_cls=False, use_v2v=False, use_transfer_feat=False, use_transfer_dist=False)
    want = _terms_with_fresh_masks(bf, c.margin)
    for _ in range(2):
        got = loss_terms(bf, None, c)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].data.tobytes() == want[name].data.tobytes(), name


def test_cached_masks_are_read_only():
    bf = random_bf(np.random.default_rng(0), n=4, t=2)
    loss_terms(bf, None, cfg(use_cls=False))
    for kind in ("i2v", "i2i"):
        for mask in losses._term_masks(kind, bf.labels, 2):
            with pytest.raises(ValueError, match="read-only"):
                mask[0, 0] = not mask[0, 0]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=7), st.integers(1, 3))
@example([5, 5, 5], 2)
def test_v2i_masks_are_the_i2v_masks_transposed(labels, t):
    # any label set, P*K or uneven; with one identity both lack a negative
    cl = np.asarray(labels)
    fl = np.repeat(cl, t)
    if len(set(labels)) > 1:
        for v2i, i2v in zip(losses._triplet_masks(cl, fl), losses._triplet_masks(fl, cl)):
            assert np.array_equal(v2i, i2v.T)
        return
    message = f"^anchor of identity {labels[0]} has no negative candidate in batch$"
    for anchors, candidates in ((cl, fl), (fl, cl)):
        with pytest.raises(ValueError, match=message):
            losses._triplet_masks(anchors, candidates)


def test_term_mask_memo_stays_bounded():
    # ten distinct equality patterns over four clips, each kept under two kinds
    patterns = [[0, 1, 2, 3], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 2],
                [0, 1, 1, 2], [0, 1, 2, 2], [0, 1, 0, 2], [0, 1, 2, 0], [0, 1, 2, 1]]
    losses._TERM_MASKS.clear()
    for labels in patterns:
        for kind in ("i2v", "i2i"):
            losses._term_masks(kind, np.asarray(labels), 2)
            assert len(losses._TERM_MASKS) <= 8
    first = np.asarray(patterns[0]) + 7  # the first pattern, under other labels
    assert ("i2v", (first[:, None] == first[None, :]).tobytes(), 2) not in losses._TERM_MASKS
    fl = np.repeat(first, 2)
    for got, want in zip(losses._term_masks("i2v", first, 2), losses._triplet_masks(fl, first)):
        assert np.array_equal(got, want)
    for got, want in zip(losses._term_masks("i2i", first, 2), losses._triplet_masks(fl, fl, True)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("missing_ident", [1, 6])
def test_batch_lacking_a_positive_names_its_identity_after_the_cache_fills(missing_ident):
    # one-frame clips: an identity with a single clip has no i2i positive
    rng = np.random.default_rng(missing_ident)
    c = cfg(use_cls=False)
    loss_terms(random_bf(rng, n=4, t=1), None, c)  # a valid batch fills the cache
    bf = random_bf(rng, n=3, t=1)
    bf.labels = np.asarray([8, 8, missing_ident])
    for _ in range(2):  # no exception is cached: the second batch raises alike
        with pytest.raises(ValueError, match=f"identity {missing_ident} has no positive"):
            loss_terms(bf, None, c)


def test_triplet_duplicating_nonhardest_candidate_is_noop():
    rng = np.random.default_rng(9)
    anchors = Tensor(rng.standard_normal((2, 3)))
    cands = rng.standard_normal((4, 3))
    labels_c = np.array([0, 0, 1, 1])
    base = batch_hard_triplet(anchors, Tensor(cands), [0, 1], labels_c, 0.3).item()
    # find a candidate that is neither hardest positive nor nearest negative
    d = np.sqrt(((anchors.data[:, None, :] - cands[None]) ** 2).sum(-1))
    hardest = set()
    for i, la in enumerate([0, 1]):
        pos = [j for j in range(4) if labels_c[j] == la]
        neg = [j for j in range(4) if labels_c[j] != la]
        hardest.add(max(pos, key=lambda j: d[i, j]))
        hardest.add(min(neg, key=lambda j: d[i, j]))
    spare = [j for j in range(4) if j not in hardest]
    if spare:
        dup = np.vstack([cands, cands[spare[0]]])
        dup_labels = np.append(labels_c, labels_c[spare[0]])
        again = batch_hard_triplet(anchors, Tensor(dup), [0, 1], dup_labels, 0.3).item()
        assert again == pytest.approx(base, abs=1e-12)


def test_triplet_scaling_preserves_selection():
    rng = np.random.default_rng(10)
    anchors = rng.standard_normal((3, 4))
    cands = rng.standard_normal((6, 4))
    la, lc = np.array([0, 1, 2]), np.array([0, 0, 1, 1, 2, 2])
    d = np.sqrt(((anchors[:, None, :] - cands[None]) ** 2).sum(-1) + ad.DISTANCE_EPS)
    for lam in (1.0, 3.5):
        ds = lam * d
        pos = np.argmax(np.where(la[:, None] == lc[None, :], ds, -np.inf), axis=1)
        neg = np.argmin(np.where(la[:, None] != lc[None, :], ds, np.inf), axis=1)
        if lam == 1.0:
            base_pos, base_neg = pos, neg
        else:
            np.testing.assert_array_equal(pos, base_pos)
            np.testing.assert_array_equal(neg, base_neg)


# ---------------------------------------------------------------------------
# integrated triplet / classification / total
# ---------------------------------------------------------------------------

def cfg(num_ids=2, **kw):
    return LossConfig(num_identities=num_ids, **kw)


def test_integrated_sums_enabled_terms():
    rng = np.random.default_rng(4)
    bf = random_bf(rng)
    c = cfg().with_terms(TRIPLETS)
    parts = loss_terms(bf, ClassifierParams.init(3, 2), c)
    assert set(parts) == set(TRIPLETS)
    want = sum(p.item() for p in parts.values())
    assert add_n(parts.values()).item() == pytest.approx(want, abs=1e-12)


def test_integrated_single_term_reduction():
    rng = np.random.default_rng(5)
    bf = random_bf(rng)
    only = cfg().with_terms(("tri_i2v",))
    got = add_n(loss_terms(bf, ClassifierParams.init(3, 2), only).values()).item()
    want = batch_hard_triplet(bf.image_feats, bf.video_feats,
                              bf.frame_labels, bf.labels, only.margin).item()
    assert got == pytest.approx(want, abs=1e-15)


def test_classification_saturated_correct_logits():
    d, c = 4, 2
    w = np.zeros((d, c))
    w[0, 0], w[0, 1] = 20.0, -20.0
    cls = ClassifierParams(w=Tensor(w))
    i = np.tile([[1.0, 0, 0, 0]], (4, 1))
    v = np.tile([[1.0, 0, 0, 0]], (2, 1))
    bf = make_bf(i, i.copy(), v, [0, 0])
    assert classification_loss(bf, cls).item() <= 1e-8


def test_classification_uniform_logits_is_2lnC():
    d, c = 3, 5
    cls = ClassifierParams(w=Tensor(np.zeros((d, c))))
    rng = np.random.default_rng(6)
    bf = random_bf(rng, n=2, t=2, d=d, num_ids=2)
    assert classification_loss(bf, cls).item() == pytest.approx(2 * np.log(c), abs=1e-12)


def test_classification_matches_per_sample_oracle():
    rng = np.random.default_rng(7)
    d, c = 3, 4
    cls = ClassifierParams.init(d, c, seed=1)
    bf = random_bf(rng, n=3, t=2, d=d, num_ids=3)

    def ce(feats, labels):
        logits = feats @ cls.w.data
        total = 0.0
        for r, lab in enumerate(labels):
            z = logits[r] - logits[r].max()
            total += -(z[lab] - np.log(np.exp(z).sum()))
        return total / len(labels)

    want = ce(bf.image_feats.data, bf.frame_labels) + ce(bf.video_feats.data, bf.labels)
    assert classification_loss(bf, cls).item() == pytest.approx(want, abs=1e-12)


def test_classification_label_out_of_range():
    cls = ClassifierParams.init(3, 2, seed=0)
    bf = random_bf(np.random.default_rng(8), n=2, t=1, d=3, num_ids=2)
    bf.labels = np.array([0, 5])
    with pytest.raises(ValueError, match="label 5"):
        classification_loss(bf, cls)
    # the first bad label is named, not a label 0 before it
    bf.labels = np.array([0, -1])
    with pytest.raises(ValueError, match=r"^label -1 out of range for 2 identities$"):
        classification_loss(bf, cls)


def test_total_zero_when_only_feature_transfer_and_identical():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3))
    bf = make_bf(x, x.copy(), rng.standard_normal((2, 3)), [0, 1])
    only = cfg().with_terms(("transfer_feat",))
    assert add_n(loss_terms(bf, ClassifierParams.init(3, 2), only).values()).item() == 0.0


def test_total_equals_sum_of_terms():
    rng = np.random.default_rng(12)
    bf = random_bf(rng)
    cls = ClassifierParams.init(3, 2, seed=2)
    c = cfg()
    parts = loss_terms(bf, cls, c)
    assert set(parts) == {"cls", "tri_i2v", "tri_v2i", "tri_i2i", "tri_v2v",
                          "transfer_feat", "transfer_dist"}
    want = sum(p.item() for p in parts.values())
    assert add_n(parts.values()).item() == pytest.approx(want, abs=1e-12)


def test_add_n_sums_terms_left_to_right():
    terms = {"a": Tensor(0.1), "b": Tensor(0.2), "c": Tensor(0.3)}
    assert add_n(terms.values()).item() == (0.1 + 0.2) + 0.3
    # a generator is summed in the order it yields
    assert add_n(terms[k] for k in ("c", "b", "a")).item() == (0.3 + 0.2) + 0.1


def test_loss_terms_builds_each_distance_matrix_once(monkeypatch):
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return ad.pairwise_euclidean(x, y)

    monkeypatch.setattr(losses, "pairwise_euclidean", counting)
    bf = random_bf(np.random.default_rng(14))
    loss_terms(bf, ClassifierParams.init(3, 2, seed=4), cfg())
    # image-video, image-image, video-video and the transfer target's own
    assert len(calls) == 4
    assert sum(x is bf.image_feats and y is bf.image_feats for x, y in calls) == 1


def test_all_terms_nonnegative():
    rng = np.random.default_rng(13)
    for _ in range(5):
        bf = random_bf(rng)
        cls = ClassifierParams.init(3, 2, seed=3)
        for name, t in loss_terms(bf, cls, cfg()).items():
            assert t.item() >= 0.0, name


def test_config_requires_some_term():
    with pytest.raises(ValueError):
        cfg(use_cls=False, use_i2v=False, use_v2i=False, use_i2i=False,
            use_v2v=False, use_transfer_feat=False, use_transfer_dist=False)


# ---------------------------------------------------------------------------
# gradients through real encoders
# ---------------------------------------------------------------------------

def encoded_bf(params, clips, labels):
    i, f, v = encode_clip_batch(clips, params)
    return BatchFeatures(i, f, v, labels)


def micro_setup(seed, bp_to_video=False):
    tc = TrunkConfig(input_dim=4, hidden_dims=(6,), output_dim=5)
    params = init_encoder_params(tc, num_blocks=1, seed=seed)
    # activate attention so the video branch differs from the image branch
    params.blocks[0].w_z.data = 0.3 * np.random.default_rng(seed + 50).standard_normal(
        params.blocks[0].w_z.data.shape)
    cls = ClassifierParams.init(5, 2, seed=seed + 1)
    rng = np.random.default_rng(seed + 100)
    clips = rng.standard_normal((4, 2, 4))
    labels = np.array([0, 0, 1, 1])
    c = cfg(bp_to_video=bp_to_video)
    return params, cls, clips, labels, c


@pytest.mark.parametrize("seed", [0, 1])
def test_total_loss_gradients_match_finite_differences(seed):
    params, cls, clips, labels, c = micro_setup(seed, bp_to_video=True)
    everything = {**params.named_parameters(), **cls.named_parameters()}
    errors = grad_check_params(
        lambda: add_n(loss_terms(encoded_bf(params, clips, labels), cls, c).values()),
        everything)
    for name, err in errors.items():
        assert err <= 1e-4, (name, err)


@pytest.mark.parametrize("seed", [0, 1])
def test_shared_distances_match_standalone_terms(seed):
    params, cls, clips, labels, c = micro_setup(seed, bp_to_video=True)
    everything = {**params.named_parameters(), **cls.named_parameters()}
    names = ("tri_i2v", "tri_v2i", "tri_i2i", "tri_v2v", "transfer_dist")

    def standalone(bf):
        i, v, fl, cl = bf.image_feats, bf.video_feats, bf.frame_labels, bf.labels
        return {"tri_i2v": batch_hard_triplet(i, v, fl, cl, c.margin),
                "tri_v2i": batch_hard_triplet(v, i, cl, fl, c.margin),
                "tri_i2i": batch_hard_triplet(i, i, fl, fl, c.margin),
                "tri_v2v": batch_hard_triplet(v, v, cl, cl, c.margin),
                "transfer_dist": distance_transfer_loss(bf, c.bp_to_video)}

    values, grads = [], []
    for build in (lambda bf: loss_terms(bf, cls, c), standalone):
        with Tape():
            for p in everything.values():
                p.zero_grad()
            terms = build(encoded_bf(params, clips, labels))
            values.append({n: terms[n].item() for n in names})
            backward(add_n(terms[n] for n in names))
            grads.append({k: p.grad.copy() for k, p in everything.items()
                          if p.grad is not None})
    assert values[0] == values[1]
    assert grads[0].keys() == grads[1].keys()
    for k, want in grads[1].items():
        assert np.abs(grads[0][k] - want).max() <= 1e-12 * np.abs(want).max(), k


def test_stop_gradient_contract():
    params, cls, clips, labels, _ = micro_setup(3)
    transfer_only = cfg(use_cls=False, use_i2v=False, use_v2i=False, use_i2i=False,
                        use_v2v=False, bp_to_video=False)
    bf = encoded_bf(params, clips, labels)
    backward(add_n(loss_terms(bf, cls, transfer_only).values()))
    for name, p in params.video_parameters().items():
        assert p.grad is None or not p.grad.any(), name
    for p in params.named_parameters().values():
        p.zero_grad()

    transfer_bp = cfg(use_cls=False, use_i2v=False, use_v2i=False, use_i2i=False,
                      use_v2v=False, bp_to_video=True)
    bf = encoded_bf(params, clips, labels)
    backward(add_n(loss_terms(bf, cls, transfer_bp).values()))
    assert any(p.grad is not None and p.grad.any()
               for p in params.video_parameters().values())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_transfer_losses_nonnegative_property(seed):
    rng = np.random.default_rng(seed)
    with Tape():
        bf = random_bf(rng, n=3, t=2, d=4, num_ids=3)
        assert feature_transfer_loss(bf).item() >= 0.0
        assert distance_transfer_loss(bf).item() >= 0.0
