"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``
to see them). The benchmark-scale criteria share a session fixture that
trains every needed variant once on the default synthetic benchmark with
training seeds 0, 1, 2.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from i2vmatch.autodiff import Tape, add_n, backward
from i2vmatch.encoders import encode_clip_batch, init_encoder_params, nonlocal_forward
from i2vmatch.evaluation import (cmc, hit_matrix, mean_average_precision, rank_queries,
                                 GalleryIndex)
from i2vmatch.losses import (
    BatchFeatures,
    batch_hard_triplet,
    distance_transfer_loss,
    feature_transfer_loss,
    loss_terms,
)
from i2vmatch.training import (
    _micro_setup,
    apply_axis,
    benchmark_config,
    checkpoint_text,
    evaluate_result,
    gradcheck_suite,
    report_document,
    train,
)

SEEDS = (0, 1, 2)


def announce(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    start = time.time()
    outcomes = gradcheck_suite(scope="all", seeds=(0, 1, 2, 3, 4), tol=1e-4,
                               extended=True)
    elapsed = time.time() - start
    worst = max(outcomes, key=lambda oc: oc.max_rel_err)
    ok = all(oc.passed for oc in outcomes) and elapsed < 60.0
    announce(1, ok, f"{len(outcomes)} checks (losses incl. all triplet terms + "
                    f"encoders), worst {worst.name}/{worst.worst_param} "
                    f"rel err {worst.max_rel_err:.2e} <= 1e-4, {elapsed:.1f}s < 60s")
    assert all(oc.passed for oc in outcomes), worst
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. stop-gradient contract
# ---------------------------------------------------------------------------

def micro_batch(bp_to_video):
    """The gradient suite's micro-instance with only the two transfer terms."""
    encoder, cls, clips, labels, cfg = _micro_setup(0)
    cfg = replace(cfg.with_terms(("transfer_feat", "transfer_dist")), bp_to_video=bp_to_video)
    return encoder, cls, clips, labels, cfg


def test_criterion_2_stop_gradient():
    encoder, cls, clips, labels, cfg_off = micro_batch(bp_to_video=False)
    with Tape():
        i, f, v = encode_clip_batch(clips, encoder)
        loss = add_n(loss_terms(BatchFeatures(i, f, v, labels), cls, cfg_off).values())
        backward(loss)
    off_zero = all(p.grad is None or not p.grad.any()
                   for p in encoder.video_parameters().values())

    encoder, cls, clips, labels, cfg_on = micro_batch(bp_to_video=True)
    with Tape():
        i, f, v = encode_clip_batch(clips, encoder)
        loss = add_n(loss_terms(BatchFeatures(i, f, v, labels), cls, cfg_on).values())
        backward(loss)
    on_nonzero = any(p.grad is not None and p.grad.any()
                     for p in encoder.video_parameters().values())
    announce(2, off_zero and on_nonzero,
             f"bp off: video-branch transfer grads exactly zero ({off_zero}); "
             f"bp on: nonzero ({on_nonzero})")
    assert off_zero and on_nonzero


# ---------------------------------------------------------------------------
# 3. loss zero-points
# ---------------------------------------------------------------------------

def test_criterion_3_loss_zero_points():
    from i2vmatch.autodiff import Tensor
    from i2vmatch.encoders import TrunkConfig

    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 5))
    bf = BatchFeatures(
        image_feats=Tensor(x),
        frame_feats=Tensor(x.copy()),
        video_feats=Tensor(rng.standard_normal((4, 5))),
        labels=np.array([0, 1, 0, 1]),
    )
    feat = feature_transfer_loss(bf).item()
    dist = distance_transfer_loss(bf).item()

    params = init_encoder_params(TrunkConfig(input_dim=4, hidden_dims=(6,), output_dim=4),
                                 num_blocks=1, seed=3)
    blk = params.blocks[0]
    h = Tensor(rng.standard_normal((5, 6)))
    out = nonlocal_forward(h, blk)
    identity_exact = np.array_equal(out.data, h.data)

    ok = feat == 0.0 and dist <= 1e-10 and identity_exact
    announce(3, ok, f"identical features: feat loss = {feat} (exact 0), "
                    f"dist loss = {dist:.2e} <= 1e-10; zero-output block "
                    f"identity exact = {identity_exact}")
    assert feat == 0.0
    assert dist <= 1e-10
    assert identity_exact


# ---------------------------------------------------------------------------
# 4. metric oracles
# ---------------------------------------------------------------------------

def test_criterion_4_metric_oracles():
    # mAP: every ordering of a 6-item gallery with 2 relevant items
    gallery_ids = np.array([1, 1, 0, 0, 0, 0])
    exact = 0
    for perm in itertools.permutations(range(6)):
        got = mean_average_precision(hit_matrix(np.array([perm]), [1], gallery_ids))
        hits, precisions = 0, []
        for rank, j in enumerate(perm, start=1):
            if gallery_ids[j] == 1:
                hits += 1
                precisions.append(hits / rank)
        want = sum(precisions) / len(precisions)
        assert got == want, (perm, got, want)
        exact += 1

    # CMC: first-hit oracle on 100 random instances
    rng = np.random.default_rng(4)
    for _ in range(100):
        n_g = int(rng.integers(3, 15))
        g_ids = rng.integers(0, 4, size=n_g)
        q_ids = np.array([rng.choice(g_ids) for _ in range(5)])
        rankings = np.stack([rng.permutation(n_g) for _ in range(5)])
        got = cmc(hit_matrix(rankings, q_ids, g_ids), k_max=n_g)
        first = [1 + min(r for r in range(n_g) if g_ids[rankings[q][r]] == q_ids[q])
                 for q in range(5)]
        want = [float(np.mean([f <= k for f in first])) for k in range(1, n_g + 1)]
        assert got == want

    # rankings vs an independent sort
    q = rng.standard_normal((6, 4))
    gf = rng.standard_normal((15, 4))
    gallery = GalleryIndex(gf, np.arange(15), np.zeros(15, dtype=int))
    got_rank = rank_queries(q, gallery)
    for qi in range(6):
        d = np.linalg.norm(gf - q[qi], axis=1)
        want = sorted(range(15), key=lambda j: (d[j], j))
        assert got_rank[qi].tolist() == want

    announce(4, True, f"mAP exact on all {exact} orderings; CMC matches first-hit "
                      f"oracle on 100 instances; rankings match independent sort")


# ---------------------------------------------------------------------------
# 5. hard mining oracle
# ---------------------------------------------------------------------------

def test_criterion_5_mining_oracle():
    from i2vmatch.autodiff import Tensor, DISTANCE_EPS

    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        p, k, t, d = 2, 2, 2, 3
        img = rng.standard_normal((p * k * t, d))
        vid = rng.standard_normal((p * k, d))
        il = np.repeat(np.arange(p), k * t)
        vl = np.repeat(np.arange(p), k)
        got = batch_hard_triplet(Tensor(img), Tensor(vid), il, vl, 0.3).item()
        total = 0.0
        for a in range(len(img)):
            pos = [np.sqrt(np.sum((img[a] - vid[j]) ** 2) + DISTANCE_EPS)
                   for j in range(len(vid)) if vl[j] == il[a]]
            neg = [np.sqrt(np.sum((img[a] - vid[j]) ** 2) + DISTANCE_EPS)
                   for j in range(len(vid)) if vl[j] != il[a]]
            total += max(0.0, 0.3 + max(pos) - min(neg))
        want = total / len(img)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-12
    announce(5, True, f"20 random micro-batches vs exhaustive argmax/argmin oracle, "
                      f"max abs err {worst:.2e} <= 1e-12")


# ---------------------------------------------------------------------------
# benchmark runs shared by criteria 6-9
# ---------------------------------------------------------------------------

# the loss_set preset and bp_to_video flag of each benchmark variant
VARIANTS = {"full": ("full", False), "baseline": ("baseline", False),
            "i2v-tri": ("i2v-tri", False), "integrated-tri": ("integrated-tri", False),
            "full-bp": ("full", True)}


@pytest.fixture(scope="session")
def benchmark_runs():
    runs = {}
    timings = {}
    for name, (preset, bp_to_video) in VARIANTS.items():
        start = time.time()
        metrics = []
        for seed in SEEDS:
            cfg = apply_axis(apply_axis(benchmark_config(seed=seed), "loss_set", preset),
                             "bp_to_video", bp_to_video)
            metrics.append(evaluate_result(train(cfg), ("I2V", "V2V")))
        runs[name] = metrics
        timings[name] = time.time() - start
    return runs, timings


def mean_of(runs, preset, protocol, field):
    vals = [getattr(m[protocol], "cmc")[0] if field == "top1" else m[protocol].map
            for m in runs[preset]]
    return float(np.mean(vals))


def test_criterion_6_transfer_beats_baseline(benchmark_runs):
    runs, timings = benchmark_runs
    full = mean_of(runs, "full", "I2V", "top1")
    base = mean_of(runs, "baseline", "I2V", "top1")
    elapsed = timings["full"] + timings["baseline"]
    ok = full - base >= 0.05 and elapsed < 300.0
    announce(6, ok, f"I2V top-1 full {full:.3f} vs baseline {base:.3f} "
                    f"(gap {full - base:+.3f} >= +0.05), 3-seed mean; "
                    f"runtime {elapsed:.0f}s < 300s")
    assert full - base >= 0.05
    assert elapsed < 300.0


def test_criterion_7_bp_to_video_direction(benchmark_runs):
    runs, _ = benchmark_runs
    off = mean_of(runs, "full", "V2V", "map")
    on = mean_of(runs, "full-bp", "V2V", "map")
    ok = on <= off + 1e-12
    announce(7, ok, f"V2V mAP with transfer gradient into the video branch "
                    f"{on:.4f} <= without {off:.4f}, 3-seed mean")
    assert on <= off + 1e-12


def test_criterion_8_loss_set_ordering(benchmark_runs):
    runs, _ = benchmark_runs
    i2v_only = mean_of(runs, "i2v-tri", "I2V", "top1")
    integrated = mean_of(runs, "integrated-tri", "I2V", "top1")
    base = mean_of(runs, "baseline", "I2V", "top1")
    ok = i2v_only < integrated < base
    announce(8, ok, f"I2V top-1 ordering: cross-modal-triplet-only {i2v_only:.3f} "
                    f"< integrated {integrated:.3f} < +classification {base:.3f}, "
                    f"3-seed mean")
    assert i2v_only < integrated < base


def test_criterion_9_modality_gap_shrinks(benchmark_runs):
    runs, _ = benchmark_runs
    gap_base = (mean_of(runs, "baseline", "V2V", "top1")
                - mean_of(runs, "baseline", "I2V", "top1"))
    gap_full = (mean_of(runs, "full", "V2V", "top1")
                - mean_of(runs, "full", "I2V", "top1"))
    ok = gap_full < gap_base
    announce(9, ok, f"I2V-to-V2V top-1 gap: baseline {gap_base:.3f} -> "
                    f"with transfer {gap_full:.3f} (shrinks)")
    assert gap_full < gap_base


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism():
    cfg = benchmark_config(seed=1, epochs=2, batches_per_epoch=8)
    a = train(cfg)
    b = train(cfg)
    logs_equal = a.log_lines == b.log_lines
    ckpt_equal = checkpoint_text(a) == checkpoint_text(b)
    rep_a = report_document(evaluate_result(a, ("I2V",))["I2V"], cfg)
    rep_b = report_document(evaluate_result(b, ("I2V",))["I2V"], cfg)
    ok = logs_equal and ckpt_equal and rep_a == rep_b
    announce(10, ok, f"two runs at fixed seed: training logs identical "
                     f"({logs_equal}), checkpoints identical ({ckpt_equal}), "
                     f"metric reports identical ({rep_a == rep_b})")
    assert logs_equal and ckpt_equal
    assert rep_a == rep_b
