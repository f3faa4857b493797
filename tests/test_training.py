import json
import math
import resource
import warnings
from dataclasses import fields, is_dataclass, replace
from typing import get_type_hints

import numpy as np
import pytest

from i2vmatch import autodiff, encoders, losses, training
from i2vmatch.autodiff import NonFiniteError, Tape, Tensor, add_n, backward
from i2vmatch.data import SyntheticConfig
from i2vmatch.encoders import TrunkConfig, encode_clip_batch, init_encoder_params
from i2vmatch.evaluation import PROTOCOLS
from i2vmatch.losses import BatchFeatures, ClassifierParams, LossConfig, loss_terms
from i2vmatch.training import (
    SECTIONS,
    Adam,
    RunConfig,
    _video_phase_terms,
    apply_axis,
    benchmark_config,
    checkpoint_text,
    config_digest,
    evaluate_result,
    gradcheck_suite,
    load_checkpoint,
    parse_flag,
    save_checkpoint,
    sweep,
    train,
)

import reference_kernels as ref


def tiny_config(**over):
    """A seconds-scale run: small cast, tiny trunk, few batches."""
    synth = SyntheticConfig(num_identities=6, cameras_per_identity=2,
                            frames_per_video=(10, 14), input_dim=6,
                            occlusion_prob=0.3, seed=5)
    trunk = TrunkConfig(input_dim=6, hidden_dims=(8, 8), output_dim=6)
    defaults = dict(synth=synth, trunk=trunk, loss=LossConfig(num_identities=6),
                    num_nonlocal_blocks=1, p=2, k=2, t=2, stride=2,
                    epochs=2, batches_per_epoch=4, eval_clip_len=8, k_max=6, seed=0)
    defaults.update(over)
    return RunConfig(**defaults)


# ---------------------------------------------------------------------------
# config machinery
# ---------------------------------------------------------------------------

def test_lr_schedule_formula():
    cfg = tiny_config(learning_rate=0.1, lr_decay_every=3, lr_decay_factor=0.1)
    want = [0.1, 0.1, 0.1, 0.01, 0.01, 0.01, 0.001]
    got = [cfg.lr_at(e) for e in range(7)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_default_schedule_is_the_documented_one():
    cfg = RunConfig()
    assert (cfg.epochs, cfg.batches_per_epoch, cfg.lr_decay_every, cfg.lr_decay_factor) \
        == (30, 50, 12, 0.1)
    doc = " ".join(RunConfig.__doc__.split())
    assert "30 epochs of 50 batches" in doc and "divided by 10 every 12 epochs" in doc


def test_int64_bound_holds_minus_2_to_the_63():
    # -2**63 fits an int64, and fails only the range check; one below does not fit
    with pytest.raises(ValueError, match=r"^p must be >= 1$"):
        RunConfig(p=-2**63)
    with pytest.raises(ValueError, match=r"^run\.p is too large to convert to int64$"):
        RunConfig(p=-2**63 - 1)


def test_config_roundtrip_and_digest():
    cfg = tiny_config()
    back = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg
    assert config_digest(back) == config_digest(cfg)
    assert config_digest(replace(cfg, seed=99)) != config_digest(cfg)


@pytest.mark.parametrize("edit, words", [
    (lambda d: d.update(bogus_field=1), ("'run'", "bogus_field")),
    (lambda d: d["synth"].update(bogus=1), ("'synth'", "bogus")),
    (lambda d: d["trunk"].pop("input_dim"), ("'trunk'", "input_dim")),
    (lambda d: d["loss"].pop("num_identities"), ("'loss'", "num_identities")),
    (lambda d: d.update(trunk=[1]), ("'trunk'", "JSON object")),
    (lambda d: d.update(p="four"), ("wrong type",)),
])
def test_config_from_dict_rejects_malformed(edit, words):
    d = json.loads(json.dumps(tiny_config().to_dict()))
    edit(d)
    with pytest.raises(ValueError) as exc:
        RunConfig.from_dict(d)
    for w in words:
        assert w in str(exc.value)


def test_config_validation():
    with pytest.raises(ValueError, match="teacher_mode"):
        tiny_config(teacher_mode="magic")
    with pytest.raises(ValueError, match="input_dim"):
        tiny_config(trunk=TrunkConfig(input_dim=9, hidden_dims=(8,), output_dim=6))
    with pytest.raises(ValueError, match="identities"):
        tiny_config(loss=LossConfig(num_identities=3))


def test_lr_decay_factor_must_decay():
    # a factor above 1 would raise the rate at every "decay"; 1 means none
    cfg = tiny_config(lr_decay_factor=1.0, lr_decay_every=1)
    assert cfg.lr_at(5) == cfg.learning_rate
    for factor in (10.0, 1.5, 0.0):
        with pytest.raises(ValueError, match=r"lr_decay_factor in \(0, 1\]"):
            tiny_config(lr_decay_factor=factor)


def _only(*terms):
    return LossConfig(num_identities=6).with_terms(terms)


@pytest.mark.parametrize("over, words", [
    ({"p": 1}, "tri_i2v needs p >= 2, got 1"),
    ({"p": 1, "loss": _only("tri_i2i")}, "tri_i2i needs p >= 2, got 1"),
    ({"k": 1}, "tri_v2v needs k >= 2, got 1"),
    ({"k": 1, "t": 1, "loss": _only("tri_i2i")}, "tri_i2i needs k\\*t >= 2, got 1"),
    ({"p": 1, "k": 1, "t": 1, "loss": _only("transfer_dist")},
     "transfer_dist needs p\\*k\\*t >= 2, got 1"),
    ({"k": 1, "teacher_mode": "pretrained", "loss": _only("cls")},
     "teacher phase tri_v2v needs k >= 2, got 1"),
    ({"p": 1, "teacher_mode": "pretrained", "loss": _only("cls")},
     "teacher phase tri_v2v needs p >= 2, got 1"),
])
def test_config_rejects_batch_shapes_a_term_cannot_train(over, words):
    with pytest.raises(ValueError, match=words):
        tiny_config(**over)


@pytest.mark.parametrize("over", [
    {"k": 1, "loss": _only("cls", "tri_i2v", "tri_v2i", "tri_i2i", "transfer_dist")},
    {"p": 1, "loss": _only("cls", "transfer_feat", "transfer_dist")},
    {"p": 1, "k": 1, "t": 1, "loss": _only("cls", "transfer_feat")},
    {"p": 1, "k": 1, "teacher_mode": "pretrained", "loss": _only("cls", "transfer_dist")},
], ids=["k1", "p1", "pkt1", "pretrained-pk1"])
def test_every_accepted_batch_shape_trains(over):
    # the boundary shapes the config check lets through run a batch
    result = train(tiny_config(epochs=1, batches_per_epoch=1, **over))
    assert all(math.isfinite(json.loads(line)["total"]) for line in result.log_lines[1:])


def test_spatial_grid_config_trains_and_scores_every_protocol():
    # 2x2 positions of 3 values each: the dataset's frames hold 12 values
    grid = TrunkConfig(input_dim=3, hidden_dims=(8, 8), output_dim=6,
                       use_spatial_grid=True, grid_hw=(2, 2))
    cfg = tiny_config(synth=replace(tiny_config().synth, input_dim=12), trunk=grid,
                      epochs=1, batches_per_epoch=3)
    result = train(cfg)
    assert len(result.log_lines) == 1 + 3
    reports = evaluate_result(result)
    assert sorted(reports) == sorted(PROTOCOLS)
    assert all(0.0 <= r.map <= 1.0 for r in reports.values())


def test_spatial_grid_mismatch_rejected_when_config_is_built():
    grid = TrunkConfig(input_dim=6, hidden_dims=(8, 8), output_dim=6,
                       use_spatial_grid=True, grid_hw=(2, 2))
    # 2x2 positions of 6 values make 24-value frames; the dataset's hold 6
    with pytest.raises(ValueError, match="input_dim") as exc:
        tiny_config(trunk=grid)
    assert "24" in str(exc.value)
    with pytest.raises(ValueError, match="use_spatial_grid"):
        TrunkConfig(input_dim=6, grid_hw=(2, 2))
    d = json.loads(json.dumps(tiny_config().to_dict()))
    d["trunk"]["grid_hw"] = [1, 2]
    with pytest.raises(ValueError, match="use_spatial_grid"):
        RunConfig.from_dict(d)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_zero_grad_is_pure_weight_decay_shrinkage():
    p = Tensor(np.array([[2.0, -4.0]]), requires_grad=True)
    opt = Adam({"p": p}, weight_decay=0.01)
    before = p.data.copy()
    opt.step(lr=0.1)
    # zero loss-gradient: the only update source is the decay term,
    # which after bias correction moves each coordinate by lr toward 0
    assert np.all(np.sign(before) * (before - p.data) > 0)
    p2 = Tensor(np.array([[2.0, -4.0]]), requires_grad=True)
    opt2 = Adam({"p": p2}, weight_decay=0.0)
    opt2.step(lr=0.1)
    np.testing.assert_array_equal(p2.data, [[2.0, -4.0]])


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(0)
    p = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    ref = p.data.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    opt = Adam({"p": p}, weight_decay=0.0)
    for step in range(1, 6):
        g = rng.standard_normal(ref.shape)
        p.grad = g.copy()
        opt.step(lr=0.01)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9 ** step)
        vh = v / (1 - 0.999 ** step)
        ref = ref - 0.01 * mh / (np.sqrt(vh) + 1e-8)
        p.grad = None
        np.testing.assert_allclose(p.data, ref, atol=1e-15)


@pytest.mark.parametrize("weight_decay", [0.0, 0.0005])
def test_flat_adam_matches_per_tensor_loop(weight_decay):
    rng = np.random.default_rng(4)
    shapes = {"w": (5, 3), "b": (1, 3), "z": (3, 3)}
    start = {k: rng.standard_normal(s) for k, s in shapes.items()}
    flat = {k: Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
    loop = {k: Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
    opt, loop_opt = Adam(flat, weight_decay), ref.Adam(loop, weight_decay)
    for step in range(5):
        for k, s in shapes.items():
            # one parameter gets no gradient on alternate steps
            g = None if k == "b" and step % 2 else rng.standard_normal(s)
            flat[k].grad = None if g is None else g.copy()
            loop[k].grad = None if g is None else g.copy()
        opt.step(lr=0.01)
        loop_opt.step(lr=0.01)
        for k in shapes:
            assert flat[k].data.shape == shapes[k]
            np.testing.assert_array_equal(ref.bits(flat[k].data),
                                          ref.bits(loop[k].data))


def test_adam_updates_one_flat_buffer_in_place():
    p = {k: Tensor(np.full((2, 3), v), requires_grad=True) for k, v in (("a", 1.0), ("b", 2.0))}
    opt = Adam(p, weight_decay=0.0)
    views = {k: t.data for k, t in p.items()}
    for t in p.values():
        assert np.shares_memory(t.data, opt.data)
    for t in p.values():
        t.grad = np.ones((2, 3))
    assert opt.step(lr=0.1)
    assert all(p[k].data is views[k] for k in p)
    np.testing.assert_array_equal(opt.data, np.concatenate([p["a"].data.ravel(),
                                                            p["b"].data.ravel()]))


@pytest.mark.parametrize("batches", [1, 2])
def test_non_finite_update_aborts_at_the_batch_that_made_it(batches):
    # a learning rate of 1e308 overflows the very first update: the run must
    # stop there, naming that batch, without a numpy warning
    cfg = benchmark_config(learning_rate=1e308, epochs=1, batches_per_epoch=batches)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="parameters .* epoch 0 batch 0$"):
            train(cfg)


# ---------------------------------------------------------------------------
# the training step's objective against its reference kernels
# ---------------------------------------------------------------------------

def _step_outputs(objective, encoder, params, clips, labels):
    """The loss terms of one step and the gradient of every parameter."""
    with Tape():
        for p in params.values():
            p.zero_grad()
        i, f, v = encode_clip_batch(clips, encoder)
        terms = objective(BatchFeatures(i, f, v, labels))
        backward(add_n(terms.values()))
    return ({k: t.data.copy() for k, t in terms.items()},
            {k: p.grad.copy() for k, p in params.items() if p.grad is not None})


@pytest.mark.parametrize("phase, bp_to_video", [("loss_terms", False), ("loss_terms", True),
                                                 ("teacher", False)],
                         ids=["detached", "bp_to_video", "teacher"])
def test_step_matches_reference_kernels(monkeypatch, phase, bp_to_video):
    """A benchmark-sized step at t=16 (256 frame rows) gives the same loss
    terms and the same gradient of every parameter, bit for bit, when every
    rewritten kernel is swapped for its reference form."""
    cfg = benchmark_config(t=16)
    encoder = init_encoder_params(cfg.trunk, num_blocks=cfg.num_nonlocal_blocks, seed=3)
    rng = np.random.default_rng(5)
    # live attention, so the video branch differs from the image branch and
    # the transfer losses send gradient
    for blk in encoder.blocks:
        blk.w_z.data = 0.3 * rng.standard_normal(blk.w_z.data.shape)
    cls = ClassifierParams.init(cfg.trunk.output_dim, cfg.loss.num_identities, seed=4)
    labels = np.repeat(rng.choice(cfg.loss.num_identities, cfg.p, replace=False), cfg.k)
    clips = rng.standard_normal((cfg.p * cfg.k, cfg.t, cfg.trunk.input_dim))
    # repeated frames give coincident features and tied distances
    clips[:, 1] = clips[:, 0]
    loss_cfg = replace(cfg.loss, bp_to_video=bp_to_video)
    if phase == "teacher":
        def objective(bf):
            return _video_phase_terms(bf, cls, loss_cfg)
    else:
        def objective(bf):
            return loss_terms(bf, cls, loss_cfg)
    params = {**encoder.named_parameters(), **cls.named_parameters()}
    got = _step_outputs(objective, encoder, params, clips, labels)
    for module, name in ((losses, "triplet_hinge_mean"), (losses, "cross_entropy_mean"),
                         (losses, "pairwise_euclidean"), (losses, "scaled_sq_diff"),
                         (losses, "add_n"), (encoders, "affine"), (encoders, "nonlocal_block")):
        monkeypatch.setattr(module, name, getattr(ref, name))
    monkeypatch.setattr("i2vmatch.training.cross_entropy_mean", ref.cross_entropy_mean)
    want = _step_outputs(objective, encoder, params, clips, labels)
    for got_part, want_part in zip(got, want):
        assert got_part.keys() == want_part.keys()
        for k in want_part:
            np.testing.assert_array_equal(ref.bits(got_part[k]),
                                          ref.bits(want_part[k]), err_msg=k)


@pytest.mark.parametrize("overrides", [{}, {"t": 16, "stride": 2}], ids=["t4", "t16"])
def test_step_records_22_tape_entries(monkeypatch, overrides):
    # per step: 3 image and 3 video affine layers, 2 non-local blocks, the
    # temporal pooling, 12 loss entries (2 cross entropies and their sum, 3
    # distance matrices, 4 mined hinges, 2 transfer losses; the detached
    # target's distance matrix records none) and the one term sum
    counts = []
    real = training.backward

    def counting(loss):
        counts.append(len(autodiff.active_tape().entries))
        return real(loss)

    monkeypatch.setattr(training, "backward", counting)
    train(benchmark_config(epochs=1, batches_per_epoch=2, **overrides))
    assert counts == [22, 22]


def test_t16_steps_fault_in_no_fresh_pages(monkeypatch):
    if not autodiff.keep_heap():
        pytest.skip("libc has no mallopt: freed step buffers cannot be kept for reuse")
    faults = []
    real = training.pk_batch_sampler

    def sampler(*args, **kwargs):
        for batch in real(*args, **kwargs):
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            yield batch

    monkeypatch.setattr(training, "pk_batch_sampler", sampler)
    train(benchmark_config(t=16, stride=2, epochs=1, batches_per_epoch=41))
    # the 30 steps after a 10-step warm-up, each from one batch request to the next
    per_step = np.diff(faults[10:])
    assert per_step.size == 30 and per_step.mean() < 50, per_step


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_fixed_point_at_initialization():
    # identical trunks, zero attention output, only the feature-matching
    # loss: the loss is exactly 0 and nothing moves (weight decay off)
    loss = LossConfig(num_identities=6, use_cls=False, use_i2v=False, use_v2i=False,
                      use_i2i=False, use_v2v=False, use_transfer_dist=False)
    cfg = tiny_config(loss=loss, weight_decay=0.0, epochs=1, batches_per_epoch=3)
    from i2vmatch.encoders import init_encoder_params
    fresh = init_encoder_params(cfg.trunk, num_blocks=1, seed=cfg.seed)
    result = train(cfg)
    for rec in result.log_lines[1:]:
        assert json.loads(rec)["total"] == 0.0
    for name, p in result.encoder.image_parameters().items():
        np.testing.assert_array_equal(p.data, fresh.image_parameters()[name].data)


def test_transfer_only_training_is_static_with_bp_off():
    # identical trunks + zero attention: transfer-only training starts at
    # its optimum, so neither branch ever receives a gradient
    loss = LossConfig(num_identities=6, use_cls=False, use_i2v=False, use_v2i=False,
                      use_i2i=False, use_v2v=False, bp_to_video=False)
    cfg = tiny_config(loss=loss, weight_decay=0.0, epochs=1, batches_per_epoch=5)
    from i2vmatch.encoders import init_encoder_params
    fresh = init_encoder_params(cfg.trunk, num_blocks=1, seed=cfg.seed)
    result = train(cfg)
    for name, p in result.encoder.named_parameters().items():
        np.testing.assert_array_equal(p.data, fresh.named_parameters()[name].data)


def test_stop_gradient_video_trajectory_independent_of_transfer():
    # with bp off, the transfer losses feed the video branch no gradient:
    # its whole trajectory matches a run without them, bit for bit, while
    # the image branch (which they do train) diverges
    with_transfer = LossConfig(num_identities=6, use_cls=False, use_i2v=False,
                               use_v2i=False, use_i2i=False, bp_to_video=False)
    without = LossConfig(num_identities=6, use_cls=False, use_i2v=False,
                         use_v2i=False, use_i2i=False, use_transfer_feat=False,
                         use_transfer_dist=False, bp_to_video=False)
    a = train(tiny_config(loss=with_transfer, epochs=2, batches_per_epoch=5))
    b = train(tiny_config(loss=without, epochs=2, batches_per_epoch=5))
    for name, p in a.encoder.video_parameters().items():
        np.testing.assert_array_equal(p.data, b.encoder.video_parameters()[name].data)
    image_diverged = any(
        not np.array_equal(p.data, b.encoder.image_parameters()[name].data)
        for name, p in a.encoder.image_parameters().items())
    assert image_diverged
    # with bp on, the transfer gradient reaches the video branch too
    bp_on = LossConfig(num_identities=6, use_cls=False, use_i2v=False,
                       use_v2i=False, use_i2i=False, bp_to_video=True)
    c = train(tiny_config(loss=bp_on, epochs=2, batches_per_epoch=5))
    video_diverged = any(
        not np.array_equal(p.data, b.encoder.video_parameters()[name].data)
        for name, p in c.encoder.video_parameters().items())
    assert video_diverged


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_decreases_over_first_batches(seed):
    # Asserted on the baseline objective: the transfer terms start at
    # their exact minimum (branches initialize identically), so the full
    # composite has no headroom to fall at step 0.
    cfg = apply_axis(benchmark_config(seed=seed, epochs=1, batches_per_epoch=20),
                     "loss_set", "baseline")
    result = train(cfg)
    totals = [json.loads(r)["total"] for r in result.log_lines[1:]]
    assert len(totals) == 20
    moving = np.convolve(totals, np.ones(5) / 5, mode="valid")
    assert moving[-1] < moving[0]


def test_nonfinite_loss_aborts_with_provenance():
    # frame values near the float ceiling overflow the squared distances
    cfg = tiny_config()
    cfg = replace(cfg, synth=replace(cfg.synth, prototype_scale=1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="epoch"):
            train(cfg)


def test_teacher_pretrained_mode_runs_two_phases():
    cfg = tiny_config(teacher_mode="pretrained")
    result = train(cfg)
    phases = {json.loads(r).get("phase") for r in result.log_lines[1:]}
    assert phases == {"teacher", "student"}
    # phase 1 must not touch the image trunk
    teacher_recs = [json.loads(r) for r in result.log_lines[1:]
                    if json.loads(r).get("phase") == "teacher"]
    assert all("cls_vid" in r for r in teacher_recs)


def test_training_log_records_all_components():
    cfg = tiny_config()
    result = train(cfg)
    rec = json.loads(result.log_lines[1])
    for key in ("epoch", "batch", "lr", "total", "cls", "tri_i2v", "tri_v2i",
                "tri_i2i", "tri_v2v", "transfer_feat", "transfer_dist"):
        assert key in rec, key


def test_fixed_seed_bitwise_identical_runs():
    cfg = tiny_config(seed=3)
    a, b = train(cfg), train(cfg)
    assert a.log_lines == b.log_lines
    assert checkpoint_text(a) == checkpoint_text(b)
    ra = evaluate_result(a, ("I2V",))["I2V"]
    rb = evaluate_result(b, ("I2V",))["I2V"]
    assert ra.to_dict() == rb.to_dict()


# ---------------------------------------------------------------------------
# checkpoints and evaluation
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bytes(tmp_path):
    result = train(tiny_config())
    p1 = tmp_path / "ckpt.txt"
    save_checkpoint(result, p1)
    loaded = load_checkpoint(p1)
    p2 = tmp_path / "ckpt2.txt"
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_preserves_evaluation(tmp_path):
    result = train(tiny_config())
    direct = evaluate_result(result, ("I2V",))["I2V"]
    path = tmp_path / "ckpt.txt"
    save_checkpoint(result, path)
    again = evaluate_result(load_checkpoint(path), ("I2V",))["I2V"]
    assert direct.to_dict() == again.to_dict()


def test_checkpoint_rejects_tampering(tmp_path):
    result = train(tiny_config())
    path = tmp_path / "ckpt.txt"
    save_checkpoint(result, path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"seed":0', '"seed":1')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="digest"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# gradcheck suite and sweeps
# ---------------------------------------------------------------------------

def test_gradcheck_suite_scopes():
    losses = gradcheck_suite(scope="losses", seeds=(0,))
    assert len(losses) == 6
    assert all(oc.passed for oc in losses), [oc for oc in losses if not oc.passed]
    encoders = gradcheck_suite(scope="encoders", seeds=(0,))
    assert len(encoders) == 3
    assert all(oc.passed for oc in encoders)


def test_gradcheck_suite_extended_checks_every_term_and_encoder():
    outcomes = gradcheck_suite(scope="all", extended=True, seeds=(0,))
    assert [oc.name for oc in outcomes] == [
        "transfer_feat", "transfer_dist", "tri_i2v", "tri_integrated", "cls", "total",
        "tri_v2i", "tri_i2i", "tri_v2v", "nonlocal_block", "image_encoder",
        "video_encoder"]
    assert all(oc.passed for oc in outcomes), [oc for oc in outcomes if not oc.passed]


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_gradcheck_suite_matches_the_per_check_suite(seed):
    """One sweep over every output gives the outcomes of one sweep per check
    over that check's own parameters, to the bit; seed 7 includes the
    suite's known failures at a ReLU kink."""
    oracle = ref.gradcheck_suite(scope="all", seeds=(seed,), extended=True)
    losses_checks = training.LOSS_CHECKS + training.EXTENDED_LOSS_CHECKS
    # the oracle runs each check on its own, so a scope's outcomes are a filter of all
    for scope, checks in [("all", losses_checks + training.ENCODER_CHECKS),
                          ("losses", losses_checks), ("encoders", training.ENCODER_CHECKS)]:
        got = gradcheck_suite(scope=scope, seeds=(seed,), extended=True)
        assert got == [o for o in oracle if o.name in checks]


def test_gradcheck_suite_sweeps_each_micro_instance_once(monkeypatch):
    encoder, cls, *_ = training._micro_setup(0)
    n_coords = sum(p.data.size for p in {**encoder.named_parameters(),
                                         **cls.named_parameters()}.values())
    assert n_coords == 296
    counts = []

    def counting(loss_fn, params, **kwargs):
        counts.append(0)

        def counted():
            counts[-1] += 1
            return loss_fn()
        return autodiff.grad_check_params(counted, params, **kwargs)

    monkeypatch.setattr(training, "grad_check_params", counting)
    gradcheck_suite(scope="all", seeds=(0, 1), extended=True)
    # one analytic forward pass, then two evaluations per coordinate
    assert counts == [1 + 2 * n_coords] * 2


@pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
def test_gradcheck_suite_fails_a_check_whose_error_reads_nan(monkeypatch, at):
    # max over the errors keeps whichever of a NaN and a 0 comes first; the
    # verdict must not depend on that order
    checks = training.LOSS_CHECKS + training.EXTENDED_LOSS_CHECKS + training.ENCODER_CHECKS

    def errors(loss_fn, params):
        nan_at = list(params)[at]
        return {c: {p: math.nan if p == nan_at else 0.0 for p in params} for c in checks}

    monkeypatch.setattr(training, "grad_check_params", errors)
    outcomes = gradcheck_suite(scope="all", seeds=(0,), extended=True)
    assert [o.name for o in outcomes] == list(checks)
    assert not any(o.passed for o in outcomes)


def test_sections_are_the_dataclass_fields_of_run_config():
    hints = get_type_hints(RunConfig)
    assert SECTIONS == {f.name: hints[f.name] for f in fields(RunConfig)
                        if is_dataclass(hints[f.name])}


def test_gradcheck_checks_every_loss_term():
    checked = training.LOSS_CHECKS + training.EXTENDED_LOSS_CHECKS
    assert [t for t in losses.TERM_FLAGS if t not in checked] == []


def test_gradcheck_suite_rejects_unknown_scope():
    with pytest.raises(ValueError):
        gradcheck_suite(scope="everything")


def test_sweep_T_axis_shapes():
    cfg = tiny_config(epochs=1, batches_per_epoch=2)
    rows = sweep("T", [1, 2], cfg)
    assert [r["value"] for r in rows] == [1, 2]
    for row in rows:
        for proto in ("I2V", "I2I", "V2V"):
            assert 0.0 <= row[proto]["top1"] <= 1.0
            assert 0.0 <= row[proto]["map"] <= 1.0


def test_sweep_loss_set_axis():
    cfg = tiny_config(epochs=1, batches_per_epoch=2)
    rows = sweep("loss_set", ["i2v-tri", "baseline"], cfg)
    assert [r["value"] for r in rows] == ["i2v-tri", "baseline"]


@pytest.mark.parametrize("value, flag", [
    (True, True), (False, False), (" 1 ", True), ("On", True), ("\tTRUE\n", True),
    ("0", False), (" oFF", False), ("False ", False)])
def test_parse_flag_maps_bools_and_text(value, flag):
    assert parse_flag(value) is flag


def test_parse_flag_rejects_other_values():
    with pytest.raises(ValueError, match="'yes' is not one of 1/on/true/0/off/false"):
        parse_flag("yes")


def test_apply_axis_variants():
    cfg = tiny_config()
    assert apply_axis(cfg, "T", 8).t == 8
    assert apply_axis(cfg, "nonlocal_blocks", 0).num_nonlocal_blocks == 0
    assert apply_axis(cfg, "bp_to_video", "on").loss.bp_to_video
    assert not apply_axis(cfg, "bp_to_video", "off").loss.bp_to_video
    assert apply_axis(cfg, "bp_to_video", "TRUE").loss.bp_to_video
    assert not apply_axis(cfg, "bp_to_video", "0").loss.bp_to_video
    with pytest.raises(ValueError, match="maybe"):
        apply_axis(cfg, "bp_to_video", "maybe")
    assert apply_axis(cfg, "teacher_mode", "pretrained").teacher_mode == "pretrained"
    full = apply_axis(cfg, "loss_set", "full").loss
    assert full.use_cls and full.use_transfer_feat
    base = apply_axis(cfg, "loss_set", "baseline").loss
    assert base.use_cls and not base.use_transfer_feat
    with pytest.raises(ValueError):
        apply_axis(cfg, "width", 3)
