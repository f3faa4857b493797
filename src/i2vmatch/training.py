"""Training orchestration: the joint two-network loop, Adam with the
step-decay schedule, checkpointing, evaluation, gradient-check suite, and
ablation sweeps.

Every batch runs both encoders on the same clips, evaluates the enabled
loss terms, backpropagates once, and applies Adam with weight decay added
to the raw gradients. The two branches train simultaneously by default; a
two-phase mode first fits the video branch alone and then freezes it
while the image branch learns from its features.
"""

from __future__ import annotations

import hashlib
import json
import math
import types
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import zip_longest
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .autodiff import (
    NonFiniteError,
    Tape,
    Tensor,
    add_n,
    backward,
    cross_entropy_mean,
    grad_check_params,
    keep_heap,
    scaled_sq_diff,
)
from .data import (
    SyntheticConfig,
    SyntheticDataset,
    format_floats,
    generate_dataset,
    parse_floats,
    pk_batch_sampler,
)
from .encoders import (
    MAX_NONLOCAL_BLOCKS,
    EncoderParams,
    TrunkConfig,
    encode_clip_batch,
    encode_image,  # uncalled here, as is encode_video; perfbench's tracer patches both
    encode_video,
    init_encoder_params,
    nonlocal_forward,
)
from .evaluation import PROTOCOLS, MetricsReport, evaluate
from .losses import (
    TERM_FLAGS,
    BatchFeatures,
    ClassifierParams,
    LossConfig,
    batch_hard_triplet,
    distance_transfer_loss,  # uncalled here; perfbench's tracer patches this binding
    loss_terms,
)

CHECKPOINT_FORMAT = "i2vmatch-checkpoint/1"
LOG_FORMAT = "i2vmatch-trainlog/1"

TEACHER_MODES = ("simultaneous", "pretrained")

# the enabled terms of each loss_set sweep value
LOSS_SET_PRESETS = {
    "i2v-tri": ("tri_i2v",),
    "integrated-tri": ("tri_i2v", "tri_v2i", "tri_i2i", "tri_v2v"),
    "baseline": ("cls", "tri_i2v", "tri_v2i", "tri_i2i", "tri_v2v"),
    "full": tuple(TERM_FLAGS),
}


# RunConfig's nested sections, by field name
SECTIONS = {"synth": SyntheticConfig, "trunk": TrunkConfig, "loss": LossConfig}
# ints that work at any size: seeds, the stride (reduced modulo the video length),
# k_max (clipped to the gallery), the schedule; numpy takes the others as int64
ANY_SIZE_INTS = ("seed", "stride", "k_max", "epochs", "batches_per_epoch", "lr_decay_every")


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; nested configs are plain dataclasses.

    Desk-scale defaults: 30 epochs of 50 batches with the learning rate
    divided by 10 every 12 epochs (the reference schedule of 150 epochs
    with decay every 60 is reachable by config).
    """

    synth: SyntheticConfig = field(default_factory=SyntheticConfig)
    trunk: TrunkConfig = field(default_factory=lambda: TrunkConfig(input_dim=20))
    loss: LossConfig = field(default_factory=lambda: LossConfig(num_identities=10))
    num_nonlocal_blocks: int = 2
    p: int = 4
    k: int = 4
    t: int = 4
    stride: int = 8
    epochs: int = 30
    batches_per_epoch: int = 50
    learning_rate: float = 0.0003
    lr_decay_every: int = 12
    lr_decay_factor: float = 0.1
    weight_decay: float = 0.0005
    teacher_mode: str = "simultaneous"
    eval_clip_len: int = 32
    k_max: int = 20
    seed: int = 0

    def __post_init__(self):
        parts = {"run": self, **{name: getattr(self, name) for name in SECTIONS}}
        for section, part in parts.items():
            for name, value in vars(part).items():
                values = value if isinstance(value, tuple) else (value,)
                if name not in ANY_SIZE_INTS and any(type(v) is int and not -2**63 <= v < 2**63
                                                     for v in values):
                    raise ValueError(f"{section}.{name} is too large to convert to int64")
        if self.teacher_mode not in TEACHER_MODES:
            raise ValueError(f"teacher_mode must be one of {TEACHER_MODES}")
        if self.trunk.frame_vector_len != self.synth.input_dim:
            raise ValueError(
                f"trunk frame vector length {self.trunk.frame_vector_len} (input_dim "
                f"{self.trunk.input_dim} x {self.trunk.positions_per_frame} positions) "
                f"!= dataset input_dim {self.synth.input_dim}")
        if self.loss.num_identities != self.synth.num_train_identities:
            raise ValueError("loss num_identities must match the train identities")
        if not 0 <= self.num_nonlocal_blocks <= MAX_NONLOCAL_BLOCKS:
            raise ValueError(f"num_nonlocal_blocks must be in 0..{MAX_NONLOCAL_BLOCKS}, "
                             f"got {self.num_nonlocal_blocks}")
        for name in ("p", "k", "t", "stride", "epochs", "batches_per_epoch",
                     "lr_decay_every", "eval_clip_len", "k_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("learning_rate", "lr_decay_factor", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # a decay factor above 1 would raise the rate at every "decay"
        if self.learning_rate <= 0 or not 0 < self.lr_decay_factor <= 1:
            raise ValueError("learning_rate must be positive and lr_decay_factor in (0, 1]")
        for name in ("weight_decay", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.p > (n_train := self.synth.num_train_identities):
            raise ValueError(f"p={self.p} exceeds the {n_train} train identities")
        # each term's batch shape: every triplet anchor needs a positive and a
        # negative candidate, and a distance matrix two frames
        counts = {"p": self.p, "k": self.k, "k*t": self.k * self.t,
                  "p*k*t": self.p * self.k * self.t}
        needs = {"tri_i2v": ("p",), "tri_v2i": ("p",), "tri_i2i": ("p", "k*t"),
                 "tri_v2v": ("p", "k"), "teacher phase tri_v2v": ("p", "k"),
                 "transfer_dist": ("p*k*t",)}
        terms = [name for name, flag in TERM_FLAGS.items() if getattr(self.loss, flag)]
        if self.teacher_mode == "pretrained" and self.p * self.k >= 2:
            terms.append("teacher phase tri_v2v")  # see _video_phase_terms
        for term in terms:
            for key in needs.get(term, ()):
                if counts[key] < 2:
                    raise ValueError(f"loss term {term} needs {key} >= 2, got {counts[key]}")

    def lr_at(self, epoch: int) -> float:
        return self.learning_rate * self.lr_decay_factor ** (epoch // self.lr_decay_every)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build from the nested-dict form of :meth:`to_dict`. An unknown
        key, a missing required field or a value of the wrong type raises
        ValueError; the key errors name their section."""
        d = _section("run", d, cls)
        given = {name: _section(name, d.pop(name, {}), kind) for name, kind in SECTIONS.items()}
        return cls(**{name: SECTIONS[name](**v) for name, v in given.items()}, **d)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """:meth:`from_dict` of a JSON text; nesting too deep for
        ``json.loads`` is a ValueError too."""
        try:
            d = json.loads(text)
        except RecursionError:
            raise ValueError("JSON text is nested too deeply to read") from None
        return cls.from_dict(d)


def _fits(hint, value) -> bool:
    """Whether a JSON value has a config field's declared type. A bool is
    no number; a nested section is checked on its own."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is types.UnionType:
        return any(_fits(h, value) for h in args)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and all(type(v) is int for v in value)
                and (args[-1] is Ellipsis or len(value) == len(args)))
    if hint is float:
        return type(value) in (int, float)
    if hint in (bool, int, str, type(None)):
        return type(value) is hint
    return True


def _section(name: str, given, kind) -> dict:
    """A copy of one config section, checked against the fields of ``kind``
    and their declared types, with every JSON list turned into a tuple."""
    if not isinstance(given, dict):
        raise ValueError(f"config section {name!r} must be a JSON object")
    declared = {f.name: f for f in fields(kind)}
    unknown = [k for k in given if k not in declared]
    if unknown:
        raise ValueError(f"config section {name!r}: unknown key {unknown[0]!r}")
    missing = [k for k, f in declared.items() if k not in given
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"config section {name!r}: missing required key {missing[0]!r}")
    hints = get_type_hints(kind)
    for k, v in given.items():
        if not _fits(hints[k], v):
            raise ValueError(f"config section {name!r}: key {k!r} has a value of the "
                             f"wrong type, {type(v).__name__}; expected {declared[k].type}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in given.items()}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(cfg.to_dict()).encode()).hexdigest()[:16]


def benchmark_config(seed: int = 0, **overrides) -> RunConfig:
    """The default synthetic benchmark.

    One fixed dataset, like any retrieval benchmark: ten held-out
    identities under two cameras form the evaluation cohort, and forty
    further identities provide the training footage, so evaluation
    measures how the learned encoders generalize beyond the training cast.
    Identity prototypes share a rank-5 linear manifold, which makes the
    occluded coordinate blocks recoverable from context: a single occluded
    frame stays ambiguous while cross-frame aggregation can reconstruct
    it. ``seed`` varies the training run (initialization, batch sampling),
    not the dataset.
    """
    synth = SyntheticConfig(num_identities=50, cameras_per_identity=2,
                            frames_per_video=(40, 64), input_dim=20,
                            prototype_scale=1.0, prototype_rank=5,
                            camera_offset_scale=0.45,
                            drift_scale=0.2, frame_noise_scale=0.4,
                            occlusion_prob=0.5, occlusion_mask_fraction=0.65,
                            num_eval_identities=10, seed=11)
    trunk = TrunkConfig(input_dim=20, hidden_dims=(24, 24), output_dim=16)
    defaults = dict(
        synth=synth, trunk=trunk, loss=LossConfig(num_identities=40),
        num_nonlocal_blocks=2, epochs=40, batches_per_epoch=50,
        lr_decay_every=16, learning_rate=0.001, seed=seed,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam over a named parameter dict, with weight decay added to the raw
    gradient before the moment updates (classic coupled form). The
    parameters live in one flat buffer, raveled and concatenated in dict
    order, each ``p.data`` a view of it; a step updates it in place."""

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.0):
        self.params = dict(params)
        self.weight_decay = weight_decay
        self.data = np.concatenate([p.data.ravel() for p in self.params.values()])
        ends = np.cumsum([p.data.size for p in self.params.values()])
        for p, part in zip(self.params.values(), np.split(self.data, ends[:-1])):
            p.data = part.reshape(p.data.shape)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.steps = 0

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float) -> bool:
        """One update; whether every parameter is finite after it (a
        non-finite one is reported, not warned about)."""
        self.steps += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.steps
        bc2 = 1.0 - ADAM_BETA2 ** self.steps
        g = np.concatenate([(p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
                            for p in self.params.values()])
        with np.errstate(over="ignore", invalid="ignore"):
            if self.weight_decay:
                g += self.weight_decay * self.data
            self.m *= ADAM_BETA1
            self.m += (1.0 - ADAM_BETA1) * g
            self.v *= ADAM_BETA2
            self.v += (1.0 - ADAM_BETA2) * (g * g)
            update = lr * (self.m / bc1)
            update /= np.sqrt(self.v / bc2) + ADAM_EPS
            self.data -= update
        return bool(np.isfinite(self.data).all())


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    config: RunConfig
    encoder: EncoderParams
    classifier: ClassifierParams
    log_lines: list[str]
    dataset: SyntheticDataset

    def named_parameters(self) -> dict[str, Tensor]:
        return {**self.encoder.named_parameters(), **self.classifier.named_parameters()}


def _build(cfg: RunConfig) -> TrainResult:
    """The dataset and the freshly drawn encoder and classifier of a run,
    with an empty log: where training starts and a checkpoint loads into."""
    return TrainResult(
        config=cfg, dataset=generate_dataset(cfg.synth),
        encoder=init_encoder_params(cfg.trunk, num_blocks=cfg.num_nonlocal_blocks,
                                    seed=cfg.seed),
        classifier=ClassifierParams.init(cfg.trunk.output_dim, cfg.loss.num_identities,
                                         seed=cfg.seed + 1),
        log_lines=[])


def _video_phase_terms(bf: BatchFeatures, cls: ClassifierParams,
                       cfg: LossConfig) -> dict[str, Tensor]:
    """Phase-1 objective for the pre-trained teacher mode: the video branch
    learns from its own classification and within-modality triplet loss."""
    terms = {"cls_vid": cross_entropy_mean(bf.video_feats, cls.w, bf.labels)}
    if len(bf.labels) >= 2:
        terms["tri_v2v"] = batch_hard_triplet(bf.video_feats, bf.video_feats,
                                              bf.labels, bf.labels, cfg.margin,
                                              exclude_self=True)
    return terms


def _run_phase(cfg: RunConfig, encoder: EncoderParams, optimizer: Adam, term_fn, sampler,
               log_lines: list[str], phase: str) -> None:
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        for b in range(cfg.batches_per_epoch):
            batch = next(sampler)
            with Tape():
                optimizer.zero_grad()
                try:  # a numpy floating-point error or a non-finite loss
                    bf = BatchFeatures(*encode_clip_batch(batch.clips, encoder), batch.labels)
                    terms = term_fn(bf)
                    total = add_n(terms.values())
                    if not math.isfinite(value := total.item()):
                        raise FloatingPointError("non-finite loss")
                    backward(total)
                except FloatingPointError as exc:
                    raise NonFiniteError(f"{exc} at epoch {epoch} batch {b}; "
                                         f"clip provenance: {batch.provenance}") from None
                if not optimizer.step(lr):
                    raise NonFiniteError(f"non-finite parameters after the update at epoch "
                                         f"{epoch} batch {b}")
            record = {"epoch": epoch, "batch": b, "lr": lr,
                      **{name: t.item() for name, t in terms.items()}, "total": value}
            if phase:
                record["phase"] = phase
            log_lines.append(canonical_json(record))


def train(cfg: RunConfig) -> TrainResult:
    """Run the configured training and return parameters plus the log.

    Batches are sampled from the dataset's train identities; with a
    held-out eval cohort configured, the retrieval queries and gallery
    never appear during training.
    """
    keep_heap()
    result = _build(cfg)
    encoder, cls = result.encoder, result.classifier
    sampler = pk_batch_sampler(result.dataset, cfg.p, cfg.k, cfg.t, cfg.stride,
                               np.random.default_rng(cfg.seed + 2))
    result.log_lines.append(canonical_json({"format": LOG_FORMAT,
                                            "digest": config_digest(cfg)}))

    def all_terms(bf: BatchFeatures) -> dict[str, Tensor]:
        return loss_terms(bf, cls, cfg.loss)

    if cfg.teacher_mode == "simultaneous":
        phases = [("", result.named_parameters(), all_terms)]
    else:
        # the video branch first trains alone as a teacher; then it is
        # frozen and the image branch learns with all enabled losses
        phases = [("teacher", {**encoder.video_parameters(), **cls.named_parameters()},
                   lambda bf: _video_phase_terms(bf, cls, cfg.loss)),
                  ("student", {**encoder.image_parameters(), **cls.named_parameters()},
                   all_terms)]
    for phase, params, term_fn in phases:
        _run_phase(cfg, encoder, Adam(params, weight_decay=cfg.weight_decay), term_fn,
                   sampler, result.log_lines, phase)
    return result


# ---------------------------------------------------------------------------
# checkpoint text format
# ---------------------------------------------------------------------------

def checkpoint_text(result: TrainResult) -> str:
    cfg = result.config
    lines = [CHECKPOINT_FORMAT,
             "config " + canonical_json(cfg.to_dict()),
             "digest " + config_digest(cfg)]
    for name, p in result.named_parameters().items():
        lines.append(f"param {name} {p.data.shape[0]} {p.data.shape[1]}")
        lines.extend(format_floats(row) for row in p.data)
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_checkpoint(result: TrainResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(checkpoint_text(result))


def load_checkpoint(path) -> TrainResult:
    """Rebuild a result (minus the log) from a checkpoint file that ``checkpoint_text``
    reproduces line for line; else a ValueError names the first line that differs."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[0] != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if (len(lines) < 3 or not lines[1].startswith("config ")
            or not lines[2].startswith("digest ")):
        raise ValueError("malformed checkpoint header")
    cfg = RunConfig.from_json(lines[1][len("config "):])
    if lines[2][len("digest "):] != config_digest(cfg):
        raise ValueError("config digest mismatch: checkpoint was edited or corrupted")
    result = _build(cfg)
    i = 3
    for name, p in result.named_parameters().items():
        r, c = p.data.shape
        if lines[i:i + 1] != [f"param {name} {r} {c}"]:
            break  # the comparison below names the first differing line
        rows = [lines[n].split() if n < len(lines) else [] for n in range(i + 1, i + 1 + r)]
        for n, row in enumerate(rows, start=i + 2):
            if len(row) != c:
                raise ValueError(f"checkpoint line {n} holds {len(row)} values where "
                                 f"each row of parameter {name} holds {c}")
        p.data = np.array([parse_floats(row, f"parameter {name}") for row in rows])
        i += 1 + r
    layout = map(repr, checkpoint_text(result).split("\n"))
    for n, (got, want) in enumerate(zip_longest(map(repr, lines), layout, fillvalue="nothing")):
        if got != want:
            raise ValueError(f"checkpoint line {n + 1} reads {got} where its layout puts {want}")
    return result


# ---------------------------------------------------------------------------
# evaluation entry points
# ---------------------------------------------------------------------------

def evaluate_result(result: TrainResult, protocols=PROTOCOLS) -> dict[str, MetricsReport]:
    """The metrics report of each named protocol, from one evaluation pass."""
    cfg = result.config
    return evaluate(result.dataset, result.encoder, protocols,
                    clip_len=cfg.eval_clip_len, k_max=cfg.k_max)


def report_document(report: MetricsReport, cfg: RunConfig) -> str:
    doc = report.to_dict()
    doc["seed"] = cfg.seed
    doc["config_digest"] = config_digest(cfg)
    return canonical_json(doc) + "\n"


# ---------------------------------------------------------------------------
# gradient-check suite
# ---------------------------------------------------------------------------

@dataclass
class CheckOutcome:
    name: str
    seed: int
    max_rel_err: float
    passed: bool
    worst_param: str


LOSS_CHECKS = ("transfer_feat", "transfer_dist", "tri_i2v", "tri_integrated",
               "cls", "total")
EXTENDED_LOSS_CHECKS = ("tri_v2i", "tri_i2i", "tri_v2v")
ENCODER_CHECKS = ("nonlocal_block", "image_encoder", "video_encoder")


def _micro_setup(seed: int):
    """P=K=T=2 micro-batch with gradients allowed into the video branch so
    finite differences see the same function the analytic pass claims."""
    trunk = TrunkConfig(input_dim=4, hidden_dims=(6, 6), output_dim=5)
    encoder = init_encoder_params(trunk, num_blocks=1, seed=seed)
    rng = np.random.default_rng(seed + 31)
    encoder.blocks[0].w_z.data = 0.3 * rng.standard_normal(encoder.blocks[0].w_z.data.shape)
    cls = ClassifierParams.init(5, 2, seed=seed + 1)
    clips = rng.standard_normal((4, 2, 4))
    labels = np.array([0, 0, 1, 1])
    cfg = LossConfig(num_identities=2, bp_to_video=True)
    return encoder, cls, clips, labels, cfg


def _sq_norm(t: Tensor) -> Tensor:
    return scaled_sq_diff(t, Tensor(np.zeros_like(t.data)), 1.0)  # t - 0 is t, -0 too


def _check_values(encoder, cls, clips, labels, cfg, h: Tensor) -> dict[str, Tensor]:
    """Every checked quantity of a micro-instance from one forward pass: each
    loss term, the four triplets (tri_integrated) and all terms (total), and
    the squared norms of the image features, of the video features and of
    the first attention block applied to ``h``."""
    i, fr, v = encode_clip_batch(clips, encoder)
    terms = loss_terms(BatchFeatures(i, fr, v, labels), cls, cfg)
    return {**terms,
            "tri_integrated": add_n(terms[k] for k in LOSS_SET_PRESETS["integrated-tri"]),
            "total": add_n(terms.values()),
            "nonlocal_block": _sq_norm(nonlocal_forward(h, encoder.blocks[0])),
            "image_encoder": _sq_norm(i),
            "video_encoder": add_n([_sq_norm(fr), _sq_norm(v)])}


def gradcheck_suite(scope: str = "all", seeds=(0,), tol: float = 1e-4,
                    extended: bool = False) -> list[CheckOutcome]:
    """Finite-difference verification of every loss and encoder block on
    micro-instances, one sweep per seed. ``scope`` is one of
    all/losses/encoders."""
    if scope not in ("all", "losses", "encoders"):
        raise ValueError(f"scope must be all, losses or encoders, got {scope!r}")
    if not math.isfinite(tol) or tol < 0:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if any(seed < 0 for seed in seeds):
        raise ValueError(f"seeds must be non-negative, got {list(seeds)}")
    loss_names = LOSS_CHECKS + (EXTENDED_LOSS_CHECKS if extended else ())
    names: tuple[str, ...] = ()
    if scope in ("all", "losses"):
        names += loss_names
    if scope in ("all", "encoders"):
        names += ENCODER_CHECKS
    outcomes = []
    for seed in seeds:
        encoder, cls, clips, labels, cfg = _micro_setup(seed)
        h = Tensor(np.random.default_rng(7).standard_normal((4, encoder.blocks[0].channels)))
        # a parameter outside a check's ancestry reads zero both ways, error 0
        errors = grad_check_params(lambda: _check_values(encoder, cls, clips, labels, cfg, h),
                                   {**encoder.named_parameters(), **cls.named_parameters()})
        for name in names:
            # every error judged: max over a NaN depends on the order of the keys
            worst_param, worst = max(errors[name].items(), key=lambda kv: kv[1])
            outcomes.append(CheckOutcome(name=name, seed=seed, max_rel_err=worst,
                                         passed=all(e <= tol for e in errors[name].values()),
                                         worst_param=worst_param))
    return outcomes


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_FLAG_VALUES = {"1": True, "on": True, "true": True, "0": False, "off": False, "false": False}


def parse_flag(value) -> bool:
    """A ``bp_to_video`` sweep value: a bool, or one of 1/on/true/0/off/false
    in any case."""
    flag = _FLAG_VALUES.get(str(value).strip().lower())
    if flag is None:
        raise ValueError(f"bp_to_video value {value!r} is not one of "
                         f"{'/'.join(_FLAG_VALUES)}")
    return flag


# each sweep axis with the parser of its values (a value may arrive as text)
SWEEP_AXES = {"T": int, "nonlocal_blocks": int, "bp_to_video": parse_flag,
              "loss_set": str, "teacher_mode": str}


def apply_axis(cfg: RunConfig, axis: str, value) -> RunConfig:
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")
    value = SWEEP_AXES[axis](value)
    if axis == "T":
        return replace(cfg, t=value)
    if axis == "nonlocal_blocks":
        return replace(cfg, num_nonlocal_blocks=value)
    if axis == "bp_to_video":
        return replace(cfg, loss=replace(cfg.loss, bp_to_video=value))
    if axis == "loss_set":
        if value not in LOSS_SET_PRESETS:
            raise ValueError(f"unknown loss_set {value!r}; expected one of "
                             f"{tuple(LOSS_SET_PRESETS)}")
        return replace(cfg, loss=cfg.loss.with_terms(LOSS_SET_PRESETS[value]))
    return replace(cfg, teacher_mode=value)


def sweep(axis: str, values, cfg: RunConfig) -> list[dict]:
    """Train and evaluate one run per axis value; each row carries the
    parsed value and the I2V/I2I/V2V top-1 and mAP for it."""
    # every value is validated before the first run starts
    if not values:
        raise ValueError(f"no {axis} value to sweep")
    run_cfgs = [apply_axis(cfg, axis, value) for value in values]
    rows = []
    for value, run_cfg in zip(values, run_cfgs):
        reports = evaluate_result(train(run_cfg))
        rows.append({"axis": axis, "value": SWEEP_AXES[axis](value),
                     **{p: {"top1": r.cmc[0], "map": r.map} for p, r in reports.items()}})
    return rows


def sweep_table(rows: list[dict]) -> str:
    header = f"{'value':>12} | " + " | ".join(
        f"{p} top-1   mAP" for p in PROTOCOLS)
    out = [header, "-" * len(header)]
    for row in rows:
        cells = [f"{str(row['value']):>12}"]
        for p in PROTOCOLS:
            cells.append(f"{row[p]['top1']:.4f} {row[p]['map']:.4f}")
        out.append(" | ".join(cells))
    return "\n".join(out)
