"""The four benchmark workloads, each a closed loop over one unit of work.

A workload runs one *unit* at a time and the next unit starts only when the
previous one has finished. A training unit is one short ``train`` run whose
steps are timed one by one; an evaluation or gradcheck unit is one pass.
Correctness gates run after the timed region of each unit and feed
``failed``; a unit that raises counts as failed and the loop goes on.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from i2vmatch import data, evaluation, training
from i2vmatch.encoders import init_encoder_params
from i2vmatch.evaluation import PROTOCOLS, MetricsReport

from tracing import Tracer, count_fd_evals

# one training unit: 2 epochs of 25 batches at a constant learning rate;
# every unit at one seed is the same run, so each must reproduce the
# fingerprint of the warm-up unit bit for bit
UNIT_EPOCHS = 2
UNIT_BATCHES = 25
# eval-gallery: 150 held-out identities, each with one query and one gallery
# video, at the shipped clip length
EVAL_IDENTITIES = 190
EVAL_HELD_OUT = 150
# set-up is repeated and its upper quartile reported: training sets up
# inside every unit, eval-gallery and gradcheck before every pass, so that, like the
# iterations, the samples span the whole run rather than the few seconds of
# host speed at its start
GRADCHECK_TOL = 1e-4
# log fields that are not loss terms
LOG_META = ("epoch", "batch", "lr", "total", "phase")


@dataclass
class Unit:
    """One finished unit: its iteration times and, when traced, the tracer
    state at the start and end of the timed window."""

    iter_s: list[float]
    window: tuple | None = None


@dataclass
class Tally:
    """Everything the run measured apart from iteration times."""

    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def gate(self, n_ok: int, n_total: int, what: str):
        self.attempted += n_total
        self.failed += n_total - n_ok
        if n_ok != n_total:
            self.problems.append(f"{n_total - n_ok}/{n_total} {what}")

    def crashed(self, n: int, what: str):
        traceback.print_exc(file=sys.stderr)
        self.gate(0, max(n, 1), f"{what} raised")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _log_record_ok(line: str) -> bool:
    """A step's loss is finite and its logged total is the sum of its parts."""
    rec = json.loads(line)
    parts = [v for k, v in rec.items() if k not in LOG_META]
    values = parts + [rec["total"]]
    if not all(math.isfinite(v) for v in values):
        return False
    scale = max(1.0, sum(abs(v) for v in parts))
    return abs(rec["total"] - math.fsum(parts)) <= 1e-12 * scale


class Train:
    """Training steps at ``benchmark_config()``, optionally with longer clips.

    A step is timed as the interval between consecutive batch requests, one
    clock read per step; the last step of a unit ends when ``train`` returns.
    Set-up is the time from the ``train`` call to the first batch request:
    dataset generation, parameter init and the optimizer.
    """

    units = "steps"
    item = "clips"

    def __init__(self, seed: int, **overrides):
        cfg = training.benchmark_config(seed=seed, **overrides)
        self.cfg = replace(cfg, epochs=UNIT_EPOCHS, batches_per_epoch=UNIT_BATCHES)
        self.items_per_iter = cfg.p * cfg.k
        self.fingerprint: dict[str, str] | None = None

    def prepare(self, tally: Tally):
        pass

    def run_unit(self, tally: Tally, tracer: Tracer | None, warm: bool = False) -> Unit:
        ticks: list[float] = []
        window: list = []
        real = training.pk_batch_sampler

        def clocked(*args, **kwargs):
            draw = real(*args, **kwargs).__next__
            if tracer is not None:
                draw = tracer.span("data.sample", draw)

            def stream():
                while True:
                    if not ticks and tracer is not None:
                        window.append(tracer.snapshot())
                    ticks.append(perf_counter())
                    yield draw()
            return stream()

        training.pk_batch_sampler = clocked
        try:
            t0 = perf_counter()
            result = training.train(self.cfg)
            end = perf_counter()
        except Exception:
            tally.crashed(len(ticks), "training steps")
            return Unit([])
        finally:
            training.pk_batch_sampler = real
        if tracer is not None:
            window.append(tracer.snapshot())
        steps = np.diff(ticks + [end]).tolist()

        records = result.log_lines[1:]
        n_ok = sum(_log_record_ok(line) for line in records)
        tally.gate(n_ok if len(records) == len(steps) else 0, len(steps),
                   "steps with a non-finite loss or a total that is not the sum of its parts")
        fingerprint = {
            "log_sha256": _sha256("\n".join(result.log_lines) + "\n"),
            "checkpoint_sha256": _sha256(training.checkpoint_text(result)),
        }
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            tally.gate(0, 1, "units whose log or checkpoint differs from the first")
        if warm:
            return Unit([])
        tally.setup_s.append(ticks[0] - t0)
        return Unit(steps, tuple(window) or None)


def _ranking_ok(query: np.ndarray, gallery: np.ndarray, rankings: np.ndarray) -> bool:
    """Rankings sort an independent brute-force distance matrix (ties within
    1e-9 may fall either way)."""
    d = np.sqrt(((query[:, None, :] - gallery[None, :, :]) ** 2).sum(axis=2))
    g = gallery.shape[0]
    if rankings.shape != d.shape:
        return False
    if not np.array_equal(np.sort(rankings, axis=1), np.broadcast_to(np.arange(g), d.shape)):
        return False
    ordered = np.take_along_axis(d, rankings, axis=1)
    return bool(np.all(np.diff(ordered, axis=1) >= -1e-9 * (1.0 + ordered[:, 1:])))


def _report_ok(report: MetricsReport, num_queries: int, k_max: int) -> bool:
    fields = {k: v for k, v in report.to_dict().items() if k != "format"}
    try:
        MetricsReport(**fields)
    except ValueError:
        return False
    return report.num_queries == num_queries and len(report.cmc) == k_max


class EvalGallery:
    """One pass of ``run_protocol`` for I2V, I2I and V2V over a held-out
    cohort, forward-only under ``no_grad``."""

    units = "passes"
    item = "videos"

    def __init__(self, seed: int):
        cfg = training.benchmark_config(seed=seed)
        self.synth = replace(cfg.synth, num_identities=EVAL_IDENTITIES,
                             num_eval_identities=EVAL_HELD_OUT, seed=seed)
        self.trunk, self.blocks, self.seed = cfg.trunk, cfg.num_nonlocal_blocks, seed
        self.clip_len, self.k_max = cfg.eval_clip_len, cfg.k_max
        self.reference: list[dict] | None = None

    def _setup(self, tally: Tally):
        # generation is deterministic at the seed, so each pass may use a
        # fresh copy; the old one is dropped first, so only one is ever alive
        self.dataset = self.params = None
        t0 = perf_counter()
        self.dataset = data.generate_dataset(self.synth)
        self.params = init_encoder_params(self.trunk, num_blocks=self.blocks, seed=self.seed)
        tally.setup_s.append(perf_counter() - t0)

    def prepare(self, tally: Tally):
        self._setup(tally)
        queries, gallery = self.dataset.query, self.dataset.gallery
        self.num_queries = len(queries)
        # videos through the video encoder: the I2V gallery and both V2V sides
        self.items_per_iter = len(queries) + 2 * len(gallery)

    def run_unit(self, tally: Tally, tracer: Tracer | None, warm: bool = False) -> Unit:
        if not warm:
            self._setup(tally)
        captured = []
        real = evaluation.rank_queries

        def capture(query_feats, gallery):
            rankings = real(query_feats, gallery)
            captured.append((query_feats, gallery.features, rankings))
            return rankings

        evaluation.rank_queries = capture
        try:
            start = tracer.snapshot() if tracer is not None else None
            t0 = perf_counter()
            reports = [evaluation.run_protocol(p, self.dataset, self.params,
                                               clip_len=self.clip_len, k_max=self.k_max)
                       for p in PROTOCOLS]
            elapsed = perf_counter() - t0
            end = tracer.snapshot() if tracer is not None else None
        except Exception:
            tally.crashed(1, "evaluation passes")
            return Unit([])
        finally:
            evaluation.rank_queries = real

        docs = [r.to_dict() for r in reports]
        if self.reference is None:
            self.reference = docs
        ok = (len(captured) == len(PROTOCOLS)
              and all(_report_ok(r, self.num_queries, self.k_max) for r in reports)
              and all(_ranking_ok(*c) for c in captured)
              and docs == self.reference)
        tally.gate(int(ok), 1, "passes with an invalid report, a wrong ranking "
                               "or metrics that differ from the first pass")
        if warm:
            return Unit([])
        return Unit([elapsed], (start, end) if tracer is not None else None)


class Gradcheck:
    """One pass of the extended finite-difference suite at the workload seed.

    Run by hand, not listed in BENCHMARK.json: a pass takes seconds, so a
    run holds too few passes for a steady figure, and at some seeds the
    suite itself reports failures (see README.md).
    """

    units = "passes"
    item = "fd_evals"

    def __init__(self, seed: int):
        self.seed = seed
        self.reference: list | None = None

    def _setup(self, tally: Tally):
        # the suite builds its micro instance inside each pass; set-up times
        # that same builder
        t0 = perf_counter()
        training._micro_setup(self.seed)
        tally.setup_s.append(perf_counter() - t0)

    def prepare(self, tally: Tally):
        self._setup(tally)

    def run_unit(self, tally: Tally, tracer: Tracer | None, warm: bool = False) -> Unit:
        if not warm:
            self._setup(tally)
        counts = {"autodiff.fd_evals": 0}
        real = training.grad_check_params
        if warm:
            training.grad_check_params = count_fd_evals(real, counts)
        try:
            start = tracer.snapshot() if tracer is not None else None
            t0 = perf_counter()
            outcomes = training.gradcheck_suite(scope="all", extended=True,
                                                seeds=(self.seed,), tol=GRADCHECK_TOL)
            elapsed = perf_counter() - t0
            end = tracer.snapshot() if tracer is not None else None
        except Exception:
            tally.crashed(1, "gradcheck passes")
            return Unit([])
        finally:
            training.grad_check_params = real

        summary = [(o.name, o.max_rel_err, o.passed) for o in outcomes]
        if self.reference is None:
            self.reference = summary
        ok = bool(outcomes) and all(o.passed for o in outcomes) and summary == self.reference
        tally.gate(int(ok), 1, "passes with a failed check or results that differ "
                               "from the first pass")
        if warm:
            self.items_per_iter = counts["autodiff.fd_evals"]
            return Unit([])
        return Unit([elapsed], (start, end) if tracer is not None else None)


WORKLOADS = {
    "train-t4": lambda seed: Train(seed),
    "train-t16": lambda seed: Train(seed, t=16, stride=2),
    "eval-gallery": EvalGallery,
    "gradcheck": Gradcheck,
}
