"""Per-layer spans recorded from outside the program.

The tracer replaces module attributes of ``i2vmatch`` with timing wrappers
and puts the originals back on ``restore``. Nothing under ``src/`` knows it
is being traced. A name imported with ``from .x import f`` is a separate
binding in each importing module, so every binding a workload calls through
is patched by name in the module that calls it.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from i2vmatch import autodiff, data, encoders, evaluation, losses, training

# primitives as bound in encoders and losses; the tracer times their forward
# pass (a primitive's backward rule runs inside autodiff.backward)
PRIMITIVES = ("add", "concat_rows", "frobenius_sq", "gather", "log_softmax_rows",
              "matmul", "mean_all", "mean_row_groups", "mean_rows",
              "pairwise_euclidean", "relu", "scale", "shift", "softmax_rows",
              "sub", "transpose")

# (module, attribute, span name); a span name may cover several bindings
SPANS = (
    (data, "generate_dataset", "data.generate"),
    (training, "generate_dataset", "data.generate"),
    (training, "encode_clip_batch", "encoders.encode_clip_batch"),
    (encoders, "encode_video", "encoders.encode_video"),
    (evaluation, "encode_video", "encoders.encode_video"),
    (training, "encode_video", "encoders.encode_video"),
    (encoders, "encode_image", "encoders.encode_image"),
    (evaluation, "encode_image", "encoders.encode_image"),
    (training, "encode_image", "encoders.encode_image"),
    (encoders, "nonlocal_forward", "encoders.nonlocal"),
    (training, "nonlocal_forward", "encoders.nonlocal"),
    (training, "loss_terms", "losses.loss_terms"),
    (losses, "loss_terms", "losses.loss_terms"),
    (losses, "batch_hard_triplet", "losses.triplet"),
    (training, "batch_hard_triplet", "losses.triplet"),
    (losses, "distance_transfer_loss", "losses.transfer_dist"),
    (training, "distance_transfer_loss", "losses.transfer_dist"),
    (training.Adam, "step", "training.adam"),
    (evaluation, "extract_gallery_features", "evaluation.extract_gallery"),
    (evaluation, "rank_queries", "evaluation.rank"),
    (evaluation, "cmc", "evaluation.cmc"),
    (evaluation, "mean_average_precision", "evaluation.map"),
) + tuple(
    (module, op, f"autodiff.{op}.fwd")
    for module in (encoders, losses) for op in PRIMITIVES if hasattr(module, op)
)


class Tracer:
    """Inclusive seconds and call counts per span name.

    ``top_seconds`` sums the spans that opened while no other span was open:
    the direct children of the closed loop, whose share of the loop's time
    is the trace coverage.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.top_seconds = 0.0
        self._depth = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name, fn):
        def traced(*args, **kwargs):
            self._depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._depth -= 1
                self.seconds[name] += dt
                self.calls[name] += 1
                if not self._depth:
                    self.top_seconds += dt
        return traced

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for owner, attr, name in SPANS:
            self._replace(owner, attr, self.span(name, getattr(owner, attr)))
        for owner in (training, autodiff):
            self._replace(owner, "backward", self._backward(owner.backward))
        self._replace(training, "grad_check_params",
                      count_fd_evals(training.grad_check_params, self.calls))

    def _backward(self, fn):
        timed = self.span("autodiff.backward", fn)

        def backward(loss):
            self.calls["autodiff.tape_entries"] += len(autodiff.active_tape().entries)
            return timed(loss)
        return backward

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> tuple[dict[str, float], dict[str, int], float]:
        return dict(self.seconds), dict(self.calls), self.top_seconds


def count_fd_evals(grad_check_params, calls: dict[str, int]):
    """Wrap ``grad_check_params`` so that ``calls["autodiff.fd_evals"]``
    counts the finite-difference forward evaluations: every call of the
    loss function except the one analytic evaluation."""
    def counting(loss_fn, params, *args, **kwargs):
        n = 0

        def counted():
            nonlocal n
            n += 1
            return loss_fn()
        try:
            return grad_check_params(counted, params, *args, **kwargs)
        finally:
            calls["autodiff.fd_evals"] += max(n - 1, 0)
    return counting
