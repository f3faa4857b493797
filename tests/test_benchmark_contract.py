"""The names the traced benchmark patches must keep existing.

``perfbench/tracing.py`` replaces module bindings of ``i2vmatch`` by name and
puts the originals back afterwards. A refactor that deletes or renames one
of those bindings breaks ``perfbench/run.py --trace 1``; this test catches
that in the tier-1 suite. It only reads ``perfbench/``.
"""

import importlib
from pathlib import Path

from i2vmatch import autodiff
from i2vmatch.autodiff import Tape, Tensor

from reference_kernels import sum_all

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()  # AttributeError here names a binding that is gone
    try:
        patched = list(tracer._saved)
        # the spans, two backward bindings and the gradient-check counter
        assert len(patched) == len(tracing.SPANS) + 3
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
        # the patched backward reads the open tape through active_tape
        with Tape():
            autodiff.backward(sum_all(Tensor([1.0, 2.0], requires_grad=True)))
        assert tracer.calls["autodiff.tape_entries"] == 1
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
