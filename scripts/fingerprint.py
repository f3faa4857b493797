"""Byte-level fingerprint of the program's outputs, for proving that a
refactor changed nothing.

Prints one JSON object of sha256 digests:

- ``train_log`` and ``checkpoint_text`` of ``benchmark_config(seed=0)``
  runs of 2 epochs x 25 batches at t=4, at t=16 with stride 2, with the
  pre-trained teacher mode, and at t=16 with stride 2 and gradient sent
  into the video branch (``bp_to_video``, the one setting in which the
  distance-transfer target requires grad);
- the file written by ``synth`` (benchmark defaults), the file written by
  ``export-features --which both`` and the ``eval --out`` report of each
  protocol, both on the t=4 checkpoint;
- the ``repr`` of the outcomes of
  ``gradcheck_suite(scope="all", extended=True, seeds=(0, 1, 2))``.

Files go to a temporary directory that is removed afterwards. Run it on
two source trees and diff the outputs:

    PYTHONPATH=src python scripts/fingerprint.py > after.json
    PYTHONPATH=<other checkout>/src python scripts/fingerprint.py > before.json
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from i2vmatch import cli
from i2vmatch.evaluation import PROTOCOLS
from i2vmatch.losses import LossConfig
from i2vmatch.training import (benchmark_config, checkpoint_text, gradcheck_suite,
                                save_checkpoint, train)

RUNS = {
    "t4": {},
    "t16_stride2": {"t": 16, "stride": 2},
    "pretrained": {"teacher_mode": "pretrained"},
    "t16_bp_to_video": {"t": 16, "stride": 2,
                        "loss": LossConfig(num_identities=40, bp_to_video=True)},
}


def _sha256(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"i2vmatch {' '.join(argv)} exited {code}")


def main():
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name, overrides in RUNS.items():
            result = train(benchmark_config(seed=0, epochs=2, batches_per_epoch=25, **overrides))
            digests[f"{name}.train_log"] = _sha256("\n".join(result.log_lines) + "\n")
            digests[f"{name}.checkpoint_text"] = _sha256(checkpoint_text(result))
            if name == "t4":
                save_checkpoint(result, out / "checkpoint.txt")
        ckpt = str(out / "checkpoint.txt")
        _cli("synth", "--out", str(out / "synth.txt"))
        digests["synth"] = _sha256((out / "synth.txt").read_bytes())
        _cli("export-features", "--checkpoint", ckpt, "--which", "both",
             "--out", str(out / "features.txt"))
        digests["export_features"] = _sha256((out / "features.txt").read_bytes())
        for protocol in PROTOCOLS:
            report = out / f"report_{protocol}.json"
            _cli("eval", "--checkpoint", ckpt, "--protocol", protocol, "--out", str(report))
            digests[f"eval.{protocol}"] = _sha256(report.read_bytes())
    outcomes = gradcheck_suite(scope="all", extended=True, seeds=(0, 1, 2))
    digests["gradcheck"] = _sha256(repr(outcomes))
    print(json.dumps(digests, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
