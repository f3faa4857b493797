"""Byte-level fingerprint of the program's outputs, for proving that a
refactor changed nothing.

Prints the pin file ``tests/fingerprint.json``: one JSON object whose
``"digests"`` are the sha256 digests below and whose ``"platform"`` is the
``platform_key()`` of the machine they were taken on. The digests are of
these outputs:

- ``train_log`` and ``checkpoint_text`` of ``benchmark_config(seed=0)``
  runs of 2 epochs x 25 batches at t=4, at t=16 with stride 2, with the
  pre-trained teacher mode, and at t=16 with stride 2 and gradient sent
  into the video branch (``bp_to_video``, the one setting in which the
  distance-transfer target requires grad);
- the file written by ``synth`` (benchmark defaults), the file written by
  ``export-features --which both`` and the ``eval --out`` report of each
  protocol, both on the t=4 checkpoint;
- with the t=4 encoders, on a cohort seen by 12 cameras, so that every
  query has 11 relevant gallery videos where the benchmark cohort has one:
  the metrics report of each protocol and the average precision of each
  of its queries alone (``eval.multi.<protocol>``). A moved last bit of
  one AP need not move the mean, so each AP is digested;
- with the t=4 video encoder, the video-side features of the 120 videos of
  that cohort cut to 1 to 40 frames, at a clip length of 4, so videos hold
  1 to 10 clips, some fewer frames than one clip, and encoder batches split
  videos (``export_features.clips``); the benchmark's own videos hold two
  32-frame clips each;
- the ``sweep --out`` rows of two short sweeps on the benchmark config,
  ``bp_to_video`` off and on and ``T`` at 2 and 4, which cover the
  three-protocol evaluation pass and the parsed axis values
  (``sweep.<axis>``);
- the ``repr`` of the outcomes of
  ``gradcheck_suite(scope="all", extended=True, seeds=(0, 1, 2))``.

Files go to a temporary directory that is removed afterwards. Run it on
two source trees and diff the outputs:

    PYTHONPATH=src python scripts/fingerprint.py > after.json
    PYTHONPATH=<other checkout>/src python scripts/fingerprint.py > before.json

``tests/test_fingerprint.py`` compares the digests with the pinned ones,
one by one, wherever the platform matches. A change that moves bytes on
purpose regenerates the pin file with

    PYTHONPATH=src python scripts/fingerprint.py > tests/fingerprint.json

and says why.
"""

import contextlib
import hashlib
import io
import itertools
import json
import platform
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from i2vmatch import cli
from i2vmatch.data import VideoRecord, generate_dataset
from i2vmatch.evaluation import (PROTOCOL_SIDES, PROTOCOLS, build_side, evaluate,
                                 extract_gallery_features, hit_matrix, mean_average_precision,
                                 rank_queries)
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

# sweep command-line arguments per sweep digest
SWEEPS = {
    "bp_to_video": ("--values", "off,on", "--epochs", "2", "--batches-per-epoch", "25"),
    "T": ("--values", "2,4", "--epochs", "1", "--batches-per-epoch", "10"),
}

# the ``export_features.clips`` cohort: frames kept per video, in turn, and
# the clip length, which cuts them into 1, 1, 1, 2, 3, 4, 5, 7, 9, 10 clips
CLIP_COHORT_LENGTHS = (1, 3, 4, 5, 9, 14, 20, 27, 33, 40)
CLIP_COHORT_CLIP_LEN = 4


def platform_key() -> dict[str, str]:
    """Everything besides the source that the digests depend on: the Python
    and numpy versions, the BLAS numpy links, and the machine architecture."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "machine": platform.machine()}


def _sha256(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"i2vmatch {' '.join(argv)} exited {code}")


def _multi_relevant_digests(result) -> dict[str, str]:
    cfg = result.config
    dataset = generate_dataset(replace(cfg.synth, cameras_per_identity=12))
    reports = evaluate(dataset, result.encoder, clip_len=cfg.eval_clip_len, k_max=cfg.k_max)
    digests = {}
    for protocol, report in reports.items():
        queries, gallery = (build_side(dataset, split, kind, result.encoder, cfg.eval_clip_len)
                            for split, kind in zip(("query", "gallery"), PROTOCOL_SIDES[protocol]))
        hits = hit_matrix(rank_queries(queries.features, gallery), queries.identities,
                          gallery.identities)
        aps = [mean_average_precision(hits[i:i + 1]) for i in range(len(hits))]
        digests[f"eval.multi.{protocol}"] = _sha256(json.dumps([report.to_dict(), aps]))
    return digests


def _clip_cohort_digest(result) -> str:
    dataset = generate_dataset(replace(result.config.synth, cameras_per_identity=12))
    videos = [VideoRecord(v.identity, v.camera, v.frames[:n])
              for v, n in zip(dataset.query + dataset.gallery,
                              itertools.cycle(CLIP_COHORT_LENGTHS))]
    index = extract_gallery_features(videos, result.encoder, CLIP_COHORT_CLIP_LEN)
    return _sha256(index.features.tobytes())


def digests() -> dict[str, str]:
    """The sha256 digest of each output named in the module docstring."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name, overrides in RUNS.items():
            result = train(benchmark_config(seed=0, epochs=2, batches_per_epoch=25, **overrides))
            digests[f"{name}.train_log"] = _sha256("\n".join(result.log_lines) + "\n")
            digests[f"{name}.checkpoint_text"] = _sha256(checkpoint_text(result))
            if name == "t4":
                save_checkpoint(result, out / "checkpoint.txt")
                digests.update(_multi_relevant_digests(result))
                digests["export_features.clips"] = _clip_cohort_digest(result)
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
        for axis, argv in SWEEPS.items():
            rows = out / f"sweep_{axis}.json"
            _cli("sweep", "--axis", axis, *argv, "--out", str(rows))
            digests[f"sweep.{axis}"] = _sha256(rows.read_bytes())
    outcomes = gradcheck_suite(scope="all", extended=True, seeds=(0, 1, 2))
    digests["gradcheck"] = _sha256(repr(outcomes))
    return digests


def main():
    print(json.dumps({"digests": digests(), "platform": platform_key()}, indent=2,
                     sort_keys=True))


if __name__ == "__main__":
    main()
