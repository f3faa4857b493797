"""Image-to-video identity matching at desk scale.

Two small encoder networks (per-frame image encoder, video encoder with
non-local temporal attention) are trained jointly on synthetic identity
sequences. Besides the usual classification and hard-mined triplet losses,
two transfer losses pull image features toward the temporally-informed
video frame features, closing the gap between the two modalities at
retrieval time. Everything runs on a from-scratch reverse-mode autodiff
core so gradients are verifiable by finite differences.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, Tape, no_grad, backward, grad_check_params
from .data import SyntheticConfig, generate_dataset
from .encoders import TrunkConfig, init_encoder_params
from .losses import LossConfig
from .training import RunConfig, benchmark_config, evaluate_result, train

__all__ = [
    "Tensor", "Tape", "no_grad", "backward", "grad_check_params",
    "SyntheticConfig", "generate_dataset", "TrunkConfig", "init_encoder_params",
    "LossConfig", "RunConfig", "benchmark_config", "evaluate_result", "train",
    "__version__",
]
