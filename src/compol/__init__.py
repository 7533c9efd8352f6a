"""Coupled multi-physics neural operators on a self-contained autodiff core.

Subpackages
-----------
``tensor``
    Reverse-mode autodiff over numpy arrays, including truncated DFTs.
``fft``
    Power-of-two FFTs as dense DFT blocks, used by the data generators.
``layers`` / ``aggregation`` / ``model``
    Fourier-operator building blocks, cross-process latent aggregation
    (recurrent, attention, skip), and the assembled architectures.
``datagen`` / ``dataio``
    Coupled reaction–diffusion and advection benchmarks solved with a
    fourth-order exponential integrator, plus the binary dataset format.
``training``
    Relative-L2 objective, Adam, the cosine schedule, evaluation, cross-validation.
``gradcheck``
    Finite-difference verification suites for every differentiable op.
``cli``
    ``compol`` command: gen-data / train / eval / gradcheck / export-plot.
"""

from .tensor import Tape, Tensor, backward, finite_diff_report
from .model import (
    CompolConfig,
    CompolModel,
    MODEL_KINDS,
    config_for_kind,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    total_params,
)
from .datagen import (
    BlowUpError,
    GrfSpec,
    SystemSpec,
    SYSTEM_NAMES,
    etdrk4_solve,
    generate_dataset,
    sample_grf,
    system_spec,
)
from .dataio import FieldDataset, config_hash, load_dataset, write_dataset
from .training import (
    AdamState,
    TrainResult,
    adam_step,
    cosine_lr,
    cross_validate,
    evaluate,
    relative_l2,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Tape", "Tensor", "backward", "finite_diff_report",
    "CompolConfig", "CompolModel", "MODEL_KINDS", "config_for_kind",
    "forward", "init_params", "load_checkpoint",
    "save_checkpoint", "total_params",
    "BlowUpError", "GrfSpec", "SystemSpec", "SYSTEM_NAMES",
    "etdrk4_solve", "generate_dataset", "sample_grf", "system_spec",
    "FieldDataset", "config_hash", "load_dataset", "write_dataset",
    "AdamState", "TrainResult", "adam_step", "cosine_lr", "cross_validate",
    "evaluate", "relative_l2", "train",
    "__version__",
]
