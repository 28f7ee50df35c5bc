from . import ops
from .adam import AdamState, adam_step
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .gradcheck import grad_check, l2_loss
from .layers import (Conv2d, ConvTranspose2d, InstanceNorm, Layer, LeakyReLU,
                     ReLU, Sequential, Sigmoid, Tanh)
from .ops import NumericError, check_finite

__all__ = [
    "ops", "AdamState", "adam_step", "CheckpointError", "load_checkpoint",
    "save_checkpoint", "grad_check", "l2_loss",
    "Conv2d", "ConvTranspose2d", "InstanceNorm", "Layer", "LeakyReLU",
    "ReLU", "Sequential", "Sigmoid", "Tanh", "NumericError", "check_finite",
]
