from .data import (PairedSample, augment, build_pairs, denormalize,
                   normalize, rotations_12, split_dataset)
from .models import PatchDiscriminator, UNetGenerator
from .train import (GanSpec, GanState, bce_with_logits, chain_infer_frames,
                    discriminator_loss, generator_loss, infer_phase, init_gan,
                    load_gan, save_gan, train, train_step)

__all__ = [
    "PairedSample", "augment", "build_pairs", "denormalize", "normalize",
    "rotations_12", "split_dataset", "PatchDiscriminator", "UNetGenerator",
    "GanSpec", "GanState", "bce_with_logits", "chain_infer_frames",
    "discriminator_loss", "generator_loss", "infer_phase", "init_gan",
    "load_gan", "save_gan", "train", "train_step",
]
