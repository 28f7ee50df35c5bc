"""``config.check_fields`` as the one type and range check: each record's
declared ``Range`` and ``Literal`` are enforced when the record is built,
and a violation names the record, the field, the value and the bound."""

import pytest

from psimlab import ForwardModelSpec, PhaseObjectSpec, SourceSpec
from psimlab.cli import SimulateConfig, TrainConfig
from psimlab.config import Range
from psimlab.gan.train import GanMeta, GanSpec
from psimlab.metrics import SsimParams

META = dict(spec=GanSpec(), step=0, seed=0, norm_info={}, g_opt_t=0,
            d_opt_t=0)


@pytest.mark.parametrize("cls,kwargs,message", [
    (SourceSpec, {"lambda0": 0.0},
     "SourceSpec.lambda0 = 0.0 is not of type Annotated[float, Range(gt=0)]"),
    (ForwardModelSpec, {"noise_sigma": -1.0},
     "ForwardModelSpec.noise_sigma = -1.0 is not of type "
     "Annotated[float, Range(ge=0)]"),
    (ForwardModelSpec, {"i_reference": 0},
     "ForwardModelSpec.i_reference = 0 is not of type "
     "Annotated[float, Range(gt=0)]"),
    (PhaseObjectSpec, {"kind": "waveguide_ridge", "ridge_width": 0.5},
     "PhaseObjectSpec.ridge_width = 0.5 is not of type "
     "Annotated[float, Range(ge=1)]"),
    (PhaseObjectSpec, {"kind": "cell_blobs", "blobs": [(4.0, 4.0, 0.5, 9.0)]},
     "Annotated[float, Range(ge=1)]"),
    (PhaseObjectSpec, {"kind": "cell_blobs", "blobs": [(4.0, 4.0, 2.0, -1)]},
     "Annotated[float, Range(ge=0)]"),
    (TrainConfig, {"train_fraction": 1.0},
     "TrainConfig.train_fraction = 1.0 is not of type "
     "Annotated[float, Range(gt=0, lt=1)]"),
    (TrainConfig, {"train_count": 0},
     "TrainConfig.train_count = 0 is not of type "
     "Optional[Annotated[int, Range(ge=1)]]"),
    (GanSpec, {"beta2": 1.0},
     "GanSpec.beta2 = 1.0 is not of type Annotated[float, Range(ge=0, lt=1)]"),
    (GanSpec, {"disc_base": 0},
     "GanSpec.disc_base = 0 is not of type Annotated[int, Range(ge=1)]"),
    (GanMeta, dict(META, g_opt_t=-1),
     "GanMeta.g_opt_t = -1 is not of type Annotated[int, Range(ge=0)]"),
    (SsimParams, {"dynamic_range": 0.0},
     "SsimParams.dynamic_range = 0.0 is not of type "
     "Annotated[float, Range(gt=0)]"),
], ids=["source", "noise_sigma", "i_reference", "ridge_width", "blob_radius",
        "blob_peak", "train_fraction", "train_count", "beta2", "disc_base",
        "g_opt_t", "dynamic_range"])
def test_range_violation_names_record_field_value_and_bound(cls, kwargs,
                                                            message):
    with pytest.raises(ValueError) as exc:
        cls(**kwargs)
    assert message in str(exc.value)


@pytest.mark.parametrize("cls,kwargs", [
    (SourceSpec, {"delta_lambda": 1e-300}),
    (ForwardModelSpec, {"jitter_sigma": 0, "noise_sigma": 0.0}),
    (PhaseObjectSpec, {"kind": "cell_blobs", "blobs": [(4, 4, 1, 0)]}),
    (TrainConfig, {"train_fraction": 1e-9, "train_count": 1, "steps": 0}),
    (GanSpec, {"beta1": 0.0, "beta2": 0, "lr": 0.0, "lambda_l1": 0}),
    (GanMeta, META),
    (SsimParams, {"dynamic_range": 1e-300}),
], ids=["source", "model", "blob", "train", "spec", "meta", "ssim"])
def test_values_on_the_bounds_build(cls, kwargs):
    cls(**kwargs)


@pytest.mark.parametrize("bound,inside,outside", [
    (Range(ge=1), [1, 1.5, 10 ** 9], [0.999, 0, -1]),
    (Range(gt=0), [1e-300, 2], [0, -0.0, -1e-300]),
    (Range(ge=0, lt=1), [0, -0.0, 0.999999], [1, 1.0, -1e-9]),
    (Range(gt=0, lt=1), [0.5], [0, 1]),
    (Range(le=2), [2, -5], [2.000001]),
])
def test_range_membership(bound, inside, outside):
    assert all(x in bound for x in inside)
    assert not any(x in bound for x in outside)


@pytest.mark.parametrize("cls,kwargs,message", [
    (GanSpec, {"mode": "telepathy"},
     "GanSpec.mode = 'telepathy' is not of type Literal['phase', 'frames']"),
    (PhaseObjectSpec, {"kind": "cone"}, "PhaseObjectSpec.kind = 'cone'"),
    (PhaseObjectSpec, {"ridge_center": "x"},
     "PhaseObjectSpec.ridge_center = 'x' is not of type float"),
    (PhaseObjectSpec, {"kind": "cell_blobs", "blobs": [(4.0, 4.0, 2.0)]},
     "PhaseObjectSpec.blobs"),
    (SsimParams, {"dynamic_range": "1"},
     "SsimParams.dynamic_range = '1' is not of type "
     "Annotated[float, Range(gt=0)]"),
    # the U-Net always has its skips; 1 and 1.0 equal True but are no bool
    (GanSpec, {"skips": False},
     "GanSpec.skips = False is not of type Literal[True]"),
    (GanSpec, {"skips": 1}, "GanSpec.skips = 1 is not of type Literal[True]"),
    (GanSpec, {"skips": 1.0},
     "GanSpec.skips = 1.0 is not of type Literal[True]"),
    (SimulateConfig, {"count": 0},
     "SimulateConfig.count = 0 is not of type Annotated[int, Range(ge=1)]"),
    (SimulateConfig, {"count": 1, "width": 4},
     "SimulateConfig.width = 4 is not of type Annotated[int, Range(ge=8)]"),
    (SimulateConfig, {"count": 1, "seed": -1},
     "SimulateConfig.seed = -1 is not of type Annotated[int, Range(ge=0)]"),
    (SimulateConfig, {"count": 1, "object_family": "nope"},
     "SimulateConfig.object_family = 'nope' is not of type "
     "Literal['flat', 'waveguide_ridge', 'cell_blobs']"),
    (ForwardModelSpec, {"shift_schedule": (0.0, 1.0, 2.0)},
     "ForwardModelSpec.shift_schedule = (0.0, 1.0, 2.0) is not of type "
     "Tuple[float, float, float, float, float]"),
], ids=["mode", "kind", "ridge_center", "blob_of_three", "dynamic_range",
        "skips_false", "skips_1", "skips_1_0", "sim_count", "sim_width",
        "sim_seed", "sim_family", "shift_schedule"])
def test_type_violation_names_the_declared_type(cls, kwargs, message):
    with pytest.raises(ValueError) as exc:
        cls(**kwargs)
    assert message in str(exc.value)
