"""The shared record rule and JSON codec: round trips, type rules, error codes."""

import dataclasses
import importlib
import json
import math
import pkgutil
import typing

import pytest

import rawnoise
from rawnoise.calibration import CameraModel
from rawnoise.cli import TrainData
from rawnoise.errors import BadManifestError, ConfigurationError, DomainError
from rawnoise.estimator import ConvStage, EstimatorConfig
from rawnoise.io import Manifest
from rawnoise.noise_core import NoiseParams
from rawnoise.records import Record

PARAMS = NoiseParams(K=1.5, sigma=2.0, mu_c=-0.5, sigma_r=0.8)
CAMERA = dict(
    a=0.7, b=0.15, a_r=0.5, b_r=-0.25, sigma_hat=0.12, sigma_r_hat=0.08,
    K_min=0.25, K_max=8.0, mu_c_model=0.3,
)

RECORDS = {
    "noise_params": PARAMS,
    "camera": CameraModel(**CAMERA),
    "camera_alpha": CameraModel(**CAMERA, alpha=0.004),
    "conv_stage": ConvStage(kernel=5, stride=1, width=8, nonlinearity="tanh"),
    "config_default": EstimatorConfig(),
    "manifest_bare": Manifest(camera_id="bare"),
    "manifest_full": Manifest(
        camera_id="camA", iso=800.0, params=PARAMS, seed=42, stream_index=7,
        extensions={"clamp": True, "white_level": 1023.0},
    ),
    "train_data_minimal": TrainData(cameras=("a.json",), out_checkpoint="m.nest"),
    "train_data_full": TrainData(
        cameras=("a.json", "b.json"), out_checkpoint="m.nest", scene_pool_size=4,
        white_level=512.0, out_log="log.csv",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_json_round_trip(name):
    record = RECORDS[name]
    assert type(record).from_dict(json.loads(json.dumps(record.as_dict()))) == record


def test_none_field_is_omitted():
    assert set(CameraModel(**CAMERA).as_dict()) == set(CAMERA)


def test_nested_records_and_tuples_encode_as_lists_of_objects():
    record = EstimatorConfig(extractor=(ConvStage(3, 2, 4),), feature_dim=8).as_dict()
    assert record["extractor"] == [{"kernel": 3, "stride": 2, "width": 4, "nonlinearity": "relu"}]
    assert record["param_weights"] == [1.0, 1.0, 10.0, 10.0]


def test_float_field_takes_a_json_int_and_stores_a_float():
    params = NoiseParams.from_dict({"K": 2, "sigma": 1, "mu_c": 0, "sigma_r": 1})
    assert params == NoiseParams(K=2.0, sigma=1.0, mu_c=0.0, sigma_r=1.0)
    assert all(type(v) is float for v in params.as_dict().values())
    assert type(EstimatorConfig.from_dict({"learning_rate": 1}).learning_rate) is float


def test_unknown_keys_ignored_where_the_type_allows():
    record = {**PARAMS.as_dict(), "image_id": "x", "source": "oracle"}
    assert NoiseParams.from_dict(record) == PARAMS
    assert CameraModel.from_dict({**CAMERA, "note": 1}) == CameraModel(**CAMERA)


MALFORMED = [
    (NoiseParams, [1, 2, 3, 4], DomainError),
    (NoiseParams, {"K": "1.5", "sigma": 2.0, "mu_c": 0.5, "sigma_r": 0.8}, DomainError),
    (NoiseParams, {"K": True, "sigma": 2.0, "mu_c": 0.5, "sigma_r": 0.8}, DomainError),
    (NoiseParams, {"sigma": 2.0, "mu_c": 0.5, "sigma_r": 0.8}, DomainError),
    (CameraModel, {**CAMERA, "alpha": "x"}, DomainError),
    (CameraModel, {**CAMERA, "K_min": -1.0}, DomainError),
    (ConvStage, {"kernel": 3.0, "stride": 2, "width": 4}, ConfigurationError),
    (ConvStage, {"kernel": 3, "stride": 2, "width": 4, "pad": 1}, ConfigurationError),
    (EstimatorConfig, {"projector": ["6"]}, ConfigurationError),
    (EstimatorConfig, {"param_weights": [1.0, 1.0, 10.0]}, ConfigurationError),
    (EstimatorConfig, {"projector_trainable_stage2": 1}, ConfigurationError),
    (EstimatorConfig, {"extractor": [5]}, ConfigurationError),
    (Manifest, {"version": 1, "camera_id": 7}, BadManifestError),
    (Manifest, {"version": 1, "camera_id": "x", "seed": 4.5}, BadManifestError),
    (Manifest, {"version": 1, "camera_id": "x", "params": {"K": -1}}, BadManifestError),
    (TrainData, {"cameras": [], "out_checkpoint": "m"}, ConfigurationError),
    (TrainData, {"cameras": "a.json", "out_checkpoint": "m"}, ConfigurationError),
    (TrainData, {"cameras": ["a"], "out_checkpoint": "m", "white_level": -4},
     ConfigurationError),
]
MALFORMED_IDS = [
    "params_list", "params_str_number", "params_bool", "params_missing_key",
    "camera_alpha_str", "camera_k_min_negative", "stage_float_kernel", "stage_unknown_key",
    "config_str_width", "config_short_tuple", "config_int_for_bool", "config_stage_not_object",
    "manifest_camera_id_int", "manifest_float_seed", "manifest_bad_params",
    "train_no_cameras", "train_cameras_str", "train_negative_white_level",
]


@pytest.mark.parametrize("cls, record, error", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_record_raises_the_types_error(cls, record, error):
    with pytest.raises(error):
        cls.from_dict(record)


def _buildable(cls, record) -> bool:
    """Whether ``cls(**record)`` is a call the dataclass takes: a dict naming fields only,
    every field without a default among them."""
    fields = dataclasses.fields(cls)
    required = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}
    return isinstance(record, dict) and required <= set(record) <= {f.name for f in fields}


@pytest.mark.parametrize(
    "cls, record, error",
    [row for row in MALFORMED if _buildable(*row[:2])],
    ids=[name for name, row in zip(MALFORMED_IDS, MALFORMED) if _buildable(*row[:2])],
)
def test_building_refuses_what_decoding_refuses(cls, record, error):
    with pytest.raises(error) as decoded:
        cls.from_dict(record)
    with pytest.raises(error) as built:
        cls(**record)
    assert str(built.value) == str(decoded.value)


def test_building_converts_as_decoding_does():
    config = EstimatorConfig(projector=[6, 4], param_weights=[1, 1, 10, 10], learning_rate=1)
    assert config == EstimatorConfig.from_dict(
        {"projector": [6, 4], "param_weights": [1, 1, 10, 10], "learning_rate": 1}
    )
    assert config.projector == (6, 4) and type(config.learning_rate) is float
    assert all(type(w) is float for w in config.param_weights)
    built = Manifest(camera_id="x", params={"K": 2, "sigma": 1, "mu_c": 0, "sigma_r": 1})
    assert built.params == NoiseParams(K=2.0, sigma=1.0, mu_c=0.0, sigma_r=1.0)


def _float_slots():
    """``(record, field, item)`` for every float a record holds; ``item`` indexes a tuple."""
    records = {type(record): record for record in RECORDS.values()}
    for cls, record in sorted(records.items(), key=lambda item: item[0].__name__):
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            hint = hints[field.name]
            if typing.get_origin(hint) is tuple:
                for item, arg in enumerate(typing.get_args(hint)):
                    if arg is float:
                        yield record, field.name, item
            elif float in (hint, *typing.get_args(hint)):
                yield record, field.name, None


FLOAT_SLOTS = list(_float_slots())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "record, field, item",
    FLOAT_SLOTS,
    ids=[
        f"{type(record).__name__}.{field}" + ("" if item is None else f"[{item}]")
        for record, field, item in FLOAT_SLOTS
    ],
)
def test_non_finite_float_is_refused_when_built(record, field, item, value):
    if item is not None:
        items = list(getattr(record, field))
        items[item] = value
        value = tuple(items)
    cls = type(record)
    with pytest.raises(cls.error, match=rf"^{cls.__name__}\.{field}: expected a finite number"):
        dataclasses.replace(record, **{field: value})


def _records_in_src() -> set[type]:
    for module in pkgutil.walk_packages(rawnoise.__path__, "rawnoise."):
        if not module.name.endswith(".__main__"):  # importing it would run the CLI
            importlib.import_module(module.name)
    found, pending = set(), [Record]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__module__.startswith("rawnoise.") and sub not in found:
                found.add(sub)
                pending.append(sub)
    return found


def test_every_record_in_src_is_in_the_round_trip_table():
    missing = _records_in_src() - {type(record) for record in RECORDS.values()}
    assert not missing, f"add an instance of each to RECORDS: {sorted(c.__name__ for c in missing)}"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_field_is_checked_when_built(name):
    """A record whose ``__post_init__`` skips ``super().__post_init__()`` fails here."""
    record = RECORDS[name]
    cls = type(record)
    for field in dataclasses.fields(cls):
        with pytest.raises(cls.error, match=rf"^{cls.__name__}\.{field.name}: "):
            dataclasses.replace(record, **{field.name: object()})
