"""The shared JSON record codec: round trips, type rules, error codes."""

import json

import pytest

from rawnoise.calibration import CameraModel
from rawnoise.cli import TrainData
from rawnoise.errors import BadManifestError, ConfigurationError, DomainError
from rawnoise.estimator import ConvStage, EstimatorConfig
from rawnoise.io import Manifest
from rawnoise.noise_core import NoiseParams

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


@pytest.mark.parametrize(
    "cls, record, error",
    [
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
    ],
    ids=[
        "params_list", "params_str_number", "params_bool", "params_missing_key",
        "camera_alpha_str", "camera_k_min_negative", "stage_float_kernel", "stage_unknown_key",
        "config_str_width", "config_short_tuple", "config_int_for_bool", "config_stage_not_object",
        "manifest_camera_id_int", "manifest_float_seed", "manifest_bad_params",
        "train_no_cameras", "train_cameras_str", "train_negative_white_level",
    ],
)
def test_malformed_record_raises_the_types_error(cls, record, error):
    with pytest.raises(error):
        cls.from_dict(record)
