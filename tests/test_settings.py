"""The count rule and the number rule of every numeric setting.

A count is an integer, numpy's too, but not a bool, at least its floor.  A
number is a real number, numpy's too, but not a bool, in its range; NaN
fails every range, and every range but a probability's (0, 1] also needs
it finite.  Python callers and the JSON loader meet the same rule in the
same words, so whatever a config built in Python holds, its run's
report.json reloads.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from khcv import FlowParams, Frame, FusionParams, GapTvParams, NoiseModel, TimingSchedule, estimate_flows, save_tensor
from khcv.cli import ConfigError, PipelineConfig, run_pipeline

from conftest import translating_scene

# (settings class, field, floor)
COUNTS = [
    (FlowParams, "pyramid_levels", 1),
    (FlowParams, "iters_per_level", 1),
    (FlowParams, "warps_per_level", 1),
    (GapTvParams, "outer_iters", 1),
    (GapTvParams, "tv_inner_iters", 1),
    (FusionParams, "error_smooth_radius", 0),
    (TimingSchedule, "t_x", 1),
    (TimingSchedule, "t_g", 0),
    (TimingSchedule, "B", 1),
    (PipelineConfig, "B", 1),
    (PipelineConfig, "t_x", 1),
    (PipelineConfig, "t_g", 0),
    (PipelineConfig, "gap_frames", 0),
]
# (settings class, field, range)
NUMBERS = [
    (FlowParams, "alpha", "> 0"),
    (GapTvParams, "tv_weight", ">= 0"),
    (FusionParams, "beta", "> 0"),
    (FusionParams, "fallback_threshold", "> 0"),
    (NoiseModel, "sigma", ">= 0"),
    (PipelineConfig, "mask_density", "in (0, 1]"),
    (PipelineConfig, "noise_sigma", ">= 0"),
]
# the dotted-path prefix of each class the JSON loader builds
PREFIXES = {PipelineConfig: "", FlowParams: "flow.", GapTvParams: "gap_tv.", FusionParams: "fusion."}
REQUIRED = {TimingSchedule: {"t_x": 1000, "t_g": 0, "B": 4}, PipelineConfig: {"scene": "scene.khcv"}}


def _ids(cases):
    return [f"{cls.__name__}.{name}" for cls, name, _ in cases]


def build(cls, name, value):
    return cls(**{**REQUIRED.get(cls, {}), name: value})


def refusal(cls, name, value) -> str:
    """Build cls with the value; return the message of its refusal."""
    with pytest.raises(ConfigError if cls is PipelineConfig else ValueError) as info:
        build(cls, name, value)
    return str(info.value)


def refused(cls, name, value) -> str:
    """refusal, checked to name the field and, for a class the JSON loader
    builds, to match the loader's message but for the field's dotted path;
    the loader reads a numpy number as the Python number it holds."""
    message = refusal(cls, name, value)
    assert message.startswith(f"{name} must be "), message
    prefix = PREFIXES.get(cls)
    if prefix is not None:
        raw = {prefix[:-1]: {name: value}} if prefix else {name: value}
        with pytest.raises(ConfigError) as loaded:
            PipelineConfig.from_dict({"scene": "scene.khcv", **raw})
        plain = value.item() if isinstance(value, np.generic) else value
        assert str(loaded.value) == prefix + refusal(cls, name, plain)
    return message


NOT_REAL = st.sampled_from([True, False, np.bool_(True), None, [1], "1", "0.5", "nan"]) | st.integers().map(str)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf)])


def _numpy(values, types):
    """The drawn Python numbers, each as itself or as one of the numpy types."""
    return st.tuples(values, st.sampled_from([None, *types])).map(lambda vt: vt[0] if vt[1] is None else vt[1](vt[0]))


@pytest.mark.parametrize("cls, name, low", COUNTS, ids=_ids(COUNTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_counts_refuse_bools_strings_fractions_and_values_below_the_floor(cls, name, low, data):
    bad = data.draw(
        NOT_REAL | NON_FINITE | st.floats() | st.integers(max_value=low - 1) | st.integers(0, 9).map(float)
    )
    assert f"must be an integer >= {low}, got" in refused(cls, name, bad)


@pytest.mark.parametrize("cls, name, low", COUNTS, ids=_ids(COUNTS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_counts_take_numpy_integers(cls, name, low, data):
    # and store the Python int each holds
    value = data.draw(_numpy(st.integers(low, low + 4), (np.int8, np.int64, np.uint16)))
    stored = getattr(build(cls, name, value), name)
    assert stored == value and type(stored) is int


def test_a_narrow_numpy_count_does_not_wrap_in_the_pyramid_rule():
    # 2 ** 8 is 0 in uint8: stored as given, 9 levels passed the frame-size
    # rule for 40x40 frames and the solve died with an IndexError
    params = FlowParams(pyramid_levels=np.uint8(9))
    frame = Frame(np.zeros((40, 40), np.float32))
    with pytest.raises(ValueError, match="9 flow pyramid levels need both sides at least 2048 px"):
        estimate_flows([frame], [frame], params)


def test_noise_settings_are_named_by_their_config_key():
    with pytest.raises(ConfigError, match=r"^noise_seed must be an integer in \[0, 2\*\*64\), got -1$"):
        PipelineConfig(scene="scene.khcv", noise_seed=-1)
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got -1$"):
        NoiseModel(seed=-1)


BAD_NUMBERS = {
    "> 0": st.floats(max_value=0.0),
    ">= 0": st.floats(max_value=0.0, exclude_max=True),
    "in (0, 1]": st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True),
}
GOOD_NUMBERS = {
    "> 0": st.floats(1e-3, 1e3),
    ">= 0": st.floats(0.0, 1e3),
    "in (0, 1]": st.floats(1e-3, 1.0),
}


@pytest.mark.parametrize("cls, name, where", NUMBERS, ids=_ids(NUMBERS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_numbers_refuse_bools_strings_nan_infinity_and_values_out_of_range(cls, name, where, data):
    not_real = NOT_REAL.filter(lambda v: v is not None or name != "fallback_threshold")  # None turns it off
    bad = data.draw(not_real | NON_FINITE | _numpy(BAD_NUMBERS[where], (np.float64,)))
    finite = "" if where == "in (0, 1]" else "finite "
    assert f"must be a {finite}number {where}, got" in refused(cls, name, bad)


@pytest.mark.parametrize("cls, name, where", NUMBERS, ids=_ids(NUMBERS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_numbers_take_numpy_numbers(cls, name, where, data):
    value = data.draw(_numpy(GOOD_NUMBERS[where], (np.float64, np.float32)) | st.just(1))  # an int is a number
    assert getattr(build(cls, name, value), name) == value


@settings(max_examples=20, deadline=None)
@given(
    mask_density=_numpy(st.floats(0.2, 1.0), (np.float32,)),
    noise_sigma=_numpy(st.floats(0.0, 0.05), (np.float64,)),
    B=_numpy(st.integers(1, 3), (np.int32,)),
    alpha=_numpy(st.floats(0.05, 1.0), (np.float32,)),
    iters=_numpy(st.integers(1, 2), (np.uint8,)),
    # a weight near float32's smallest normal overflows the TV dual's
    # img / weight plane and exits 4, which is a separate question
    tv_weight=_numpy(st.just(0.0) | st.floats(1e-3, 0.1), (np.float32,)),
    outer_iters=_numpy(st.integers(1, 3), (np.int64,)),
    beta=_numpy(st.floats(1.0, 30.0), (np.float64,)),
    fallback_threshold=st.none() | _numpy(st.floats(0.05, 1.0), (np.float32,)),
    # a bool in a number field is what Python once took and JSON refused
    as_bool=st.none()
    | st.sampled_from(["mask_density", "noise_sigma", "alpha", "tv_weight", "beta", "fallback_threshold"]),
    truth=st.booleans(),
)
def test_a_config_built_in_python_reloads_from_its_runs_report(tmp_path_factory, as_bool, truth, **values):
    if as_bool is not None:
        values[as_bool] = truth
    work = tmp_path_factory.mktemp("run")
    scene = work / "scene.khcv"
    save_tensor(translating_scene(16, 16, 7, seed=4), scene)
    top = {name: values[name] for name in ("B", "mask_density", "noise_sigma")}
    sections = {
        "gap_tv": (GapTvParams, {name: values[name] for name in ("outer_iters", "tv_weight")}),
        "fusion": (FusionParams, {name: values[name] for name in ("beta", "fallback_threshold")}),
        "flow": (
            FlowParams,
            {"pyramid_levels": 1, "alpha": values["alpha"], "iters_per_level": values["iters"],
             "warps_per_level": values["iters"]},
        ),
    }
    raw = {"scene": str(scene), "t_x": 1000, "out_dir": str(work / "out"), **top}
    try:
        cfg = PipelineConfig(**raw, **{key: cls(**fields) for key, (cls, fields) in sections.items()})
    except (ConfigError, ValueError):
        # what Python refuses, the JSON loader refuses too
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({**raw, **{key: fields for key, (_, fields) in sections.items()}})
        event("refused")
        return
    report = json.loads((run_pipeline(cfg).out_dir / "report.json").read_text())
    assert PipelineConfig.from_dict(report["config"]) == cfg
