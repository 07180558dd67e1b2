"""The shape and type checks of the library's entry points.

Each call below passes arguments that do not fit together, and must raise
the named exception with its message before it computes or writes anything.
"""

import re

import numpy as np
import pytest

from khcv import (
    CodingCube,
    FlowField,
    Frame,
    VideoCube,
    VisibleMap,
    blend,
    encode,
    estimate_flows,
    export_ppm,
    mean_epe,
    save_tensor,
    score_frame,
    ssim,
    visibility_map,
    warp,
)


def _frame(h, w):
    return Frame(np.full((h, w), 0.5, np.float32))


def _flow(h, w):
    return FlowField(np.zeros((2, h, w), np.float32))


CASES = {
    "encode": (
        lambda path: encode(VideoCube(np.zeros((2, 8, 8), np.float32)), CodingCube(np.ones((2, 8, 9), np.uint8))),
        ValueError,
        "scene (2, 8, 8) and masks (2, 8, 9) disagree",
    ),
    "estimate_flows-pair": (
        lambda path: estimate_flows([_frame(32, 32)], [_frame(32, 33)]),
        ValueError,
        "target (32, 32) and source (32, 33) disagree",
    ),
    "estimate_flows-stack": (
        lambda path: estimate_flows([_frame(32, 32), _frame(33, 32)], [_frame(32, 32), _frame(33, 32)]),
        ValueError,
        "frames of one call must share one shape, got (32, 32) and (33, 32)",
    ),
    "ssim": (
        lambda path: ssim(np.zeros((2, 16, 16)), np.zeros((2, 16, 16))),
        ValueError,
        "ssim expects single frames, got shape (2, 16, 16)",
    ),
    "score_frame": (
        lambda path: score_frame(np.zeros((2, 16, 16)), np.zeros((2, 16, 16))),
        ValueError,
        "score_frame expects single frames, got shape (2, 16, 16)",
    ),
    "mean_epe-fields": (
        lambda path: mean_epe(_flow(8, 8), _flow(8, 9)),
        ValueError,
        "flow shape mismatch: (8, 8) vs (8, 9)",
    ),
    "mean_epe-mask": (
        lambda path: mean_epe(_flow(8, 8), _flow(8, 8), np.ones((8, 9), bool)),
        ValueError,
        "mask shape (8, 9) does not match flow (8, 8)",
    ),
    "save_tensor": (
        lambda path: save_tensor(np.zeros((8, 8), np.float32), path),
        TypeError,
        "cannot serialize ndarray",
    ),
    "export_ppm": (
        lambda path: export_ppm(np.zeros((8, 8)), path),
        ValueError,
        "expected an (H, W, 3) array, got shape (8, 8)",
    ),
    "warp": (
        lambda path: warp(_frame(8, 8), _flow(8, 9)),
        ValueError,
        "image (8, 8) and flow (8, 9) disagree",
    ),
    "visibility_map": (
        lambda path: visibility_map(_frame(8, 8), _frame(8, 9), _frame(8, 8)),
        ValueError,
        "warped keys and target must share one shape",
    ),
    "blend": (
        lambda path: blend(_frame(8, 8), _frame(8, 8), VisibleMap(np.full((8, 9), 0.5, np.float32)), 0.5),
        ValueError,
        "warped keys and visibility map must share one shape",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_mismatched_arguments_raise_before_any_write(tmp_path, name):
    call, error, message = CASES[name]
    path = tmp_path / "out"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(path)
    assert not path.exists()
