"""Hybrid compressive video sensing toolchain.

Simulates mask-coded exposures flanked by uncoded key frames, reconstructs
the coded block with GAP-TV, fuses the result with the key frames through
optical flow, and scores everything with standard image metrics.
"""

from .capture import (
    HybridMeasurement,
    NoiseModel,
    TimingSchedule,
    build_schedule,
    compressive_ratio,
    encode,
    generate_masks,
    read_measurement,
    sample_keyframes,
    simulate_capture,
    write_measurement,
)
from .flow import FlowParams, estimate_flows, flow_to_color, sample_bilinear
from .fusion import VisibleMap, blend, fuse_video, visibility_map, warp
from .metrics import l1_distance, mean_epe, psnr, score_frame, ssim
from .recon import GapTvParams, coverage_map, gap_tv_reconstruct, total_variation, tv_denoise
from .tensors import (
    CodingCube,
    DtypeError,
    FlowField,
    FormatError,
    Frame,
    MagicError,
    TruncatedError,
    VersionError,
    VideoCube,
    export_pgm,
    export_ppm,
    import_pgm,
    load_tensor,
    save_tensor,
)

__version__ = "0.1.0"
