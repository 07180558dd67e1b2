import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from khcv import (
    CodingCube,
    DtypeError,
    FlowField,
    FormatError,
    Frame,
    MagicError,
    TruncatedError,
    VersionError,
    VideoCube,
    VisibleMap,
    export_pgm,
    export_ppm,
    import_pgm,
    load_tensor,
    save_tensor,
)


def test_frame_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    f = Frame(rng.random((17, 23)).astype(np.float32))
    p = tmp_path / "f.khcv"
    save_tensor(f, p)
    g = load_tensor(p)
    assert isinstance(g, Frame)
    assert g == f


def test_video_cube_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    v = VideoCube(rng.random((5, 9, 11)).astype(np.float32))
    p = tmp_path / "v.khcv"
    save_tensor(v, p)
    w = load_tensor(p)
    assert isinstance(w, VideoCube)
    assert w == v


def test_coding_cube_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    c = CodingCube((rng.random((4, 6, 7)) < 0.5).astype(np.uint8))
    p = tmp_path / "c.khcv"
    save_tensor(c, p)
    d = load_tensor(p)
    assert isinstance(d, CodingCube)
    assert d == c


def test_flow_field_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    f = FlowField(
        np.stack((
            rng.standard_normal((8, 10)).astype(np.float32),
            rng.standard_normal((8, 10)).astype(np.float32),
        ))
    )
    p = tmp_path / "flow.khcv"
    save_tensor(f, p)
    g = load_tensor(p)
    assert isinstance(g, FlowField)
    assert np.array_equal(g.u, f.u)
    assert np.array_equal(g.v, f.v)


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=12),
    w=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_frame_round_trip_property(tmp_path_factory, h, w, seed):
    rng = np.random.default_rng(seed)
    f = Frame(rng.random((h, w)).astype(np.float32))
    p = tmp_path_factory.mktemp("rt") / "f.khcv"
    save_tensor(f, p)
    assert load_tensor(p) == f


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.khcv"
    f = Frame(np.zeros((2, 2), np.float32))
    save_tensor(f, p)
    raw = bytearray(p.read_bytes())
    raw[0:4] = b"XHCV"
    p.write_bytes(bytes(raw))
    with pytest.raises(MagicError):
        load_tensor(p)


def test_bad_version(tmp_path):
    p = tmp_path / "bad.khcv"
    save_tensor(Frame(np.zeros((2, 2), np.float32)), p)
    raw = bytearray(p.read_bytes())
    raw[4] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        load_tensor(p)


def test_bad_dtype_code(tmp_path):
    p = tmp_path / "bad.khcv"
    save_tensor(Frame(np.zeros((2, 2), np.float32)), p)
    raw = bytearray(p.read_bytes())
    raw[5] = 7
    p.write_bytes(bytes(raw))
    with pytest.raises(DtypeError):
        load_tensor(p)


def test_zero_sized_dimension(tmp_path):
    # the header of a 4x4 frame with its height set to 0 and no payload
    p = tmp_path / "bad.khcv"
    save_tensor(Frame(np.zeros((4, 4), np.float32)), p)
    raw = bytearray(p.read_bytes()[:15])
    raw[7:11] = struct.pack("<I", 0)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"zero-sized dimension in \(0, 4\)$"):
        load_tensor(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "bad.khcv"
    save_tensor(Frame(np.zeros((4, 4), np.float32)), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-5])
    with pytest.raises(TruncatedError):
        load_tensor(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "bad.khcv"
    save_tensor(Frame(np.zeros((4, 4), np.float32)), p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_tensor(p)


def _container(dtype: int, kind: int, dims: tuple, payload: bytes) -> bytes:
    """A container built from the layout in the tensors module docstring."""
    return b"KHCV" + struct.pack("<BBB", 1, dtype, kind) + struct.pack(f"<{len(dims)}I", *dims) + payload


_RNG = np.random.default_rng(7)
_H, _W, _B = 3, 5, 4
_REAL = _RNG.random((_B, _H, _W)).astype("<f4")
_MASK = (_RNG.random((_B, _H, _W)) < 0.5).astype(np.uint8)
_U, _V = _RNG.standard_normal((2, _H, _W)).astype("<f4")
LAYOUT_CASES = [
    (Frame(_REAL[0]), _container(0, 2, (_H, _W), _REAL[0].tobytes())),
    (VideoCube(_REAL), _container(0, 3, (_H, _W, _B), _REAL.tobytes())),
    (CodingCube(_MASK), _container(1, 3, (_H, _W, _B), _MASK.tobytes())),
    (FlowField(np.stack((_U, _V))), _container(0, 4, (_H, _W, 2), _U.tobytes() + _V.tobytes())),
]


def test_container_bytes_follow_the_documented_layout(tmp_path):
    p = tmp_path / "t.khcv"
    for tensor, expected in LAYOUT_CASES:
        name = type(tensor).__name__
        save_tensor(tensor, p)
        assert p.read_bytes() == expected, name
        p.write_bytes(expected)
        back = load_tensor(p)
        assert type(back) is type(tensor) and back == tensor, name


def test_save_tensor_writes_the_samples_without_a_copy(tmp_path):
    # the header, then the samples' own buffer: no byte string of the payload
    # is built, so a save allocates far less than the 1 MB it writes
    cube = VideoCube(np.random.default_rng(3).random((4, 256, 256)))
    p = tmp_path / "cube.khcv"
    save_tensor(cube, p)  # one-time allocations happen outside the trace
    tracemalloc.start()
    try:
        save_tensor(cube, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cube.samples.nbytes // 8
    assert load_tensor(p) == cube


def test_binary_frame_or_flow_header_is_a_dtype_error(tmp_path):
    p = tmp_path / "bad.khcv"
    for kind, dims in ((2, (_H, _W)), (4, (_H, _W, 2))):
        for sample_size in (1, 4):  # payload sized for binary or for real32 samples
            p.write_bytes(_container(1, kind, dims, bytes(math.prod(dims) * sample_size)))
            with pytest.raises(DtypeError):
                load_tensor(p)


_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(min_value=0), st.integers(0, 255)),
        st.tuples(st.just("cut"), st.integers(min_value=0)),
        st.tuples(st.just("add"), st.binary(min_size=1, max_size=8)),
    ),
    min_size=1,
    max_size=6,
)


def _mutated(case: bytes, edits) -> bytes:
    raw = bytearray(case)
    for op, *args in edits:
        if op == "set" and raw:
            raw[args[0] % len(raw)] = args[1]
        elif op == "cut":
            del raw[args[0] % (len(raw) + 1) :]
        elif op == "add":
            raw += args[0]
    return bytes(raw)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from([raw for _, raw in LAYOUT_CASES]), edits=_EDITS)
def test_mutated_containers_raise_only_format_errors(tmp_path_factory, case, edits):
    p = tmp_path_factory.mktemp("fuzz") / "t.khcv"
    p.write_bytes(_mutated(case, edits))
    try:
        load_tensor(p)
    except FormatError:
        pass


_PGM = b"P5\n# c\n3 2\n255\n" + bytes([0, 7, 128, 200, 254, 255])


@settings(max_examples=300, deadline=None)
@given(edits=_EDITS)
@example(edits=[("set", 7, ord("0"))])  # zero width
@example(edits=[("set", 9, ord("0"))])  # zero height
def test_mutated_pgms_raise_only_format_errors(tmp_path_factory, edits):
    p = tmp_path_factory.mktemp("fuzz") / "t.pgm"
    p.write_bytes(_mutated(_PGM, edits))
    try:
        import_pgm(p)
    except FormatError:
        pass


def test_format_errors_are_value_errors(tmp_path):
    # callers should be able to catch the whole family as ValueError
    assert issubclass(FormatError, ValueError)
    for exc in (MagicError, VersionError, DtypeError, TruncatedError):
        assert issubclass(exc, FormatError)


def test_pgm_import_scaling(tmp_path):
    p = tmp_path / "g.pgm"
    body = bytes([0, 128, 255, 64])
    p.write_bytes(b"P5\n# comment line\n2 2\n255\n" + body)
    f = import_pgm(p)
    assert f.samples.shape == (2, 2)
    assert f.samples[0, 0] == 0.0
    assert f.samples[1, 0] == 1.0
    assert abs(f.samples[0, 1] - 128 / 255) < 1e-7


def test_pgm_export_round_half_up(tmp_path):
    f = Frame(np.array([[0.0, 0.5], [1.0, 2.0]], np.float32))
    p = tmp_path / "g.pgm"
    export_pgm(f, p)
    raw = p.read_bytes()
    pixels = raw[-4:]
    # 0.5 * 255 = 127.5 rounds up to 128; out-of-range input clamps to 255
    assert list(pixels) == [0, 128, 255, 255]


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    f = Frame(rng.random((6, 8)).astype(np.float32))
    p = tmp_path / "g.pgm"
    export_pgm(f, p)
    g = import_pgm(p)
    assert np.max(np.abs(g.samples - f.samples)) <= 0.5 / 255 + 1e-7


@pytest.mark.parametrize(
    "data",
    [VideoCube(np.full((2, 3, 3), 0.5, np.float32)), FlowField(np.zeros((2, 3, 3), np.float32)), np.zeros((3, 3))],
    ids=["cube", "flow", "ndarray"],
)
def test_pgm_export_refuses_anything_but_a_frame(tmp_path, data):
    # a cube or a flow field has a .samples array, but its PGM would hold
    # every plane under a header of one; nothing is written
    p = tmp_path / "g.pgm"
    with pytest.raises(TypeError, match="PGM"):
        export_pgm(data, p)
    assert not p.exists()


def test_pgm_rejects_wide_maxval(tmp_path):
    p = tmp_path / "g.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError):
        import_pgm(p)


def test_pgm_rejects_header_numbers_too_long_to_parse(tmp_path):
    p = tmp_path / "g.pgm"
    p.write_bytes(b"P5\n" + b"1" * 5000 + b" 2\n255\n" + bytes(4))
    with pytest.raises(FormatError):
        import_pgm(p)


def test_ppm_export(tmp_path):
    rgb = np.zeros((2, 3, 3), np.float32)
    rgb[..., 0] = 1.0
    p = tmp_path / "c.ppm"
    export_ppm(rgb, p)
    raw = p.read_bytes()
    assert raw.startswith(b"P6")
    assert raw[-18:] == bytes([255, 0, 0] * 6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ppm_export_refuses_non_finite_samples(tmp_path, bad):
    # as every tensor type does; nothing is written
    rgb = np.full((2, 2, 3), 0.5)
    rgb[1, 0, 2] = bad
    p = tmp_path / "c.ppm"
    with pytest.raises(ValueError, match="finite"):
        export_ppm(rgb, p)
    assert not p.exists()


# Every array type over one valid input: (name, constructor, input, stored arrays).
CASES = [
    ("Frame", Frame, np.full((3, 4), 0.5, np.float32), lambda t: [t.samples]),
    ("VideoCube", VideoCube, np.full((2, 3, 4), 0.5, np.float32), lambda t: [t.samples]),
    ("CodingCube", CodingCube, np.ones((2, 3, 4), np.uint8), lambda t: [t.samples]),
    ("FlowField", FlowField, np.full((2, 3, 4), 0.5, np.float32), lambda t: [t.samples]),
    ("VisibleMap", VisibleMap, np.full((3, 4), 0.5, np.float32), lambda t: [t.samples]),
]


def _rejected(build, data) -> bool:
    try:
        build(data)
    except ValueError:
        return True
    return False


def test_frame_requires_2d_float():
    # every type rejects one rank too few or too many and, if real, NaN and inf
    for name, build, good, _ in CASES:
        assert not _rejected(build, good), name
        assert _rejected(build, good[0]) and _rejected(build, good[None]), name
        if good.dtype.kind == "f":
            for value in (np.nan, np.inf, -np.inf):
                bad = good.copy()
                bad.flat[-1] = value
                assert _rejected(build, bad), (name, value)
    finite = np.zeros((3, 4), np.float32)
    assert _rejected(lambda a: FlowField(np.stack((finite, a))), np.full((3, 4), np.nan, np.float32))


def test_video_cube_requires_3d():
    # every type rejects an empty array of its own rank
    for name, build, good, _ in CASES:
        assert _rejected(build, good[..., :0]), name
    # the same samples at another rank are another type, never equal
    x = np.full((3, 4), 0.5, np.float32)
    assert Frame(x) != VideoCube(x[None])
    assert VideoCube(x[None]) != Frame(x)
    assert Frame(x) == Frame(x.astype(np.float64))


def test_coding_cube_requires_binary():
    with pytest.raises(ValueError):
        CodingCube(np.full((2, 3, 3), 2, np.uint8))


@pytest.mark.parametrize("value", [0.7, 257, 2.0**40, np.nan], ids=["0.7", "257", "2**40", "nan"])
def test_coding_cube_checks_samples_before_the_uint8_cast(value):
    # the cast stored 0.7, 2**40 and NaN (with a RuntimeWarning) as 0 and
    # 257 as 1, each of which passed the 0-or-1 check
    with pytest.raises(ValueError, match="^coding cube samples must be 0 or 1$"):
        CodingCube(np.full((1, 2, 2), value))
    # exact zeros and ones of any dtype are stored as they are
    mask = np.array([[[0.0, 1.0], [1, 0]]])
    assert CodingCube(mask).samples.tolist() == mask.tolist() == CodingCube(mask.astype(bool)).samples.tolist()


def test_flow_field_requires_two_planes():
    for shape in ((3, 4), (1, 3, 4), (3, 3, 4)):
        with pytest.raises(ValueError):
            FlowField(np.zeros(shape, np.float32))
    # u and v are read-only views of the two planes
    f = FlowField(np.stack((np.full((3, 4), 1.0), np.full((3, 4), 2.0))))
    assert np.shares_memory(f.u, f.samples) and np.shares_memory(f.v, f.samples)
    assert (f.u == 1.0).all() and (f.v == 2.0).all()
    for plane in (f.u, f.v):
        assert not plane.flags.writeable


def test_flow_container_with_three_planes_is_rejected(tmp_path):
    p = tmp_path / "f.khcv"
    p.write_bytes(_container(0, 4, (_H, _W, 3), np.zeros((3, _H, _W), "<f4").tobytes()))
    with pytest.raises(FormatError, match="2 planes"):
        load_tensor(p)


def test_visible_map_is_a_frame_of_its_own(tmp_path):
    x = np.full((3, 4), 0.5, np.float32)
    v = VisibleMap(x)
    assert v != Frame(x) and Frame(x) != v
    assert v == VisibleMap(x)
    p = tmp_path / "v.pgm"
    export_pgm(v, p)
    assert p.read_bytes() == b"P5\n4 3\n255\n" + bytes([128] * 12)


def test_tensors_are_read_only():
    for name, build, good, stored in CASES:
        for arr in stored(build(good)):
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0


def test_constructor_copies_input():
    # each constructor copies into its storage dtype, so callers never cast first
    for name, build, good, stored in CASES:
        cast = good.astype(np.float64) if good.dtype.kind == "f" else good.astype(bool)
        for given_input in (good.copy(), cast):
            t = build(given_input)
            given_input.flat[0] = 0
            for arr in stored(t):
                assert arr.dtype == good.dtype, name
                assert not np.shares_memory(arr, given_input), name
                assert np.array_equal(arr, good), name
