"""Parser/writer checks: worked examples, byte-level round trips, fuzz safety."""

import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geotraj.errors import (
    DuplicateId,
    EmptyFile,
    MalformedLine,
    NoFixAvailable,
    NonMonotonicTimestamp,
    ParseError,
    UnknownStatus,
)
from geotraj.trajectory_io import (
    DeviceCalibration,
    GnssStatus,
    RtkLog,
    Trajectory,
    first_rtk_fix,
    parse_checkpoints,
    parse_rtk_log,
    parse_trajectory,
    write_checkpoints,
    write_rtk_log,
    write_trajectory,
)
from geotraj import trajectory_io
from oracles import (parse_rtk_log_reference, rtk_columns,
                     write_rtk_log_reference, write_trajectory_reference)

TUM_SAMPLE = b"""\
# ts x y z qx qy qz qw
1403636579.76 4.688 -1.786 0.783 0.0 0.0 0.0 1.0
1403636580.83 4.691 -1.784 0.786 0.0 0.0 0.7071067811865476 0.7071067811865476
1403636581.96 4.699 -1.781 0.790 0.5 0.5 0.5 0.5
"""


def test_parse_tum_sample():
    traj = parse_trajectory(TUM_SAMPLE)
    assert len(traj) == 3
    assert traj.t[0] == 1403636579.76
    assert np.array_equal(traj.p[0], [4.688, -1.786, 0.783])
    assert np.array_equal(traj.q[2], [0.5, 0.5, 0.5, 0.5])


def test_comments_and_blank_lines_skipped():
    body = b"# header\n\n   \n0.0 0 0 0 0 0 0 1\n# mid comment\n1.0 1 0 0 0 0 0 1\n"
    assert len(parse_trajectory(body)) == 2


def test_parse_accepts_file_object_and_path(tmp_path):
    path = tmp_path / "traj.tum"
    path.write_bytes(TUM_SAMPLE)
    from_path = parse_trajectory(path)
    with open(path, "r") as fh:
        from_handle = parse_trajectory(fh)
    assert len(from_path) == len(from_handle) == 3


def test_wrong_field_count_reports_line_number():
    with pytest.raises(MalformedLine) as exc:
        parse_trajectory(b"0.0 0 0 0 0 0 0 1\n1.0 1 2 3\n")
    assert exc.value.line_no == 2


def test_unparseable_and_non_finite_fields_rejected():
    with pytest.raises(MalformedLine):
        parse_trajectory(b"0.0 0 zero 0 0 0 0 1\n1.0 0 0 0 0 0 0 1\n")
    with pytest.raises(MalformedLine):
        parse_trajectory(b"0.0 0 nan 0 0 0 0 1\n1.0 0 0 0 0 0 0 1\n")
    with pytest.raises(MalformedLine):
        parse_trajectory(b"0.0 0 inf 0 0 0 0 1\n1.0 0 0 0 0 0 0 1\n")


def test_quaternion_norm_gate():
    # 0.5e-3 off unit: accepted and normalized to exactly unit length.
    q = 1.0005
    traj = parse_trajectory(
        f"0.0 0 0 0 0 0 0 {q}\n1.0 0 0 0 0 0 0 1\n".encode())
    assert abs(np.linalg.norm(traj.q[0]) - 1.0) < 1e-15
    # 2e-3 off unit: rejected.
    with pytest.raises(MalformedLine):
        parse_trajectory(b"0.0 0 0 0 0 0 0 1.002\n1.0 0 0 0 0 0 0 1\n")


def test_timestamps_must_strictly_increase():
    with pytest.raises(NonMonotonicTimestamp) as exc:
        parse_trajectory(b"1.0 0 0 0 0 0 0 1\n1.0 1 0 0 0 0 0 1\n")
    assert exc.value.line_no == 2
    with pytest.raises(NonMonotonicTimestamp):
        parse_trajectory(b"2.0 0 0 0 0 0 0 1\n1.0 1 0 0 0 0 0 1\n")


def test_too_few_poses_is_empty():
    with pytest.raises(EmptyFile):
        parse_trajectory(b"")
    with pytest.raises(EmptyFile):
        parse_trajectory(b"# only comments\n")
    with pytest.raises(EmptyFile):
        parse_trajectory(b"0.0 0 0 0 0 0 0 1\n")


def _random_trajectory(seed: int, n: int) -> Trajectory:
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.05, 2.0, size=n)) + rng.uniform(0, 1e9)
    p = rng.uniform(-1e4, 1e4, size=(n, 3))
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return Trajectory.from_arrays(t, p, q)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_trajectory_write_parse_write_is_byte_identical(seed, n):
    traj = _random_trajectory(seed, n)
    buf1 = io.StringIO()
    write_trajectory(traj, buf1)
    reparsed = parse_trajectory(buf1.getvalue().encode())
    buf2 = io.StringIO()
    write_trajectory(reparsed, buf2)
    assert buf1.getvalue() == buf2.getvalue()


@given(data=st.binary(max_size=400))
@settings(max_examples=150, deadline=None)
def test_trajectory_parser_never_panics(data):
    """Arbitrary bytes either parse or raise a structured parse error."""
    try:
        parse_trajectory(data)
    except ParseError:
        pass


def _bits(traj):
    return [a.tobytes() for a in (traj.t, traj.p, traj.q)]


# Whitespace that str.split() honours: ASCII, a control separator that
# np.loadtxt might not, and non-ASCII spaces.
SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\r", "\u00a0", "\u2003"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x85", "\u2028"]
HAZARD_TOKENS = ["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999", "1_000",
                 "1__0", "0x1p3", "1e", ".", "", "+", "--1", "1.5.2", "\u0661",
                 "1#", "#", "1e5e5", "1d0", "\x00"]
# Relative quaternion scalings around the strict parser's thresholds: unit,
# the 1e-12 "already unit" test, the 1e-3 tolerance.
QUAT_SCALES = [0.0, 1e-16, -1e-16, 5e-13, 1e-12, -1e-12, 1e-12 + 2e-16,
               -1e-12 - 2e-16, 3e-12, 5e-4, 1e-3, -1e-3, 1e-3 + 1e-15, 2e-3]


@st.composite
def _float_tokens(draw, value):
    style = draw(st.sampled_from(["repr", "g", "e", "f6", "plus", "dot"]))
    if style == "repr":
        return repr(value)
    if style == "g":
        return f"{value:.17g}"
    if style == "e":
        return f"{value:.15E}"
    if style == "f6":
        return f"{value:.6f}"
    text = repr(value)
    if style == "plus" and not text.startswith("-"):
        return "+" + text
    return text.replace("0.", ".", 1) if text.startswith("0.") else text


@st.composite
def _tum_text(draw):
    """TUM text mixing valid rows with every hazard the fast pass must
    either parse exactly as the strict parser does or hand over to it."""
    # Half the files are clean apart from layout, so that both parsers
    # accept often; the rest carry hazards in about one row in three.
    hazard_pct = draw(st.sampled_from([0, 0, 10, 30]))

    def hazard():
        return draw(st.integers(0, 99)) < hazard_pct

    sep = st.sampled_from(SEPARATORS[:3] * 3 + SEPARATORS[3:])
    lines = []
    t = draw(st.sampled_from([0.0, 1.7e9, 1403636579.76]))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["comment", "blank"]))
        if kind == "row" and hazard():
            kind = "hash-after"
        if kind == "comment":
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + "# "
                         + draw(st.sampled_from(["t x y z", "nan", "1 2 3 4 5 6 7 8"])))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\t \x0c"])))
            continue
        t += draw(st.sampled_from([0.0, -0.25] if hazard() else [0.01, 0.5, 1e-7]))
        q = np.array(draw(st.lists(st.floats(-1, 1, allow_nan=False, width=64),
                                   min_size=4, max_size=4)))
        if np.linalg.norm(q) < 1e-3:
            q = np.array([0.0, 0.0, 0.0, 1.0])
        scales = QUAT_SCALES if hazard() else QUAT_SCALES[:-4]
        q = q / np.linalg.norm(q) * (1.0 + draw(st.sampled_from(scales)))
        p = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=3))
        tokens = [draw(_float_tokens(float(v))) for v in [t, *p, *q]]
        if hazard():
            tokens[draw(st.integers(0, 7))] = draw(st.sampled_from(HAZARD_TOKENS))
        if hazard():
            tokens = tokens[:7] if draw(st.booleans()) else tokens + ["0"]
        text = draw(sep).join(tokens)
        if kind == "hash-after":
            text += draw(sep) + "# trailing"
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + text)
    end = st.sampled_from(LINE_ENDS[:2] * 12 + LINE_ENDS[2:])
    return "".join(line + draw(end) for line in lines)


@given(text=_tum_text())
@settings(max_examples=600, deadline=None)
def test_fast_parse_matches_strict_parser(text):
    """The vectorised pass never accepts what the line parser rejects and,
    where it accepts, returns the same arrays bit for bit."""
    fast = trajectory_io._parse_fast(text)
    sources = [io.StringIO(text), text.encode("utf-8")]
    try:
        want = trajectory_io._parse_strict(text)
    except ParseError as exc:
        assert fast is None
        for source in sources:
            with pytest.raises(type(exc)) as got:
                parse_trajectory(source)
            assert getattr(got.value, "line_no", None) == getattr(exc, "line_no", None)
        return
    for source in sources:
        assert _bits(parse_trajectory(source)) == _bits(want)
    if fast is not None:
        assert _bits(fast) == _bits(want)


@pytest.mark.parametrize("token", HAZARD_TOKENS)
def test_each_hazard_token_in_each_field(token):
    """One bad token in an otherwise valid file, in every field of either
    row: the fast pass must hand every such file to the strict parser."""
    for row in range(2):
        for field in range(8):
            rows = [["0.0", "1", "2", "3", "0", "0", "0", "1"],
                    ["1.0", "4", "5", "6", "0", "0", "0", "1"]]
            rows[row][field] = token
            text = "".join(" ".join(r) + "\n" for r in rows)
            try:
                want = trajectory_io._parse_strict(text)
            except ParseError:
                assert trajectory_io._parse_fast(text) is None, (row, field)
                continue
            fast = trajectory_io._parse_fast(text)
            assert fast is None or _bits(fast) == _bits(want), (row, field)


def test_fast_parse_takes_the_common_layouts():
    """Header comments, blank lines, tabs, CRLF, a 1.7e9 s clock and slightly
    off-unit quaternions all stay on the vectorised path."""
    q_off = "0.0 0.0 0.0 1.0000005"
    text = ("# header\r\n\r\n1700000000.0\t1 2 3 0 0 0 1\r\n"
            f"1700000000.01 1e-3 -2.5E+2 .5 {q_off}\r\n  \r\n")
    fast = trajectory_io._parse_fast(text)
    assert fast is not None
    assert _bits(fast) == _bits(trajectory_io._parse_strict(text))
    assert fast.q[1, 3] == 1.0


def test_parse_reads_paths_with_universal_newlines(tmp_path):
    """A path is read as text with universal newlines, so a lone CR ends a
    line there, while in raw bytes it only separates fields."""
    body = b"0.0 0 0 0\r0 0 0 1\n1.0 1 0 0\r0 0 0 1\n"
    path = tmp_path / "cr.tum"
    path.write_bytes(body.replace(b"\r", b" ").replace(b"\n", b"\r"))
    assert _bits(parse_trajectory(path)) == _bits(parse_trajectory(body))
    with pytest.raises(MalformedLine) as exc:
        parse_trajectory(body.replace(b"\n", b"\r"))
    assert exc.value.line_no == 1


@given(data=st.lists(st.sampled_from([b"\r", b"\n", b"\r\n", b"a", b" ", b"\xe2", b"\x82",
                                      b"\xac", b"\xff", "\u00e9".encode()]),
                     max_size=20).map(b"".join))
@settings(max_examples=150, deadline=None)
def test_path_reads_like_text_mode(data):
    """Paths are read as bytes, yet decode exactly as a text-mode open():
    UTF-8 with replacement and universal newlines."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.tum"
        path.write_bytes(data)
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = trajectory_io._decode(trajectory_io._read_source(path))
            assert text == fh.read()


def test_written_file_takes_the_fast_path(tmp_path, monkeypatch):
    """A file from write_trajectory, on an epoch clock at 100 Hz, must parse
    without the line-by-line parser, so a silent fallback cannot hide."""
    rng = np.random.default_rng(5)
    n = 2000
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    traj = Trajectory.from_arrays(1.7e9 + 0.01 * np.arange(n),
                                  rng.uniform(-1e4, 1e4, size=(n, 3)), q)
    path = tmp_path / "written.tum"
    write_trajectory(traj, path)

    def refuse(text):
        raise AssertionError("fell back to the line-by-line parser")

    monkeypatch.setattr(trajectory_io, "_parse_strict", refuse)
    assert _bits(parse_trajectory(path)) == _bits(traj)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 30),
       special=st.lists(st.sampled_from([0.0, -0.0, 1e-310, 5e-324, 1e300, -1.5e-7,
                                         math.nan, math.inf, -math.inf, 1.7e9]),
                        max_size=5))
@settings(max_examples=100, deadline=None)
def test_write_matches_reference_writer(seed, n, special):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, 8)) * 10.0 ** rng.integers(-12, 12, size=(n, 8))
    for k, value in enumerate(special):
        if n:
            rows.flat[(k * 7919) % rows.size] = value
    traj = Trajectory.from_arrays(rows[:, 0], rows[:, 1:4], rows[:, 4:])
    buf = io.StringIO()
    write_trajectory(traj, buf)
    assert buf.getvalue() == write_trajectory_reference(traj)


CP_SAMPLE = b"""\
id,easting,northing,height
CP01,513223.539,5403015.518,300.731
CP02,513310.002,5403101.441,301.559
"""


def test_parse_checkpoints_sample():
    cps = parse_checkpoints(CP_SAMPLE, zone=32)
    assert [cp.id for cp in cps] == ["CP01", "CP02"]
    assert cps[0].coord.easting == 513223.539
    assert cps[0].coord.zone == 32
    assert cps[0].coord.hemisphere == "north"


def test_checkpoints_require_header():
    with pytest.raises(EmptyFile):
        parse_checkpoints(b"", zone=32)
    with pytest.raises(MalformedLine):
        parse_checkpoints(b"CP01,1000.0,2000.0,10.0\n", zone=32)


def test_checkpoint_duplicate_id_rejected():
    bad = b"id,easting,northing,height\nA,1.0,2.0,3.0\nA,4.0,5.0,6.0\n"
    with pytest.raises(DuplicateId):
        parse_checkpoints(bad, zone=32)


def test_checkpoint_bad_coordinate_rejected():
    bad = b"id,easting,northing,height\nA,-5.0,2.0,3.0\n"
    with pytest.raises(MalformedLine):
        parse_checkpoints(bad, zone=32)


def test_checkpoints_round_trip_bytes():
    cps = parse_checkpoints(CP_SAMPLE, zone=32)
    buf1 = io.StringIO()
    write_checkpoints(cps, buf1)
    again = parse_checkpoints(buf1.getvalue().encode(), zone=32)
    buf2 = io.StringIO()
    write_checkpoints(again, buf2)
    assert buf1.getvalue() == buf2.getvalue()


@given(data=st.binary(max_size=300))
@settings(max_examples=100, deadline=None)
def test_checkpoint_parser_never_panics(data):
    try:
        parse_checkpoints(data, zone=32)
    except ParseError:
        pass


RTK_SAMPLE = b"""\
t,lat_deg,lon_deg,height,status
0.0,48.780001,9.180001,300.12,FIX
1.0,48.780002,9.180002,300.15,fix
2.0,48.780003,9.180003,300.22,Float
3.0,48.780004,9.180004,300.31,NONE
"""


def test_parse_rtk_log_sample():
    log = parse_rtk_log(RTK_SAMPLE)
    assert log.status.tolist() == [
        GnssStatus.RTK_FIX, GnssStatus.RTK_FIX,
        GnssStatus.RTK_FLOAT, GnssStatus.NONE,
    ]
    assert math.degrees(log.lat[0]) == pytest.approx(48.780001, abs=1e-12)


def test_rtk_unknown_status_token():
    bad = b"t,lat_deg,lon_deg,height,status\n0.0,48.0,9.0,300.0,GREAT\n"
    with pytest.raises(UnknownStatus) as exc:
        parse_rtk_log(bad)
    assert exc.value.token == "GREAT"


def test_rtk_timestamps_may_repeat_but_not_decrease():
    ok = (b"t,lat_deg,lon_deg,height,status\n"
          b"0.0,48.0,9.0,300.0,FIX\n0.0,48.0,9.0,300.0,FIX\n")
    assert len(parse_rtk_log(ok)) == 2
    bad = (b"t,lat_deg,lon_deg,height,status\n"
           b"1.0,48.0,9.0,300.0,FIX\n0.5,48.0,9.0,300.0,FIX\n")
    with pytest.raises(NonMonotonicTimestamp):
        parse_rtk_log(bad)


def test_rtk_round_trip_bytes():
    log = parse_rtk_log(RTK_SAMPLE)
    buf1 = io.StringIO()
    write_rtk_log(log, buf1)
    again = parse_rtk_log(buf1.getvalue().encode())
    buf2 = io.StringIO()
    write_rtk_log(again, buf2)
    assert buf1.getvalue() == buf2.getvalue()


@given(data=st.binary(max_size=300))
@settings(max_examples=100, deadline=None)
def test_rtk_parser_never_panics(data):
    try:
        parse_rtk_log(data)
    except ParseError:
        pass


def _rtk_log(rows):
    """RtkLog of (t, lat_deg, lon_deg, h, status) rows."""
    t, lat, lon, h, status = (np.array(col) for col in zip(*rows))
    return RtkLog(t, np.radians(lat), np.radians(lon), h, status.astype(np.int8))


def test_first_rtk_fix_selects_earliest_fix():
    log = _rtk_log([(0.0, 48.78, 9.18, 300.0, GnssStatus.RTK_FLOAT),
                    (1.0, 48.781, 9.181, 301.0, GnssStatus.RTK_FIX),
                    (2.0, 48.78, 9.18, 300.0, GnssStatus.RTK_FIX)])
    g = first_rtk_fix(log)
    assert (g.lat, g.lon, g.h) == (log.lat[1], log.lon[1], 301.0)


def test_first_rtk_fix_requires_a_fix():
    log = _rtk_log([(0.0, 48.78, 9.18, 300.0, GnssStatus.RTK_FLOAT)])
    with pytest.raises(NoFixAvailable):
        first_rtk_fix(log)


def _rtk_outcome(parse, data):
    """Columns of a parse, or the error's type, line number and message."""
    try:
        return parse(data)
    except ParseError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)


_RTK_STATUS = st.sampled_from(["FIX", "fix", "Float", "DGPS", "SINGLE", "NONE"])
_RTK_GOOD = st.tuples(
    st.floats(0.0, 1e6).map(repr),
    st.one_of(st.floats(-90.0, 90.0),
              st.sampled_from([90.0, -90.0, 90.00000000000001, -0.0])).map(repr),
    st.one_of(st.floats(-1000.0, 1000.0),
              st.sampled_from([180.0, -180.0, 540.0, 179.99999999999997])).map(repr),
    st.floats(-1e4, 1e4).map(repr), _RTK_STATUS).map(",".join)
_RTK_BAD_TOKEN = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                           st.sampled_from(["", "x", "1e999", " 7 ", "0x1p3", "90.1",
                                            "-91"]))
_RTK_BAD = st.one_of(
    st.tuples(_RTK_BAD_TOKEN, _RTK_BAD_TOKEN, _RTK_BAD_TOKEN, _RTK_BAD_TOKEN,
              st.one_of(_RTK_STATUS, st.just("GREAT"))).map(",".join),
    st.sampled_from(["", "# note", "1,2,3", "t,lat_deg,lon_deg,height,status"]))


@given(lines=st.lists(_RTK_GOOD, max_size=10), bad=st.one_of(st.none(), _RTK_BAD),
       at=st.integers(0, 10), sorted_t=st.booleans())
@settings(max_examples=300, deadline=None)
def test_parse_rtk_log_matches_per_record_parser(lines, bad, at, sorted_t):
    """Columns, error class, line number and message all as the parser that
    built one record object per line; the writer as its f-string writer."""
    if bad is not None:
        lines.insert(at, bad)
    if sorted_t:
        lines = [f"{k}.0" + line[line.index(","):] if line.count(",") == 4 else line
                 for k, line in enumerate(lines)]
    data = ("t,lat_deg,lon_deg,height,status\n" + "\n".join(lines)).encode()
    got = _rtk_outcome(parse_rtk_log, data)
    want = _rtk_outcome(parse_rtk_log_reference, data)
    if isinstance(want, tuple):
        assert got == want
        return
    cols = (got.t, got.lat, got.lon, got.h, got.status)
    assert [np.asarray(c).tobytes() for c in cols] == \
        [np.asarray(c, dtype=g.dtype).tobytes() for c, g in zip(rtk_columns(want), cols)]
    buf = io.StringIO()
    write_rtk_log(got, buf)
    assert buf.getvalue() == write_rtk_log_reference(want)


def test_gnss_status_ordering_and_tokens():
    assert GnssStatus.NONE < GnssStatus.SINGLE < GnssStatus.DGPS \
        < GnssStatus.RTK_FLOAT < GnssStatus.RTK_FIX
    assert GnssStatus.RTK_FIX.token == "FIX"
    assert GnssStatus.NONE.token == "NONE"


def test_device_calibration_validation():
    cal = DeviceCalibration([-0.073, -0.023, -0.172], [0.023, -0.023, 0.090])
    assert cal.t_imu_to_base.shape == (3,)
    with pytest.raises(ValueError):
        DeviceCalibration([3.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        DeviceCalibration([math.nan, 0.0, 0.0], [0.0, 0.0, 0.0])
    zero = DeviceCalibration.zero()
    assert np.all(zero.t_imu_to_base == 0.0)
