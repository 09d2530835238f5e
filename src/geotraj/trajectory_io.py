"""Parsers and writers for trajectories, checkpoint surveys, and RTK logs.

Input formats:
  trajectory   TUM text, one pose per line "t tx ty tz qx qy qz qw",
               whitespace separated, '#' starts a comment line
  checkpoints  CSV with header "id,easting,northing,height" (meters, UTM)
  rtk log      CSV with header "t,lat_deg,lon_deg,height,status",
               status one of FIX, FLOAT, DGPS, SINGLE, NONE (case-insensitive)

``source`` arguments accept a filesystem path (str or Path), raw bytes, or a
readable file object. Parsers are pure and never raise anything but the
structured errors below on bad input; floats are re-serialized with repr so
write-then-parse is bit identical.
"""

from __future__ import annotations

import enum
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    DuplicateId,
    EmptyFile,
    MalformedLine,
    NoFixAvailable,
    NonMonotonicTimestamp,
    UnknownStatus,
)
from .geodesy import GeodeticCoord, UtmCoord

Source = Union[str, Path, bytes, IO]

QUAT_NORM_TOLERANCE = 1e-3
# Quaternions closer to unit norm than this are left untouched, so parsing a
# file we wrote reproduces it bit for bit.
QUAT_UNIT_EPS = 1e-12

# Data bytes the fast parser takes: decimal floats, on which np.loadtxt and
# float() agree exactly, and the separators both split on the same way.
_NUMBER_BYTES = b"0123456789.+-eE \t\n"
_NON_BLANK = re.compile(rb"[^ \t\n]")


class GnssStatus(enum.IntEnum):
    """GNSS solution quality, ordered worst to best."""

    NONE = 0
    SINGLE = 1
    DGPS = 2
    RTK_FLOAT = 3
    RTK_FIX = 4

    @property
    def token(self) -> str:
        return _STATUS_TO_TOKEN[self]


_TOKEN_TO_STATUS = {
    "FIX": GnssStatus.RTK_FIX,
    "FLOAT": GnssStatus.RTK_FLOAT,
    "DGPS": GnssStatus.DGPS,
    "SINGLE": GnssStatus.SINGLE,
    "NONE": GnssStatus.NONE,
}
_STATUS_TO_TOKEN = {v: k for k, v in _TOKEN_TO_STATUS.items()}


@dataclass(eq=False)
class Trajectory:
    """Timestamped poses as arrays.

    ``t`` is (N,), ``p`` (N, 3) and ``q`` (N, 4): Hamilton unit quaternions,
    body to world, stored as (x, y, z, w), the TUM component order.
    """

    t: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def timestamps(self) -> np.ndarray:
        return self.t

    @property
    def positions(self) -> np.ndarray:
        return self.p

    @property
    def quaternions(self) -> np.ndarray:
        return self.q

    @classmethod
    def from_arrays(cls, t: np.ndarray, p: np.ndarray, q: np.ndarray) -> "Trajectory":
        t, p, q = (np.asarray(a, dtype=float) for a in (t, p, q))
        if t.ndim != 1 or p.shape != (len(t), 3) or q.shape != (len(t), 4):
            raise ValueError(f"expected t (N,), p (N, 3), q (N, 4); got "
                             f"{t.shape}, {p.shape}, {q.shape}")
        return cls(t, p, q)


@dataclass(frozen=True)
class Checkpoint:
    id: str
    coord: UtmCoord


@dataclass(eq=False)
class RtkLog:
    """The receiver log as (N,) columns: time, latitude and longitude in
    radians (clamped and wrapped as ``GeodeticCoord`` leaves them),
    height above GRS 80, and ``GnssStatus`` values."""

    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    h: np.ndarray
    status: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(eq=False)
class DeviceCalibration:
    """Reference-point offsets from the IMU origin, body frame, meters."""

    t_imu_to_base: np.ndarray
    t_imu_to_antenna: np.ndarray

    def __post_init__(self):
        for name in ("t_imu_to_base", "t_imu_to_antenna"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,) or not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} must be a finite 3-vector")
            # Handheld pole: offsets beyond 2 m are a config mistake.
            if np.linalg.norm(vec) >= 2.0:
                raise ValueError(f"{name} magnitude {np.linalg.norm(vec):.3f} m >= 2 m")
            setattr(self, name, vec)

    @classmethod
    def zero(cls) -> "DeviceCalibration":
        return cls(np.zeros(3), np.zeros(3))

    @classmethod
    def from_dict(cls, d: dict) -> "DeviceCalibration":
        return cls(np.asarray(d["t_imu_to_base"], dtype=float),
                   np.asarray(d["t_imu_to_antenna"], dtype=float))


def _read_source(source: Source) -> Union[bytes, str]:
    """The whole source, undecoded. Paths get universal newlines, as in text
    mode; bytes and file objects keep their line ends."""
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return source if isinstance(source, bytes) else source.read()


def _decode(data: Union[bytes, str]) -> str:
    return data if isinstance(data, str) else data.decode("utf-8", errors="replace")


def _csv_rows(source: Source, header: list[str], what: str) -> Iterator[tuple[int, list[str]]]:
    """Line number and stripped fields of every row after the header."""
    header_seen = False
    for line_no, raw in enumerate(io.StringIO(_decode(_read_source(source))), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if not header_seen:
            if [f.lower() for f in fields] != header:
                raise MalformedLine(line_no, f"expected header {','.join(header)!r}")
            header_seen = True
        elif len(fields) != len(header):
            raise MalformedLine(line_no, f"expected {len(header)} fields, got {len(fields)}")
        else:
            yield line_no, fields
    if not header_seen:
        raise EmptyFile(f"{what} has no header line")


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MalformedLine(line_no, f"unparseable {what}: {token!r}") from None
    if not math.isfinite(value):
        raise MalformedLine(line_no, f"non-finite {what}: {token!r}")
    return value


def parse_trajectory(source: Source) -> Trajectory:
    """Parse a TUM-format trajectory.

    Quaternions off unit norm by at most 1e-3 are normalized; worse ones are
    rejected as malformed. Timestamps must be strictly increasing.

    One vectorised pass reads well-formed files. Whatever it cannot vouch
    for goes to the line-by-line parser, which decides the result or the
    error and its line number.
    """
    data = _read_source(source)
    traj = _parse_fast(data)
    return traj if traj is not None else _parse_strict(_decode(data))


def _parse_fast(data: Union[bytes, str]) -> Optional[Trajectory]:
    """``np.loadtxt`` over ASCII whose only comments are whole lines before
    the data; returns None wherever ``_parse_strict`` might disagree.

    Both parsers turn a token into a float with ``PyOS_string_to_double``,
    so on the bytes in ``_NUMBER_BYTES`` they agree bit for bit. Anything
    else after the header (nan, inf, ``1_000``, hex floats, ``#`` after
    data, control separators) is left to the strict parser, whatever a
    given numpy's tokenizer would make of it.
    """
    if not data.isascii():
        return None
    if isinstance(data, str):
        data = data.encode("ascii")
    # Only "\n" ends a line here; str.split() takes a CR as a blank.
    data = data.replace(b"\r", b" ")
    # The header runs to the end of the line of the last '#' and must hold
    # only comments. bytes.lstrip() strips a subset of what str.strip() does,
    # so a line it leaves unclear goes to the strict parser.
    last_hash = data.rfind(b"#")
    cut = (data.find(b"\n", last_hash) + 1 or len(data)) if last_hash >= 0 else 0
    header = data[:cut]
    if any(line.strip() and not line.lstrip().startswith(b"#")
           for line in header.split(b"\n")):
        return None
    # translate() keeps the bytes outside _NUMBER_BYTES, in order: beyond
    # the header's own there must be none, and some data must follow.
    extra = len(data.translate(None, _NUMBER_BYTES))
    if (extra != len(header.translate(None, _NUMBER_BYTES))
            or _NON_BLANK.search(data, cut) is None):
        return None
    try:
        rows = np.loadtxt(io.BytesIO(data), ndmin=2, comments=None,
                          skiprows=header.count(b"\n"))
    except ValueError:
        return None
    if rows.shape[1] != 8 or len(rows) < 2 or not np.isfinite(rows).all():
        return None
    t, p, q = rows[:, 0].copy(), rows[:, 1:4].copy(), rows[:, 4:].copy()
    if not (t[1:] > t[:-1]).all():
        return None
    # Summation orders of four squares differ by a few ulp, far below 1e-14:
    # rows not clearly within QUAT_UNIT_EPS get the strict parser's tests.
    off = np.abs(np.sqrt(np.einsum("ij,ij->i", q, q)) - 1.0)
    for i in np.flatnonzero(off > QUAT_UNIT_EPS - 1e-14):
        norm = float(np.linalg.norm(q[i]))
        if abs(norm - 1.0) > QUAT_NORM_TOLERANCE:
            return None
        if abs(norm - 1.0) > QUAT_UNIT_EPS:
            q[i] = q[i] / norm
    return Trajectory(t, p, q)


def _parse_strict(text: str) -> Trajectory:
    """Line-by-line TUM parser: the reference for every result and error."""
    ts: list[float] = []
    ps: list[list[float]] = []
    qs: list[np.ndarray] = []
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 8:
            raise MalformedLine(line_no, f"expected 8 fields, got {len(fields)}")
        values = [_parse_float(tok, line_no, f"field {i+1}")
                  for i, tok in enumerate(fields)]
        q = np.array(values[4:8])
        norm = float(np.linalg.norm(q))
        if abs(norm - 1.0) > QUAT_NORM_TOLERANCE:
            raise MalformedLine(line_no, f"quaternion norm {norm:.6f} off unit by more "
                                         f"than {QUAT_NORM_TOLERANCE}")
        if ts and values[0] <= ts[-1]:
            raise NonMonotonicTimestamp(line_no)
        if abs(norm - 1.0) > QUAT_UNIT_EPS:
            q = q / norm
        ts.append(values[0])
        ps.append(values[1:4])
        qs.append(q)
    if len(ts) < 2:
        raise EmptyFile(f"trajectory needs at least 2 poses, found {len(ts)}")
    return Trajectory(np.array(ts), np.array(ps), np.array(qs))


_TUM_ROW = " ".join(["%r"] * 8) + "\n"


def write_trajectory(traj: Trajectory, sink: Union[str, Path, IO]) -> None:
    """One line per pose, every float written with ``repr``."""
    rows = np.hstack([traj.t[:, None], traj.p, traj.q], dtype=float)
    body = (_TUM_ROW * len(rows)) % tuple(rows.ravel().tolist())
    _write_text(sink, "# t tx ty tz qx qy qz qw\n" + body)


def parse_checkpoints(source: Source, zone: int, hemisphere: str = "north") -> list[Checkpoint]:
    """Parse the checkpoint survey CSV. Zone/hemisphere come from the run
    config, not the file."""
    checkpoints: list[Checkpoint] = []
    seen: set[str] = set()
    for line_no, fields in _csv_rows(source, ["id", "easting", "northing", "height"],
                                     "checkpoint file"):
        cp_id = fields[0]
        if not cp_id:
            raise MalformedLine(line_no, "empty checkpoint id")
        if cp_id in seen:
            raise DuplicateId(f"checkpoint id {cp_id!r} repeated at line {line_no}")
        seen.add(cp_id)
        easting, northing, height = (_parse_float(tok, line_no, what) for tok, what
                                     in zip(fields[1:], ("easting", "northing", "height")))
        try:
            coord = UtmCoord(easting, northing, height, zone, hemisphere)
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
        checkpoints.append(Checkpoint(cp_id, coord))
    return checkpoints


def write_checkpoints(checkpoints: Sequence[Checkpoint], sink: Union[str, Path, IO]) -> None:
    rows = [f"{cp.id},{cp.coord.easting!r},{cp.coord.northing!r},{cp.coord.height!r}\n"
            for cp in checkpoints]
    _write_text(sink, "id,easting,northing,height\n" + "".join(rows))


def parse_rtk_log(source: Source) -> RtkLog:
    ts: list[float] = []
    lats: list[float] = []
    lons: list[float] = []
    hs: list[float] = []
    statuses: list[int] = []
    prev_t = None
    for line_no, fields in _csv_rows(source, ["t", "lat_deg", "lon_deg", "height", "status"],
                                     "RTK log"):
        t, lat, lon, height = (_parse_float(tok, line_no, what) for tok, what in
                               zip(fields, ("timestamp", "latitude", "longitude", "height")))
        token = fields[4].upper()
        if token not in _TOKEN_TO_STATUS:
            raise UnknownStatus(line_no, fields[4])
        if prev_t is not None and t < prev_t:
            raise NonMonotonicTimestamp(line_no)
        prev_t = t
        lat, lon = math.radians(lat), math.radians(lon)
        try:
            GeodeticCoord.validate(lat, lon, height)
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
        ts.append(t)
        lats.append(lat)
        lons.append(lon)
        hs.append(height)
        statuses.append(_TOKEN_TO_STATUS[token])
    lat_col, lon_col = GeodeticCoord.normalize(np.array(lats, dtype=float),
                                               np.array(lons, dtype=float))
    return RtkLog(np.array(ts, dtype=float), lat_col, lon_col, np.array(hs, dtype=float),
                  np.array(statuses, dtype=np.int8))


_RTK_ROW = "%r,%r,%r,%r,%s\n"


def write_rtk_log(log: RtkLog, sink: Union[str, Path, IO]) -> None:
    """One line per record, every float written with ``repr``."""
    cols = zip(log.t.tolist(), np.degrees(log.lat).tolist(), np.degrees(log.lon).tolist(),
               log.h.tolist(), [_STATUS_TO_TOKEN[s] for s in log.status.tolist()])
    body = (_RTK_ROW * len(log)) % tuple(v for row in cols for v in row)
    _write_text(sink, "t,lat_deg,lon_deg,height,status\n" + body)


def first_rtk_fix(log: RtkLog) -> GeodeticCoord:
    """World origin from the earliest RTK_FIX record."""
    fixes = np.flatnonzero(log.status == GnssStatus.RTK_FIX)
    if not fixes.size:
        raise NoFixAvailable("RTK log contains no FIX record")
    k = fixes[0]
    return GeodeticCoord.from_normalized(log.lat[k], log.lon[k], log.h[k])


def _write_text(sink: Union[str, Path, IO], text: str) -> None:
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text, encoding="utf-8")
    else:
        sink.write(text)
