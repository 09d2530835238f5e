"""Coordinate transformations among geodetic, ECEF, local ENU, and UTM frames.

Angles are radians internally; file interfaces use degrees. The reference
surface is GRS 80, on which ETRS89 is realized, held as module constants;
heights are above it end to end (no geoid model). The map projection is
Gauss-Krueger / UTM computed with Karney's (2011, J. Geodesy 85(8)) series in
the third flattening to 6th order, which is far below a millimeter anywhere a
UTM zone is meant to be used.

Each conversion has one checked row path: a kernel on arrays that checks the
domain once per call and raises OutOfDomain for the first row outside it. The
scalar API (``geodetic_to_utm``, ``utm_to_geodetic``, ``GeoContext.enu_to_utm``)
is a one-row call of that path, so a point gets the bits alone that it gets in
any batch. The kernels square and cube by multiplying: ``**`` can call libm
``pow``, which can round differently from ``x * x``.

ENU offsets come from the tangent-frame rotation in two product forms. The
row methods (``enu_to_geodetic_rows``, ``utm_to_enu_rows``) multiply each row
as a stacked (1, 3) @ (3, 3) product, so a row gets the same bits in any
batch. ``geodetic_to_enu_batch`` and ``utm_to_enu_batch`` take one
(N, 3) @ (3, 3) product, which can differ in the last bit (on 105,573 of
200,000 random rows, numpy 2.4.6 on x86-64). The synthetic TUM positions
and the receiver track that ``report`` evaluates use the 2-D form, so merging
the forms changes bundle and report bytes and is left to a change that
declares new bytes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, OutOfDomain

log = logging.getLogger(__name__)

#: GRS 80: semi-major axis (m), flattening, semi-minor axis (m), first and
#: second eccentricity squared.
A = 6378137.0
F = 1.0 / 298.257222101
B = A * (1.0 - F)
E2 = F * (2.0 - F)
EP2 = E2 / (1.0 - E2)
_E = math.sqrt(E2)

UTM_SCALE = 0.9996
UTM_FALSE_EASTING = 500_000.0
UTM_FALSE_NORTHING_SOUTH = 10_000_000.0

# Hard pre-condition / warning bounds on distance from the central meridian.
MERIDIAN_WARN_RAD = math.radians(3.5)
MERIDIAN_LIMIT_RAD = math.radians(10.0)
UTM_LAT_LIMIT_RAD = math.radians(84.0)


def _wrap_longitude(lon):
    """Normalize to (-pi, pi], elementwise on arrays."""
    wrapped = np.fmod(lon + math.pi, 2.0 * math.pi)
    return np.where(wrapped <= 0.0, wrapped + 2.0 * math.pi, wrapped) - math.pi


@dataclass(frozen=True)
class GeodeticCoord:
    """Latitude/longitude in radians, height above GRS 80 in meters."""

    lat: float
    lon: float
    h: float

    def __post_init__(self):
        self.validate(self.lat, self.lon, self.h)
        lat, lon = self.normalize(self.lat, self.lon)
        object.__setattr__(self, "lat", float(lat))
        object.__setattr__(self, "lon", float(lon))

    @staticmethod
    def validate(lat: float, lon: float, h: float) -> None:
        """Raise ValueError for values the constructor rejects."""
        if not (math.isfinite(lat) and math.isfinite(lon) and math.isfinite(h)):
            raise ValueError("non-finite geodetic coordinate")
        if abs(lat) > math.pi / 2 + 1e-12:
            raise ValueError(f"latitude {lat} outside [-pi/2, pi/2]")

    @staticmethod
    def normalize(lat, lon):
        """The latitude clamped to [-pi/2, pi/2] and the longitude wrapped
        into (-pi, pi], elementwise on arrays. The wrap rounds, so a batch
        must apply it to give the constructor's bits, and applying it twice
        need not be a no-op."""
        return np.clip(lat, -math.pi / 2, math.pi / 2), _wrap_longitude(lon)

    @classmethod
    def from_degrees(cls, lat_deg: float, lon_deg: float, h: float) -> "GeodeticCoord":
        return cls(math.radians(lat_deg), math.radians(lon_deg), h)

    @classmethod
    def from_normalized(cls, lat: float, lon: float, h: float) -> "GeodeticCoord":
        """A coordinate whose latitude is clamped and longitude wrapped
        already, kept bit for bit instead of wrapped a second time."""
        cls.validate(lat, lon, h)
        g = object.__new__(cls)
        for name, value in (("lat", lat), ("lon", lon), ("h", h)):
            object.__setattr__(g, name, float(value))
        return g

    @property
    def lat_deg(self) -> float:
        return math.degrees(self.lat)

    @property
    def lon_deg(self) -> float:
        return math.degrees(self.lon)


@dataclass(frozen=True)
class EcefCoord:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.z))):
            raise ValueError("non-finite ECEF coordinate")


@dataclass(frozen=True)
class UtmCoord:
    easting: float
    northing: float
    height: float
    zone: int
    hemisphere: str = "north"

    def __post_init__(self):
        if not 1 <= self.zone <= 60:
            raise ValueError(f"UTM zone {self.zone} outside 1..60")
        if self.hemisphere not in ("north", "south"):
            raise ValueError(f"hemisphere must be 'north' or 'south', got {self.hemisphere!r}")
        if not 0.0 < self.easting < 1_000_000.0:
            raise ValueError(f"easting {self.easting} outside (0, 1e6)")


def _central_meridian(zone: int) -> float:
    """Central meridian of a UTM zone, radians."""
    return math.radians(6 * zone - 183)


# ---------------------------------------------------------------------------
# geodetic <-> ECEF


def _ecef_from_geodetic_arrays(lat, lon, h):
    sin_lat = np.sin(lat)
    cos_lat = np.cos(lat)
    nu = A / np.sqrt(1.0 - E2 * (sin_lat * sin_lat))
    x = (nu + h) * cos_lat * np.cos(lon)
    y = (nu + h) * cos_lat * np.sin(lon)
    z = (nu * (1.0 - E2) + h) * sin_lat
    return x, y, z


def geodetic_to_ecef(g: GeodeticCoord) -> EcefCoord:
    x, y, z = _ecef_from_geodetic_arrays(g.lat, g.lon, g.h)
    return EcefCoord(float(x), float(y), float(z))


_ECEF_MAX_ITER = 20
_ECEF_LAT_TOL = 1e-12
_ECEF_H_TOL = 1e-6


def _geodetic_from_ecef_arrays(x, y, z):
    """Vectorized Bowring-seeded fixed point; raises NonConvergence."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    p = np.hypot(x, y)
    lon = np.arctan2(y, x)

    if np.any(np.hypot(p, z) < 1.0):
        raise NonConvergence("point too close to the geocenter")

    # Bowring's parametric-latitude seed.
    u = np.arctan2(z * A, p * B)
    sin_u = np.sin(u)
    cos_u = np.cos(u)
    lat = np.arctan2(z + EP2 * B * (sin_u * sin_u * sin_u),
                     p - E2 * A * (cos_u * cos_u * cos_u))
    h = np.zeros_like(lat)
    active = np.ones(np.shape(lat), dtype=bool)
    for _ in range(_ECEF_MAX_ITER):
        sin_lat = np.sin(lat)
        cos_lat = np.cos(lat)
        nu = A / np.sqrt(1.0 - E2 * (sin_lat * sin_lat))
        # Height from the dominant trigonometric branch (stable at the poles).
        h_new = np.where(np.abs(cos_lat) > 1e-10,
                         p / np.where(np.abs(cos_lat) > 1e-10, cos_lat, 1.0) - nu,
                         z / np.where(np.abs(sin_lat) > 1e-10, sin_lat, 1.0)
                         - nu * (1.0 - E2))
        lat_new = np.arctan2(z, p * (1.0 - E2 * nu / (nu + h_new)))
        done = (np.abs(lat_new - lat) < _ECEF_LAT_TOL) & (np.abs(h_new - h) < _ECEF_H_TOL)
        # Each point stops at its own convergence step, so it gets the same
        # bits in any batch as on its own.
        lat = np.where(active, lat_new, lat)
        h = np.where(active, h_new, h)
        active &= ~done
        if not active.any():
            return lat, lon, h
    raise NonConvergence("geodetic latitude iteration exceeded "
                         f"{_ECEF_MAX_ITER} iterations")


def ecef_to_geodetic(pt: EcefCoord) -> GeodeticCoord:
    lat, lon, h = _geodetic_from_ecef_arrays(pt.x, pt.y, pt.z)
    return GeodeticCoord(float(lat), float(lon), float(h))


# ---------------------------------------------------------------------------
# local ENU tangent frame


def _enu_rotation(origin: GeodeticCoord) -> np.ndarray:
    """Rows are the east/north/up basis vectors expressed in ECEF."""
    sin_lat, cos_lat = math.sin(origin.lat), math.cos(origin.lat)
    sin_lon, cos_lon = math.sin(origin.lon), math.cos(origin.lon)
    return np.array([
        [-sin_lon, cos_lon, 0.0],
        [-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat],
        [cos_lat * cos_lon, cos_lat * sin_lon, sin_lat],
    ])


# ---------------------------------------------------------------------------
# transverse Mercator (UTM)


def _tm_coefficients():
    """Series coefficients in the third flattening, 6th order.

    Returns (rectifying_radius, alpha[1..6], beta[1..6]).
    """
    n = F / (2.0 - F)
    n2, n3, n4, n5, n6 = n * n, n ** 3, n ** 4, n ** 5, n ** 6
    rect_radius = A / (1.0 + n) * (1.0 + n2 / 4.0 + n4 / 64.0 + n6 / 256.0)
    alpha = np.array([
        n / 2.0 - 2.0 / 3.0 * n2 + 5.0 / 16.0 * n3 + 41.0 / 180.0 * n4
        - 127.0 / 288.0 * n5 + 7891.0 / 37800.0 * n6,
        13.0 / 48.0 * n2 - 3.0 / 5.0 * n3 + 557.0 / 1440.0 * n4
        + 281.0 / 630.0 * n5 - 1983433.0 / 1935360.0 * n6,
        61.0 / 240.0 * n3 - 103.0 / 140.0 * n4 + 15061.0 / 26880.0 * n5
        + 167603.0 / 181440.0 * n6,
        49561.0 / 161280.0 * n4 - 179.0 / 168.0 * n5 + 6601661.0 / 7257600.0 * n6,
        34729.0 / 80640.0 * n5 - 3418889.0 / 1995840.0 * n6,
        212378941.0 / 319334400.0 * n6,
    ])
    beta = np.array([
        n / 2.0 - 2.0 / 3.0 * n2 + 37.0 / 96.0 * n3 - 1.0 / 360.0 * n4
        - 81.0 / 512.0 * n5 + 96199.0 / 604800.0 * n6,
        1.0 / 48.0 * n2 + 1.0 / 15.0 * n3 - 437.0 / 1440.0 * n4
        + 46.0 / 105.0 * n5 - 1118711.0 / 3870720.0 * n6,
        17.0 / 480.0 * n3 - 37.0 / 840.0 * n4 - 209.0 / 4480.0 * n5
        + 5569.0 / 90720.0 * n6,
        4397.0 / 161280.0 * n4 - 11.0 / 504.0 * n5 - 830251.0 / 7257600.0 * n6,
        4583.0 / 161280.0 * n5 - 108847.0 / 3991680.0 * n6,
        20648693.0 / 638668800.0 * n6,
    ])
    return rect_radius, alpha, beta


_RECT_RADIUS, _ALPHA, _BETA = _tm_coefficients()


def _utm_rows(lat, lon, zone: int):
    """Checked forward Gauss-Krueger of latitude/longitude arrays: easting
    and northing arrays.

    Raises OutOfDomain for the first row at or beyond 84 deg latitude, more
    than 10 deg from the zone's central meridian, or with an easting outside
    (0, 1e6); logs one warning, for the farthest row, when any lies beyond
    3.5 deg of the central meridian.
    """
    off = np.abs(_wrap_longitude(lon - _central_meridian(zone)))
    polar = np.abs(lat) >= UTM_LAT_LIMIT_RAD
    bad = polar | (off > MERIDIAN_LIMIT_RAD)
    if bad.any():
        k = int(np.argmax(bad))
        if polar[k]:
            raise OutOfDomain(f"latitude {math.degrees(lat[k]):.3f} deg outside UTM "
                              "domain (|lat| < 84)")
        raise OutOfDomain(f"longitude {math.degrees(lon[k]):.3f} deg more than 10 deg "
                          f"from zone {zone} meridian")
    wide = off > MERIDIAN_WARN_RAD
    if wide.any():
        k = int(np.argmax(off))
        log.warning("%d point(s) lie more than 3.5 deg from the zone %d central "
                    "meridian, up to %.2f deg (longitude %.3f deg); projection error "
                    "grows quickly out of zone", int(wide.sum()), zone,
                    math.degrees(off[k]), math.degrees(lon[k]))

    dlam = np.arctan2(np.sin(lon - _central_meridian(zone)),
                      np.cos(lon - _central_meridian(zone)))
    tau = np.tan(lat)
    sigma = np.sinh(_E * np.arctanh(_E * tau / np.sqrt(1.0 + tau * tau)))
    taup = tau * np.sqrt(1.0 + sigma * sigma) - sigma * np.sqrt(1.0 + tau * tau)

    xi_p = np.arctan2(taup, np.cos(dlam))
    eta_p = np.arcsinh(np.sin(dlam) / np.hypot(taup, np.cos(dlam)))

    xi = xi_p.copy()
    eta = eta_p.copy()
    for j in range(1, 7):
        xi = xi + _ALPHA[j - 1] * np.sin(2 * j * xi_p) * np.cosh(2 * j * eta_p)
        eta = eta + _ALPHA[j - 1] * np.cos(2 * j * xi_p) * np.sinh(2 * j * eta_p)

    easting = UTM_FALSE_EASTING + UTM_SCALE * _RECT_RADIUS * eta
    northing = UTM_SCALE * _RECT_RADIUS * xi
    northing = np.where(lat < 0.0, northing + UTM_FALSE_NORTHING_SOUTH, northing)
    outside = ~((easting > 0.0) & (easting < 1_000_000.0))
    if outside.any():
        k = int(np.argmax(outside))
        raise OutOfDomain(f"easting {float(easting[k])} outside (0, 1e6) in zone {zone}")
    return easting, northing


def _tau_from_taup(taup):
    """Invert the conformal-latitude tangent by Newton iteration."""
    e2m = 1.0 - E2
    tau = taup / e2m
    for _ in range(6):
        sigma = np.sinh(_E * np.arctanh(_E * tau / np.sqrt(1.0 + tau * tau)))
        taupa = tau * np.sqrt(1.0 + sigma * sigma) - sigma * np.sqrt(1.0 + tau * tau)
        tau = tau + (taup - taupa) * (1.0 + e2m * (tau * tau)) / (
            e2m * np.sqrt(1.0 + tau * tau) * np.sqrt(1.0 + taupa * taupa))
    return tau


def _geodetic_rows(easting, northing, zone: int, northern: bool):
    """Checked inverse Gauss-Krueger of easting/northing arrays: latitude
    and longitude arrays, neither clamped nor wrapped.

    Raises OutOfDomain for the first row more than 1200 km from the central
    meridian or whose latitude lands at or beyond 84 deg.
    """
    far = np.abs(easting - UTM_FALSE_EASTING) > 1_200_000.0
    northing = np.where(northern, northing, northing - UTM_FALSE_NORTHING_SOUTH)

    xi = northing / (UTM_SCALE * _RECT_RADIUS)
    eta = (easting - UTM_FALSE_EASTING) / (UTM_SCALE * _RECT_RADIUS)

    xi_p = xi.copy()
    eta_p = eta.copy()
    for j in range(1, 7):
        xi_p = xi_p - _BETA[j - 1] * np.sin(2 * j * xi) * np.cosh(2 * j * eta)
        eta_p = eta_p - _BETA[j - 1] * np.cos(2 * j * xi) * np.sinh(2 * j * eta)

    sinh_eta, cos_xi = np.sinh(eta_p), np.cos(xi_p)
    taup = np.sin(xi_p) / np.sqrt(sinh_eta * sinh_eta + cos_xi * cos_xi)
    lat = np.arctan(_tau_from_taup(taup))
    lon = _central_meridian(zone) + np.arctan2(np.sinh(eta_p), np.cos(xi_p))

    bad = far | (np.abs(lat) >= UTM_LAT_LIMIT_RAD)
    if bad.any():
        k = int(np.argmax(bad))
        if far[k]:
            raise OutOfDomain(f"easting {float(easting[k])} too far from the "
                              "central meridian")
        raise OutOfDomain("inverse projection left the UTM latitude domain")
    return lat, lon


def geodetic_to_utm(g: GeodeticCoord, zone: int) -> UtmCoord:
    easting, northing = _utm_rows(np.array([g.lat]), np.array([g.lon]), zone)
    hemisphere = "north" if g.lat >= 0.0 else "south"
    return UtmCoord(float(easting[0]), float(northing[0]), g.h, zone, hemisphere)


def utm_to_geodetic(u: UtmCoord) -> GeodeticCoord:
    lat, lon = GeodeticCoord.normalize(*_geodetic_rows(
        np.array([u.easting]), np.array([u.northing]), u.zone, u.hemisphere == "north"))
    return GeodeticCoord.from_normalized(lat[0], lon[0], u.height)


# ---------------------------------------------------------------------------
# frame-conversion context shared by matching / reporting / synthesis


@dataclass(frozen=True)
class GeoContext:
    """The ENU origin and UTM zone of one evaluation run."""

    origin: GeodeticCoord
    zone: int
    hemisphere: str = "north"

    def enu_to_utm(self, p) -> UtmCoord:
        """One ENU point ``(e, n, u)``: a one-row call of ``enu_to_utm_coords``."""
        return self.enu_to_utm_coords(np.array([p], dtype=float))[0]

    def enu_to_geodetic_rows(self, pts: np.ndarray):
        """Each row of an (N, 3) ENU array to latitude, longitude and height
        arrays."""
        pts = np.asarray(pts, dtype=float)
        x0, y0, z0 = _ecef_from_geodetic_arrays(self.origin.lat, self.origin.lon,
                                                self.origin.h)
        # Row by row as (1, 3) @ (3, 3): one (N, 3) product may round otherwise.
        ecef = (pts[:, None, :] @ _enu_rotation(self.origin))[:, 0, :] + np.array([x0, y0, z0])
        lat, lon, h = _geodetic_from_ecef_arrays(ecef[:, 0], ecef[:, 1], ecef[:, 2])
        return (*GeodeticCoord.normalize(lat, lon), h)

    def _enu_to_utm_arrays(self, pts):
        """Easting, northing, height and latitude of (N, 3) ENU points."""
        lat, lon, h = self.enu_to_geodetic_rows(pts)
        easting, northing = _utm_rows(lat, lon, self.zone)
        return easting, northing, h, lat

    def enu_to_utm_batch(self, pts: np.ndarray) -> np.ndarray:
        """(N, 3) ENU -> (N, 3) easting/northing/height."""
        easting, northing, h, _ = self._enu_to_utm_arrays(pts)
        return np.stack([easting, northing, h], axis=-1)

    def enu_to_utm_coords(self, pts: np.ndarray) -> list[UtmCoord]:
        """Each row of an (N, 3) ENU array as a ``UtmCoord``, hemisphere
        from the row's latitude.

        Raises OutOfDomain for the first row outside the UTM domain.
        """
        easting, northing, h, lat = self._enu_to_utm_arrays(pts)
        return [UtmCoord(e, n, u, self.zone, "north" if la >= 0.0 else "south")
                for e, n, u, la in zip(easting.tolist(), northing.tolist(),
                                       h.tolist(), lat.tolist())]

    def utm_to_geodetic_rows(self, pts: np.ndarray):
        """Each row of (N, 3) easting/northing/height in this zone and
        hemisphere to latitude, longitude and height arrays.

        Raises OutOfDomain for the first row outside the UTM domain.
        """
        pts = np.asarray(pts, dtype=float)
        lat, lon = _geodetic_rows(pts[:, 0], pts[:, 1], self.zone,
                                  self.hemisphere == "north")
        return (*GeodeticCoord.normalize(lat, lon), pts[:, 2])

    def _ecef_delta(self, lat, lon, h):
        """(N, 3) ECEF offsets of geodetic points from the origin."""
        x0, y0, z0 = _ecef_from_geodetic_arrays(self.origin.lat, self.origin.lon,
                                                self.origin.h)
        x, y, z = _ecef_from_geodetic_arrays(lat, lon, h)
        return np.stack([x - x0, y - y0, z - z0], axis=-1)

    def utm_to_enu_rows(self, pts: np.ndarray) -> np.ndarray:
        """Each row of (N, 3) easting/northing/height to ENU, row by row as
        (1, 3) @ (3, 3).

        Raises OutOfDomain for the first row outside the UTM domain.
        """
        delta = self._ecef_delta(*self.utm_to_geodetic_rows(pts))
        return (delta[:, None, :] @ _enu_rotation(self.origin).T)[:, 0, :]

    def geodetic_to_enu_batch(self, lat, lon, h) -> np.ndarray:
        """Latitude, longitude (radians) and height arrays -> (N, 3) ENU, as
        one (N, 3) @ (3, 3) product (a C-ordered right operand, which numpy
        hands to BLAS)."""
        return self._ecef_delta(lat, lon, h) @ np.ascontiguousarray(
            _enu_rotation(self.origin).T)

    def utm_to_enu_batch(self, pts: np.ndarray) -> np.ndarray:
        """(N, 3) easting/northing/height -> (N, 3) ENU, as one (N, 3) @ (3, 3)
        product and without wrapping the longitude.

        Raises OutOfDomain for the first row outside the UTM domain.
        """
        pts = np.asarray(pts, dtype=float)
        lat, lon = _geodetic_rows(pts[:, 0], pts[:, 1], self.zone,
                                  self.hemisphere == "north")
        return self.geodetic_to_enu_batch(lat, lon, pts[:, 2])
