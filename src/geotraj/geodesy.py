"""Coordinate transformations among geodetic, ECEF, local ENU, and UTM frames.

Angles are radians internally; file interfaces use degrees. Heights are
ellipsoidal end to end (no geoid model). The default ellipsoid is GRS80.
The map projection is Gauss-Krueger / UTM computed with series in the third
flattening to 6th order, which is far below a millimeter anywhere a UTM zone
is meant to be used.

All functions are pure; the scalar API wraps vectorized cores (the ``*_arrays``
helpers) that the synthetic generator and report rendering use on whole
tracks. The cores square and cube by multiplying: on a numpy scalar ``**``
calls libm ``pow``, which can round differently from ``x * x`` and from the
array loops, so one point would not get the bits it gets in a batch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonConvergence, OutOfDomain

log = logging.getLogger(__name__)

UTM_SCALE = 0.9996
UTM_FALSE_EASTING = 500_000.0
UTM_FALSE_NORTHING_SOUTH = 10_000_000.0

# Hard pre-condition / warning bounds on distance from the central meridian.
MERIDIAN_WARN_RAD = math.radians(3.5)
MERIDIAN_LIMIT_RAD = math.radians(10.0)
UTM_LAT_LIMIT_RAD = math.radians(84.0)


@dataclass(frozen=True)
class Ellipsoid:
    """Reference ellipsoid given by semi-major axis and flattening."""

    a: float
    f: float

    def __post_init__(self):
        if not (self.a > 0 and 0 < self.f < 1):
            raise ValueError(f"invalid ellipsoid a={self.a} f={self.f}")

    @property
    def b(self) -> float:
        return self.a * (1.0 - self.f)

    @property
    def e2(self) -> float:
        """First eccentricity squared."""
        return self.f * (2.0 - self.f)

    @property
    def ep2(self) -> float:
        """Second eccentricity squared."""
        return self.e2 / (1.0 - self.e2)

    @property
    def n3(self) -> float:
        """Third flattening."""
        return self.f / (2.0 - self.f)


#: ETRS89 is realized on GRS80.
GRS80 = Ellipsoid(a=6378137.0, f=1.0 / 298.257222101)


def _wrap_longitude(lon):
    """Normalize to (-pi, pi], elementwise on arrays."""
    wrapped = np.fmod(lon + math.pi, 2.0 * math.pi)
    return np.where(wrapped <= 0.0, wrapped + 2.0 * math.pi, wrapped) - math.pi


@dataclass(frozen=True)
class GeodeticCoord:
    """Latitude/longitude in radians, ellipsoidal height in meters."""

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
class EnuCoord:
    """East/north/up meters relative to an :class:`EnuOrigin`."""

    e: float
    n: float
    u: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.e, self.n, self.u))):
            raise ValueError("non-finite ENU coordinate")


@dataclass(frozen=True)
class EnuOrigin:
    origin: GeodeticCoord


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


def _ecef_from_geodetic_arrays(lat, lon, h, ell: Ellipsoid):
    sin_lat = np.sin(lat)
    cos_lat = np.cos(lat)
    nu = ell.a / np.sqrt(1.0 - ell.e2 * (sin_lat * sin_lat))
    x = (nu + h) * cos_lat * np.cos(lon)
    y = (nu + h) * cos_lat * np.sin(lon)
    z = (nu * (1.0 - ell.e2) + h) * sin_lat
    return x, y, z


def geodetic_to_ecef(g: GeodeticCoord, ell: Ellipsoid = GRS80) -> EcefCoord:
    x, y, z = _ecef_from_geodetic_arrays(g.lat, g.lon, g.h, ell)
    return EcefCoord(float(x), float(y), float(z))


_ECEF_MAX_ITER = 20
_ECEF_LAT_TOL = 1e-12
_ECEF_H_TOL = 1e-6


def _geodetic_from_ecef_arrays(x, y, z, ell: Ellipsoid):
    """Vectorized Bowring-seeded fixed point; raises NonConvergence."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    p = np.hypot(x, y)
    lon = np.arctan2(y, x)

    if np.any(np.hypot(p, z) < 1.0):
        raise NonConvergence("point too close to the geocenter")

    # Bowring's parametric-latitude seed.
    u = np.arctan2(z * ell.a, p * ell.b)
    sin_u = np.sin(u)
    cos_u = np.cos(u)
    lat = np.arctan2(z + ell.ep2 * ell.b * (sin_u * sin_u * sin_u),
                     p - ell.e2 * ell.a * (cos_u * cos_u * cos_u))
    h = np.zeros_like(lat)
    active = np.ones(np.shape(lat), dtype=bool)
    for _ in range(_ECEF_MAX_ITER):
        sin_lat = np.sin(lat)
        cos_lat = np.cos(lat)
        nu = ell.a / np.sqrt(1.0 - ell.e2 * (sin_lat * sin_lat))
        # Height from the dominant trigonometric branch (stable at the poles).
        h_new = np.where(np.abs(cos_lat) > 1e-10,
                         p / np.where(np.abs(cos_lat) > 1e-10, cos_lat, 1.0) - nu,
                         z / np.where(np.abs(sin_lat) > 1e-10, sin_lat, 1.0)
                         - nu * (1.0 - ell.e2))
        lat_new = np.arctan2(z, p * (1.0 - ell.e2 * nu / (nu + h_new)))
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


def ecef_to_geodetic(pt: EcefCoord, ell: Ellipsoid = GRS80) -> GeodeticCoord:
    lat, lon, h = _geodetic_from_ecef_arrays(pt.x, pt.y, pt.z, ell)
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


def _geodetic_from_enu_arrays(enu, origin: EnuOrigin, ell: Ellipsoid):
    """enu: (..., 3) array -> (lat, lon, h) arrays."""
    enu = np.asarray(enu, dtype=float)
    rot = _enu_rotation(origin.origin)
    x0, y0, z0 = _ecef_from_geodetic_arrays(
        origin.origin.lat, origin.origin.lon, origin.origin.h, ell)
    # Row by row as (1, 3) @ (3, 3): one (N, 3) product may round otherwise.
    ecef = (enu[..., None, :] @ rot)[..., 0, :] + np.array([x0, y0, z0])
    return _geodetic_from_ecef_arrays(ecef[..., 0], ecef[..., 1], ecef[..., 2], ell)


def _ecef_delta(lat, lon, h, origin: EnuOrigin, ell: Ellipsoid):
    """(..., 3) ECEF offsets of geodetic points from the origin."""
    x0, y0, z0 = _ecef_from_geodetic_arrays(
        origin.origin.lat, origin.origin.lon, origin.origin.h, ell)
    x, y, z = _ecef_from_geodetic_arrays(lat, lon, h, ell)
    return np.stack([x - x0, y - y0, z - z0], axis=-1)


def _enu_from_geodetic_arrays(lat, lon, h, origin: EnuOrigin, ell: Ellipsoid):
    return _ecef_delta(lat, lon, h, origin, ell) @ _enu_rotation(origin.origin).T


def enu_to_geodetic(p: EnuCoord, origin: EnuOrigin, ell: Ellipsoid = GRS80) -> GeodeticCoord:
    lat, lon, h = _geodetic_from_enu_arrays(np.array([p.e, p.n, p.u]), origin, ell)
    return GeodeticCoord(float(lat), float(lon), float(h))


def geodetic_to_enu(g: GeodeticCoord, origin: EnuOrigin, ell: Ellipsoid = GRS80) -> EnuCoord:
    enu = _enu_from_geodetic_arrays(g.lat, g.lon, g.h, origin, ell)
    return EnuCoord(float(enu[..., 0]), float(enu[..., 1]), float(enu[..., 2]))


# ---------------------------------------------------------------------------
# transverse Mercator (UTM)


@lru_cache(maxsize=8)
def _tm_coefficients(a: float, f: float):
    """Series coefficients in the third flattening, 6th order.

    Returns (rectifying_radius, alpha[1..6], beta[1..6]).
    """
    n = f / (2.0 - f)
    n2, n3, n4, n5, n6 = n * n, n ** 3, n ** 4, n ** 5, n ** 6
    rect_radius = a / (1.0 + n) * (1.0 + n2 / 4.0 + n4 / 64.0 + n6 / 256.0)
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


def _utm_from_geodetic_arrays(lat, lon, zone: int, ell: Ellipsoid):
    """Forward Gauss-Krueger; no domain checks (callers guard)."""
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    rect_radius, alpha, _ = _tm_coefficients(ell.a, ell.f)
    e = math.sqrt(ell.e2)
    dlam = np.arctan2(np.sin(lon - _central_meridian(zone)),
                      np.cos(lon - _central_meridian(zone)))

    tau = np.tan(lat)
    sigma = np.sinh(e * np.arctanh(e * tau / np.sqrt(1.0 + tau * tau)))
    taup = tau * np.sqrt(1.0 + sigma * sigma) - sigma * np.sqrt(1.0 + tau * tau)

    xi_p = np.arctan2(taup, np.cos(dlam))
    eta_p = np.arcsinh(np.sin(dlam) / np.hypot(taup, np.cos(dlam)))

    xi = xi_p.copy()
    eta = eta_p.copy()
    for j in range(1, 7):
        xi = xi + alpha[j - 1] * np.sin(2 * j * xi_p) * np.cosh(2 * j * eta_p)
        eta = eta + alpha[j - 1] * np.cos(2 * j * xi_p) * np.sinh(2 * j * eta_p)

    easting = UTM_FALSE_EASTING + UTM_SCALE * rect_radius * eta
    northing = UTM_SCALE * rect_radius * xi
    northing = np.where(lat < 0.0, northing + UTM_FALSE_NORTHING_SOUTH, northing)
    return easting, northing


def _tau_from_taup(taup, e2: float):
    """Invert the conformal-latitude tangent by Newton iteration."""
    e = math.sqrt(e2)
    e2m = 1.0 - e2
    tau = taup / e2m
    for _ in range(6):
        sigma = np.sinh(e * np.arctanh(e * tau / np.sqrt(1.0 + tau * tau)))
        taupa = tau * np.sqrt(1.0 + sigma * sigma) - sigma * np.sqrt(1.0 + tau * tau)
        tau = tau + (taup - taupa) * (1.0 + e2m * (tau * tau)) / (
            e2m * np.sqrt(1.0 + tau * tau) * np.sqrt(1.0 + taupa * taupa))
    return tau


def _geodetic_from_utm_arrays(easting, northing, zone: int, northern, ell: Ellipsoid):
    """Inverse Gauss-Krueger. ``northern`` is a bool or bool array."""
    easting = np.asarray(easting, dtype=float)
    northing = np.asarray(northing, dtype=float)
    rect_radius, _, beta = _tm_coefficients(ell.a, ell.f)
    northing = np.where(northern, northing, northing - UTM_FALSE_NORTHING_SOUTH)

    xi = northing / (UTM_SCALE * rect_radius)
    eta = (easting - UTM_FALSE_EASTING) / (UTM_SCALE * rect_radius)

    xi_p = xi.copy()
    eta_p = eta.copy()
    for j in range(1, 7):
        xi_p = xi_p - beta[j - 1] * np.sin(2 * j * xi) * np.cosh(2 * j * eta)
        eta_p = eta_p - beta[j - 1] * np.cos(2 * j * xi) * np.sinh(2 * j * eta)

    sinh_eta, cos_xi = np.sinh(eta_p), np.cos(xi_p)
    taup = np.sin(xi_p) / np.sqrt(sinh_eta * sinh_eta + cos_xi * cos_xi)
    lat = np.arctan(_tau_from_taup(taup, ell.e2))
    lon = _central_meridian(zone) + np.arctan2(np.sinh(eta_p), np.cos(xi_p))
    return lat, lon


def _check_utm_domain(lat, lon, zone: int) -> None:
    """Raise OutOfDomain for the first point outside the UTM domain; log one
    warning, for the farthest point, when any lies beyond 3.5 deg of the
    zone's central meridian."""
    lat = np.atleast_1d(lat)
    lon = np.atleast_1d(lon)
    dlam = np.abs(_wrap_longitude(lon - _central_meridian(zone)))
    polar = np.abs(lat) >= UTM_LAT_LIMIT_RAD
    bad = polar | (dlam > MERIDIAN_LIMIT_RAD)
    if bad.any():
        k = int(np.argmax(bad))
        if polar[k]:
            raise OutOfDomain(f"latitude {math.degrees(lat[k]):.3f} deg outside UTM "
                              "domain (|lat| < 84)")
        raise OutOfDomain(f"longitude {math.degrees(lon[k]):.3f} deg more than 10 deg "
                          f"from zone {zone} meridian")
    wide = dlam > MERIDIAN_WARN_RAD
    if wide.any():
        k = int(np.argmax(dlam))
        log.warning("%d point(s) lie more than 3.5 deg from the zone %d central "
                    "meridian, up to %.2f deg (longitude %.3f deg); projection error "
                    "grows quickly out of zone", int(wide.sum()), zone,
                    math.degrees(dlam[k]), math.degrees(lon[k]))


def geodetic_to_utm(g: GeodeticCoord, zone: int, ell: Ellipsoid = GRS80) -> UtmCoord:
    _check_utm_domain(g.lat, g.lon, zone)
    easting, northing = _utm_from_geodetic_arrays(g.lat, g.lon, zone, ell)
    hemisphere = "north" if g.lat >= 0.0 else "south"
    return UtmCoord(float(easting), float(northing), g.h, zone, hemisphere)


def utm_to_geodetic(u: UtmCoord, ell: Ellipsoid = GRS80) -> GeodeticCoord:
    if abs(u.easting - UTM_FALSE_EASTING) > 1_200_000.0:
        raise OutOfDomain(f"easting {u.easting} too far from the central meridian")
    lat, lon = _geodetic_from_utm_arrays(
        u.easting, u.northing, u.zone, u.hemisphere == "north", ell)
    if abs(lat) >= UTM_LAT_LIMIT_RAD:
        raise OutOfDomain("inverse projection left the UTM latitude domain")
    return GeodeticCoord(float(lat), float(lon), u.height)


# ---------------------------------------------------------------------------
# frame-conversion context shared by matching / reporting / synthesis


@dataclass(frozen=True)
class GeoContext:
    """Bundles the ENU origin and UTM zone of one evaluation run."""

    origin: EnuOrigin
    zone: int
    hemisphere: str = "north"
    ellipsoid: Ellipsoid = field(default=GRS80)

    def enu_to_utm(self, p: EnuCoord) -> UtmCoord:
        g = enu_to_geodetic(p, self.origin, self.ellipsoid)
        return geodetic_to_utm(g, self.zone, self.ellipsoid)

    def utm_to_enu(self, u: UtmCoord) -> EnuCoord:
        g = utm_to_geodetic(u, self.ellipsoid)
        return geodetic_to_enu(g, self.origin, self.ellipsoid)

    def enu_to_geodetic_rows(self, pts: np.ndarray):
        """``enu_to_geodetic`` of each row of an (N, 3) ENU array, in one
        batch: latitude, longitude and height arrays."""
        lat, lon, h = _geodetic_from_enu_arrays(pts, self.origin, self.ellipsoid)
        return (*GeodeticCoord.normalize(lat, lon), h)

    def _enu_to_utm_arrays(self, pts):
        """Easting, northing, height and latitude of (N, 3) ENU points, each
        row as ``enu_to_utm`` computes it for that point alone."""
        lat, lon, h = self.enu_to_geodetic_rows(pts)
        _check_utm_domain(lat, lon, self.zone)
        easting, northing = _utm_from_geodetic_arrays(lat, lon, self.zone, self.ellipsoid)
        return easting, northing, h, lat

    def enu_to_utm_batch(self, pts: np.ndarray) -> np.ndarray:
        """(N, 3) ENU -> (N, 3) easting/northing/height."""
        easting, northing, h, _ = self._enu_to_utm_arrays(pts)
        return np.stack([easting, northing, h], axis=-1)

    def enu_to_utm_coords(self, pts: np.ndarray) -> list[UtmCoord]:
        """``enu_to_utm`` of each row of an (N, 3) ENU array, in one batch.

        Raises OutOfDomain for the first row outside the UTM domain.
        """
        easting, northing, h, lat = self._enu_to_utm_arrays(pts)
        return [UtmCoord(e, n, u, self.zone, "north" if la >= 0.0 else "south")
                for e, n, u, la in zip(easting.tolist(), northing.tolist(),
                                       h.tolist(), lat.tolist())]

    def utm_to_geodetic_rows(self, pts: np.ndarray):
        """``utm_to_geodetic`` of each row of (N, 3) easting/northing/height
        in this zone and hemisphere, in one batch: latitude, longitude and
        height arrays.

        Raises OutOfDomain for the first row outside the UTM domain.
        """
        pts = np.asarray(pts, dtype=float)
        easting = pts[:, 0]
        far = np.abs(easting - UTM_FALSE_EASTING) > 1_200_000.0
        lat, lon = _geodetic_from_utm_arrays(easting, pts[:, 1], self.zone,
                                             self.hemisphere == "north", self.ellipsoid)
        bad = far | (np.abs(lat) >= UTM_LAT_LIMIT_RAD)
        if bad.any():
            k = int(np.argmax(bad))
            if far[k]:
                raise OutOfDomain(f"easting {float(easting[k])} too far from the "
                                  "central meridian")
            raise OutOfDomain("inverse projection left the UTM latitude domain")
        return (*GeodeticCoord.normalize(lat, lon), pts[:, 2])

    def utm_to_enu_rows(self, pts: np.ndarray) -> np.ndarray:
        """``utm_to_enu`` of each row of (N, 3) easting/northing/height, in
        one batch.

        Raises OutOfDomain for the first row outside the UTM domain.
        """
        delta = _ecef_delta(*self.utm_to_geodetic_rows(pts), self.origin, self.ellipsoid)
        # Row by row as (1, 3) @ (3, 3), as the scalar path multiplies.
        return (delta[:, None, :] @ _enu_rotation(self.origin.origin).T)[:, 0, :]

    def geodetic_to_enu_batch(self, lat, lon, h) -> np.ndarray:
        """Latitude, longitude (radians) and height arrays -> (N, 3) ENU, as
        one (N, 3) @ (3, 3) product."""
        return _enu_from_geodetic_arrays(lat, lon, h, self.origin, self.ellipsoid)

    def utm_to_enu_batch(self, pts: np.ndarray) -> np.ndarray:
        """(N, 3) easting/northing/height -> (N, 3) ENU."""
        pts = np.asarray(pts, dtype=float)
        lat, lon = _geodetic_from_utm_arrays(
            pts[..., 0], pts[..., 1], self.zone, self.hemisphere == "north",
            self.ellipsoid)
        return self.geodetic_to_enu_batch(lat, lon, pts[..., 2])
