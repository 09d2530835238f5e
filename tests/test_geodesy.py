"""Geodesy checks against independently computed fixtures plus round-trip laws.

Fixture values were produced by tests/oracles.py: closed-form ECEF at 50-digit
precision and an exact transverse Mercator evaluated by complex analytic
continuation of the meridian arc (no shared series with the implementation).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geotraj.errors import NonConvergence, OutOfDomain
from geotraj.geodesy import (
    GRS80,
    EcefCoord,
    EnuCoord,
    EnuOrigin,
    GeoContext,
    GeodeticCoord,
    UtmCoord,
    ecef_to_geodetic,
    enu_to_geodetic,
    geodetic_to_ecef,
    geodetic_to_enu,
    geodetic_to_utm,
    utm_to_geodetic,
)

# (lat_deg, lon_deg, h) -> oracle ECEF
ECEF_FIXTURES = [
    ((48.78, 9.18, 300.0),
     (4157130.9639913747, 671819.2006405438, 4774698.067404641)),
    ((0.0, 0.0, 0.0), (6378137.0, 0.0, 0.0)),
    ((90.0, 0.0, 0.0), (0.0, 0.0, 6356752.314140356)),
    ((-33.9, 151.2, 45.0),
     (-4643978.757979997, 2553048.926883906, -3537270.4463365623)),
]

# (lat_deg, lon_deg, zone) -> oracle (easting, northing)
UTM_FIXTURES = [
    ((48.78, 9.18, 32), (513223.5393526722, 5403015.518032496)),
    ((48.0, 12.0, 32), (723775.9153988118, 5320655.789069564)),
    ((0.0, 9.0, 32), (500000.0, 0.0)),
    ((60.0, 7.5, 32), (416338.25311737566, 6652359.681804846)),
]


@pytest.mark.parametrize("geodetic,expected", ECEF_FIXTURES)
def test_ecef_oracle_fixtures(geodetic, expected):
    got = geodetic_to_ecef(GeodeticCoord.from_degrees(*geodetic))
    err = math.dist((got.x, got.y, got.z), expected)
    assert err < 1e-6


@pytest.mark.parametrize("point,expected", UTM_FIXTURES)
def test_utm_oracle_fixtures(point, expected):
    lat, lon, zone = point
    got = geodetic_to_utm(GeodeticCoord.from_degrees(lat, lon, 0.0), zone)
    assert abs(got.easting - expected[0]) < 1e-6
    assert abs(got.northing - expected[1]) < 1e-6


def test_utm_inverse_oracle_fixture():
    g = utm_to_geodetic(UtmCoord(513223.5393526722, 5403015.518032496, 0.0, 32))
    assert abs(g.lat_deg - 48.78) < 1e-11
    assert abs(g.lon_deg - 9.18) < 1e-11


def test_southern_hemisphere_false_northing():
    g = GeodeticCoord.from_degrees(-33.9, 151.2, 0.0)
    u = geodetic_to_utm(g, 56)
    assert u.hemisphere == "south"
    assert 0.0 < u.northing < 10_000_000.0
    back = utm_to_geodetic(u)
    assert abs(back.lat_deg - -33.9) < 1e-11
    assert abs(back.lon_deg - 151.2) < 1e-11


geo_lat = st.floats(min_value=-89.9, max_value=89.9)
geo_lon = st.floats(min_value=-180.0, max_value=180.0)
geo_h = st.floats(min_value=-10_000.0, max_value=10_000.0)


@given(lat=geo_lat, lon=geo_lon, h=geo_h)
@settings(max_examples=300, deadline=None)
def test_ecef_round_trip(lat, lon, h):
    g = GeodeticCoord.from_degrees(lat, lon, h)
    e = geodetic_to_ecef(g)
    g2 = ecef_to_geodetic(e)
    e2 = geodetic_to_ecef(g2)
    assert math.dist((e.x, e.y, e.z), (e2.x, e2.y, e2.z)) < 1e-6


@given(lat=st.floats(min_value=-83.9, max_value=83.9),
       lon=st.floats(min_value=5.51, max_value=12.49),
       h=geo_h)
@settings(max_examples=300, deadline=None)
def test_utm_round_trip_in_zone(lat, lon, h):
    g = GeodeticCoord.from_degrees(lat, lon, h)
    u = geodetic_to_utm(g, 32)
    g2 = utm_to_geodetic(u)
    e1 = geodetic_to_ecef(g)
    e2 = geodetic_to_ecef(g2)
    assert math.dist((e1.x, e1.y, e1.z), (e2.x, e2.y, e2.z)) < 1e-6


@given(lat=st.floats(min_value=-83.9, max_value=83.9))
@settings(max_examples=200, deadline=None)
def test_central_meridian_maps_to_false_easting(lat):
    u = geodetic_to_utm(GeodeticCoord.from_degrees(lat, 9.0, 0.0), 32)
    assert abs(u.easting - 500_000.0) < 1e-4


enu_coord = st.floats(min_value=-5_000.0, max_value=5_000.0)


@given(e=enu_coord, n=enu_coord, u=st.floats(min_value=-500.0, max_value=500.0))
@settings(max_examples=200, deadline=None)
def test_enu_round_trip(e, n, u):
    origin = EnuOrigin(GeodeticCoord.from_degrees(48.78, 9.18, 300.0))
    p = EnuCoord(e, n, u)
    g = enu_to_geodetic(p, origin)
    p2 = geodetic_to_enu(g, origin)
    err = math.dist((p.e, p.n, p.u), (p2.e, p2.n, p2.u))
    # Absolute bound set by the ECEF->geodetic iteration tolerance.
    assert err <= 1e-8


@given(e1=enu_coord, n1=enu_coord, e2=enu_coord, n2=enu_coord,
       u1=st.floats(min_value=-500.0, max_value=500.0),
       u2=st.floats(min_value=-500.0, max_value=500.0))
@settings(max_examples=200, deadline=None)
def test_enu_is_isometric_with_ecef(e1, n1, u1, e2, n2, u2):
    """The tangent frame is a rigid transform of ECEF: distances match."""
    origin = EnuOrigin(GeodeticCoord.from_degrees(-20.0, 57.5, 120.0))
    pa, pb = EnuCoord(e1, n1, u1), EnuCoord(e2, n2, u2)
    ga, gb = enu_to_geodetic(pa, origin), enu_to_geodetic(pb, origin)
    ea, eb = geodetic_to_ecef(ga), geodetic_to_ecef(gb)
    d_enu = math.dist((pa.e, pa.n, pa.u), (pb.e, pb.n, pb.u))
    d_ecef = math.dist((ea.x, ea.y, ea.z), (eb.x, eb.y, eb.z))
    # Each enu_to_geodetic call runs the iterative ECEF->geodetic inverse,
    # so both endpoints carry its absolute tolerance (1e-8, as in the
    # round-trip test) on top of the exact rotation.
    assert abs(d_enu - d_ecef) <= 1e-8 + 1e-9 * d_enu


def test_enu_origin_maps_to_zero():
    origin = EnuOrigin(GeodeticCoord.from_degrees(48.78, 9.18, 300.0))
    p = geodetic_to_enu(origin.origin, origin)
    assert math.hypot(p.e, p.n, p.u) < 1e-9


def test_enu_axes_point_where_named():
    origin = EnuOrigin(GeodeticCoord.from_degrees(47.0, 9.0, 0.0))
    north = enu_to_geodetic(EnuCoord(0.0, 100.0, 0.0), origin)
    east = enu_to_geodetic(EnuCoord(100.0, 0.0, 0.0), origin)
    up = enu_to_geodetic(EnuCoord(0.0, 0.0, 100.0), origin)
    assert north.lat > origin.origin.lat
    assert abs(north.lon - origin.origin.lon) < 1e-9
    assert east.lon > origin.origin.lon
    assert abs(up.h - 100.0) < 1e-6
    assert abs(up.lat - origin.origin.lat) < 1e-12


def test_utm_rejects_polar_latitude():
    with pytest.raises(OutOfDomain):
        geodetic_to_utm(GeodeticCoord.from_degrees(85.0, 9.0, 0.0), 32)


def test_utm_rejects_far_out_of_zone():
    with pytest.raises(OutOfDomain):
        geodetic_to_utm(GeodeticCoord.from_degrees(48.0, 19.5, 0.0), 32)


def test_utm_warns_moderately_out_of_zone(caplog):
    with caplog.at_level("WARNING", logger="geotraj.geodesy"):
        geodetic_to_utm(GeodeticCoord.from_degrees(48.0, 14.0, 0.0), 32)
    assert any("central meridian" in rec.message for rec in caplog.records)


def test_ecef_near_geocenter_raises():
    with pytest.raises(NonConvergence):
        ecef_to_geodetic(EcefCoord(0.1, 0.1, 0.1))


def test_polar_ecef_round_trip():
    g = GeodeticCoord.from_degrees(90.0, 0.0, 50.0)
    e = geodetic_to_ecef(g)
    g2 = ecef_to_geodetic(e)
    assert abs(g2.lat_deg - 90.0) < 1e-9
    assert abs(g2.h - 50.0) < 1e-6


def test_longitude_wraps_into_principal_range():
    g = GeodeticCoord.from_degrees(10.0, 200.0, 0.0)
    assert abs(g.lon_deg - -160.0) < 1e-12


def test_invalid_coordinate_inputs_rejected():
    with pytest.raises(ValueError):
        GeodeticCoord.from_degrees(91.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GeodeticCoord(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        UtmCoord(500000.0, 0.0, 0.0, zone=0)
    with pytest.raises(ValueError):
        UtmCoord(500000.0, 0.0, 0.0, zone=32, hemisphere="equator")
    with pytest.raises(ValueError):
        UtmCoord(-1.0, 0.0, 0.0, zone=32)


def test_context_batch_matches_scalar():
    ctx = GeoContext(EnuOrigin(GeodeticCoord.from_degrees(48.78, 9.18, 300.0)), zone=32)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2000.0, 2000.0, size=(40, 3))
    batch = ctx.enu_to_utm_batch(pts)
    for row, p in zip(batch, pts):
        u = ctx.enu_to_utm(EnuCoord(*p))
        assert math.dist(row, (u.easting, u.northing, u.height)) < 1e-9
    back = ctx.utm_to_enu_batch(batch)
    assert np.max(np.linalg.norm(back - pts, axis=1)) < 1e-8


def test_grs80_derived_quantities():
    assert abs(GRS80.b - 6356752.314140356) < 1e-6
    assert abs(GRS80.e2 - 0.006694380022900787) < 1e-17


# (lat deg, lon deg, h, zone, hemisphere): northern hemisphere; southern
# hemisphere close enough to the equator that 5 km reach both sides; 3 deg
# east of the zone 32 central meridian.
_BATCH_SITES = [(48.78, 9.18, 300.0, 32, "north"),
                (-0.02, 21.0, 50.0, 34, "south"),
                (47.5, 12.0, 500.0, 32, "north")]


def _site_ctx(site):
    lat, lon, h, zone, hemisphere = site
    return GeoContext(EnuOrigin(GeodeticCoord.from_degrees(lat, lon, h)), zone,
                      hemisphere)


@pytest.mark.parametrize("site", _BATCH_SITES)
def test_batch_enu_to_utm_equals_scalar_bit_for_bit(site):
    """Every row of one batch equals the scalar conversion of that point,
    hemisphere included, at offsets from millimetres to 5 km."""
    ctx = _site_ctx(site)
    rng = np.random.default_rng(2024)
    scale = 10.0 ** rng.uniform(-3.0, math.log10(5000.0), size=(500, 1))
    pts = rng.uniform(-1.0, 1.0, size=(500, 3)) * scale
    got = ctx.enu_to_utm_coords(pts)
    assert got == [ctx.enu_to_utm(EnuCoord(*p)) for p in pts]
    assert ctx.enu_to_utm_batch(pts).tolist() == \
        [[u.easting, u.northing, u.height] for u in got]
    if site[0] < 0:
        assert {u.hemisphere for u in got} == {"north", "south"}


def test_batch_rows_keep_their_own_convergence_step():
    """Rows that converge after different numbers of iterations: a mixed
    batch equals each row converted alone."""
    ctx = _site_ctx(_BATCH_SITES[0])
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.0, 1.0, size=(400, 3)) * rng.choice([1e-3, 1.0, 5e3, 3e4],
                                                             size=(400, 1))
    batch = ctx.enu_to_utm_batch(pts)
    alone = np.vstack([ctx.enu_to_utm_batch(p[None]) for p in pts])
    assert batch.tobytes() == alone.tobytes()


def test_batch_domain_checks_once_per_call(caplog):
    off_zone = GeoContext(EnuOrigin(GeodeticCoord.from_degrees(48.0, 14.0, 0.0)), 32)
    with caplog.at_level("WARNING", logger="geotraj.geodesy"):
        off_zone.enu_to_utm_coords(np.zeros((50, 3)))
    assert sum("central meridian" in rec.message for rec in caplog.records) == 1
    ctx = _site_ctx(_BATCH_SITES[0])
    with pytest.raises(OutOfDomain, match="more than 10 deg"):
        ctx.enu_to_utm_coords(np.array([[0.0, 0.0, 0.0], [900e3, 0.0, 0.0]]))
    polar = GeoContext(EnuOrigin(GeodeticCoord.from_degrees(84.5, 9.0, 0.0)), 32)
    with pytest.raises(OutOfDomain, match="latitude"):
        polar.enu_to_utm_batch(np.zeros((2, 3)))


@given(seed=st.integers(0, 2**32 - 1), zone=st.sampled_from([1, 2, 32, 59, 60]),
       south=st.booleans(), lat=st.floats(0.5, 80.0), reach=st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_row_methods_equal_scalar_bit_for_bit(seed, zone, south, lat, reach):
    """UTM -> geodetic, UTM -> ENU and ENU -> geodetic: each row of a batch
    equals the scalar API on that point alone, in zones on both sides of
    +-180 deg, either hemisphere and up to 8 deg from the central meridian
    (at most ~450 km east or west)."""
    hemisphere = "south" if south else "north"
    lon = 6 * zone - 183 + reach * min(8.0, 4.0 / math.cos(math.radians(lat)))
    ctx = GeoContext(EnuOrigin(GeodeticCoord.from_degrees(-lat if south else lat, lon,
                                                          120.0)), zone, hemisphere)
    base = geodetic_to_utm(ctx.origin.origin, zone)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 4.0, size=(30, 1))
    pts = np.array([base.easting, base.northing, base.height]) + \
        rng.uniform(-1.0, 1.0, size=(30, 3)) * scale
    utms = [UtmCoord(*map(float, p), zone, hemisphere) for p in pts]

    def columns(coords):
        return [np.array([getattr(c, name) for c in coords]).tobytes()
                for name in ("lat", "lon", "h")]

    got = ctx.utm_to_geodetic_rows(pts)
    assert [c.tobytes() for c in got] == columns([utm_to_geodetic(u) for u in utms])
    enu = ctx.utm_to_enu_rows(pts)
    assert enu.tolist() == [[e.e, e.n, e.u] for e in map(ctx.utm_to_enu, utms)]
    got = ctx.enu_to_geodetic_rows(enu)
    assert [c.tobytes() for c in got] == columns(
        [enu_to_geodetic(EnuCoord(*p), ctx.origin) for p in enu.tolist()])


def test_utm_to_geodetic_rows_raises_for_the_first_row_outside():
    ctx = _site_ctx(_BATCH_SITES[0])
    north = geodetic_to_utm(GeodeticCoord.from_degrees(83.99, 9.0, 0.0), 32)
    pts = np.array([[500000.0, 5400000.0, 0.0],
                    [north.easting, north.northing + 3000.0, 0.0],
                    [1_800_000.0, 5400000.0, 0.0]])
    with pytest.raises(OutOfDomain, match="inverse projection left"):
        ctx.utm_to_geodetic_rows(pts)
    with pytest.raises(OutOfDomain, match="easting 1800000.0 too far"):
        ctx.utm_to_geodetic_rows(pts[[0, 2, 1]])


def test_rows_equal_scalar_where_pow_squares_misround():
    """A point where squaring a numpy scalar with ``**`` (libm ``pow``)
    rounded one ulp away from ``x * x``, and the scalar latitude differed
    from the batch one. The kernels multiply, so the two agree."""
    ctx = GeoContext(EnuOrigin(GeodeticCoord.from_degrees(54.57, -172.68, 0.0)), 1)
    pt = (779501.9514026438, 6055716.75, 0.0)
    lat, lon, h = ctx.utm_to_geodetic_rows(np.array([pt, pt]))
    g = utm_to_geodetic(UtmCoord(*pt, 1))
    assert (lat.tolist(), lon.tolist(), h.tolist()) == ([g.lat] * 2, [g.lon] * 2, [g.h] * 2)
