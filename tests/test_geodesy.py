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
    B,
    E2,
    EcefCoord,
    GeoContext,
    GeodeticCoord,
    UtmCoord,
    ecef_to_geodetic,
    geodetic_to_ecef,
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
    ctx = GeoContext(GeodeticCoord.from_degrees(48.78, 9.18, 300.0), 32)
    p = np.array([[e, n, u]])
    p2 = ctx.geodetic_to_enu_batch(*ctx.enu_to_geodetic_rows(p))
    # Absolute bound set by the ECEF->geodetic iteration tolerance.
    assert math.dist(p[0], p2[0]) <= 1e-8


@given(e1=enu_coord, n1=enu_coord, e2=enu_coord, n2=enu_coord,
       u1=st.floats(min_value=-500.0, max_value=500.0),
       u2=st.floats(min_value=-500.0, max_value=500.0))
@settings(max_examples=200, deadline=None)
def test_enu_is_isometric_with_ecef(e1, n1, u1, e2, n2, u2):
    """The tangent frame is a rigid transform of ECEF: distances match."""
    ctx = GeoContext(GeodeticCoord.from_degrees(-20.0, 57.5, 120.0), 40, "south")
    pa, pb = (e1, n1, u1), (e2, n2, u2)
    lat, lon, h = ctx.enu_to_geodetic_rows(np.array([pa, pb]))
    ea, eb = (geodetic_to_ecef(GeodeticCoord.from_normalized(lat[k], lon[k], h[k]))
              for k in (0, 1))
    d_enu = math.dist(pa, pb)
    d_ecef = math.dist((ea.x, ea.y, ea.z), (eb.x, eb.y, eb.z))
    # Each row runs the iterative ECEF->geodetic inverse, so both endpoints
    # carry its absolute tolerance (1e-8, as in the round-trip test) on top
    # of the exact rotation.
    assert abs(d_enu - d_ecef) <= 1e-8 + 1e-9 * d_enu


def test_enu_origin_maps_to_zero():
    origin = GeodeticCoord.from_degrees(48.78, 9.18, 300.0)
    ctx = GeoContext(origin, 32)
    p = ctx.geodetic_to_enu_batch(np.array([origin.lat]), np.array([origin.lon]),
                                  np.array([origin.h]))
    assert math.hypot(*p[0]) < 1e-9
    utm = geodetic_to_utm(origin, 32)
    p = ctx.utm_to_enu_rows(np.array([[utm.easting, utm.northing, utm.height]]))
    assert math.hypot(*p[0]) < 1e-9


def test_enu_axes_point_where_named():
    origin = GeodeticCoord.from_degrees(47.0, 9.0, 0.0)
    lat, lon, h = GeoContext(origin, 32).enu_to_geodetic_rows(
        np.array([[0.0, 100.0, 0.0], [100.0, 0.0, 0.0], [0.0, 0.0, 100.0]]))
    north, east, up = 0, 1, 2
    assert lat[north] > origin.lat
    assert abs(lon[north] - origin.lon) < 1e-9
    assert lon[east] > origin.lon
    assert abs(h[up] - 100.0) < 1e-6
    assert abs(lat[up] - origin.lat) < 1e-12


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
    ctx = GeoContext(GeodeticCoord.from_degrees(48.78, 9.18, 300.0), zone=32)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2000.0, 2000.0, size=(40, 3))
    batch = ctx.enu_to_utm_batch(pts)
    for row, p in zip(batch, pts):
        u = ctx.enu_to_utm(p)
        assert math.dist(row, (u.easting, u.northing, u.height)) < 1e-9
    back = ctx.utm_to_enu_batch(batch)
    assert np.max(np.linalg.norm(back - pts, axis=1)) < 1e-8


def test_grs80_derived_quantities():
    assert abs(B - 6356752.314140356) < 1e-6
    assert abs(E2 - 0.006694380022900787) < 1e-17


# (lat deg, lon deg, h, zone, hemisphere): northern hemisphere; southern
# hemisphere close enough to the equator that 5 km reach both sides; 3 deg
# east of the zone 32 central meridian.
_BATCH_SITES = [(48.78, 9.18, 300.0, 32, "north"),
                (-0.02, 21.0, 50.0, 34, "south"),
                (47.5, 12.0, 500.0, 32, "north")]


def _site_ctx(site):
    lat, lon, h, zone, hemisphere = site
    return GeoContext(GeodeticCoord.from_degrees(lat, lon, h), zone, hemisphere)


@pytest.mark.parametrize("site", _BATCH_SITES)
def test_batch_enu_to_utm_equals_scalar_bit_for_bit(site):
    """Every row of one batch equals the scalar ``enu_to_utm``, a one-row
    call, of that point, hemisphere included, at offsets from millimetres to
    5 km."""
    ctx = _site_ctx(site)
    rng = np.random.default_rng(2024)
    scale = 10.0 ** rng.uniform(-3.0, math.log10(5000.0), size=(500, 1))
    pts = rng.uniform(-1.0, 1.0, size=(500, 3)) * scale
    got = ctx.enu_to_utm_coords(pts)
    assert got == [ctx.enu_to_utm(p) for p in pts]
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
    off_zone = GeoContext(GeodeticCoord.from_degrees(48.0, 14.0, 0.0), 32)
    with caplog.at_level("WARNING", logger="geotraj.geodesy"):
        off_zone.enu_to_utm_coords(np.zeros((50, 3)))
    assert sum("central meridian" in rec.message for rec in caplog.records) == 1
    ctx = _site_ctx(_BATCH_SITES[0])
    with pytest.raises(OutOfDomain, match="more than 10 deg"):
        ctx.enu_to_utm_coords(np.array([[0.0, 0.0, 0.0], [900e3, 0.0, 0.0]]))
    polar = GeoContext(GeodeticCoord.from_degrees(84.5, 9.0, 0.0), 32)
    with pytest.raises(OutOfDomain, match="latitude"):
        polar.enu_to_utm_batch(np.zeros((2, 3)))


def _rows(out) -> np.ndarray:
    """(N, 3) array of a row method's result, columns stacked if a tuple."""
    return np.column_stack(out) if isinstance(out, tuple) else out


@given(seed=st.integers(0, 2**32 - 1), zone=st.sampled_from([1, 2, 59, 60]),
       south=st.booleans(), lat=st.floats(0.5, 80.0), reach=st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_row_methods_equal_scalar_bit_for_bit(seed, zone, south, lat, reach):
    """Row k of a mixed N-row batch equals the one-row call on that point,
    bit for bit, for every row method and for the scalar API, in zones on
    both sides of +-180 deg, either hemisphere and up to 8 deg from the
    central meridian (at most ~450 km east or west). Offsets from 1 mm to
    10 km mix rows whose ECEF iteration stops at different steps."""
    hemisphere = "south" if south else "north"
    lon = 6 * zone - 183 + reach * min(8.0, 4.0 / math.cos(math.radians(lat)))
    ctx = GeoContext(GeodeticCoord.from_degrees(-lat if south else lat, lon, 120.0),
                     zone, hemisphere)
    base = geodetic_to_utm(ctx.origin, zone)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 4.0, size=(30, 1))
    pts = np.array([base.easting, base.northing, base.height]) + \
        rng.uniform(-1.0, 1.0, size=(30, 3)) * scale
    enu = ctx.utm_to_enu_rows(pts)
    for method, batch in ((ctx.utm_to_geodetic_rows, pts), (ctx.utm_to_enu_rows, pts),
                          (ctx.enu_to_geodetic_rows, enu), (ctx.enu_to_utm_batch, enu)):
        whole = _rows(method(batch))
        for k in range(len(batch)):
            assert _rows(method(batch[k:k + 1])).tobytes() == whole[k:k + 1].tobytes()

    geodetic = _rows(ctx.utm_to_geodetic_rows(pts))
    coords = ctx.enu_to_utm_coords(enu)
    for k, p in enumerate(pts.tolist()):
        assert utm_to_geodetic(UtmCoord(*p, zone, hemisphere)) == \
            GeodeticCoord.from_normalized(*geodetic[k])
        assert ctx.enu_to_utm(enu[k]) == coords[k]
        g = GeodeticCoord.from_normalized(*_rows(ctx.enu_to_geodetic_rows(enu[k:k + 1]))[0])
        assert geodetic_to_utm(g, zone) == coords[k]


def test_easting_outside_the_zone_is_out_of_domain():
    """6 deg east of the zone 32 meridian near the equator lies within the
    10 deg bound but projects beyond an easting of 1e6."""
    g = GeodeticCoord.from_degrees(1.0, 15.0, 0.0)
    with pytest.raises(OutOfDomain, match=r"easting 11687\d\d\.\d+ outside \(0, 1e6\) "
                                          "in zone 32"):
        geodetic_to_utm(g, 32)
    assert 0.0 < geodetic_to_utm(g, 33).easting < 1e6
    ctx = GeoContext(g, 32)
    with pytest.raises(OutOfDomain, match="in zone 32"):
        ctx.enu_to_utm_coords(np.zeros((3, 3)))


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
    ctx = GeoContext(GeodeticCoord.from_degrees(54.57, -172.68, 0.0), 1)
    pt = (779501.9514026438, 6055716.75, 0.0)
    lat, lon, h = ctx.utm_to_geodetic_rows(np.array([pt, pt]))
    g = utm_to_geodetic(UtmCoord(*pt, 1))
    assert (lat.tolist(), lon.tolist(), h.tolist()) == ([g.lat] * 2, [g.lon] * 2, [g.h] * 2)
