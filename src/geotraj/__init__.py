"""geotraj: geodetic accuracy evaluation for RTK-anchored SLAM trajectories.

Measures how far estimated trajectories are from surveyed checkpoints in
absolute global coordinates (no SE(3) alignment), alongside the conventional
aligned ATE, and quantifies the gap between the two. Includes drift-vs-outage
analysis against an RTK log and a synthetic scenario generator with known
expected metrics.
"""

__version__ = "0.1.0"

from .alignment import RigidTransform, apply_transform, umeyama_align
from .drift import DriftFit, DriftSample, fit_drift, outage_coordinates
from .errors import GeotrajError
from .geodesy import (EcefCoord, GeoContext, GeodeticCoord, UtmCoord, ecef_to_geodetic,
                      geodetic_to_ecef, geodetic_to_utm, utm_to_geodetic)
from .lever_arm import BaseCenterTrack, apply_lever_arm
from .matching import (CheckpointVisit, DwellSegment, VisitTable, detect_dwells,
                       export_visit_table, import_visit_table, match_visits,
                       visits_from_table)
from .metrics import (AccuracySummary, absolute_rmse, aligned_rmse, alignment_gap,
                      summarize)
from .synth import Scenario, ScenarioSpec, expected_metrics, generate
from .trajectory_io import (Checkpoint, DeviceCalibration, GnssStatus, RtkLog,
                            Trajectory, first_rtk_fix, parse_checkpoints,
                            parse_rtk_log, parse_trajectory, write_checkpoints,
                            write_rtk_log, write_trajectory)
