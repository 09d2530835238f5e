"""Run configuration: one JSON document describing an evaluation run.

Example:

    {
      "sequence_id": "hall-seq2",
      "zone": 32,
      "hemisphere": "north",
      "checkpoints": "checkpoints.csv",
      "rtk_log": "rtk.csv",
      "methods": [
        {"label": "slam-online", "trajectory": "online.tum"},
        {"label": "slam-offline", "trajectory": "offline.tum"}
      ],
      "calibration": {
        "t_imu_to_base": [-0.073, -0.023, -0.172],
        "t_imu_to_antenna": [0.023, -0.023, 0.090]
      },
      "thresholds": {
        "stationary_radius": 0.05, "min_dwell": 5.0,
        "gate_radius": 1.0, "eps0": 0.02
      },
      "visit_table": null,
      "table_method": null,
      "include_rtk_method": false,
      "output_dir": "out"
    }

Relative paths resolve against the config file's directory. ``table_method``
names the method whose trajectory builds the shared visit table (default: the
first method); ``visit_table`` imports a previously exported table instead.
``include_rtk_method`` adds the RTK receiver itself as an evaluated method,
reconstructing the base center from the antenna under the assumption that the
pole is vertical while the device rests on a checkpoint.

The machine-readable schema ships as ``schemas/run_config.schema.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .drift import DEFAULT_EPS0
from .errors import ConfigError
from .matching import DEFAULT_GATE_RADIUS, DEFAULT_MIN_DWELL, DEFAULT_STATIONARY_RADIUS
from .trajectory_io import DeviceCalibration


@dataclass(frozen=True)
class Thresholds:
    stationary_radius: float = DEFAULT_STATIONARY_RADIUS
    min_dwell: float = DEFAULT_MIN_DWELL
    gate_radius: float = DEFAULT_GATE_RADIUS
    eps0: float = DEFAULT_EPS0

    def __post_init__(self):
        for name in ("stationary_radius", "min_dwell", "gate_radius", "eps0"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not v > 0:
                raise ConfigError(f"threshold {name} must be positive, got {v!r}")


@dataclass(frozen=True)
class MethodSpec:
    label: str
    trajectory: Path


@dataclass(eq=False)
class RunConfig:
    sequence_id: str
    zone: int
    hemisphere: str
    checkpoints: Path
    rtk_log: Path
    methods: list[MethodSpec]
    calibration: DeviceCalibration
    thresholds: Thresholds = field(default_factory=Thresholds)
    visit_table: Optional[Path] = None
    table_method: Optional[str] = None
    include_rtk_method: bool = False
    output_dir: Path = Path("out")
    raw: dict = field(default_factory=dict)

    @property
    def table_label(self) -> str:
        """Label of the method whose dwells build the visit table."""
        return self.table_method or self.methods[0].label

    def config_bytes(self) -> bytes:
        """Canonical serialization, hashed into report provenance."""
        return (json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
                .encode("utf-8"))


def _require(doc: dict, key: str, kind, what: str):
    if key not in doc:
        raise ConfigError(f"config is missing {key!r}")
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{key!r} must be a {what}")
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{key!r} must be a {what}")
    return value


def load_run_config(path: Path | str) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    base = path.parent
    return parse_run_config(doc, base)


def parse_run_config(doc: dict, base: Path) -> RunConfig:
    sequence_id = _require(doc, "sequence_id", str, "string")
    zone = _require(doc, "zone", int, "integer")
    if not 1 <= zone <= 60:
        raise ConfigError(f"zone {zone} outside 1..60")
    hemisphere = _require(doc, "hemisphere", str, "string")
    if hemisphere not in ("north", "south"):
        raise ConfigError("hemisphere must be 'north' or 'south'")

    def resolve(rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else base / p

    checkpoints = resolve(_require(doc, "checkpoints", str, "path"))
    rtk_log = resolve(_require(doc, "rtk_log", str, "path"))

    methods_doc = _require(doc, "methods", list, "list")
    if not methods_doc:
        raise ConfigError("at least one method is required")
    methods = []
    labels = set()
    for m in methods_doc:
        if not isinstance(m, dict) or "label" not in m or "trajectory" not in m:
            raise ConfigError("each method needs 'label' and 'trajectory'")
        label = str(m["label"])
        if label in labels:
            raise ConfigError(f"duplicate method label {label!r}")
        labels.add(label)
        methods.append(MethodSpec(label, resolve(str(m["trajectory"]))))

    calib_doc = _require(doc, "calibration", dict, "object")
    try:
        calibration = DeviceCalibration.from_dict(calib_doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad calibration: {exc}") from None

    thresholds_doc = doc.get("thresholds", {})
    if not isinstance(thresholds_doc, dict):
        raise ConfigError("'thresholds' must be an object")
    try:
        thresholds = Thresholds(**{k: float(v) for k, v in thresholds_doc.items()})
    except TypeError as exc:
        raise ConfigError(f"bad thresholds: {exc}") from None

    visit_table = doc.get("visit_table")
    table_method = doc.get("table_method")
    if table_method is not None and table_method not in labels:
        raise ConfigError(f"table_method {table_method!r} is not an evaluated method")
    include_rtk = bool(doc.get("include_rtk_method", False))
    output_dir = resolve(str(doc.get("output_dir", "out")))

    for p, what in [(checkpoints, "checkpoints"), (rtk_log, "rtk_log")] + \
                   [(m.trajectory, f"trajectory of {m.label}") for m in methods]:
        if not p.is_file():
            raise ConfigError(f"{what} file does not exist: {p}")
    if visit_table is not None:
        visit_table = resolve(str(visit_table))
        if not visit_table.is_file():
            raise ConfigError(f"visit_table file does not exist: {visit_table}")

    return RunConfig(sequence_id, zone, hemisphere, checkpoints, rtk_log,
                     methods, calibration, thresholds, visit_table,
                     table_method, include_rtk, output_dir, raw=doc)
