"""Pipeline configuration with flat key=value file support.

Every tunable of the recognizer lives here so that experiments are fully
described by (data, config, seed).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .dataio import read_text


_BOOLS = {"True": True, "true": True, "1": True, "False": False, "false": False, "0": False}
# by annotation, a string under `from __future__ import annotations`; each
# raises KeyError or ValueError on a value it cannot read
_PARSERS = {"bool": _BOOLS.__getitem__, "int": int, "float": float}
# the bounded keys: each value must pass the check; every float must be finite
_RANGES = {
    **dict.fromkeys(("hist_bins", "hmm_states", "hmm_max_iter", "lda_resample_third",
                     "jobs"), (lambda v: v >= 1, "at least 1")),
    **dict.fromkeys(("min_blob_area", "max_coast"), (lambda v: v >= 0, "at least 0")),
    **dict.fromkeys(("skin_alpha", "face_update_rate"), (lambda v: 0 <= v <= 1, "in [0, 1]")),
    "hmm_self_prob": (lambda v: 0 < v < 1, "in (0, 1)"),
    "variance_floor": (lambda v: v > 0, "above 0"),
}


@dataclass
class ExtractConfig:
    """The settings feature extraction reads; their values key the feature cache."""

    # --- skin model ---
    hist_bins: int = 32              # bins per axis of the (r,g) histograms
    skin_alpha: float = 0.2          # adaptive histogram update weight
    skin_threshold: float = 1.0      # skin/nonskin likelihood-ratio threshold
    motion_threshold: float = 12.0   # gray-level frame-difference threshold
    face_depth_threshold: float = 60.0   # mm a pixel must sit in front of the face model
    face_update_rate: float = 0.3    # EMA rate for the face depth model
    min_blob_area: int = 30          # components below this many pixels are dropped
    body_depth_front: float = 1200.0  # body region reaches this far in front of the torso (mm)
    body_depth_back: float = 300.0    # and this far behind it (mm)

    # --- blob ranking ---
    weight_depth: float = 1.0 / 3.0
    weight_size: float = 1.0 / 3.0
    weight_proximity: float = 1.0 / 3.0
    min_assign_score: float = 0.4    # below this the hand is marked missing
    depth_score_scale: float = 1000.0  # mm over which the depth score decays to 0
    proximity_scale: float = 80.0      # px over which the proximity score decays to 0

    # --- Kalman tracking ---
    process_noise: float = 1e-2
    measurement_noise: float = 4.0   # px^2
    initial_covariance: float = 1e3
    window_pad_frac: float = 0.25
    window_pad_min: float = 10.0     # px floor on the search-window padding
    max_coast: int = 15              # frames without measurement before re-seeding

    # --- features ---
    eccentricity_as_printed: bool = True  # |1 - m/M|; False uses sqrt(1 - (m/M)^2)
    focal_per_width: float = 525.0 / 640.0  # focal length as a fraction of image width


@dataclass
class Config(ExtractConfig):
    # --- idle-hand zeroing, applied to extracted samples ---
    idle_path_threshold: float = 0.5      # shoulder-widths of total travel
    idle_speed_threshold: float = 0.02    # shoulder-widths per frame
    zero_idle: bool = True

    # --- signer-independent transform ---
    lda_resample_third: int = 15     # frames kept from the middle third after alignment
    lda_shrinkage: float = 1e-3      # fraction of mean within-scatter diagonal added to it
    lda_shrinkage_max: float = 10.0

    # --- HMM ---
    hmm_states: int = 7
    hmm_self_prob: float = 0.6
    hmm_tol: float = 1e-4
    hmm_max_iter: int = 40
    variance_floor: float = 1e-4

    # --- execution ---
    jobs: int = 1

    def save(self, path):
        Path(path).write_text(self.snapshot() + "\n")

    @classmethod
    def load(cls, path):
        """Read a key=value file; a line that does not parse, a non-finite
        float or a value outside its key's range in `_RANGES` raises
        ValueError naming `path:line`, and bytes that are not UTF-8 raise
        LoadError naming the file."""
        cfg = cls()
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        for lineno, raw in enumerate(read_text(path).splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = types[key]
            try:
                parsed = _PARSERS[kind](value)
            except (KeyError, ValueError):
                raise ValueError(f"{path}:{lineno}: {key}={value!r} is not "
                                 f"a valid {kind}") from None
            if kind == "float" and not math.isfinite(parsed):
                raise ValueError(f"{path}:{lineno}: {key}={value!r} is not finite")
            if key in _RANGES and not _RANGES[key][0](parsed):
                raise ValueError(f"{path}:{lineno}: {key}={value!r} is not "
                                 f"{_RANGES[key][1]}")
            setattr(cfg, key, parsed)
        return cfg

    def snapshot(self) -> str:
        return "\n".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in dataclasses.fields(self)
        )
