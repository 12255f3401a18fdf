"""Pipeline configuration with flat key=value file support.

`Config` holds the settings a caller varies, so that an experiment is fully
described by (data, config, seed); constants that no caller changes, such as
the Kalman tracker's noises and the blob ranker's scales, live with their code.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .dataio import read_text


# by annotation, a string under `from __future__ import annotations`; every
# field is an int or a float, and each parser raises ValueError on a value it
# cannot read
_PARSERS = {"int": int, "float": float}
# the bounded keys: each value must pass the check; every float must be finite
_RANGES = {
    **dict.fromkeys(("hist_bins", "hmm_states", "hmm_max_iter", "lda_resample_third",
                     "jobs"), (lambda v: v >= 1, "at least 1")),
    **dict.fromkeys(("min_blob_area", "max_coast", "lda_shrinkage"),
                    (lambda v: v >= 0, "at least 0")),
    **dict.fromkeys(("skin_alpha", "face_update_rate"), (lambda v: 0 <= v <= 1, "in [0, 1]")),
    "hmm_self_prob": (lambda v: 0 < v < 1, "in (0, 1)"),
    "variance_floor": (lambda v: v > 0, "above 0"),
}


def _check(key, value, where=""):
    """Raise ValueError naming `where` and `key` unless `value` is finite and in range."""
    if not math.isfinite(value):
        raise ValueError(f"{where}{key}={value!r} is not finite")
    if key in _RANGES and not _RANGES[key][0](value):
        raise ValueError(f"{where}{key}={value!r} is not {_RANGES[key][1]}")


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

    # --- Kalman tracking ---
    max_coast: int = 15              # frames without measurement before re-seeding

    # --- features ---
    focal_per_width: float = 525.0 / 640.0  # focal length as a fraction of image width

    def __post_init__(self):
        for field in dataclasses.fields(self):
            _check(field.name, getattr(self, field.name))


@dataclass
class Config(ExtractConfig):
    # --- idle-hand zeroing, applied to extracted samples; a threshold of 0 turns it off ---
    idle_path_threshold: float = 0.5      # shoulder-widths of total travel
    idle_speed_threshold: float = 0.02    # shoulder-widths per frame

    # --- signer-independent transform ---
    lda_resample_third: int = 15     # frames kept from the middle third after alignment
    lda_shrinkage: float = 1e-3      # fraction of mean within-scatter diagonal added to it

    # --- HMM ---
    hmm_states: int = 7
    hmm_self_prob: float = 0.6
    hmm_tol: float = 1e-4
    hmm_max_iter: int = 40
    variance_floor: float = 1e-4

    # --- execution ---
    jobs: int = 1

    @classmethod
    def load(cls, path):
        """Read a key=value file; a line that does not parse or a value
        `_check` rejects raises ValueError naming `path:line`, and bytes that
        are not UTF-8 raise LoadError naming the file."""
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
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key}={value!r} is not "
                                 f"a valid {kind}") from None
            _check(key, parsed, f"{path}:{lineno}: ")
            setattr(cfg, key, parsed)
        return cfg

    def snapshot(self) -> str:
        return "\n".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in dataclasses.fields(self)
        )
