"""Pipeline configuration with flat key=value file support.

`Config` holds the settings a caller varies, so that an experiment is fully
described by (data, config, seed): parallelism, the EM cap and the HMM's
length, the LDA ridge, idle-hand zeroing, the depth gates the ablations move
and the sensor's focal length. Tuning values that no caller changes (skin and
motion thresholds, histogram bins, blob area and ranking, tracker noises and
coasting, EM tolerance, the variance floor and the LDA resample length) live
as constants or kernel defaults beside the code that reads them.
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
    **dict.fromkeys(("hmm_states", "hmm_max_iter", "jobs"), (lambda v: v >= 1, "at least 1")),
    "lda_shrinkage": (lambda v: v >= 0, "at least 0"),
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

    # --- segmentation ---
    face_depth_threshold: float = 60.0   # mm a pixel must sit in front of the face model
    body_depth_front: float = 1200.0  # body region reaches this far in front of the torso (mm)
    body_depth_back: float = 300.0    # and this far behind it (mm)

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
    lda_shrinkage: float = 1e-3      # fraction of mean within-scatter diagonal added to it

    # --- HMM ---
    hmm_states: int = 7
    hmm_max_iter: int = 40

    # --- execution ---
    jobs: int = 1

    @classmethod
    def load(cls, path):
        """Read a key=value file; a line that does not parse, a value `_check`
        rejects or a key set twice raises ValueError naming `path:line`, and
        bytes that are not UTF-8 raise LoadError naming the file."""
        cfg = cls()
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        first = {}    # the line that set each key
        for lineno, raw in enumerate(read_text(path).splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in first:
                raise ValueError(f"{path}:{lineno}: {key} was already set on line {first[key]}")
            first[key] = lineno
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
