"""On-disk format for RGB-D sign recordings.

One directory per recorded sample:

    color_000000.ppm ...   binary PPM (P6), 8 bits per channel
    depth_000000.pgm ...   binary PGM (P5), 16-bit big-endian, millimeters, 0 = no reading
    skeleton.txt           one line per frame: for each joint "name x y z confidence";
                           the confidence must be numeric but is not read; every
                           frame has the REQUIRED_JOINTS
    meta.txt               key=value lines: signer, label, handedness, fps

skeleton.txt, meta.txt and the manifest are UTF-8 text.

A dataset is a tab-separated manifest: path, signer, label, handedness, each
of the last three equal to the one in the entry's meta.txt. Beside it lie the
`SKIN_FILES`, skin and non-skin pixel lists that bootstrap the color model:
one "R G B" row of integers in 0..255 per line.

Saved artefacts (features, HMMs, transforms) are npz records: `save_record`, `load_record`.
Every array in a record is float64.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

JOINT_NAMES = (
    "neck",
    "torso",
    "shoulder_left",
    "shoulder_right",
    "hand_left",
    "hand_right",
    "head",
)
REQUIRED_JOINTS = ("neck", "torso", "shoulder_left", "shoulder_right", "hand_left",
                   "hand_right")
HANDEDNESS = ("left", "right")
SKIN_FILES = ("skin_pixels.txt", "nonskin_pixels.txt")

_MIRROR_JOINT = {
    "shoulder_left": "shoulder_right",
    "shoulder_right": "shoulder_left",
    "hand_left": "hand_right",
    "hand_right": "hand_left",
}


class LoadError(Exception):
    """A file is missing or malformed; the message names the file."""


def read_text(path):
    """The contents of a UTF-8 text file; other bytes raise LoadError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                        f"{exc.start})") from None


@dataclass
class SkeletonPose:
    """Upper-body joints in image coordinates (px, px, mm)."""

    joints: dict[str, tuple[float, float, float]]


@dataclass
class FrameSequence:
    color_frames: list[np.ndarray]   # H x W x 3 uint8
    depth_frames: list[np.ndarray]   # H x W uint16, millimeters
    skeleton: list[SkeletonPose]
    fps: float
    signer_id: str
    sign_label: str | None = None
    handedness: str = "right"

    def __len__(self):
        return len(self.color_frames)

    @property
    def frame_shape(self):
        return self.color_frames[0].shape[:2]

    def validate(self):
        n = len(self.color_frames)
        if n < 2:
            raise ValueError(f"sequence needs at least 2 frames, got {n}")
        if len(self.depth_frames) != n or len(self.skeleton) != n:
            raise ValueError(
                "length mismatch: %d color, %d depth, %d skeleton frames"
                % (n, len(self.depth_frames), len(self.skeleton))
            )
        shape = self.color_frames[0].shape
        for i, frame in enumerate(self.color_frames):
            if frame.shape != shape:
                raise ValueError(f"color frame {i} has shape {frame.shape}, expected {shape}")
        for i, frame in enumerate(self.depth_frames):
            if frame.shape != shape[:2]:
                raise ValueError(f"depth frame {i} has shape {frame.shape}, expected {shape[:2]}")
        for i, pose in enumerate(self.skeleton):
            for name in REQUIRED_JOINTS:
                if name not in pose.joints:
                    raise ValueError(f"skeleton frame {i} is missing joint {name!r}")
        return self


@dataclass
class ManifestEntry:
    path: str
    signer_id: str
    sign_label: str
    handedness: str = "right"


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    @property
    def vocabulary(self):
        return sorted({e.sign_label for e in self.entries})

    def validate(self):
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise ValueError("manifest contains duplicate paths")
        for e in self.entries:
            _check_handedness(e.handedness, f"entry {e.path!r}")
        return self

    def save(self, path):
        """Write the manifest as UTF-8. A field UTF-8 cannot hold (a lone
        surrogate), a field holding a tab or a line break, or a handedness
        other than left or right raises ValueError naming it, and nothing is
        written."""
        lines = []
        for e in self.entries:
            _check_handedness(e.handedness, f"{path}: entry {e.path!r}")
            fields = (e.path, e.signer_id, e.sign_label, e.handedness)
            for value in fields:
                # `load` splits rows at every break str.splitlines knows
                if "\t" in value or (value + ".").splitlines() != [value + "."]:
                    raise ValueError(f"{path}: manifest field {value!r} of entry "
                                     f"{e.path!r} holds a tab or a line break")
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"{path}: manifest field {value!r} of entry "
                                     f"{e.path!r} is not encodable as UTF-8") from None
            lines.append("\t".join(fields))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path):
        entries = []
        for lineno, raw in enumerate(read_text(path).splitlines(), 1):
            if not raw.strip():
                continue
            parts = raw.split("\t")
            if len(parts) != 4:
                raise LoadError(f"{path}:{lineno}: expected 4 tab-separated fields")
            entries.append(ManifestEntry(*parts))
        try:
            return cls(entries).validate()
        except ValueError as exc:
            raise LoadError(f"{path}: {exc}") from None


def _check_handedness(value, where):
    if value not in HANDEDNESS:
        raise ValueError(f"{where}: handedness {value!r} is not one of {HANDEDNESS}")


# --- records -------------------------------------------------------------

_META = "__meta__"


def save_record(path, meta, **arrays):
    """Write `arrays` and the JSON-serializable `meta` dict to `path` as npz.

    A temporary file renamed onto `path` means a crash never leaves a partial
    record. Equal contents give equal bytes (fixed member dates, sorted keys).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        # a file handle, not a path: np.savez appends ".npz" to paths
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays, **{_META: np.array(json.dumps(meta, sort_keys=True))})
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_record(path, arrays, meta):
    """Read a `save_record` record; returns (meta, arrays). Members other than
    `arrays`, a member that is not float64, or a `__meta__` that is not a JSON
    object holding each key of the dict `meta` with a value of its mapped type,
    raise LoadError naming the file."""
    try:
        # a handle closed here: np.load leaves a file it opened from a path
        # open when the zip is truncated
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            members = {name: data[name] for name in data.files}
        stored = json.loads(members.pop(_META).item())
    except (OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as exc:
        raise LoadError(f"{path}: unreadable record ({exc})") from None
    if set(members) != set(arrays):
        raise LoadError(f"{path}: members {sorted(members)}, expected {list(arrays)}")
    for name, array in members.items():
        if array.dtype != np.float64:
            raise LoadError(f"{path}: {name} of {array.dtype}, not float64")
    if not isinstance(stored, dict) or not stored.keys() >= meta.keys():
        raise LoadError(f"{path}: {_META} is not a JSON object with keys {list(meta)}")
    for key, kind in meta.items():
        # exact types: JSON true is not an int here
        if type(stored[key]) is not kind:
            raise LoadError(f"{path}: {_META} key {key!r} holds {stored[key]!r}, "
                            f"not a {kind.__name__}")
    return stored, members


# --- PPM / PGM and skin pixel lists ----------------------------------------

def _read_pnm_header(data: bytes, path):
    """Parse a P5/P6 header, returning (magic, width, height, maxval, offset)."""
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise LoadError(f"{path}: truncated header")
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    pos += 1  # single whitespace byte separates header from raster
    magic = tokens[0].decode("ascii", "replace")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise LoadError(f"{path}: non-numeric header fields") from None
    return magic, width, height, maxval, pos


# (magic, maxval, dtype as stored, channels) of the three raster formats
_PPM = ("P6", 255, np.dtype(np.uint8), 3)
_PGM16 = ("P5", 65535, np.dtype(">u2"), 1)
_PGM8 = ("P5", 255, np.dtype(np.uint8), 1)


def _read_pnm(path, magic, maxval, stored, channels):
    data = Path(path).read_bytes()
    got_magic, width, height, got_maxval, offset = _read_pnm_header(data, path)
    if got_magic != magic or got_maxval != maxval:
        raise LoadError(f"{path}: expected binary {magic} with maxval {maxval}, "
                        f"got {got_magic}/{got_maxval}")
    if width < 0 or height < 0:
        raise LoadError(f"{path}: negative image size {width}x{height}")
    expect = width * height * channels * stored.itemsize
    raster = data[offset : offset + expect]
    if len(raster) != expect:
        raise LoadError(f"{path}: raster has {len(raster)} bytes, expected {expect}")
    shape = (height, width, channels) if channels > 1 else (height, width)
    # astype copies out of the read-only bytes, into native byte order
    return np.frombuffer(raster, dtype=stored).reshape(shape).astype(stored.newbyteorder("="))


def _write_pnm(path, image, magic, maxval, stored, channels):
    image = np.ascontiguousarray(image, dtype=stored)
    h, w = image.shape[:2]
    if image.size != h * w * channels:
        raise ValueError(f"{path}: {image.shape} image for a {channels}-channel {magic}")
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n%d\n" % (magic.encode(), w, h, maxval))
        fh.write(image.tobytes())


def read_ppm(path):
    return _read_pnm(path, *_PPM)


def write_ppm(path, image):
    _write_pnm(path, image, *_PPM)


def read_pgm16(path):
    return _read_pnm(path, *_PGM16)


def write_pgm16(path, image):
    _write_pnm(path, image, *_PGM16)


def read_pgm8(path):
    return _read_pnm(path, *_PGM8)


def write_pgm8(path, image):
    _write_pnm(path, image, *_PGM8)


def write_pixel_list(path, rows):
    """Write (R, G, B) rows, each value rounded to an integer, one per line."""
    text = "\n".join(" ".join(str(int(round(v))) for v in row) for row in rows)
    Path(path).write_text(text + "\n")


def parse_pixel_list(text):
    """A skin pixel list, one R G B row of integers in 0..255 per line, as an
    (N, 3) uint8 array. Raises ValueError naming the first bad line."""
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            row = [int(v) for v in fields]
        except ValueError:
            row = []
        if len(row) != 3 or not all(0 <= v <= 255 for v in row):
            raise ValueError(f"line {number}: expected three integers in 0..255, "
                             f"got {line.strip()!r}")
        rows.append(row)
    return np.array(rows, dtype=np.uint8).reshape(-1, 3)


# --- skeleton / meta ------------------------------------------------------

def _format_skeleton(poses):
    lines = []
    for pose in poses:
        parts = []
        for name in JOINT_NAMES:
            if name not in pose.joints:
                continue
            x, y, z = (float(v) for v in pose.joints[name])
            parts.append(f"{name} {x!r} {y!r} {z!r} 1.0")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _parse_skeleton(text, path):
    poses = []
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) % 5 != 0:
            raise LoadError(f"{path}:{lineno}: joint records must have 5 fields each")
        joints = {}
        for k in range(0, len(fields), 5):
            try:
                x, y, z, _ = (float(v) for v in fields[k + 1 : k + 5])
            except ValueError:
                raise LoadError(f"{path}:{lineno}: non-numeric joint values") from None
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise LoadError(f"{path}:{lineno}: joint {fields[k]!r} has a non-finite "
                                f"coordinate")
            joints[fields[k]] = (x, y, z)
        for name in REQUIRED_JOINTS:
            if name not in joints:
                raise LoadError(f"{path}:{lineno}: frame {len(poses)} has no joint {name!r}")
        poses.append(SkeletonPose(joints))
    return poses


def save_sequence(seq: FrameSequence, path):
    seq.validate()
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(seq.color_frames):
        write_ppm(out / f"color_{i:06d}.ppm", frame)
    for i, frame in enumerate(seq.depth_frames):
        write_pgm16(out / f"depth_{i:06d}.pgm", frame)
    (out / "skeleton.txt").write_text(_format_skeleton(seq.skeleton), encoding="utf-8")
    meta = [
        f"signer={seq.signer_id}",
        f"label={seq.sign_label if seq.sign_label is not None else ''}",
        f"handedness={seq.handedness}",
        f"fps={seq.fps!r}",
    ]
    (out / "meta.txt").write_text("\n".join(meta) + "\n", encoding="utf-8")


def read_meta(seq_dir):
    """(signer, label, handedness, fps) of a recording's meta.txt, a missing
    key read as "", "", "right", 30.0; a bad file raises LoadError naming it."""
    meta_path = Path(seq_dir) / "meta.txt"
    if not meta_path.exists():
        raise LoadError(f"{meta_path}: missing")
    meta = {}
    for raw in read_text(meta_path).splitlines():
        if "=" in raw:
            key, value = raw.split("=", 1)
            meta[key.strip()] = value.strip()
    try:
        fps = float(meta.get("fps", 30.0))
    except ValueError:
        raise LoadError(f"{meta_path}: non-numeric fps {meta['fps']!r}") from None
    handedness = meta.get("handedness", "right")
    if handedness not in HANDEDNESS:
        raise LoadError(f"{meta_path}: handedness {handedness!r} is not one of {HANDEDNESS}")
    return meta.get("signer", ""), meta.get("label", ""), handedness, fps


def load_sequence(path) -> FrameSequence:
    root = Path(path)
    if not root.is_dir():
        raise LoadError(f"{root}: not a directory")
    color_paths = sorted(root.glob("color_*.ppm"))
    depth_paths = sorted(root.glob("depth_*.pgm"))
    if not color_paths:
        raise LoadError(f"{root}: no color_*.ppm frames")
    if len(color_paths) != len(depth_paths):
        raise LoadError(
            f"{root}: {len(color_paths)} color frames but {len(depth_paths)} depth frames"
        )
    skel_path = root / "skeleton.txt"
    if not skel_path.exists():
        raise LoadError(f"{skel_path}: missing")
    signer, label, handedness, fps = read_meta(root)
    seq = FrameSequence(
        color_frames=[read_ppm(p) for p in color_paths],
        depth_frames=[read_pgm16(p) for p in depth_paths],
        skeleton=_parse_skeleton(read_text(skel_path), skel_path),
        fps=fps,
        signer_id=signer,
        sign_label=label or None,
        handedness=handedness,
    )
    if len(seq.skeleton) != len(seq.color_frames):
        raise LoadError(
            f"{skel_path}: {len(seq.skeleton)} poses for {len(seq.color_frames)} frames"
        )
    try:
        seq.validate()
    except ValueError as exc:
        raise LoadError(f"{root}: {exc}") from None
    return seq


# --- geometric operations -------------------------------------------------

def mirror_pose(pose: SkeletonPose, width: int) -> SkeletonPose:
    joints = {}
    for name, (x, y, z) in pose.joints.items():
        joints[_MIRROR_JOINT.get(name, name)] = ((width - 1) - x, y, z)
    # keep canonical ordering so serialization round-trips deterministically
    ordered = {n: joints[n] for n in JOINT_NAMES if n in joints}
    ordered.update({n: v for n, v in joints.items() if n not in ordered})
    return SkeletonPose(ordered)


def mirror_sequence(seq: FrameSequence) -> FrameSequence:
    """Flip frames about the vertical axis and swap left/right joints."""
    width = seq.color_frames[0].shape[1]
    return FrameSequence(
        color_frames=[np.ascontiguousarray(f[:, ::-1]) for f in seq.color_frames],
        depth_frames=[np.ascontiguousarray(f[:, ::-1]) for f in seq.depth_frames],
        skeleton=[mirror_pose(p, width) for p in seq.skeleton],
        fps=seq.fps,
        signer_id=seq.signer_id,
        sign_label=seq.sign_label,
    )


def shoulder_distance(seq: FrameSequence) -> float:
    """Median shoulder span (px) over the first five frames.

    Early frames are used because hands rarely occlude the shoulders before
    the sign starts, which is when skeleton shoulder estimates degrade.
    """
    count = min(5, len(seq.skeleton))
    if count < 1:
        raise ValueError("sequence has no skeleton poses")
    dists = []
    for pose in seq.skeleton[:count]:
        lx, ly, _ = pose.joints["shoulder_left"]
        rx, ry, _ = pose.joints["shoulder_right"]
        dists.append(math.hypot(lx - rx, ly - ry))
    span = float(np.median(dists))
    if span <= 1e-9:
        raise ValueError("shoulder joints are coincident in the first frames")
    return span
