"""On-disk format for RGB-D sign recordings.

One directory per recorded sample:

    color_000000.ppm ...   binary PPM (P6), 8 bits per channel
    depth_000000.pgm ...   binary PGM (P5), 16-bit big-endian, millimeters, 0 = no reading
    skeleton.txt           one line per frame: for each joint "name x y z confidence"
    meta.txt               key=value lines: signer, label, handedness, fps

A dataset is a tab-separated manifest: path, signer, label, handedness.

Saved artefacts (features, HMMs, transforms) are npz records: `save_record`.
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
REQUIRED_JOINTS = ("neck", "torso", "shoulder_left", "shoulder_right")

_MIRROR_JOINT = {
    "shoulder_left": "shoulder_right",
    "shoulder_right": "shoulder_left",
    "hand_left": "hand_right",
    "hand_right": "hand_left",
}


class LoadError(Exception):
    """A file is missing or malformed; the message names the file."""


@dataclass
class SkeletonPose:
    """Upper-body joints in image coordinates (px, px, mm) with confidences."""

    joints: dict[str, tuple[float, float, float]]
    confidence: dict[str, float]

    def require(self, name):
        if name not in self.joints:
            raise KeyError(f"skeleton pose has no joint {name!r}")
        return self.joints[name]


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

    @property
    def signers(self):
        return sorted({e.signer_id for e in self.entries})

    def validate(self):
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise ValueError("manifest contains duplicate paths")
        return self

    def save(self, path):
        lines = [
            f"{e.path}\t{e.signer_id}\t{e.sign_label}\t{e.handedness}"
            for e in self.entries
        ]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path):
        entries = []
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
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


def load_record(path):
    """Read a record written by `save_record`; returns (meta, arrays)."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(arrays.pop(_META).item())
    except (OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as exc:
        raise LoadError(f"{path}: unreadable record ({exc})") from None
    return meta, arrays


# --- PPM / PGM ------------------------------------------------------------

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


def read_ppm(path):
    data = Path(path).read_bytes()
    magic, width, height, maxval, offset = _read_pnm_header(data, path)
    if magic != "P6" or maxval != 255:
        raise LoadError(f"{path}: expected binary P6 with maxval 255, got {magic}/{maxval}")
    expect = width * height * 3
    raster = data[offset : offset + expect]
    if len(raster) != expect:
        raise LoadError(f"{path}: raster has {len(raster)} bytes, expected {expect}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path, image):
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(image.tobytes())


def read_pgm16(path):
    data = Path(path).read_bytes()
    magic, width, height, maxval, offset = _read_pnm_header(data, path)
    if magic != "P5" or maxval != 65535:
        raise LoadError(f"{path}: expected binary P5 with maxval 65535, got {magic}/{maxval}")
    expect = width * height * 2
    raster = data[offset : offset + expect]
    if len(raster) != expect:
        raise LoadError(f"{path}: raster has {len(raster)} bytes, expected {expect}")
    pixels = np.frombuffer(raster, dtype=">u2").reshape(height, width)
    return pixels.astype(np.uint16)


def write_pgm16(path, image):
    image = np.ascontiguousarray(image, dtype=np.uint16)
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n65535\n" % (w, h))
        fh.write(image.astype(">u2").tobytes())


def read_pgm8(path):
    data = Path(path).read_bytes()
    magic, width, height, maxval, offset = _read_pnm_header(data, path)
    if magic != "P5" or maxval != 255:
        raise LoadError(f"{path}: expected binary P5 with maxval 255, got {magic}/{maxval}")
    expect = width * height
    raster = data[offset : offset + expect]
    if len(raster) != expect:
        raise LoadError(f"{path}: raster has {len(raster)} bytes, expected {expect}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm8(path, image):
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(image.tobytes())


# --- skeleton / meta ------------------------------------------------------

def _format_skeleton(poses):
    lines = []
    for pose in poses:
        parts = []
        for name in JOINT_NAMES:
            if name not in pose.joints:
                continue
            x, y, z = (float(v) for v in pose.joints[name])
            conf = float(pose.confidence.get(name, 1.0))
            parts.append(f"{name} {x!r} {y!r} {z!r} {conf!r}")
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
        joints, conf = {}, {}
        for k in range(0, len(fields), 5):
            name = fields[k]
            try:
                x, y, z, c = (float(v) for v in fields[k + 1 : k + 5])
            except ValueError:
                raise LoadError(f"{path}:{lineno}: non-numeric joint values") from None
            joints[name] = (x, y, z)
            conf[name] = c
        poses.append(SkeletonPose(joints, conf))
    return poses


def save_sequence(seq: FrameSequence, path):
    seq.validate()
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(seq.color_frames):
        write_ppm(out / f"color_{i:06d}.ppm", frame)
    for i, frame in enumerate(seq.depth_frames):
        write_pgm16(out / f"depth_{i:06d}.pgm", frame)
    (out / "skeleton.txt").write_text(_format_skeleton(seq.skeleton))
    meta = [
        f"signer={seq.signer_id}",
        f"label={seq.sign_label if seq.sign_label is not None else ''}",
        f"handedness={seq.handedness}",
        f"fps={seq.fps!r}",
    ]
    (out / "meta.txt").write_text("\n".join(meta) + "\n")


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
    meta_path = root / "meta.txt"
    if not meta_path.exists():
        raise LoadError(f"{meta_path}: missing")

    meta = {}
    for raw in meta_path.read_text().splitlines():
        if "=" in raw:
            key, value = raw.split("=", 1)
            meta[key.strip()] = value.strip()

    try:
        fps = float(meta.get("fps", 30.0))
    except ValueError:
        raise LoadError(f"{meta_path}: non-numeric fps {meta['fps']!r}") from None
    seq = FrameSequence(
        color_frames=[read_ppm(p) for p in color_paths],
        depth_frames=[read_pgm16(p) for p in depth_paths],
        skeleton=_parse_skeleton(skel_path.read_text(), skel_path),
        fps=fps,
        signer_id=meta.get("signer", ""),
        sign_label=meta.get("label") or None,
        handedness=meta.get("handedness", "right"),
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
    joints, conf = {}, {}
    for name, (x, y, z) in pose.joints.items():
        target = _MIRROR_JOINT.get(name, name)
        joints[target] = ((width - 1) - x, y, z)
        conf[target] = pose.confidence.get(name, 1.0)
    # keep canonical ordering so serialization round-trips deterministically
    ordered = {n: joints[n] for n in JOINT_NAMES if n in joints}
    ordered.update({n: v for n, v in joints.items() if n not in ordered})
    return SkeletonPose(ordered, {n: conf[n] for n in ordered})


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
        lx, ly, _ = pose.require("shoulder_left")
        rx, ry, _ = pose.require("shoulder_right")
        dists.append(math.hypot(lx - rx, ly - ry))
    span = float(np.median(dists))
    if span <= 1e-9:
        raise ValueError("shoulder joints are coincident in the first frames")
    return span
