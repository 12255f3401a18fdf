"""On-disk format for RGB-D sign recordings.

One directory per recorded sample, with one stream file per image channel:

    color.ppm       the frames as binary PPM (P6) images, 8 bits per channel,
                    one after another
    depth.pgm       the frames as binary PGM (P5) images, 16-bit big-endian,
                    millimeters, 0 = no reading, one after another
    skeleton.txt    one line per frame: for each joint "name x y z confidence";
                    the confidence must be numeric but is not read; every
                    frame has the REQUIRED_JOINTS
    meta.txt        key=value lines: signer, label, handedness, fps

These four are the `RECORDING_FILES`; other files beside them, such as a
synthetic recording's ground truth (see `synth`), are not read. In a stream,
image t starts where image t-1 ends, and each image is byte for byte what a
one-image PNM file would hold (netpbm allows a sequence of images in one
file). Every image of a stream has image 0's size, and the two streams hold
one image per frame. skeleton.txt, meta.txt and the manifest are UTF-8 text.

`load_sequence` opens each stream once and walks its headers, checking
each header and raster length and noting where each raster starts, and
parses skeleton.txt and meta.txt, but decodes no raster: frame t is read
from its offset each time it is indexed (`LazyFrames`), so a consumer that
walks the frames in order holds one at a time. A fault names the file and
the image index; bytes after the last whole image are a fault. A recording
is written the same way, a frame at a time, by `recording_writer`.

A dataset is a tab-separated manifest: path, signer, label, handedness, each
of the last three equal to the one in the entry's meta.txt; the entry, not
the loaded `FrameSequence`, names a sample's signer and label. Beside it lie
the `SKIN_FILES`, skin and non-skin pixel lists that bootstrap the color
model: one "R G B" row of integers in 0..255 per line.

Saved artefacts (features, HMMs, transforms) are npz records: `save_record`, `load_record`.
Every array in a record is float64.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
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
COLOR_STREAM = "color.ppm"
DEPTH_STREAM = "depth.pgm"
SKELETON_FILE = "skeleton.txt"
META_FILE = "meta.txt"
# the files of a recording, in name order: all that `load_sequence` reads
RECORDING_FILES = (COLOR_STREAM, DEPTH_STREAM, META_FILE, SKELETON_FILE)

_MIRROR_JOINT = {
    "shoulder_left": "shoulder_right",
    "shoulder_right": "shoulder_left",
    "hand_left": "hand_right",
    "hand_right": "hand_left",
}


class LoadError(Exception):
    """A file is missing or malformed; the message names the file."""


def read_text(path):
    """The contents of a UTF-8 text file; a missing file or other bytes raise
    LoadError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise LoadError(f"{path}: missing") from None
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                        f"{exc.start})") from None


@dataclass
class SkeletonPose:
    """Upper-body joints in image coordinates (px, px, mm)."""

    joints: dict[str, tuple[float, float, float]]


class LazyFrames(Sequence):
    """A read-only list whose item t is `make(source[t])`, made afresh on
    every read: a frame decoded from its stream, or one flipped from another
    list. Nothing is kept, so a frame lives only while its reader holds it."""

    def __init__(self, source, make):
        self.source = source
        self.make = make

    def __len__(self):
        return len(self.source)

    def __getitem__(self, t):
        return self.make(self.source[t])


@dataclass
class FrameSequence:
    """What extraction reads of a recording; its manifest entry names it."""

    color_frames: Sequence[np.ndarray]   # H x W x 3 uint8: a list or LazyFrames
    depth_frames: Sequence[np.ndarray]   # H x W uint16, millimeters
    skeleton: list[SkeletonPose]
    handedness: str = "right"

    def __len__(self):
        return len(self.color_frames)


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

def _read_pnm_header(fh, where):
    """Parse a P5/P6 header at the current position of the binary file `fh`,
    leaving `fh` at the raster; returns (magic, width, height, maxval).
    `where` names the image in error messages."""
    tokens = []
    c = fh.read(1)
    while len(tokens) < 4:
        if not c:
            raise LoadError(f"{where}: truncated header")
        if c == b"#":
            while c and c != b"\n":
                c = fh.read(1)
        elif c.isspace():
            c = fh.read(1)
        else:
            token = bytearray()
            while c and not c.isspace():
                token += c
                c = fh.read(1)
            tokens.append(bytes(token))
    # the single whitespace byte read after the last field separates
    # header from raster
    magic = tokens[0].decode("ascii", "replace")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise LoadError(f"{where}: non-numeric header fields") from None
    return magic, width, height, maxval


# (magic, maxval, dtype as stored, channels) of the three raster formats
_PPM = ("P6", 255, np.dtype(np.uint8), 3)
_PGM16 = ("P5", 65535, np.dtype(">u2"), 1)
_PGM8 = ("P5", 255, np.dtype(np.uint8), 1)

# a small read buffer: checking a header reads little beyond it
_HEADER_BUFFER = 256


def _check_raster(fh, where, magic, maxval, stored, channels):
    """Check the PNM header at the current position of `fh` against its
    format, and that a whole raster follows; returns the image shape, with
    `fh` at the raster. `where` names the image in error messages."""
    got_magic, width, height, got_maxval = _read_pnm_header(fh, where)
    if got_magic != magic or got_maxval != maxval:
        raise LoadError(f"{where}: expected binary {magic} with maxval {maxval}, "
                        f"got {got_magic}/{got_maxval}")
    if width < 0 or height < 0:
        raise LoadError(f"{where}: negative image size {width}x{height}")
    expect = width * height * channels * stored.itemsize
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    if have < expect:
        raise LoadError(f"{where}: raster has {have} bytes, expected {expect}")
    return (height, width, channels) if channels > 1 else (height, width)


def _read_image(path, offsets, shape, stored, t):
    """Image `t` of a stream whose rasters start at `offsets`, decoded."""
    size = math.prod(shape) * stored.itemsize
    with open(path, "rb", buffering=0) as fh:
        fh.seek(offsets[t])
        raster = fh.read(size)
    if len(raster) != size:    # the file changed since it was checked
        raise LoadError(f"{path}: image {t}: raster has {len(raster)} bytes, expected {size}")
    # astype copies out of the read-only bytes, into native byte order
    return np.frombuffer(raster, dtype=stored).reshape(shape).astype(stored.newbyteorder("="))


def _open_stream(path, magic, maxval, stored, channels):
    """The images of the multi-image PNM file `path`, decoded on read, and
    their shape.

    Every header and raster length is checked here, and no raster is
    decoded. A missing or empty file, a bad header, a short raster, an image
    of another size than image 0, or bytes after the last whole image raise
    LoadError naming the file and the image index."""
    offsets = []
    try:
        fh = open(path, "rb", buffering=_HEADER_BUFFER)
    except FileNotFoundError:
        raise LoadError(f"{path}: missing") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        while not offsets or fh.tell() < size:
            where = f"{path}: image {len(offsets)}"
            got = _check_raster(fh, where, magic, maxval, stored, channels)
            if not offsets:
                shape = got
            elif got != shape:
                raise LoadError(f"{where} has shape {got}, image 0 {shape}")
            offsets.append(fh.tell())
            fh.seek(math.prod(shape) * stored.itemsize, os.SEEK_CUR)
    frames = LazyFrames(range(len(offsets)), partial(_read_image, path, offsets, shape, stored))
    return frames, shape


def _append_pnm(fh, image, magic, maxval, stored, channels):
    """Write `image` as one PNM image at the end of the binary file `fh`."""
    image = np.ascontiguousarray(image, dtype=stored)
    h, w = image.shape[:2]
    if image.size != h * w * channels:
        raise ValueError(f"{fh.name}: {image.shape} image for a {channels}-channel {magic}")
    fh.write(b"%s\n%d %d\n%d\n" % (magic.encode(), w, h, maxval))
    fh.write(image)


def append_ppm(fh, image):
    _append_pnm(fh, image, *_PPM)


def append_pgm16(fh, image):
    _append_pnm(fh, image, *_PGM16)


def append_pgm8(fh, image):
    _append_pnm(fh, image, *_PGM8)


def read_pgm8_stream(path):
    """The images of an 8-bit PGM stream, checked now and decoded on read."""
    return _open_stream(path, *_PGM8)[0]


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

def write_skeleton(seq_dir, poses):
    """Write skeleton.txt: one line of joints per pose, in JOINT_NAMES order."""
    lines = []
    for pose in poses:
        parts = []
        for name in JOINT_NAMES:
            if name not in pose.joints:
                continue
            x, y, z = (float(v) for v in pose.joints[name])
            parts.append(f"{name} {x!r} {y!r} {z!r} 1.0")
        lines.append(" ".join(parts))
    text = "\n".join(lines) + "\n"
    (Path(seq_dir) / SKELETON_FILE).write_text(text, encoding="utf-8")


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


def write_meta(seq_dir, signer, label, handedness, fps):
    """Write meta.txt, which `read_meta` reads."""
    text = f"signer={signer}\nlabel={label}\nhandedness={handedness}\nfps={fps!r}\n"
    (Path(seq_dir) / META_FILE).write_text(text, encoding="utf-8")


@contextmanager
def recording_writer(path, signer, label, handedness, fps):
    """Write a recording to directory `path` one frame at a time. The context
    yields `append(color, depth, pose)`, which adds the frame's images to the
    two open streams; skeleton.txt and meta.txt are written after the last."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    poses = []
    with (open(root / COLOR_STREAM, "wb") as color_out,
          open(root / DEPTH_STREAM, "wb") as depth_out):
        def append(color, depth, pose):
            append_ppm(color_out, color)
            append_pgm16(depth_out, depth)
            poses.append(pose)
        yield append
    write_skeleton(root, poses)
    write_meta(root, signer, label, handedness, fps)


def read_meta(seq_dir):
    """(signer, label, handedness, fps) of a recording's meta.txt, a missing
    key read as "", "", "right", 30.0; a bad file raises LoadError naming it."""
    meta_path = Path(seq_dir) / META_FILE
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
    """The recording in directory `path`, its frames decoded on read. Every
    image's header and raster length in the two streams, skeleton.txt and
    meta.txt are checked here; a fault raises LoadError naming the file."""
    root = Path(path)
    if not root.is_dir():
        raise LoadError(f"{root}: not a directory")
    color_path, depth_path = root / COLOR_STREAM, root / DEPTH_STREAM
    color, color_shape = _open_stream(color_path, *_PPM)
    depth, depth_shape = _open_stream(depth_path, *_PGM16)
    if len(color) != len(depth):
        (n, short), (m, other) = sorted([(len(color), color_path), (len(depth), depth_path)])
        raise LoadError(f"{short}: no image {n}, though {other} holds {m} images")
    if len(color) < 2:
        raise LoadError(f"{color_path}: {len(color)} image, a sequence needs at least 2")
    if depth_shape != color_shape[:2]:
        raise LoadError(f"{depth_path}: image 0 has shape {depth_shape}, but the color "
                        f"images {color_shape[:2]}")
    skel_path = root / SKELETON_FILE
    skeleton = _parse_skeleton(read_text(skel_path), skel_path)
    handedness = read_meta(root)[2]
    if len(skeleton) != len(color):
        raise LoadError(f"{skel_path}: {len(skeleton)} poses for {len(color)} frames")
    return FrameSequence(color, depth, skeleton, handedness)


# --- geometric operations -------------------------------------------------

def mirror_pose(pose: SkeletonPose, width: int) -> SkeletonPose:
    """The pose flipped about the vertical axis of a `width`-pixel frame, left
    and right joints swapped; readers look joints up by name."""
    return SkeletonPose({_MIRROR_JOINT.get(name, name): ((width - 1) - x, y, z)
                         for name, (x, y, z) in pose.joints.items()})


def mirror_sequence(seq: FrameSequence) -> FrameSequence:
    """The recording as the other hand would sign it: frames flipped about
    the vertical axis on read, left/right joints swapped, the other
    handedness."""
    width = seq.color_frames[0].shape[1]
    return replace(
        seq,
        color_frames=LazyFrames(seq.color_frames, np.fliplr),
        depth_frames=LazyFrames(seq.depth_frames, np.fliplr),
        skeleton=[mirror_pose(p, width) for p in seq.skeleton],
        handedness="right" if seq.handedness == "left" else "left",
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
