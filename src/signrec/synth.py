"""Synthetic RGB-D sign corpus with ground truth.

Each sequence shows a clothed torso and head in front of a far background,
with two skin-colored hand blobs following class-specific parametric 3D
trajectories. Hands carry a luminance texture that flickers frame to frame
(as real hands do under sensor noise and articulation), which keeps their
chromaticity constant while guaranteeing frame-difference motion energy.
Per-signer style is an affine warp of the trajectories about the neck plus
a hand aspect-ratio bias. Ground-truth masks and trajectories are written
beside every sequence, and a labeled skin/non-skin pixel list is emitted
once per corpus for bootstrapping the color model.

The recipe table, `sign_recipes`, is built once per corpus: each class's
(right path, left path or None = resting hand). Without `depth_pairs`,
class 1 crosses the hands, class 2 touches the face, and every other class
traces a loop of its own, one-handed at multiples of 3; with them, classes
2k and 2k+1 share a two-handed loop, flat in depth or swinging 220 mm. The
renderer reads a class's recipe, never its index.

A sequence is written one frame at a time, as soon as the frame is drawn:
its color and depth images go to a `dataio.recording_writer` and its
ground-truth masks to `gt_left.pgm` and `gt_right.pgm` (flipped, and the
masks swapped, for a left-handed signer), so no recording is held whole.
The skeleton, meta.txt and the trajectory, `gt_traj.txt` (one "rx ry rz lx
ly lz" row per frame), follow its last frame: seven files per recording.

Only the hands move. The static scene is rounded once per sequence to 8-bit
color and 16-bit depth, and each frame writes into a copy of it the rounded
pixels of each hand's ellipse box, the near hand last. Rounding is per pixel
and every random draw keeps its order and size, so the bytes are those of
whole float frames rounded: a corpus depends on (spec, seed) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataio import (
    SKIN_FILES,
    DatasetManifest,
    LoadError,
    ManifestEntry,
    SkeletonPose,
    append_pgm8,
    mirror_pose,
    read_pgm8_stream,
    read_text,
    recording_writer,
    write_pixel_list,
)

GOLDEN = 0.618033988749895

SKIN_BASE = np.array([165.0, 105.0, 80.0])
CLOTH_BASE = np.array([48.0, 62.0, 120.0])
BACKGROUND_BASE = np.array([28.0, 28.0, 32.0])

# ground-truth hand masks, one 8-bit PGM stream per hand
GT_STREAMS = {"left": "gt_left.pgm", "right": "gt_right.pgm"}
GT_TRAJECTORY = "gt_traj.txt"

TORSO_Z = 2000.0
FACE_Z = 1950.0
BACKGROUND_Z = 3200.0
CROSS_CLASS, FACE_CLASS = 1, 2  # without depth pairs: hands cross, hand touches face


@dataclass
class SynthSpec:
    num_classes: int = 10
    num_signers: int = 4
    samples: int = 6              # per (class, signer)
    width: int = 160
    height: int = 120
    frames: int = 36
    fps: float = 30.0
    style_strength: float = 0.0   # 0 = identical styles, 1 = strong per-signer warps
    traj_noise: float = 0.4       # px jitter on hand centers (at 160 px width)
    depth_noise: float = 6.0      # mm jitter on rendered depths
    skeleton_noise: float = 2.0   # px noise on skeleton hand joints
    left_handed: tuple = ()       # signer indices stored mirrored
    depth_pairs: bool = False     # consecutive classes share xy, differ in z

    def validate(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 sign classes")
        if self.num_signers < 1 or self.samples < 1:
            raise ValueError("need at least one signer and one sample per class")
        if self.frames < 12:
            raise ValueError("sequences need at least 12 frames")
        for name, ok, rule in (
                ("width", self.width >= 1, "at least 1"),
                ("height", self.height >= 1, "at least 1"),
                ("traj_noise", 0 <= self.traj_noise < math.inf, "finite and at least 0"),
                ("depth_noise", 0 <= self.depth_noise < math.inf, "finite and at least 0"),
                ("skeleton_noise", 0 <= self.skeleton_noise < math.inf, "finite and at least 0"),
                ("fps", 0 < self.fps < math.inf, "finite and positive"),
                ("style_strength", math.isfinite(self.style_strength), "finite"),
                ("left_handed", all(i in range(self.num_signers) for i in self.left_handed),
                 f"signer indices 0..{self.num_signers - 1}")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        return self


@dataclass
class Scene:
    width: int
    height: int

    @property
    def span(self):
        return 0.22 * self.width

    @property
    def neck(self):
        return (0.5 * self.width, 0.40 * self.height)

    @property
    def shoulder_y(self):
        return 0.42 * self.height

    @property
    def torso_joint(self):
        return (0.5 * self.width, 0.62 * self.height)

    @property
    def head(self):
        return (0.5 * self.width, 0.22 * self.height)

    @property
    def head_axes(self):
        return (0.055 * self.width, 0.095 * self.height)

    @property
    def hand_radii(self):
        return (0.055 * self.width, 0.043 * self.width)


@dataclass
class SignerStyle:
    shift: tuple
    aspect: float
    z_shift: float

    def apply(self, xy, neck):
        # neck + (xy - neck) is not always xy in floats; this order fixes the corpus bytes
        return (
            neck[0] + (xy[0] - neck[0]) + self.shift[0],
            neck[1] + (xy[1] - neck[1]) + self.shift[1],
        )


def signer_style(spec: SynthSpec, seed, signer_index) -> SignerStyle:
    """Systematic per-signer deformation of the trajectories.

    Styles are predictable in the sense that all signers deviate along the
    same corpus-wide directions (signing higher/lower, nearer/farther, with
    rounder/flatter hands), each by an individual amount. The deviations
    therefore span a low-dimensional subspace that training signers expose
    and a held-out signer stays inside; erratic per-signer directions would
    not be recoverable from a handful of training signers.
    """
    axis_rng = np.random.default_rng([seed, 90000])
    angle = axis_rng.uniform(0.0, 2 * math.pi)
    shift_dir = (math.cos(angle), math.sin(angle))

    rng = np.random.default_rng([seed, 90001, signer_index])
    eta = rng.uniform(-1.0, 1.0, size=7)
    s = spec.style_strength
    magnitude = 0.095 * spec.width * s * eta[0]
    return SignerStyle(
        shift=(magnitude * shift_dir[0] + 0.004 * spec.width * s * eta[3],
               magnitude * shift_dir[1] + 0.004 * spec.height * s * eta[4]),
        aspect=float(np.clip(0.05 * s * eta[5], -0.2, 0.2)),
        z_shift=50.0 * s * eta[6],
    )


def _draws(key):
    """Three fixed numbers in [0, 1) from which a loop's shape derives."""
    return (key * GOLDEN) % 1.0, (key * GOLDEN * GOLDEN) % 1.0, (0.37 + key * 0.23) % 1.0


def _loop(scene: Scene, key, z0, zamp, two_handed):
    """A tilted ellipse traced once or twice (by `key`'s parity, which also
    sets the direction) while the depth swings by `zamp` about `z0`; a
    second hand mirrors it in anti-phase, 40 mm farther back."""
    w, h = scene.width, scene.height
    u1, u2, u3 = _draws(key)
    # loop extents plus the strongest styled shift must stay inside the frame:
    # clipped hands would break both segmentation and the style's linearity
    center = (w * (0.58 + 0.04 * math.cos(2 * math.pi * u1)),
              h * (0.47 + 0.10 * math.sin(2 * math.pi * u1)))
    ax = w * (0.055 + 0.03 * u2)
    ay = h * (0.08 + 0.05 * u3)
    phase = 2 * math.pi * u2
    direction = 1.0 if key % 2 == 0 else -1.0
    loops = 1 + (key % 2)
    tilt = 0.5 * math.pi * u3
    zphase = 2 * math.pi * u3
    ct, st = math.cos(tilt), math.sin(tilt)

    def right(s):
        theta = phase + direction * 2 * math.pi * loops * s
        qx, qy = ax * math.cos(theta), ay * math.sin(theta)
        x = center[0] + ct * qx - st * qy
        y = center[1] + st * qx + ct * qy
        z = z0 + zamp * math.sin(2 * math.pi * s + zphase)
        return x, y, z

    def left(s):
        x, y, z = right((s + 0.5) % 1.0)   # anti-phase keeps the hands apart
        return w - x, y, z + 40.0

    return right, (left if two_handed else None)


def _crossing(scene: Scene):
    """Both hands swing across the body, so their paths cross mid-frame."""
    w, h = scene.width, scene.height

    def right(s):
        x = 0.5 * w + 0.17 * w * math.cos(2 * math.pi * s + 0.3)
        y = 0.52 * h + 0.05 * h * math.sin(4 * math.pi * s + 0.3)
        return x, y, 1520.0 + 50.0 * math.sin(2 * math.pi * s)

    def left(s):
        x, y, z = right(s)
        return w - x, y + 0.035 * h, z + 90.0

    return right, left


def _face_touch(scene: Scene):
    """The right hand rises to the chin and back while the left circles low."""
    w, h = scene.width, scene.height
    base = (0.62 * w, 0.66 * h)
    target = (scene.head[0], scene.head[1] + 0.02 * h)

    def right(s):
        blend = math.sin(math.pi * s) ** 2
        x = base[0] + (target[0] - base[0]) * blend + 0.016 * w * math.cos(5 * math.pi * s)
        y = base[1] + (target[1] - base[1]) * blend + 0.016 * w * math.sin(5 * math.pi * s)
        return x, y, 1500.0 + 60.0 * math.sin(2 * math.pi * s)

    def left(s):
        theta = 2 * math.pi * ((s + 0.5) % 1.0)
        return (0.34 * w + 0.05 * w * math.cos(theta),
                0.72 * h + 0.06 * h * math.sin(theta),
                1650.0)

    return right, left


def sign_recipes(spec: SynthSpec, scene: Scene):
    """The recipe table (module docstring): one (right path, left path or
    None) per class; a path maps s in [0, 1] to (x, y, z)."""
    recipes = []
    for c in range(spec.num_classes):
        if spec.depth_pairs:
            key = c // 2
            recipes.append(_loop(scene, key, 1500.0 + 60.0 * key, 220.0 * (c % 2), True))
        elif c in (CROSS_CLASS, FACE_CLASS):
            recipes.append((_crossing if c == CROSS_CLASS else _face_touch)(scene))
        else:
            u1, u2, _ = _draws(c)
            recipes.append(_loop(scene, c, 1450.0 + 250.0 * u1, 50.0 + 80.0 * u2, c % 3 != 0))
    return recipes


def _ellipse_mask(shape, center, axes, angle=0.0):
    """The pixels of a frame inside a rotated ellipse: (box, inside), a pair
    of slices that cuts a box out of the frame and the box's boolean mask.

    No point of the ellipse lies farther from its center than the larger
    semi-axis, so the box is that square plus a 1-px margin, clipped to the
    frame (and empty off it); every pixel outside the box is outside.
    """
    h, w = shape
    reach = max(axes) + 1.0
    x0 = max(0, math.floor(center[0] - reach))
    x1 = max(x0, min(w, math.ceil(center[0] + reach) + 1))
    y0 = max(0, math.floor(center[1] - reach))
    y1 = max(y0, min(h, math.ceil(center[1] + reach) + 1))
    ys, xs = np.mgrid[y0:y1, x0:x1]
    dx = xs - center[0]
    dy = ys - center[1]
    c, s = math.cos(angle), math.sin(angle)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return (slice(y0, y1), slice(x0, x1)), (u / axes[0]) ** 2 + (v / axes[1]) ** 2 <= 1.0


@dataclass
class GroundTruth:
    right_masks: list = field(default_factory=list)
    left_masks: list = field(default_factory=list)
    trajectory: np.ndarray | None = None   # (T, 6): rx ry rz lx ly lz


def _render_sequence(spec: SynthSpec, scene: Scene, rng, recipe, style: SignerStyle,
                     seq_dir: Path, signer_name, label, handedness):
    """Draw one sequence of the class whose `sign_recipes` entry is `recipe`
    and write it to `seq_dir` frame by frame; a left-handed signer's frames,
    masks, joints and trajectory are mirrored."""
    w, h = spec.width, spec.height
    mirrored = handedness == "left"
    n_frames = spec.frames + int(rng.integers(-4, 5))
    n_frames = max(n_frames, 12)
    # pixel-space noise scales with resolution: same scene, finer sampling
    traj_noise = spec.traj_noise * w / 160.0
    skeleton_noise = spec.skeleton_noise * w / 160.0

    # per-sample monotone time warp, endpoints pinned
    warp_amp = float(rng.uniform(0.0, 0.45))
    warp_phase = float(rng.uniform(0.0, 2 * math.pi))

    def warp(u):
        return u + (warp_amp / (2 * math.pi)) * (
            math.sin(2 * math.pi * u + warp_phase) - math.sin(warp_phase)
        )

    # static scene layers (identical across frames: no motion energy)
    static_noise = rng.uniform(-6.0, 6.0, size=(h, w, 1))
    color_static = np.clip(BACKGROUND_BASE[None, None, :] + static_noise, 0, 255)
    depth_static = np.full((h, w), BACKGROUND_Z)

    # the texture and depth noise are drawn for the whole frame, which fixes
    # the RNG stream, but shade only the pixels under the torso and the head
    tex = rng.uniform(-1.0, 1.0, size=(h, w, 1))
    for center, axes, base, shade, z, spread in (
            ((0.5 * w, 0.72 * h), (0.17 * w, 0.30 * h), CLOTH_BASE, 0.10, TORSO_Z, 12),
            (scene.head, scene.head_axes, SKIN_BASE, 0.12, FACE_Z, 10)):
        box, inside = _ellipse_mask((h, w), center, axes)
        color_static[box][inside] = np.clip(base * (1.0 + shade * tex[box][inside]), 0, 255)
        depth_static[box][inside] = z + rng.uniform(-spread, spread, size=(h, w))[box][inside]
    # rounded once: each frame copies these and writes its hands' rounded pixels
    color_static = np.round(color_static).astype(np.uint8)
    depth_static = np.round(depth_static).astype(np.uint16)

    hand_tiles = {hand: rng.uniform(-1.0, 1.0, size=(64, 64)) for hand in ("right", "left")}
    rest_left = style.apply((0.36 * w, 0.78 * h), scene.neck)
    base_radii = scene.hand_radii
    radii = (base_radii[0] * (1.0 + style.aspect),
             base_radii[1] * (1.0 - style.aspect))

    positions = {"right": [], "left": []}
    for t in range(n_frames):
        s = warp(t / (n_frames - 1))
        jitter = rng.normal(0.0, traj_noise, size=4) if traj_noise > 0 else np.zeros(4)
        for k, (hand, path) in enumerate(zip(("right", "left"), recipe)):
            if path is None:   # the idle hand truly rests: no jitter, no depth swing
                positions[hand].append((*rest_left, 1700.0))
                continue
            x, y, z = path(s)
            x, y = style.apply((x, y), scene.neck)
            positions[hand].append((x + jitter[2 * k], y + jitter[2 * k + 1],
                                    float(np.clip(z + style.z_shift, 1350.0, 1940.0))))

    with (recording_writer(seq_dir, signer_name, label, handedness, spec.fps) as append,
          open(seq_dir / GT_STREAMS["left"], "wb") as left_out,
          open(seq_dir / GT_STREAMS["right"], "wb") as right_out):
        mask_out = {"left": left_out, "right": right_out}
        for t in range(n_frames):
            color = color_static.copy()
            depth = depth_static.copy()

            hands = sorted(
                [("right", positions["right"][t]), ("left", positions["left"][t])],
                key=lambda item: -item[1][2],   # far hand first, near hand overwrites
            )
            masks = {hand: np.zeros((h, w), dtype=np.uint8) for hand in ("left", "right")}
            for hand, (hx, hy, hz) in hands:
                # along the path; a resting hand's neighbours coincide: angle 0
                prev = positions[hand][max(t - 1, 0)]
                nxt = positions[hand][min(t + 1, n_frames - 1)]
                angle = math.atan2(nxt[1] - prev[1], nxt[0] - prev[0])
                box, inside = _ellipse_mask((h, w), (hx, hy), radii, angle)
                masks[hand][box][inside] = 255
                if not inside.any():
                    continue
                # frame coordinates of the hand's pixels, in row-major order
                ys, xs = np.nonzero(inside)
                ys, xs = ys + box[0].start, xs + box[1].start
                u = (xs - int(round(hx))) % 64
                v = (ys - int(round(hy))) % 64
                static_part = hand_tiles[hand][v, u]
                alternating = (((xs + ys + t) % 2) * 2 - 1).astype(float)
                lum = 1.0 + 0.15 * static_part + 0.22 * alternating
                color[box][inside] = np.round(np.clip(SKIN_BASE[None, :] * lum[:, None], 0, 255))
                dn = rng.uniform(-spec.depth_noise, spec.depth_noise, size=len(ys)) \
                    if spec.depth_noise > 0 else 0.0
                depth[box][inside] = np.round(np.clip(hz + dn, 500.0, 60000.0))

            if mirrored:      # the writers copy these flipped views out
                color, depth = color[:, ::-1], depth[:, ::-1]
                masks = {"left": masks["right"][:, ::-1], "right": masks["left"][:, ::-1]}
            for hand in ("left", "right"):
                append_pgm8(mask_out[hand], masks[hand])

            # body joints are the tracker's most stable outputs; hands are not
            joint_noise = rng.normal(0.0, 0.1 * w / 160.0, size=(5, 2))
            hand_noise = rng.normal(0.0, skeleton_noise, size=(2, 2)) \
                if skeleton_noise > 0 else np.zeros((2, 2))
            hand_znoise = rng.normal(0.0, 15.0, size=2)
            rx, ry, rz = positions["right"][t]
            lx, ly, lz = positions["left"][t]
            joints = {
                "neck": (scene.neck[0] + joint_noise[0, 0], scene.neck[1] + joint_noise[0, 1],
                         TORSO_Z),
                "torso": (scene.torso_joint[0] + joint_noise[1, 0],
                          scene.torso_joint[1] + joint_noise[1, 1], TORSO_Z),
                "shoulder_left": (scene.neck[0] + scene.span / 2 + joint_noise[2, 0],
                                  scene.shoulder_y + joint_noise[2, 1], TORSO_Z),
                "shoulder_right": (scene.neck[0] - scene.span / 2 + joint_noise[3, 0],
                                   scene.shoulder_y + joint_noise[3, 1], TORSO_Z),
                "hand_right": (rx + hand_noise[0, 0], ry + hand_noise[0, 1], rz + hand_znoise[0]),
                "hand_left": (lx + hand_noise[1, 0], ly + hand_noise[1, 1], lz + hand_znoise[1]),
                "head": (scene.head[0] + joint_noise[4, 0], scene.head[1] + joint_noise[4, 1],
                         FACE_Z),
            }
            pose = SkeletonPose(joints)
            append(color, depth, mirror_pose(pose, w) if mirrored else pose)

    traj = np.hstack([positions["right"], positions["left"]])
    if mirrored:
        traj = traj[:, [3, 4, 5, 0, 1, 2]]
        traj[:, [0, 3]] = (w - 1) - traj[:, [0, 3]]
    lines = [" ".join(repr(float(v)) for v in row) for row in traj]
    (seq_dir / GT_TRAJECTORY).write_text("\n".join(lines) + "\n")


def load_ground_truth(seq_dir) -> GroundTruth:
    """The masks and trajectory `_render_sequence` wrote to `seq_dir`; a
    malformed file raises LoadError naming it (and the image or line)."""
    root = Path(seq_dir)
    traj_path = root / GT_TRAJECTORY
    rows = []
    for lineno, line in enumerate(read_text(traj_path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = [float(v) for v in line.split()]
        except ValueError:
            raise LoadError(f"{traj_path}:{lineno}: non-numeric value") from None
        if len(row) != 6:
            raise LoadError(f"{traj_path}:{lineno}: {len(row)} values, expected 6")
        rows.append(row)
    return GroundTruth(
        right_masks=[m > 0 for m in read_pgm8_stream(root / GT_STREAMS["right"])],
        left_masks=[m > 0 for m in read_pgm8_stream(root / GT_STREAMS["left"])],
        trajectory=np.array(rows),
    )


def _emit_skin_corpus(out_dir: Path, rng):
    skin = []
    for lum in np.linspace(0.60, 1.40, 80):
        base = SKIN_BASE * lum
        for _ in range(6):
            skin.append(np.clip(base + rng.uniform(-5, 5, size=3), 0, 255))
    nonskin = []
    for base in (CLOTH_BASE, BACKGROUND_BASE):
        for lum in np.linspace(0.6, 1.4, 60):
            for _ in range(4):
                nonskin.append(np.clip(base * lum + rng.uniform(-5, 5, size=3), 0, 255))
    for k in np.linspace(5, 250, 40):        # gray ramp
        nonskin.append(np.array([k, k, k]))
    for base in ([200, 40, 40], [40, 180, 60], [230, 220, 40], [150, 60, 200]):
        for lum in np.linspace(0.7, 1.3, 12):
            nonskin.append(np.clip(np.array(base, dtype=float) * lum, 0, 255))
    write_pixel_list(out_dir / SKIN_FILES[0], skin)
    write_pixel_list(out_dir / SKIN_FILES[1], nonskin)


def generate_synthetic_corpus(spec: SynthSpec, seed, out_dir) -> DatasetManifest:
    """Render the full corpus; file content is a pure function of (spec, seed)."""
    spec.validate()
    scene = Scene(spec.width, spec.height)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _emit_skin_corpus(out, np.random.default_rng([seed, 777]))

    entries = []
    for ci, recipe in enumerate(sign_recipes(spec, scene)):
        label = f"sign{ci:02d}"
        for si in range(spec.num_signers):
            signer = f"signer{chr(ord('A') + si)}"
            style = signer_style(spec, seed, si)
            handedness = "left" if si in tuple(spec.left_handed) else "right"
            for ni in range(spec.samples):
                rng = np.random.default_rng([seed, ci, si, ni])
                name = f"{label}_{signer}_{ni:02d}"
                _render_sequence(spec, scene, rng, recipe, style, out / name,
                                 signer, label, handedness)
                entries.append(ManifestEntry(path=name, signer_id=signer, sign_label=label,
                                             handedness=handedness))
    manifest = DatasetManifest(entries).validate()
    manifest.save(out / "manifest.tsv")
    return manifest
