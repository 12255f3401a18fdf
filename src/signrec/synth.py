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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataio import (
    SKIN_FILES,
    DatasetManifest,
    FrameSequence,
    ManifestEntry,
    SkeletonPose,
    mirror_sequence,
    read_pgm8,
    save_sequence,
    write_pgm8,
    write_pixel_list,
)

GOLDEN = 0.618033988749895

SKIN_BASE = np.array([165.0, 105.0, 80.0])
CLOTH_BASE = np.array([48.0, 62.0, 120.0])
BACKGROUND_BASE = np.array([28.0, 28.0, 32.0])

TORSO_Z = 2000.0
FACE_Z = 1950.0
BACKGROUND_Z = 3200.0


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
    cross_class: int = 1          # index of the hands-crossing class, if < num_classes
    face_class: int = 2           # index of the face-touching class, if < num_classes

    def validate(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 sign classes")
        if self.num_signers < 1 or self.samples < 1:
            raise ValueError("need at least one signer and one sample per class")
        if self.frames < 12:
            raise ValueError("sequences need at least 12 frames")
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
    shift: tuple = (0.0, 0.0)
    aspect: float = 0.0
    z_shift: float = 0.0

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
    if spec.style_strength == 0.0:
        return SignerStyle()
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


def class_trajectory(spec: SynthSpec, scene: Scene, class_index):
    """Closed-loop 3D trajectories (right hand, optional left hand).

    Returns (right_fn, left_fn) where each fn maps s in [0, 1] to (x, y, z);
    left_fn is None for a one-handed sign. Distinct classes get distinct loop
    centers, radii, phases and depth profiles; two special classes make the
    hands cross and touch the face.
    """
    w, h = scene.width, scene.height
    c = class_index
    # all xy parameters derive from `key` so depth-paired classes share the loop
    key = c // 2 if spec.depth_pairs else c
    u1 = (key * GOLDEN) % 1.0
    u2 = (key * GOLDEN * GOLDEN) % 1.0
    u3 = (0.37 + key * 0.23) % 1.0
    one_handed = False if spec.depth_pairs else (c % 3 == 0)

    if spec.depth_pairs:
        z0 = 1500.0 + 60.0 * key
        if c % 2 == 0:
            zamp, zphase = 0.0, 0.0
        else:
            zamp, zphase = 220.0, 2 * math.pi * u3
    else:
        z0 = 1450.0 + 250.0 * u1
        zamp = 50.0 + 80.0 * u2
        zphase = 2 * math.pi * u3

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

    def right(s):
        theta = phase + direction * 2 * math.pi * loops * s
        qx, qy = ax * math.cos(theta), ay * math.sin(theta)
        ct, st = math.cos(tilt), math.sin(tilt)
        x = center[0] + ct * qx - st * qy
        y = center[1] + st * qx + ct * qy
        z = z0 + zamp * math.sin(2 * math.pi * s + zphase)
        return x, y, z

    def left_mirror(s):
        x, y, z = right((s + 0.5) % 1.0)   # anti-phase keeps the hands apart
        return w - x, y, z + 40.0

    if not spec.depth_pairs and c == spec.cross_class and c < spec.num_classes:
        def right_cross(s):
            x = 0.5 * w + 0.17 * w * math.cos(2 * math.pi * s + 0.3)
            y = 0.52 * h + 0.05 * h * math.sin(4 * math.pi * s + 0.3)
            return x, y, 1520.0 + 50.0 * math.sin(2 * math.pi * s)

        def left_cross(s):
            x, y, z = right_cross(s)
            return w - x, y + 0.035 * h, z + 90.0

        return right_cross, left_cross

    if not spec.depth_pairs and c == spec.face_class and c < spec.num_classes:
        base = (0.62 * w, 0.66 * h)
        target = (scene.head[0], scene.head[1] + 0.02 * h)

        def right_face(s):
            blend = math.sin(math.pi * s) ** 2
            x = base[0] + (target[0] - base[0]) * blend + 0.016 * w * math.cos(5 * math.pi * s)
            y = base[1] + (target[1] - base[1]) * blend + 0.016 * w * math.sin(5 * math.pi * s)
            return x, y, 1500.0 + 60.0 * math.sin(2 * math.pi * s)

        def left_small(s):
            theta = 2 * math.pi * ((s + 0.5) % 1.0)
            return (0.34 * w + 0.05 * w * math.cos(theta),
                    0.72 * h + 0.06 * h * math.sin(theta),
                    1650.0)

        return right_face, left_small

    return right, (None if one_handed else left_mirror)


def _ellipse_mask(shape, center, axes, angle=0.0):
    """Pixels of a frame inside a rotated ellipse.

    No point of the ellipse lies farther from its center than the larger
    semi-axis, so the test runs only over that square plus a 1-px margin
    (clipped to the frame); every other pixel is outside.
    """
    h, w = shape
    out = np.zeros((h, w), dtype=bool)
    reach = max(axes) + 1.0
    x0 = max(0, math.floor(center[0] - reach))
    x1 = min(w, math.ceil(center[0] + reach) + 1)
    y0 = max(0, math.floor(center[1] - reach))
    y1 = min(h, math.ceil(center[1] + reach) + 1)
    if x0 >= x1 or y0 >= y1:
        return out
    ys, xs = np.mgrid[y0:y1, x0:x1]
    dx = xs - center[0]
    dy = ys - center[1]
    c, s = math.cos(angle), math.sin(angle)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    out[y0:y1, x0:x1] = (u / axes[0]) ** 2 + (v / axes[1]) ** 2 <= 1.0
    return out


@dataclass
class GroundTruth:
    right_masks: list = field(default_factory=list)
    left_masks: list = field(default_factory=list)
    trajectory: np.ndarray | None = None   # (T, 6): rx ry rz lx ly lz


def _render_sequence(spec: SynthSpec, scene: Scene, rng, right_fn, left_fn,
                     style: SignerStyle, signer_name, label):
    w, h = spec.width, spec.height
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

    torso_mask = _ellipse_mask((h, w), (0.5 * w, 0.72 * h), (0.17 * w, 0.30 * h))
    tex = rng.uniform(-1.0, 1.0, size=(h, w, 1))
    cloth = np.clip(CLOTH_BASE[None, None, :] * (1.0 + 0.10 * tex), 0, 255)
    color_static[torso_mask] = cloth[torso_mask]
    depth_static[torso_mask] = TORSO_Z + rng.uniform(-12, 12, size=(h, w))[torso_mask]

    head_mask = _ellipse_mask((h, w), scene.head, scene.head_axes)
    face = np.clip(SKIN_BASE[None, None, :] * (1.0 + 0.12 * tex), 0, 255)
    color_static[head_mask] = face[head_mask]
    depth_static[head_mask] = FACE_Z + rng.uniform(-10, 10, size=(h, w))[head_mask]

    hand_tiles = {
        "right": rng.uniform(-1.0, 1.0, size=(64, 64)),
        "left": rng.uniform(-1.0, 1.0, size=(64, 64)),
    }
    rest_left = style.apply((0.36 * w, 0.78 * h), scene.neck)
    base_radii = scene.hand_radii
    radii = (base_radii[0] * (1.0 + style.aspect),
             base_radii[1] * (1.0 - style.aspect))

    color_frames, depth_frames, poses = [], [], []
    gt = GroundTruth()
    traj_rows = []

    ys_grid, xs_grid = np.mgrid[0:h, 0:w]

    positions = {"right": [], "left": []}
    for t in range(n_frames):
        s = warp(t / (n_frames - 1))
        rx, ry, rz = right_fn(s)
        rx, ry = style.apply((rx, ry), scene.neck)
        rz = float(np.clip(rz + style.z_shift, 1350.0, 1940.0))
        if left_fn is not None:
            lx, ly, lz = left_fn(s)
            lx, ly = style.apply((lx, ly), scene.neck)
            lz = float(np.clip(lz + style.z_shift, 1350.0, 1940.0))
        else:
            lx, ly = rest_left
            lz = 1700.0
        jitter = rng.normal(0.0, traj_noise, size=4) if traj_noise > 0 else np.zeros(4)
        rx, ry = rx + jitter[0], ry + jitter[1]
        if left_fn is not None:
            lx, ly = lx + jitter[2], ly + jitter[3]
        # else: the idle hand truly rests, no performance jitter
        positions["right"].append((rx, ry, rz))
        positions["left"].append((lx, ly, lz))

    for t in range(n_frames):
        color = color_static.copy()
        depth = depth_static.copy()

        hands = sorted(
            [("right", positions["right"][t]), ("left", positions["left"][t])],
            key=lambda item: -item[1][2],   # far hand first, near hand overwrites
        )
        masks = {}
        for hand, (hx, hy, hz) in hands:
            if hand == "left" and left_fn is None:
                angle = 0.0        # resting hand holds its pose
            else:
                prev = positions[hand][max(t - 1, 0)]
                nxt = positions[hand][min(t + 1, n_frames - 1)]
                angle = math.atan2(nxt[1] - prev[1], nxt[0] - prev[0])
            mask = _ellipse_mask((h, w), (hx, hy), radii, angle)
            masks[hand] = mask
            if not mask.any():
                continue
            u = (xs_grid[mask] - int(round(hx))) % 64
            v = (ys_grid[mask] - int(round(hy))) % 64
            static_part = hand_tiles[hand][v, u]
            alternating = (((xs_grid[mask] + ys_grid[mask] + t) % 2) * 2 - 1).astype(float)
            lum = 1.0 + 0.15 * static_part + 0.22 * alternating
            color[mask] = np.clip(SKIN_BASE[None, :] * lum[:, None], 0, 255)
            dn = rng.uniform(-spec.depth_noise, spec.depth_noise, size=int(mask.sum())) \
                if spec.depth_noise > 0 else 0.0
            depth[mask] = np.clip(hz + dn, 500.0, 60000.0)

        color_frames.append(np.round(color).astype(np.uint8))
        depth_frames.append(np.round(depth).astype(np.uint16))

        # body joints are the tracker's most stable outputs; hands are not
        joint_noise = rng.normal(0.0, 0.1 * w / 160.0, size=(5, 2))
        hand_noise = rng.normal(0.0, skeleton_noise, size=(2, 2)) \
            if skeleton_noise > 0 else np.zeros((2, 2))
        hand_znoise = rng.normal(0.0, 15.0, size=2)
        rx, ry, rz = positions["right"][t]
        lx, ly, lz = positions["left"][t]
        joints = {
            "neck": (scene.neck[0] + joint_noise[0, 0], scene.neck[1] + joint_noise[0, 1], TORSO_Z),
            "torso": (scene.torso_joint[0] + joint_noise[1, 0],
                      scene.torso_joint[1] + joint_noise[1, 1], TORSO_Z),
            "shoulder_left": (scene.neck[0] + scene.span / 2 + joint_noise[2, 0],
                              scene.shoulder_y + joint_noise[2, 1], TORSO_Z),
            "shoulder_right": (scene.neck[0] - scene.span / 2 + joint_noise[3, 0],
                               scene.shoulder_y + joint_noise[3, 1], TORSO_Z),
            "hand_right": (rx + hand_noise[0, 0], ry + hand_noise[0, 1], rz + hand_znoise[0]),
            "hand_left": (lx + hand_noise[1, 0], ly + hand_noise[1, 1], lz + hand_znoise[1]),
            "head": (scene.head[0] + joint_noise[4, 0], scene.head[1] + joint_noise[4, 1], FACE_Z),
        }
        poses.append(SkeletonPose(joints))

        gt.right_masks.append(masks["right"])
        gt.left_masks.append(masks["left"])
        traj_rows.append([rx, ry, rz, lx, ly, lz])

    gt.trajectory = np.array(traj_rows)
    seq = FrameSequence(
        color_frames=color_frames,
        depth_frames=depth_frames,
        skeleton=poses,
        fps=spec.fps,
        signer_id=signer_name,
        sign_label=label,
    )
    return seq, gt


def _mirror_ground_truth(gt: GroundTruth) -> GroundTruth:
    width = gt.right_masks[0].shape[1]
    traj = gt.trajectory.copy()
    flipped = traj.copy()
    flipped[:, 0:3] = traj[:, 3:6]
    flipped[:, 3:6] = traj[:, 0:3]
    flipped[:, 0] = (width - 1) - flipped[:, 0]
    flipped[:, 3] = (width - 1) - flipped[:, 3]
    return GroundTruth(
        right_masks=[m[:, ::-1].copy() for m in gt.left_masks],
        left_masks=[m[:, ::-1].copy() for m in gt.right_masks],
        trajectory=flipped,
    )


def _save_ground_truth(gt: GroundTruth, out_dir: Path):
    for t, (lm, rm) in enumerate(zip(gt.left_masks, gt.right_masks)):
        write_pgm8(out_dir / f"gt_left_{t:06d}.pgm", lm.astype(np.uint8) * 255)
        write_pgm8(out_dir / f"gt_right_{t:06d}.pgm", rm.astype(np.uint8) * 255)
    lines = [
        " ".join(repr(float(v)) for v in row) for row in gt.trajectory
    ]
    (out_dir / "gt_traj.txt").write_text("\n".join(lines) + "\n")


def load_ground_truth(seq_dir) -> GroundTruth:
    root = Path(seq_dir)
    left = sorted(root.glob("gt_left_*.pgm"))
    right = sorted(root.glob("gt_right_*.pgm"))
    traj = np.array(
        [[float(v) for v in line.split()]
         for line in (root / "gt_traj.txt").read_text().splitlines() if line.strip()]
    )
    return GroundTruth(
        right_masks=[read_pgm8(p) > 0 for p in right],
        left_masks=[read_pgm8(p) > 0 for p in left],
        trajectory=traj,
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
    for ci in range(spec.num_classes):
        label = f"sign{ci:02d}"
        right_fn, left_fn = class_trajectory(spec, scene, ci)
        for si in range(spec.num_signers):
            signer = f"signer{chr(ord('A') + si)}"
            style = signer_style(spec, seed, si)
            mirrored = si in tuple(spec.left_handed)
            for ni in range(spec.samples):
                rng = np.random.default_rng([seed, ci, si, ni])
                seq, gt = _render_sequence(
                    spec, scene, rng, right_fn, left_fn, style, signer, label
                )
                if mirrored:
                    seq = mirror_sequence(seq)
                    seq.handedness = "left"
                    gt = _mirror_ground_truth(gt)
                name = f"{label}_{signer}_{ni:02d}"
                seq_dir = out / name
                save_sequence(seq, seq_dir)
                _save_ground_truth(gt, seq_dir)
                entries.append(
                    ManifestEntry(
                        path=name,
                        signer_id=signer,
                        sign_label=label,
                        handedness=seq.handedness,
                    )
                )
    manifest = DatasetManifest(entries).validate()
    manifest.save(out / "manifest.tsv")
    return manifest
