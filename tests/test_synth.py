import hashlib
from pathlib import Path

import numpy as np
import pytest

from signrec.dataio import (SKIN_FILES, LoadError, load_sequence, parse_pixel_list,
                            shoulder_distance)
from signrec.synth import (Scene, SynthSpec, generate_synthetic_corpus, load_ground_truth,
                           sign_recipes)

SMALL = dict(num_classes=3, num_signers=2, samples=2, frames=18, width=96, height=72)
# perfbench/bench.py's BENCH_SPEC: the corpus every bench workload renders
BENCH = dict(num_classes=2, num_signers=4, samples=3, frames=36, width=160, height=120,
             style_strength=1.6, left_handed=(1,))


def corpus_digest(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestDeterminism:
    def test_same_spec_seed_byte_identical(self, tmp_path):
        spec = SynthSpec(**SMALL, style_strength=1.0, left_handed=(1,))
        generate_synthetic_corpus(spec, 5, tmp_path / "a")
        generate_synthetic_corpus(spec, 5, tmp_path / "b")
        assert corpus_digest(tmp_path / "a") == corpus_digest(tmp_path / "b")

    # Each digest was taken from the renderer before its static layers were
    # rounded once and its hands drawn in their ellipse boxes, with numpy 2.4.
    # Regenerate one only when numpy's Generator stream changes, never to let
    # a change of the rendered bytes pass.
    @pytest.mark.parametrize("fields, seed, digest", [
        (dict(SMALL, style_strength=1.0, left_handed=(1,)), 5,
         "f28b146a662e337ab059b3e33c146816d9f977207e525cd2a99753640f0adacb"),
        # the crossing, face and depth-pair classes
        (dict(num_classes=4, num_signers=2, samples=1, frames=16, width=160, height=120,
              style_strength=1.6, left_handed=(1,), depth_pairs=True), 2024,
         "4842f03aec37b5cdb4c2d88b4cd64a638d051b24af36ae8c1deabef7087035ff"),
        # 87 ellipse boxes clip the frame edge and 11 hands lie wholly off it
        (dict(num_classes=3, num_signers=2, samples=2, frames=12, width=24, height=18,
              style_strength=3.0, traj_noise=20.0, left_handed=(0,)), 5,
         "9f0879def413d522b282fa17442ff2d7e626cf1f297a9b05d2d033c8a1ff9fee"),
        # the default style strength, 0; taken from the renderer that returned
        # a fixed all-zero SignerStyle at strength 0 instead of computing one
        (dict(SMALL, left_handed=(1,)), 5,
         "108705af8240cfe27c5460419fd780090a04d7a7a372a11a987ddb32b6f56543"),
        # taken from the renderer that picked each class's paths by its index
        (BENCH, 2024, "cde5af72c975774292a5e35c48c83dec5ecdebd1e865e5c57a6439b4f8f66208"),
        (BENCH, 7, "552121e30ab8ff996d0a097055c1d0a8e845fba2d7a61ba346218713fe7e2e9b"),
    ], ids=["small", "special-classes", "clipped-hands", "style-0", "bench-2024", "bench-7"])
    def test_corpus_bytes_pinned(self, tmp_path, fields, seed, digest):
        generate_synthetic_corpus(SynthSpec(**fields), seed, tmp_path)
        assert corpus_digest(tmp_path) == digest

    def test_different_seed_differs(self, tmp_path):
        spec = SynthSpec(**SMALL)
        generate_synthetic_corpus(spec, 5, tmp_path / "a")
        generate_synthetic_corpus(spec, 6, tmp_path / "b")
        assert corpus_digest(tmp_path / "a") != corpus_digest(tmp_path / "b")


class TestContents:
    def test_manifest_counts(self, tmp_path):
        spec = SynthSpec(num_classes=10, num_signers=4, samples=6, frames=12,
                         width=64, height=48)
        manifest = generate_synthetic_corpus(spec, 1, tmp_path)
        assert len(manifest.entries) == 240
        assert len(manifest.vocabulary) == 10

    def test_degenerate_specs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(SynthSpec(num_classes=1), 0, tmp_path)
        with pytest.raises(ValueError):
            generate_synthetic_corpus(SynthSpec(samples=0), 0, tmp_path)
        for field, value in [("width", 0), ("height", -1), ("depth_noise", -3.0),
                             ("traj_noise", -1.0), ("skeleton_noise", -0.5), ("fps", 0.0),
                             ("fps", float("nan")), ("left_handed", (9,)),
                             ("left_handed", (-1,)), ("style_strength", float("nan")),
                             ("depth_noise", float("inf")), ("traj_noise", float("inf")),
                             ("skeleton_noise", float("inf"))]:
            spec = SynthSpec(**dict(SMALL, num_signers=1, **{field: value}))
            with pytest.raises(ValueError, match=field):
                generate_synthetic_corpus(spec, 0, tmp_path / field)
            assert not (tmp_path / field).exists()

    def test_zero_noise_centroid_matches_trajectory(self, tmp_path):
        spec = SynthSpec(
            num_classes=3, num_signers=1, samples=1, frames=20, width=128,
            height=96, traj_noise=0.0, depth_noise=0.0, skeleton_noise=0.0,
        )
        manifest = generate_synthetic_corpus(spec, 3, tmp_path)
        for entry in manifest.entries:
            gt = load_ground_truth(tmp_path / entry.path)
            for t, mask in enumerate(gt.right_masks):
                ys, xs = np.nonzero(mask)
                cx, cy = xs.mean(), ys.mean()
                gx, gy = gt.trajectory[t, 0], gt.trajectory[t, 1]
                assert abs(cx - gx) <= 1.0 and abs(cy - gy) <= 1.0

    def test_shoulder_span_matches_scene(self, tmp_path):
        spec = SynthSpec(**SMALL)
        manifest = generate_synthetic_corpus(spec, 9, tmp_path)
        expected = Scene(spec.width, spec.height).span
        for entry in manifest.entries[:3]:
            seq = load_sequence(tmp_path / entry.path)
            assert shoulder_distance(seq) == pytest.approx(expected, abs=1.0)

    def test_left_handed_signer_marked_and_mirrored(self, tmp_path):
        spec = SynthSpec(**SMALL, left_handed=(1,))
        manifest = generate_synthetic_corpus(spec, 2, tmp_path)
        lefties = [e for e in manifest.entries if e.signer_id == "signerB"]
        assert lefties and all(e.handedness == "left" for e in lefties)
        seq = load_sequence(tmp_path / lefties[0].path)
        assert seq.handedness == "left"

    def test_skin_corpus_emitted_and_separable(self, tmp_path):
        generate_synthetic_corpus(SynthSpec(**SMALL), 4, tmp_path)
        skin, nonskin = (parse_pixel_list((tmp_path / name).read_text())
                         for name in SKIN_FILES)
        assert len(skin) > 100 and len(nonskin) > 100
        # chromaticity separation: skin is strongly red-dominant
        r_skin = skin[:, 0] / skin.sum(axis=1)
        r_non = nonskin[:, 0] / np.maximum(nonskin.sum(axis=1), 1)
        assert r_skin.min() > 0.4
        assert np.median(r_non) < 0.4

    def test_seven_files_per_recording(self, tmp_path):
        manifest = generate_synthetic_corpus(SynthSpec(**SMALL, left_handed=(1,)), 3, tmp_path)
        for entry in manifest.entries:
            assert sorted(p.name for p in (tmp_path / entry.path).iterdir()) == [
                "color.ppm", "depth.pgm", "gt_left.pgm", "gt_right.pgm", "gt_traj.txt",
                "meta.txt", "skeleton.txt"]
            seq = load_sequence(tmp_path / entry.path)
            gt = load_ground_truth(tmp_path / entry.path)
            assert len(gt.left_masks) == len(gt.right_masks) == len(seq)
            assert gt.trajectory.shape == (len(seq), 6)

    @pytest.mark.parametrize("row, message", [
        (b"1 2 x 4 5 6", "non-numeric value"), (b"1 2 3", "3 values, expected 6"),
        (b"1 2 3 4 5 \xff", "not UTF-8")])
    def test_bad_trajectory_row_named(self, tmp_path, row, message):
        spec = SynthSpec(num_classes=2, num_signers=1, samples=1, frames=12, width=32,
                         height=24)
        root = tmp_path / generate_synthetic_corpus(spec, 1, tmp_path).entries[0].path
        lines = (root / "gt_traj.txt").read_bytes().splitlines()
        lines[3] = row
        (root / "gt_traj.txt").write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(LoadError, match=f"gt_traj.txt(:4)?: {message}"):
            load_ground_truth(root)

    def test_ground_truth_depth_ahead_of_torso(self, tmp_path):
        spec = SynthSpec(**SMALL)
        manifest = generate_synthetic_corpus(spec, 8, tmp_path)
        gt = load_ground_truth(tmp_path / manifest.entries[0].path)
        assert np.all(gt.trajectory[:, 2] < 2000.0)

    def test_depth_pairs_share_xy(self, tmp_path):
        spec = SynthSpec(num_classes=4, num_signers=1, samples=1, frames=16,
                         width=96, height=72, depth_pairs=True, traj_noise=0.0,
                         skeleton_noise=0.0)
        manifest = generate_synthetic_corpus(spec, 2, tmp_path)
        by_label = {e.sign_label: e for e in manifest.entries}
        g0 = load_ground_truth(tmp_path / by_label["sign00"].path)
        g1 = load_ground_truth(tmp_path / by_label["sign01"].path)
        xy0 = g0.trajectory[:, 0:2]
        xy1 = g1.trajectory[:, 0:2]
        # same xy loop, individually time-warped: curves coincide even though
        # per-frame positions differ
        dists = np.linalg.norm(xy0[:, None, :] - xy1[None, :, :], axis=2)
        hausdorff = max(dists.min(axis=1).max(), dists.min(axis=0).max())
        assert hausdorff <= 2.0
        # depth profiles clearly apart: one flat, one swinging
        assert np.ptp(g0.trajectory[:, 2]) <= 1.0
        assert np.ptp(g1.trajectory[:, 2]) >= 300.0


class TestRecipes:
    """The recipe table at the paper's vocabulary of 94 signs; nothing is rendered."""
    S = np.linspace(0.0, 1.0, 41)

    @staticmethod
    def recipes(**fields):
        spec = SynthSpec(num_classes=94, **fields)
        recipes = sign_recipes(spec, Scene(spec.width, spec.height))
        assert len(recipes) == 94
        return recipes

    def test_one_handed_classes(self):
        # every third class rests its left hand; the crossing (1) and face (2)
        # classes use both
        one_handed = [c for c, (_, left) in enumerate(self.recipes()) if left is None]
        assert one_handed == list(range(0, 94, 3))

    def test_depth_pairs_share_xy_and_the_even_class_is_flat(self):
        recipes = self.recipes(depth_pairs=True)
        for k in range(47):
            flat, swinging = recipes[2 * k], recipes[2 * k + 1]
            for a, b in zip(flat, swinging):
                assert a is not None and b is not None
                assert all(a(s)[:2] == b(s)[:2] for s in self.S)
                assert len({a(s)[2] for s in self.S}) == 1
                assert np.ptp([b(s)[2] for s in self.S]) > 400.0


class TestPixelList:
    def test_rows_parse_to_uint8(self):
        pixels = parse_pixel_list("0 1 2\n\n255 128 7  \n")
        assert pixels.dtype == np.uint8
        assert pixels.tolist() == [[0, 1, 2], [255, 128, 7]]
        assert parse_pixel_list("").shape == (0, 3)

    @pytest.mark.parametrize("line", ["256 0 0", "-1 2 3", "1.5 2 3", "1 2", "1 2 3 4",
                                      "a b c", "1e2 3 4"])
    def test_bad_rows_rejected_with_their_line(self, line):
        with pytest.raises(ValueError, match="line 2"):
            parse_pixel_list(f"10 20 30\n{line}\n")
