import hashlib
from pathlib import Path

import numpy as np
import pytest

from signrec.dataio import SKIN_FILES, load_sequence, parse_pixel_list, shoulder_distance
from signrec.synth import Scene, SynthSpec, generate_synthetic_corpus, load_ground_truth

SMALL = dict(num_classes=3, num_signers=2, samples=2, frames=18, width=96, height=72)


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
