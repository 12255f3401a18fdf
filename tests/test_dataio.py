import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signrec.dataio import (
    DatasetManifest,
    FrameSequence,
    LoadError,
    ManifestEntry,
    SkeletonPose,
    load_record,
    load_sequence,
    mirror_sequence,
    save_sequence,
    shoulder_distance,
)
from signrec.features import FeatureSample, load_sample, save_sample
from signrec.hmm import ClassifierBank, HmmModel, load_model, save_model
from signrec.signerlda import LdaTransform


def make_pose(hand_right=(300.0, 250.0, 1500.0), hand_left=(340.0, 250.0, 1500.0),
              shoulders=((200.0, 240.0), (280.0, 240.0))):
    joints = {
        "neck": (240.0, 200.0, 2000.0),
        "torso": (240.0, 300.0, 2000.0),
        "shoulder_left": (shoulders[0][0], shoulders[0][1], 2000.0),
        "shoulder_right": (shoulders[1][0], shoulders[1][1], 2000.0),
        "hand_left": hand_left,
        "hand_right": hand_right,
        "head": (240.0, 120.0, 1950.0),
    }
    return SkeletonPose(joints, {name: 1.0 for name in joints})


def make_sequence(n=3, w=64, h=48, rng=None):
    rng = rng or np.random.default_rng(0)
    return FrameSequence(
        color_frames=[rng.integers(0, 256, (h, w, 3), dtype=np.uint8) for _ in range(n)],
        depth_frames=[rng.integers(0, 4000, (h, w), dtype=np.uint16) for _ in range(n)],
        skeleton=[make_pose() for _ in range(n)],
        fps=30.0,
        signer_id="signerA",
        sign_label="sign00",
    )


class TestRoundTrip:
    def test_three_frame_sequence(self, tmp_path):
        seq = make_sequence(3)
        save_sequence(seq, tmp_path / "s")
        loaded = load_sequence(tmp_path / "s")
        assert len(loaded) == 3

    def test_pixels_bit_identical(self, tmp_path):
        seq = make_sequence(4)
        save_sequence(seq, tmp_path / "s")
        loaded = load_sequence(tmp_path / "s")
        for a, b in zip(seq.color_frames, loaded.color_frames):
            assert np.array_equal(a, b)
        for a, b in zip(seq.depth_frames, loaded.depth_frames):
            assert np.array_equal(a, b)
        for pa, pb in zip(seq.skeleton, loaded.skeleton):
            for name in pa.joints:
                assert pa.joints[name] == pytest.approx(pb.joints[name], abs=0)

    def test_length_mismatch_rejected(self, tmp_path):
        seq = make_sequence(3)
        save_sequence(seq, tmp_path / "s")
        (tmp_path / "s" / "depth_000002.pgm").unlink()
        with pytest.raises(LoadError, match="depth"):
            load_sequence(tmp_path / "s")

    def test_missing_skeleton_named(self, tmp_path):
        seq = make_sequence(3)
        save_sequence(seq, tmp_path / "s")
        (tmp_path / "s" / "skeleton.txt").unlink()
        with pytest.raises(LoadError, match="skeleton.txt"):
            load_sequence(tmp_path / "s")

    def test_malformed_header_named(self, tmp_path):
        seq = make_sequence(3)
        save_sequence(seq, tmp_path / "s")
        bad = tmp_path / "s" / "color_000001.ppm"
        bad.write_bytes(b"P3\n2 2\n255\n" + bytes(12))
        with pytest.raises(LoadError, match="color_000001"):
            load_sequence(tmp_path / "s")

    def test_non_numeric_fps_named(self, tmp_path):
        save_sequence(make_sequence(3), tmp_path / "s")
        meta = tmp_path / "s" / "meta.txt"
        meta.write_text(meta.read_text().replace("fps=30.0", "fps=fast"))
        with pytest.raises(LoadError, match="meta.txt"):
            load_sequence(tmp_path / "s")


class TestMirror:
    def test_involution_bit_identical(self):
        seq = make_sequence(3)
        twice = mirror_sequence(mirror_sequence(seq))
        for a, b in zip(seq.color_frames, twice.color_frames):
            assert np.array_equal(a, b)
        for a, b in zip(seq.depth_frames, twice.depth_frames):
            assert np.array_equal(a, b)
        for pa, pb in zip(seq.skeleton, twice.skeleton):
            assert pa.joints == pb.joints

    def test_edge_column_maps_to_other_edge(self):
        seq = make_sequence(2, w=640, h=480)
        seq.skeleton[0].joints["hand_right"] = (0.0, 100.0, 1500.0)
        mirrored = mirror_sequence(seq)
        # joint names swap sides; x = 0 lands on x = 639
        assert mirrored.skeleton[0].joints["hand_left"][0] == 639.0

    def test_left_right_joints_swap(self):
        seq = make_sequence(2)
        mirrored = mirror_sequence(seq)
        orig = seq.skeleton[0].joints
        flip = mirrored.skeleton[0].joints
        w = seq.color_frames[0].shape[1]
        assert flip["hand_right"][0] == (w - 1) - orig["hand_left"][0]
        assert flip["shoulder_left"][1] == orig["shoulder_right"][1]

    def test_shoulder_distance_invariant(self):
        seq = make_sequence(6)
        assert shoulder_distance(mirror_sequence(seq)) == pytest.approx(
            shoulder_distance(seq)
        )


class TestShoulderDistance:
    def test_constant_shoulders(self):
        seq = make_sequence(6)
        assert shoulder_distance(seq) == pytest.approx(80.0)

    def test_median_ignores_one_outlier(self):
        seq = make_sequence(5)
        seq.skeleton[2] = make_pose(shoulders=((0.0, 240.0), (500.0, 240.0)))
        assert shoulder_distance(seq) == pytest.approx(80.0)

    def test_short_sequence_uses_all_frames(self):
        seq = make_sequence(3)
        assert shoulder_distance(seq) == pytest.approx(80.0)

    def test_coincident_shoulders_rejected(self):
        seq = make_sequence(3)
        for t in range(3):
            seq.skeleton[t] = make_pose(shoulders=((240.0, 240.0), (240.0, 240.0)))
        with pytest.raises(ValueError, match="shoulder"):
            shoulder_distance(seq)


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = DatasetManifest(
            [
                ManifestEntry("a", "signerA", "sign00", "right"),
                ManifestEntry("b", "signerB", "sign01", "left"),
            ]
        )
        manifest.save(tmp_path / "m.tsv")
        loaded = DatasetManifest.load(tmp_path / "m.tsv")
        assert loaded.entries == manifest.entries
        assert loaded.vocabulary == ["sign00", "sign01"]

    def test_duplicate_paths_rejected(self):
        manifest = DatasetManifest(
            [
                ManifestEntry("a", "signerA", "sign00"),
                ManifestEntry("a", "signerB", "sign01"),
            ]
        )
        with pytest.raises(ValueError, match="duplicate"):
            manifest.validate()

    def test_duplicate_paths_named_on_load(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a\tsignerA\tsign00\tright\n"
                                        "a\tsignerB\tsign01\tright\n")
        with pytest.raises(LoadError, match="m.tsv.*duplicate"):
            DatasetManifest.load(tmp_path / "m.tsv")


# a manifest field: no tab, and nothing str.splitlines breaks a line at
BREAKS = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
FIELDS = st.text(st.characters(exclude_characters=BREAKS), max_size=12)


class TestRecords:
    def test_garbage_bytes_named(self, tmp_path):
        bad = tmp_path / "junk.npz"
        bad.write_bytes(b"these bytes are not a record")
        with pytest.raises(LoadError, match="junk.npz"):
            load_record(bad)

    @settings(max_examples=40, deadline=None)
    @given(labels=st.lists(FIELDS, min_size=1, max_size=3, unique=True), spec=FIELDS)
    def test_artefacts_round_trip_any_manifest_label(self, labels, spec):
        rng = np.random.default_rng(0)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            entries = [ManifestEntry(f"p{i}", label, label) for i, label in enumerate(labels)]
            DatasetManifest(entries).save(tmp / "m.tsv")
            assert DatasetManifest.load(tmp / "m.tsv").entries == entries

            models = {label: HmmModel(label, rng.normal(size=(3, 2)),
                                      rng.uniform(0.5, 2.0, size=(3, 2)), np.eye(5))
                      for label in labels}
            save_model(models[labels[0]], tmp / "m.txt")
            model = load_model(tmp / "m.txt")
            assert model.label == labels[0]
            assert np.array_equal(model.means, models[labels[0]].means)

            ClassifierBank(models, labels, feature_spec=spec).save(tmp / "bank")
            bank = ClassifierBank.load(tmp / "bank")
            assert bank.vocabulary == labels
            assert bank.feature_spec == spec
            for label in labels:
                assert bank.models[label].label == label
                for name in ("means", "variances", "transitions"):
                    assert np.array_equal(getattr(bank.models[label], name),
                                          getattr(models[label], name))

            transform = LdaTransform(rng.normal(size=(4, 2)), np.array([2.0, 0.5]),
                                     keep_frames=15, shrinkage=1e-3, feature_spec=spec)
            transform.save(tmp / "w.txt")
            loaded = LdaTransform.load(tmp / "w.txt")
            assert loaded.feature_spec == spec
            assert np.array_equal(loaded.weights, transform.weights)

            sample = FeatureSample(rng.normal(size=(5, 3)), labels[0], labels[-1], spec)
            save_sample(sample, tmp / "f.txt")
            again = load_sample(tmp / "f.txt")
            assert (again.sign_label, again.signer_id, again.selected) == (
                labels[0], labels[-1], spec)
            assert np.array_equal(again.frames, sample.frames)
