import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    read_pgm8,
    read_pgm16,
    read_ppm,
    save_record,
    save_sequence,
    shoulder_distance,
    write_pgm8,
    write_pgm16,
    write_ppm,
)
from signrec.features import FeatureSample, load_sample, save_sample
from signrec.hmm import ClassifierBank, HmmModel
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
    return SkeletonPose(joints)


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

    def test_skeleton_fifth_field_numeric_but_ignored(self, tmp_path):
        seq = make_sequence(3)
        save_sequence(seq, tmp_path / "s")
        skeleton = tmp_path / "s" / "skeleton.txt"
        text = skeleton.read_text()
        assert text.count(" 1.0") == 3 * len(seq.skeleton[0].joints)
        skeleton.write_text(text.replace(" 1.0", " 0.25"))
        loaded = load_sequence(tmp_path / "s")
        assert [p.joints for p in loaded.skeleton] == [p.joints for p in seq.skeleton]
        skeleton.write_text(text.replace(" 1.0", " high", 1))
        with pytest.raises(LoadError, match="skeleton.txt:1: non-numeric"):
            load_sequence(tmp_path / "s")

    def test_pose_without_hand_named(self, tmp_path):
        save_sequence(make_sequence(3), tmp_path / "s")
        skeleton = tmp_path / "s" / "skeleton.txt"
        lines = skeleton.read_text().splitlines()
        fields = lines[1].split()
        at = fields.index("hand_left")
        lines[1] = " ".join(fields[:at] + fields[at + 5 :])
        skeleton.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError, match=r"s/skeleton.txt:2: frame 1 has no joint 'hand_left'"):
            load_sequence(tmp_path / "s")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_coordinate_named(self, tmp_path, token):
        save_sequence(make_sequence(3), tmp_path / "s")
        skeleton = tmp_path / "s" / "skeleton.txt"
        lines = skeleton.read_text().splitlines()
        fields = lines[1].split()
        fields[fields.index("shoulder_left") + 2] = token
        lines[1] = " ".join(fields)
        skeleton.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError, match=r"s/skeleton.txt:2: joint 'shoulder_left' has "
                                            r"a non-finite coordinate"):
            load_sequence(tmp_path / "s")

    @pytest.mark.parametrize("value", ["Left", "both", ""])
    def test_other_handedness_named(self, tmp_path, value):
        save_sequence(make_sequence(3), tmp_path / "s")
        meta = tmp_path / "s" / "meta.txt"
        meta.write_text(meta.read_text().replace("handedness=right", f"handedness={value}"))
        with pytest.raises(LoadError, match=rf"s/meta.txt: handedness '{value}'"):
            load_sequence(tmp_path / "s")

    def test_non_numeric_fps_named(self, tmp_path):
        save_sequence(make_sequence(3), tmp_path / "s")
        meta = tmp_path / "s" / "meta.txt"
        meta.write_text(meta.read_text().replace("fps=30.0", "fps=fast"))
        with pytest.raises(LoadError, match="meta.txt"):
            load_sequence(tmp_path / "s")


# reader, writer and a valid image of each raster format
PNM = {
    "ppm": (read_ppm, write_ppm, np.arange(18).reshape(2, 3, 3)),
    "pgm16": (read_pgm16, write_pgm16, np.arange(6).reshape(2, 3) * 9000),
    "pgm8": (read_pgm8, write_pgm8, np.arange(6).reshape(2, 3)),
}
HEADERS = st.builds(
    lambda magic, w, h, maxval, raster: b"%s\n%d %d\n%d\n" % (magic, w, h, maxval) + raster,
    st.sampled_from([b"P5", b"P6", b"P3"]), st.integers(-4, 4), st.integers(-4, 4),
    st.sampled_from([255, 65535, 0]), st.binary(max_size=80))


class TestPnm:
    """Frames are outside input: bad bytes raise LoadError naming the file."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(PNM)), cut=st.integers(0, 10**6))
    def test_truncated_file_named(self, kind, cut):
        read, write, image = PNM[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "frame_000007.pnm"
            write(path, image)
            assert np.array_equal(read(path), image)
            data = path.read_bytes()
            path.write_bytes(data[: cut % len(data)])
            with pytest.raises(LoadError, match="frame_000007"):
                read(path)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(PNM)),
           data=st.one_of(st.binary(max_size=60), HEADERS))
    @example(kind="pgm8", data=b"P5\n-2 -3\n255\n" + bytes(6))
    @example(kind="ppm", data=b"P6\n2 1\n255\n" + bytes(5))
    def test_garbage_named(self, kind, data):
        read = PNM[kind][0]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "frame_000007.pnm"
            path.write_bytes(data)
            try:
                read(path)      # the bytes may happen to be a valid file
            except LoadError as exc:
                assert "frame_000007" in str(exc)


class TestRecordingText:
    """skeleton.txt and meta.txt are outside input: truncated or garbage bytes
    raise LoadError naming the file."""

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(["skeleton.txt", "meta.txt"]), keep=st.integers(0, 2000),
           garbage=st.binary(max_size=40),
           token=st.sampled_from([None, "nan", "inf", "-inf", "NaN", "-Infinity", "1e999"]),
           at=st.integers(0, 10**4))
    @example(name="skeleton.txt", keep=2000, garbage=b"\xff\xfe", token=None, at=0)
    @example(name="meta.txt", keep=2000, garbage=b"\xff\xfe", token=None, at=0)
    @example(name="skeleton.txt", keep=2000, garbage=b"", token="nan", at=0)
    def test_truncated_or_garbage_named(self, name, keep, garbage, token, at):
        """`token` replaces one coordinate of skeleton.txt (coordinate `at`,
        counted over the file) before the cut."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "s"
            save_sequence(make_sequence(3, w=8, h=6), root)
            path = root / name
            data = path.read_bytes()
            if token is not None and name == "skeleton.txt":
                lines = [line.split(" ") for line in data.decode().split("\n")]
                slots = [(row, i) for row, fields in enumerate(lines)
                         for i in range(len(fields)) if i % 5 in (1, 2, 3)]
                row, i = slots[at % len(slots)]
                lines[row][i] = token
                data = "\n".join(" ".join(fields) for fields in lines).encode()
            path.write_bytes(data[:keep] + garbage)
            try:
                seq = load_sequence(root)     # the bytes may still be a valid file
            except LoadError as exc:
                assert name in str(exc)
            else:
                assert all(math.isfinite(v) for pose in seq.skeleton
                           for joint in pose.joints.values() for v in joint)


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


    def test_unencodable_field_named_on_save(self, tmp_path):
        manifest = DatasetManifest([ManifestEntry("a", "signerA", "sign\ud800")])
        with pytest.raises(ValueError, match=r"m.tsv.*'sign\\ud800'.*UTF-8"):
            manifest.save(tmp_path / "m.tsv")
        assert not (tmp_path / "m.tsv").exists()

    @pytest.mark.parametrize("entry", [
        # one field spelling a second row: it would load back as two entries
        ManifestEntry("p1\ts1\tl1\tright\np2", "s2", "l2", "right"),
        *(ManifestEntry("a", "signerA", f"sign{c}00") for c in "\r\x0b\x1c\x85\u2028"),
    ])
    def test_tab_or_line_break_named_on_save(self, tmp_path, entry):
        with pytest.raises(ValueError, match=r"m.tsv: manifest field .* of entry "
                                             r".* holds a tab or a line break"):
            DatasetManifest([entry]).save(tmp_path / "m.tsv")
        assert not (tmp_path / "m.tsv").exists()

    @settings(max_examples=200)
    @given(garbage=st.booleans(), cut=st.integers(0, 10**4), pad=st.binary(max_size=40))
    @example(garbage=False, cut=10**4, pad=b"\n\xff")
    @example(garbage=False, cut=10**4, pad=b"x\ty\n")
    def test_garbage_truncated_or_padded_named_on_load(self, garbage, cut, pad):
        """Outside bytes either load or raise LoadError naming the file."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.tsv"
            DatasetManifest([ManifestEntry("a", "signerA", "sign00", "left"),
                             ManifestEntry("b", "signé", "sign01", "right")]).save(path)
            data = path.read_bytes()
            path.write_bytes(pad if garbage else data[: cut % (len(data) + 1)] + pad)
            try:
                DatasetManifest.load(path)
            except LoadError as exc:
                assert "corpus.tsv" in str(exc)

    def test_other_handedness_named_on_save(self, tmp_path):
        manifest = DatasetManifest([ManifestEntry("a", "signerA", "sign00", "Left")])
        with pytest.raises(ValueError, match=r"m.tsv: entry 'a': handedness 'Left'"):
            manifest.save(tmp_path / "m.tsv")
        assert not (tmp_path / "m.tsv").exists()

    @pytest.mark.parametrize("value", ["Left", "RIGHT", "ambi", ""])
    def test_other_handedness_named_on_load(self, tmp_path, value):
        (tmp_path / "m.tsv").write_text(f"a\tsignerA\tsign00\t{value}\n")
        with pytest.raises(LoadError, match=rf"m.tsv: entry 'a': handedness '{value}'"):
            DatasetManifest.load(tmp_path / "m.tsv")

    def test_undecodable_bytes_named_on_load(self, tmp_path):
        (tmp_path / "m.tsv").write_bytes(b"a\tsignerA\tsign\xff\tright\n")
        with pytest.raises(LoadError, match="m.tsv.*UTF-8"):
            DatasetManifest.load(tmp_path / "m.tsv")


def utf8(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# what a manifest field may not hold: a tab, or a break str.splitlines knows
BREAKS = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
FIELDS = st.text(st.one_of(st.characters(), st.sampled_from(BREAKS)), max_size=12)


def breaks_row(text):
    return any(c in BREAKS for c in text)


def write_artefact(kind, tmp):
    """Save one small artefact of `kind`; returns (record path, loader, its
    array members, its metadata keys)."""
    rng = np.random.default_rng(0)
    if kind == "sample":
        save_sample(FeatureSample(rng.normal(size=(5, 3)), "a", "s"), tmp / "f.npz", "k")
        return tmp / "f.npz", load_sample, ("frames",), ("label", "signer", "key")
    if kind == "transform":
        LdaTransform(rng.normal(size=(4, 2)), np.ones(2), 15, 1e-3).save(tmp / "w.npz")
        return (tmp / "w.npz", LdaTransform.load, ("weights", "eigenvalues"),
                ("keep_frames", "shrinkage", "feature_spec"))
    model = HmmModel("a", rng.normal(size=(3, 2)), np.ones((3, 2)), np.full(3, 0.6),
                     np.full(3, 0.4))
    ClassifierBank({"a": model}, ["a"]).save(tmp / "bank")
    return (tmp / "bank" / "models.npz", lambda _: ClassifierBank.load(tmp / "bank"),
            ("means", "variances", "stay", "leave"), ("vocabulary", "feature_spec"))


class TestRecords:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["sample", "transform", "bank"]),
           fault=st.sampled_from(["drop member", "add member", "drop meta key",
                                  "meta number"]),
           pick=st.integers(0, 3), extra=st.from_regex(r"[a-z_]{1,8}", fullmatch=True),
           number=st.one_of(st.integers(), st.floats(allow_nan=False)))
    def test_malformed_records_named(self, kind, fault, pick, extra, number):
        with tempfile.TemporaryDirectory() as tmp:
            path, load, members, keys = write_artefact(kind, Path(tmp))
            with np.load(path) as data:
                arrays = {name: data[name] for name in data.files}
            meta = json.loads(arrays.pop("__meta__").item())
            if fault == "drop member":
                del arrays[members[pick % len(members)]]
            elif fault == "add member":
                arrays[extra + "_extra"] = np.zeros(2)
            elif fault == "drop meta key":
                del meta[keys[pick % len(keys)]]
            else:
                meta = number
            save_record(path, meta, **arrays)
            with pytest.raises(LoadError, match=path.name):
                load(path)

    @pytest.mark.parametrize("kind, key, value", [
        ("bank", "vocabulary", 5), ("bank", "vocabulary", "a"), ("bank", "vocabulary", ["a", 1]),
        ("bank", "feature_spec", None),
        ("transform", "keep_frames", "x"), ("transform", "keep_frames", True),
        ("transform", "shrinkage", None), ("transform", "feature_spec", 3),
        ("sample", "label", 7), ("sample", "signer", None), ("sample", "key", 1.5)])
    def test_metadata_types_checked(self, tmp_path, kind, key, value):
        path, load, members, _ = write_artefact(kind, tmp_path)
        meta, arrays = load_record(path, members, {})
        save_record(path, {**meta, key: value}, **arrays)
        with pytest.raises(LoadError, match=rf"{path.name}: .*{key}"):
            load(path)

    @pytest.mark.parametrize("frames", [np.zeros(5), np.zeros((5, 3), dtype="<U1"),
                                        np.zeros((5, 3), dtype=np.float32), np.zeros((1, 5, 3))])
    def test_sample_frames_checked(self, tmp_path, frames):
        save_record(tmp_path / "f.npz", {"label": "a", "signer": "s", "key": "k"}, frames=frames)
        with pytest.raises(LoadError, match="f.npz: frames"):
            load_sample(tmp_path / "f.npz")

    @pytest.mark.parametrize("weights, eigenvalues", [
        ((3,), (3,)), ((4, 2), (3,)), ((4, 2), (2, 1)), ((4, 2, 1), (2,))])
    def test_transform_shapes_checked(self, tmp_path, weights, eigenvalues):
        save_record(tmp_path / "w.npz",
                    {"keep_frames": 15, "shrinkage": 1e-3, "feature_spec": ""},
                    weights=np.ones(weights), eigenvalues=np.ones(eigenvalues))
        with pytest.raises(LoadError, match="w.npz.*shapes"):
            LdaTransform.load(tmp_path / "w.npz")

    def test_garbage_bytes_named(self, tmp_path):
        bad = tmp_path / "junk.npz"
        bad.write_bytes(b"these bytes are not a record")
        with pytest.raises(LoadError, match="junk.npz"):
            load_record(bad, ("frames",), {})

    @settings(max_examples=40, deadline=None)
    @given(labels=st.lists(FIELDS, min_size=1, max_size=3, unique=True), spec=FIELDS)
    @example(labels=["sign\ud800", "é"], spec="pos\udfff")   # records escape surrogates
    @example(labels=["l1\tright\np1", "sign\u2028"], spec="pos\n")
    def test_artefacts_round_trip_any_manifest_label(self, labels, spec):
        rng = np.random.default_rng(0)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            entries = [ManifestEntry(f"p{i}", label, label) for i, label in enumerate(labels)]
            bad = [label for label in labels if breaks_row(label) or not utf8(label)]
            if not bad:
                DatasetManifest(entries).save(tmp / "m.tsv")
                assert DatasetManifest.load(tmp / "m.tsv").entries == entries
            else:   # the manifest refuses the first such label by name
                reason = "tab or a line break" if breaks_row(bad[0]) else "not encodable"
                with pytest.raises(ValueError, match=reason):
                    DatasetManifest(entries).save(tmp / "m.tsv")
                assert not (tmp / "m.tsv").exists()

            models = {label: HmmModel(label, rng.normal(size=(3, 2)),
                                      rng.uniform(0.5, 2.0, size=(3, 2)),
                                      np.full(3, 0.6), np.full(3, 0.4))
                      for label in labels}
            ClassifierBank(models, labels, feature_spec=spec).save(tmp / "bank")
            bank = ClassifierBank.load(tmp / "bank")
            assert bank.vocabulary == labels
            assert bank.feature_spec == spec
            for label in labels:
                assert bank.models[label].label == label
                for name in ("means", "variances", "stay", "leave"):
                    assert np.array_equal(getattr(bank.models[label], name),
                                          getattr(models[label], name))

            transform = LdaTransform(rng.normal(size=(4, 2)), np.array([2.0, 0.5]),
                                     keep_frames=15, shrinkage=1e-3, feature_spec=spec)
            transform.save(tmp / "w.txt")
            loaded = LdaTransform.load(tmp / "w.txt")
            assert loaded.feature_spec == spec
            assert np.array_equal(loaded.weights, transform.weights)

            sample = FeatureSample(rng.normal(size=(5, 3)), labels[0], labels[-1])
            save_sample(sample, tmp / "f.txt", key=spec)
            again = load_sample(tmp / "f.txt", key=spec)
            assert (again.sign_label, again.signer_id) == (labels[0], labels[-1])
            assert np.array_equal(again.frames, sample.frames)
