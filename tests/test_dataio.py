import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from signrec import dataio
from signrec.dataio import (
    DatasetManifest,
    FrameSequence,
    LoadError,
    ManifestEntry,
    SkeletonPose,
    append_pgm8,
    append_pgm16,
    append_ppm,
    load_record,
    load_sequence,
    mirror_sequence,
    read_pgm8_stream,
    recording_writer,
    save_record,
    shoulder_distance,
)
from signrec.features import load_sample, save_sample
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


def make_sequence(n=3, w=64, h=48, rng=None, path=None):
    """A right-handed sequence of `n` random frames, also written as a
    recording at `path` through `recording_writer` when one is given."""
    rng = rng or np.random.default_rng(0)
    seq = FrameSequence(
        color_frames=[rng.integers(0, 256, (h, w, 3), dtype=np.uint8) for _ in range(n)],
        depth_frames=[rng.integers(0, 4000, (h, w), dtype=np.uint16) for _ in range(n)],
        skeleton=[make_pose() for _ in range(n)],
    )
    if path is not None:
        with recording_writer(path, "signerA", "sign00", seq.handedness, 30.0) as append:
            for frame in zip(seq.color_frames, seq.depth_frames, seq.skeleton):
                append(*frame)
    return seq


class TestRoundTrip:
    def test_three_frame_sequence(self, tmp_path):
        seq = make_sequence(3, path=tmp_path / "s")
        loaded = load_sequence(tmp_path / "s")
        assert len(loaded) == 3

    def test_pixels_bit_identical(self, tmp_path):
        seq = make_sequence(4, path=tmp_path / "s")
        loaded = load_sequence(tmp_path / "s")
        for a, b in zip(seq.color_frames, loaded.color_frames):
            assert np.array_equal(a, b)
        for a, b in zip(seq.depth_frames, loaded.depth_frames):
            assert np.array_equal(a, b)
        for pa, pb in zip(seq.skeleton, loaded.skeleton):
            for name in pa.joints:
                assert pa.joints[name] == pytest.approx(pb.joints[name], abs=0)

    def test_streams_are_one_pnm_image_per_frame(self, tmp_path):
        seq = make_sequence(3, path=tmp_path / "s")
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
            "color.ppm", "depth.pgm", "meta.txt", "skeleton.txt"]
        assert (tmp_path / "s" / "color.ppm").read_bytes() == b"".join(
            b"P6\n64 48\n255\n" + f.tobytes() for f in seq.color_frames)
        assert (tmp_path / "s" / "depth.pgm").read_bytes() == b"".join(
            b"P5\n64 48\n65535\n" + f.astype(">u2").tobytes() for f in seq.depth_frames)

    def test_length_mismatch_rejected(self, tmp_path):
        seq = make_sequence(3, path=tmp_path / "s")
        depth = tmp_path / "s" / "depth.pgm"
        data = depth.read_bytes()
        depth.write_bytes(data[: 2 * len(data) // 3])
        with pytest.raises(LoadError, match=r"depth.pgm: no image 2, though .*color.ppm "
                                            r"holds 3 images"):
            load_sequence(tmp_path / "s")

    def test_missing_skeleton_named(self, tmp_path):
        seq = make_sequence(3, path=tmp_path / "s")
        (tmp_path / "s" / "skeleton.txt").unlink()
        with pytest.raises(LoadError, match="skeleton.txt"):
            load_sequence(tmp_path / "s")

    def test_malformed_header_named(self, tmp_path):
        seq = make_sequence(3, path=tmp_path / "s")
        bad = tmp_path / "s" / "color.ppm"
        data = bytearray(bad.read_bytes())
        data[len(data) // 3 : len(data) // 3 + 2] = b"P3"
        bad.write_bytes(data)
        with pytest.raises(LoadError, match="color.ppm: image 1: expected binary P6"):
            load_sequence(tmp_path / "s")

    @pytest.mark.parametrize("name", ["color.ppm", "depth.pgm"])
    def test_truncated_raster_named(self, tmp_path, name):
        """load_sequence checks every raster's length, decoding none."""
        make_sequence(path=tmp_path / "s")
        bad = tmp_path / "s" / name
        bad.write_bytes(bad.read_bytes()[:-1])
        with pytest.raises(LoadError, match=rf"{name}: image 2: raster has \d+ bytes, expected"):
            load_sequence(tmp_path / "s")

    @pytest.mark.parametrize("name, fault, message", [
        ("color.ppm", lambda a, b, c: a + b.replace(b"64 48", b"6x 48") + c,
         r"color.ppm: image 1: non-numeric header fields"),
        ("depth.pgm", lambda a, b, c: a + b + c + a[:-7],
         r"depth.pgm: image 3: raster has 6137 bytes, expected 6144"),
        ("color.ppm", lambda a, b, c: a + b + c + a[:5],
         r"color.ppm: image 3: truncated header"),
        ("depth.pgm", lambda a, b, c: a + b + c + b"\n",
         r"depth.pgm: image 3: truncated header"),
        ("color.ppm", lambda a, b, c: b"", r"color.ppm: image 0: truncated header"),
        ("color.ppm", lambda a, b, c: a + b + c + a,
         r"depth.pgm: no image 3, though .*color.ppm holds 4 images"),
        ("depth.pgm", lambda a, b, c: a + b.replace(b"64 48", b"32 96") + c,
         r"depth.pgm: image 1 has shape \(96, 32\), image 0 \(48, 64\)"),
        ("depth.pgm", lambda *images: b"".join(images).replace(b"64 48", b"32 96"),
         r"depth.pgm: image 0 has shape \(96, 32\), but the color images \(48, 64\)"),
    ], ids=["bad header", "truncated last raster", "partial trailing header",
            "trailing byte", "empty stream", "count mismatch", "size differs",
            "depth size"])
    def test_stream_fault_named(self, tmp_path, name, fault, message):
        """`fault` makes the stream from the bytes of its three images; the
        error names the stream and the image."""
        make_sequence(path=tmp_path / "s")
        path = tmp_path / "s" / name
        data = path.read_bytes()
        size = len(data) // 3
        path.write_bytes(fault(*(data[i : i + size] for i in range(0, len(data), size))))
        with pytest.raises(LoadError, match=message):
            load_sequence(tmp_path / "s")

    @pytest.mark.parametrize("size", ["0 48", "64 0"])
    def test_empty_images_named(self, tmp_path, size):
        """Streams of empty images, whose headers and raster lengths agree."""
        make_sequence(path=tmp_path / "s")
        for name, header in (("color.ppm", b"P6\n%s\n255\n"), ("depth.pgm", b"P5\n%s\n65535\n")):
            (tmp_path / "s" / name).write_bytes(3 * (header % size.encode()))
        width, height = size.split()
        with pytest.raises(LoadError, match=rf"color.ppm: image 0: image size {width}x{height}, "
                                            rf"expected at least 1x1"):
            load_sequence(tmp_path / "s")

    def test_missing_stream_named(self, tmp_path):
        make_sequence(path=tmp_path / "s")
        (tmp_path / "s" / "color.ppm").unlink()
        with pytest.raises(LoadError, match="s/color.ppm: missing"):
            load_sequence(tmp_path / "s")

    def test_stream_cut_after_load_named(self, tmp_path):
        """A frame is read from its offset when indexed, and its length checked."""
        make_sequence(path=tmp_path / "s")
        seq = load_sequence(tmp_path / "s")
        path = tmp_path / "s" / "color.ppm"
        path.write_bytes(path.read_bytes()[:-10])
        assert seq.color_frames[1].shape == (48, 64, 3)
        with pytest.raises(LoadError, match=r"color.ppm: image 2: raster has 9206 bytes, "
                                            r"expected 9216"):
            seq.color_frames[2]

    def test_load_of_a_file_rejected(self, tmp_path):
        (tmp_path / "s").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(LoadError, match=r"s: not a directory"):
            load_sequence(tmp_path / "s")

    def test_one_image_recording_rejected(self, tmp_path):
        make_sequence(path=tmp_path / "s")
        for name in ("color.ppm", "depth.pgm"):
            path = tmp_path / "s" / name
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        with pytest.raises(LoadError, match=r"color.ppm: 1 image, a sequence needs at least 2"):
            load_sequence(tmp_path / "s")

    def test_missing_meta_named(self, tmp_path):
        make_sequence(path=tmp_path / "s")
        (tmp_path / "s" / "meta.txt").unlink()
        with pytest.raises(LoadError, match=r"s/meta.txt: missing"):
            dataio.read_meta(tmp_path / "s")
        with pytest.raises(LoadError, match=r"s/meta.txt: missing"):
            load_sequence(tmp_path / "s")

    def test_skeleton_fifth_field_numeric_but_ignored(self, tmp_path):
        seq = make_sequence(3, path=tmp_path / "s")
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
        make_sequence(path=tmp_path / "s")
        skeleton = tmp_path / "s" / "skeleton.txt"
        lines = skeleton.read_text().splitlines()
        fields = lines[1].split()
        at = fields.index("hand_left")
        lines[1] = " ".join(fields[:at] + fields[at + 5 :])
        skeleton.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError, match=r"s/skeleton.txt:2: frame 1 has no joint 'hand_left'"):
            load_sequence(tmp_path / "s")

    def test_repeated_joint_named(self, tmp_path):
        make_sequence(path=tmp_path / "s")
        skeleton = tmp_path / "s" / "skeleton.txt"
        lines = skeleton.read_text().splitlines()
        lines[0] += " neck 1.0 2.0 3.0 1.0"
        skeleton.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError, match=r"s/skeleton.txt:1: joint 'neck' is given twice"):
            load_sequence(tmp_path / "s")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_coordinate_named(self, tmp_path, token):
        make_sequence(path=tmp_path / "s")
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
        make_sequence(path=tmp_path / "s")
        meta = tmp_path / "s" / "meta.txt"
        meta.write_text(meta.read_text().replace("handedness=right", f"handedness={value}"))
        with pytest.raises(LoadError, match=rf"s/meta.txt: handedness '{value}'"):
            load_sequence(tmp_path / "s")

    def test_non_numeric_fps_named(self, tmp_path):
        make_sequence(path=tmp_path / "s")
        meta = tmp_path / "s" / "meta.txt"
        meta.write_text(meta.read_text().replace("fps=30.0", "fps=fast"))
        with pytest.raises(LoadError, match="meta.txt"):
            load_sequence(tmp_path / "s")


# stream reader, appender and a valid image of each raster format
PNM = {
    "ppm": (lambda path: dataio._open_stream(path, *dataio._PPM)[0], append_ppm,
            np.arange(18).reshape(2, 3, 3)),
    "pgm16": (lambda path: dataio._open_stream(path, *dataio._PGM16)[0], append_pgm16,
              np.arange(6).reshape(2, 3) * 9000),
    "pgm8": (read_pgm8_stream, append_pgm8, np.arange(6).reshape(2, 3)),
}
HEADERS = st.builds(
    lambda magic, w, h, maxval, raster: b"%s\n%d %d\n%d\n" % (magic, w, h, maxval) + raster,
    st.sampled_from([b"P5", b"P6", b"P3"]), st.integers(-4, 4), st.integers(-4, 4),
    st.sampled_from([255, 65535, 0]), st.binary(max_size=80))


def write_stream(path, append, images):
    with open(path, "wb") as fh:
        for image in images:
            append(fh, image)


class TestPnm:
    """Streams are outside input: bad bytes raise LoadError naming the file
    and the image."""

    @pytest.mark.parametrize("append, image, message", [
        (append_ppm, np.zeros((2, 3)), "(2, 3) image for a 3-channel P6"),
        (append_pgm16, np.zeros((2, 3, 3)), "(2, 3, 3) image for a 1-channel P5"),
    ], ids=["2-D ppm", "3-D pgm"])
    def test_image_of_other_channel_count_rejected(self, tmp_path, append, image, message):
        with open(tmp_path / "x.pnm", "wb") as fh, pytest.raises(
                ValueError, match=re.escape(f"x.pnm: {message}")):
            append(fh, image)
        assert (tmp_path / "x.pnm").read_bytes() == b""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(PNM)), count=st.integers(1, 3),
           cut=st.integers(0, 10**6))
    def test_truncated_file_named(self, kind, count, cut):
        read, append, image = PNM[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "frames_7.pnm"
            write_stream(path, append, [image] * count)
            assert [f.tolist() for f in read(path)] == [image.tolist()] * count
            data = path.read_bytes()
            size = len(data) // count
            cut %= len(data)
            path.write_bytes(data[:cut])
            if cut and cut % size == 0:     # whole images: a shorter stream
                assert len(read(path)) == cut // size
            else:
                with pytest.raises(LoadError, match=rf"frames_7.pnm: image {cut // size}: "):
                    read(path)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(PNM)), count=st.integers(0, 2),
           data=st.one_of(st.binary(max_size=60), HEADERS))
    @example(kind="pgm8", count=0, data=b"P5\n-2 -3\n255\n" + bytes(6))
    @example(kind="ppm", count=1, data=b"P6\n2 1\n255\n" + bytes(5))
    @example(kind="pgm16", count=2, data=b"P5\n3 2\n65535\n" + bytes(12))
    def test_garbage_named(self, kind, count, data):
        """`data` after `count` whole images: the fault, if any, is in it."""
        read, append, image = PNM[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "frames_7.pnm"
            write_stream(path, append, [image] * count)
            with open(path, "ab") as fh:
                fh.write(data)
            try:
                frames = read(path)     # the bytes may happen to be valid images
            except LoadError as exc:
                named = re.match(r".*frames_7.pnm: image (\d+)", str(exc))
                assert named and int(named[1]) >= count, str(exc)
            else:
                shapes = {f.shape for f in frames}
                assert len(frames) >= count and len(shapes) == 1
                assert count == 0 or shapes == {image.shape}


class TestRecordingText:
    """The files of a recording are outside input: truncated or garbled
    bytes raise LoadError naming the file."""

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(["skeleton.txt", "meta.txt", "color.ppm", "depth.pgm"]),
           keep=st.integers(0, 2000), garbage=st.binary(max_size=40),
           token=st.sampled_from([None, "nan", "inf", "-inf", "NaN", "-Infinity", "1e999"]),
           at=st.integers(0, 10**4), flip=st.integers(0, 255))
    @example(name="skeleton.txt", keep=2000, garbage=b"\xff\xfe", token=None, at=0, flip=0)
    @example(name="meta.txt", keep=2000, garbage=b"\xff\xfe", token=None, at=0, flip=0)
    @example(name="skeleton.txt", keep=2000, garbage=b"", token="nan", at=0, flip=0)
    @example(name="depth.pgm", keep=2000, garbage=b"", token=None, at=3, flip=ord("2") ^ ord("8"))
    def test_truncated_or_garbage_named(self, name, keep, garbage, token, at, flip):
        """`token` replaces one coordinate of skeleton.txt (coordinate `at`,
        counted over the file), then byte `at` is XORed with `flip`, then
        the file is cut after `keep` bytes and `garbage` appended."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "s"
            make_sequence(3, w=8, h=6, path=root)
            path = root / name
            data = path.read_bytes()
            if token is not None and name == "skeleton.txt":
                lines = [line.split(" ") for line in data.decode().split("\n")]
                slots = [(row, i) for row, fields in enumerate(lines)
                         for i in range(len(fields)) if i % 5 in (1, 2, 3)]
                row, i = slots[at % len(slots)]
                lines[row][i] = token
                data = "\n".join(" ".join(fields) for fields in lines).encode()
            data = bytearray(data)
            data[at % len(data)] ^= flip
            path.write_bytes(data[:keep] + garbage)
            try:
                seq = load_sequence(root)     # the bytes may still be a valid file
            except LoadError as exc:
                assert name in str(exc)
            else:
                assert all(math.isfinite(v) for pose in seq.skeleton
                           for joint in pose.joints.values() for v in joint)
                assert all(f.shape == (6, 8, 3) for f in seq.color_frames)
                assert all(f.shape == (6, 8) for f in seq.depth_frames)


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

    def test_gives_the_other_handedness(self):
        seq = make_sequence(2)
        assert seq.handedness == "right"
        assert mirror_sequence(seq).handedness == "left"
        assert mirror_sequence(mirror_sequence(seq)).handedness == "right"

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
        save_sample(rng.normal(size=(5, 3)), tmp / "f.npz")
        return tmp / "f.npz", load_sample, ("frames",), ()
    if kind == "transform":
        LdaTransform(rng.normal(size=(4, 2)), np.ones(2), 15, 1e-3).save(tmp / "w.npz")
        return (tmp / "w.npz", LdaTransform.load, ("weights", "eigenvalues"),
                ("keep_frames", "shrinkage", "feature_spec"))
    model = HmmModel("a", rng.normal(size=(3, 2)), np.ones((3, 2)), np.full(3, 0.6),
                     np.full(3, 0.4))
    ClassifierBank([model]).save(tmp / "bank")
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
        assume(kind != "sample" or fault != "drop meta key")   # a sample has no meta key
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
        ("transform", "shrinkage", None), ("transform", "feature_spec", 3)])
    def test_metadata_types_checked(self, tmp_path, kind, key, value):
        path, load, members, _ = write_artefact(kind, tmp_path)
        meta, arrays = load_record(path, members, {})
        save_record(path, {**meta, key: value}, **arrays)
        with pytest.raises(LoadError, match=rf"{path.name}: .*{key}"):
            load(path)

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_write_keeps_the_old_record(self, tmp_path, monkeypatch, error):
        save_record(tmp_path / "f.npz", {"label": "a"}, frames=np.zeros((2, 3)))
        before = (tmp_path / "f.npz").read_bytes()

        def dies_part_way(fh, **arrays):
            fh.write(b"PK partial")
            raise error("interrupted")

        monkeypatch.setattr(np, "savez", dies_part_way)
        with pytest.raises(error, match="interrupted"):
            save_record(tmp_path / "f.npz", {"label": "b"}, frames=np.ones((2, 3)))
        assert [p.name for p in tmp_path.iterdir()] == ["f.npz"]
        assert (tmp_path / "f.npz").read_bytes() == before

    @pytest.mark.parametrize("kind, member, dtype", [
        ("bank", "means", "<U1"), ("bank", "stay", "float32"), ("transform", "weights", "<U1"),
        ("transform", "weights", "float32"), ("sample", "frames", "int64")])
    def test_member_dtypes_checked(self, tmp_path, kind, member, dtype):
        path, load, members, _ = write_artefact(kind, tmp_path)
        meta, arrays = load_record(path, members, {})
        save_record(path, meta, **{**arrays, member: arrays[member].astype(dtype)})
        with pytest.raises(LoadError, match=rf"{path.name}: {member} of {dtype}, not float64"):
            load(path)

    @pytest.mark.parametrize("frames", [np.zeros(5), np.zeros((5, 3), dtype="<U1"),
                                        np.zeros((5, 3), dtype=np.float32), np.zeros((1, 5, 3))])
    def test_sample_frames_checked(self, tmp_path, frames):
        save_record(tmp_path / "f.npz", {}, frames=frames)
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

    @pytest.mark.parametrize("member", ["weights", "eigenvalues"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_transform_values_checked(self, tmp_path, member, value):
        path, load, members, _ = write_artefact("transform", tmp_path)
        meta, arrays = load_record(path, members, {})
        arrays[member][...] = value
        save_record(path, meta, **arrays)
        with pytest.raises(LoadError, match=rf"w.npz: {member} are not all finite"):
            load(path)

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

            models = [HmmModel(label, rng.normal(size=(3, 2)),
                               rng.uniform(0.5, 2.0, size=(3, 2)),
                               np.full(3, 0.6), np.full(3, 0.4))
                      for label in labels]
            ClassifierBank(models, feature_spec=spec).save(tmp / "bank")
            bank = ClassifierBank.load(tmp / "bank")
            assert bank.vocabulary == labels
            assert bank.feature_spec == spec
            for loaded, model in zip(bank.models, models, strict=True):
                assert loaded.label == model.label
                for name in ("means", "variances", "stay", "leave"):
                    assert np.array_equal(getattr(loaded, name), getattr(model, name))

            transform = LdaTransform(rng.normal(size=(4, 2)), np.array([2.0, 0.5]),
                                     keep_frames=15, shrinkage=1e-3, feature_spec=spec)
            transform.save(tmp / "w.txt")
            loaded = LdaTransform.load(tmp / "w.txt")
            assert loaded.feature_spec == spec
            assert np.array_equal(loaded.weights, transform.weights)
