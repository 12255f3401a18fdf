import inspect
import pathlib

import numpy as np
import pytest

from signrec import cli, pipeline, segmentation, tracking
from signrec.config import Config
from signrec.dataio import SKIN_FILES, LoadError, load_record, save_record
from signrec.features import save_sample
from signrec.pipeline import extract_corpus, extract_sequence, general_skin_model
from signrec.synth import SynthSpec, generate_synthetic_corpus


@pytest.fixture
def extractions(monkeypatch):
    """Sequence directories that extract_corpus extracts instead of loading."""
    calls = []
    original = pipeline.extract_sequence

    def counting(seq_dir, *args, **kwargs):
        calls.append(seq_dir)
        return original(seq_dir, *args, **kwargs)

    monkeypatch.setattr(pipeline, "extract_sequence", counting)
    return calls


def same_features(a, b):
    return len(a) == len(b) and all(
        ea.path == eb.path and sa.sign_label == sb.sign_label
        and np.array_equal(sa.frames, sb.frames)
        for (ea, sa), (eb, sb) in zip(a, b)
    )


def _default(function, name):
    return inspect.signature(function).parameters[name].default


def test_extraction_constants_pinned_with_cache_format():
    """The feature cache is keyed by `ExtractConfig` and `CACHE_FORMAT`, not
    by the tuning constants that segmentation and tracking read, so a cached
    record is stale once one of them changes. The HMM and LDA constants are
    not pinned here: no cached record holds their output."""
    pinned = {  # name: (value, pinned value)
        "segmentation.HIST_BINS": (segmentation.HIST_BINS, 32),
        "segmentation.SKIN_THRESHOLD": (segmentation.SKIN_THRESHOLD, 1.0),
        "segmentation.SKIN_ALPHA": (segmentation.SKIN_ALPHA, 0.2),
        "segmentation.MOTION_THRESHOLD": (segmentation.MOTION_THRESHOLD, 12.0),
        "segmentation.FACE_UPDATE_RATE": (segmentation.FACE_UPDATE_RATE, 0.3),
        "segmentation.MIN_BLOB_AREA": (segmentation.MIN_BLOB_AREA, 30),
        "segmentation.MAX_COAST": (segmentation.MAX_COAST, 15),
        "segmentation.BLOB_WEIGHT": (segmentation.BLOB_WEIGHT, 1.0 / 3.0),
        "segmentation.MIN_ASSIGN_SCORE": (segmentation.MIN_ASSIGN_SCORE, 0.4),
        "segmentation.DEPTH_SCORE_SCALE": (segmentation.DEPTH_SCORE_SCALE, 1000.0),
        "segmentation.PROXIMITY_SCALE": (segmentation.PROXIMITY_SCALE, 80.0),
        "tracking.predict process_noise": (_default(tracking.predict, "process_noise"), 1e-2),
        "tracking.update measurement_noise": (
            _default(tracking.update, "measurement_noise"), 4.0),
        "tracking.HandTrack.seed initial_cov": (
            _default(tracking.HandTrack.seed, "initial_cov"), 1e3),
        "tracking.search_window pad_frac": (_default(tracking.search_window, "pad_frac"), 0.25),
        "tracking.search_window pad_min": (_default(tracking.search_window, "pad_min"), 10.0),
    }
    changed = {name: value for name, (value, pin) in pinned.items() if value != pin}
    assert pipeline.CACHE_FORMAT == 2 and not changed, (
        f"extraction constants changed value: {changed}; bump pipeline.CACHE_FORMAT, so "
        f"that features cached with the old values miss, and pin both anew here")


class TestExtraction:
    def test_extract_matches_manifest_order(self, tiny_extracted):
        extracted, _ = tiny_extracted
        labels = [e.sign_label for e, _ in extracted]
        assert labels == sorted(labels)

    def test_full_matrix_dimension(self, tiny_extracted):
        extracted, _ = tiny_extracted
        for _, sample in extracted:
            assert sample.frames.shape[1] == 206
            assert np.all(np.isfinite(sample.frames))

    def test_cache_reused_and_identical(self, tiny_corpus):
        root, _ = tiny_corpus
        cfg = Config()
        first = extract_corpus(root / "manifest.tsv", cfg, cache_dir=root / "cache2")
        again = extract_corpus(root / "manifest.tsv", cfg, cache_dir=root / "cache2")
        for (_, a), (_, b) in zip(first, again):
            assert np.array_equal(a.frames, b.frames)

    def test_skin_lists_read_once_and_parsed_only_on_a_miss(self, tiny_corpus, tmp_path,
                                                           monkeypatch):
        root, _ = tiny_corpus
        reads, parses = [], []
        for method in ("read_bytes", "read_text"):
            original = getattr(pathlib.Path, method)

            def counting(path, *args, _original=original, **kwargs):
                if path.name in SKIN_FILES:
                    reads.append(path.name)
                return _original(path, *args, **kwargs)

            monkeypatch.setattr(pathlib.Path, method, counting)
        parse = pipeline.parse_pixel_list
        monkeypatch.setattr(pipeline, "parse_pixel_list",
                            lambda text: parses.append(text) or parse(text))
        cfg = Config()
        cold = extract_corpus(root / "manifest.tsv", cfg, cache_dir=tmp_path / "c")
        assert sorted(reads) == sorted(SKIN_FILES) and len(parses) == 2
        reads.clear()
        parses.clear()
        warm = extract_corpus(root / "manifest.tsv", cfg, cache_dir=tmp_path / "c")
        assert sorted(reads) == sorted(SKIN_FILES) and parses == []
        assert same_features(cold, warm)

    @pytest.mark.parametrize("setting", [
        dict(face_depth_threshold=45.0), dict(body_depth_front=1000.0),
        dict(body_depth_back=250.0), dict(focal_per_width=0.75)], ids=lambda d: next(iter(d)))
    def test_cache_invalidated_by_config(self, tiny_corpus, tmp_path, extractions, setting):
        root, manifest = tiny_corpus
        cfg = Config()
        extract_corpus(root / "manifest.tsv", cfg, cache_dir=tmp_path / "c")
        changed = Config(**setting)
        extractions.clear()
        cached = extract_corpus(root / "manifest.tsv", changed, cache_dir=tmp_path / "c")
        assert len(extractions) == len(manifest.entries)
        assert same_features(cached, extract_corpus(root / "manifest.tsv", changed,
                                                     cache_dir=tmp_path / "fresh"))
        # a setting extraction does not read keeps every entry
        extractions.clear()
        extract_corpus(root / "manifest.tsv", Config(**setting, hmm_states=3),
                       cache_dir=tmp_path / "c")
        assert extractions == []
        # switching back hits: the records of both settings stay
        extract_corpus(root / "manifest.tsv", cfg, cache_dir=tmp_path / "c")
        assert extractions == []
        assert len(list((tmp_path / "c").iterdir())) == 2 * len(manifest.entries)

    def test_cache_invalidated_by_skin_lists(self, tmp_path, extractions):
        spec = SynthSpec(num_classes=2, num_signers=1, samples=2, frames=12,
                         width=96, height=72)
        manifest = generate_synthetic_corpus(spec, 8, tmp_path / "corpus")
        path = tmp_path / "corpus" / "manifest.tsv"
        cfg = Config()
        extract_corpus(path, cfg, cache_dir=tmp_path / "c")
        skin = tmp_path / "corpus" / "skin_pixels.txt"
        skin.write_text(skin.read_text() + "250 180 150\n")
        extractions.clear()
        cached = extract_corpus(path, cfg, cache_dir=tmp_path / "c")
        assert len(extractions) == len(manifest.entries)
        assert same_features(cached, extract_corpus(path, cfg, cache_dir=tmp_path / "fresh"))

    @pytest.mark.parametrize("bad", [
        "12.5 200 30\n", "1 2 3 4\n", b"\xff\xfe 1 2\n",
        pytest.param("", id="empty"), pytest.param(" \n\t\n", id="whitespace-only")])
    def test_malformed_skin_list_names_its_file(self, tmp_path, extractions, bad):
        """A bad row after the list's rows, or a list with no rows, fails
        naming the file before any sequence is extracted."""
        spec = SynthSpec(num_classes=2, num_signers=1, samples=1, frames=12,
                         width=96, height=72)
        generate_synthetic_corpus(spec, 8, tmp_path / "corpus")
        skin = tmp_path / "corpus" / "skin_pixels.txt"
        rows = skin.read_bytes() if bad.strip() else b""
        skin.write_bytes(rows + (bad if isinstance(bad, bytes) else bad.encode()))
        with pytest.raises(LoadError, match="skin_pixels.txt"):
            extract_corpus(tmp_path / "corpus" / "manifest.tsv", Config(),
                           cache_dir=tmp_path / "fresh")
        assert extractions == []
        with pytest.raises(LoadError, match="skin_pixels.txt"):
            general_skin_model(tmp_path / "corpus")

    def test_interrupted_run_leaves_no_stale_entry(self, tiny_corpus, tmp_path, monkeypatch):
        # run A fills the cache; run B dies right after its first write
        root, _ = tiny_corpus
        path = root / "manifest.tsv"
        cfg_a, cfg_b = Config(), Config(focal_per_width=0.5)
        fresh_a = extract_corpus(path, cfg_a, cache_dir=tmp_path / "fresh")
        extract_corpus(path, cfg_a, cache_dir=tmp_path / "c")
        written = []

        def dies_after_first_write(sample, *args):
            if written:
                raise RuntimeError("killed")
            written.append(sample)
            save_sample(sample, *args)

        monkeypatch.setattr(pipeline, "save_sample", dies_after_first_write)
        with pytest.raises(RuntimeError, match="killed"):
            extract_corpus(path, cfg_b, cache_dir=tmp_path / "c")
        monkeypatch.undo()
        assert not np.array_equal(written[0], fresh_a[0][1].frames)
        assert same_features(extract_corpus(path, cfg_a, cache_dir=tmp_path / "c"), fresh_a)

    def test_truncated_entry_is_a_miss(self, tiny_corpus, tmp_path, extractions):
        root, _ = tiny_corpus
        fresh = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        entry = sorted((tmp_path / "c").glob("*.npz"))[0]
        entry.write_bytes(entry.read_bytes()[:-100])
        extractions.clear()
        again = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        assert len(extractions) == 1
        assert same_features(again, fresh)

    @pytest.mark.parametrize("meta", [7, ["key"]])
    def test_entry_without_a_key_object_is_a_miss(self, tiny_corpus, tmp_path,
                                                 extractions, meta):
        root, _ = tiny_corpus
        fresh = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        entry = sorted((tmp_path / "c").glob("*.npz"))[0]
        with np.load(entry) as data:
            frames = data["frames"]
        save_record(entry, meta, frames=frames)
        extractions.clear()
        again = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        assert len(extractions) == 1
        assert same_features(again, fresh)

    @pytest.mark.parametrize("fault", ["1-D frames", "<U1 frames"])
    def test_entry_of_wrong_types_is_a_miss(self, tiny_corpus, tmp_path, extractions, fault):
        root, _ = tiny_corpus
        fresh = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        entry = sorted((tmp_path / "c").glob("*.npz"))[0]
        meta, arrays = load_record(entry, ("frames",), {})
        if fault == "1-D frames":
            arrays["frames"] = arrays["frames"][0]
        else:
            arrays["frames"] = arrays["frames"].astype("<U1")
        save_record(entry, meta, **arrays)
        extractions.clear()
        again = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        assert len(extractions) == 1
        assert same_features(again, fresh)

    def test_record_with_a_label_and_signer_is_a_hit(self, tiny_corpus, tmp_path,
                                                     extractions):
        """A record that also stores its sample's label and signer, as earlier
        versions wrote them, loads as a hit with the same frames."""
        root, _ = tiny_corpus
        cfg = Config()
        fresh = extract_corpus(root / "manifest.tsv", cfg, cache_dir=tmp_path / "c")
        digest = pipeline._corpus_digest(pipeline._read_skin_lists(root), cfg)
        for entry, sample in fresh:
            path = tmp_path / "c" / (pipeline._sequence_key(root / entry.path, digest) + ".npz")
            save_record(path, {"label": entry.sign_label, "signer": entry.signer_id},
                        frames=sample.frames)
        extractions.clear()
        again = extract_corpus(root / "manifest.tsv", cfg, cache_dir=tmp_path / "c")
        assert extractions == []
        assert [s.frames.tobytes() for _, s in again] == [s.frames.tobytes() for _, s in fresh]

    def test_sample_named_by_its_entry_not_its_record(self, tiny_corpus, tmp_path,
                                                      extractions):
        root, _ = tiny_corpus
        fresh = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        for path in (tmp_path / "c").glob("*.npz"):
            _, arrays = load_record(path, ("frames",), {})
            save_record(path, {"label": "other", "signer": "someone"}, **arrays)
        extractions.clear()
        again = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        assert extractions == []
        assert [(s.sign_label, s.signer_id) for _, s in again] == [
            (e.sign_label, e.signer_id) for e, _ in fresh]
        assert same_features(again, fresh)

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("column, value", [(1, "signerB"), (2, "sign01"), (3, "left")])
    def test_manifest_must_agree_with_meta(self, tmp_path, column, value, cached):
        spec = SynthSpec(num_classes=2, num_signers=1, samples=1, frames=12,
                         width=96, height=72)
        generate_synthetic_corpus(spec, 9, tmp_path / "corpus")
        manifest = tmp_path / "corpus" / "manifest.tsv"
        cache = tmp_path / "c" if cached else None
        if cached:
            extract_corpus(manifest, Config(), cache_dir=cache)
        lines = manifest.read_text().splitlines()
        fields = lines[0].split("\t")
        fields[column] = value
        manifest.write_text("\n".join(["\t".join(fields)] + lines[1:]) + "\n")
        with pytest.raises(LoadError, match=rf"manifest.tsv: entry '{fields[0]}' lists .*, "
                                            rf"but .*{fields[0]}/meta.txt holds"):
            extract_corpus(manifest, Config(), cache_dir=cache)

    def test_entry_with_a_selected_key_still_hits(self, tiny_corpus, tmp_path, extractions):
        # records written before samples lost their selection mode carry it
        root, _ = tiny_corpus
        fresh = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        for entry in (tmp_path / "c").glob("*.npz"):
            meta, arrays = load_record(entry, ("frames",), {})
            save_record(entry, {**meta, "selected": "full"}, **arrays)
        extractions.clear()
        again = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        assert extractions == []
        assert same_features(again, fresh)

    def test_cache_key_follows_the_recording_files(self, tmp_path, extractions):
        """One changed byte in any of the four recording files re-extracts;
        ground truth, a stray file and a `segment` dump do not."""
        spec = SynthSpec(num_classes=2, num_signers=1, samples=1, frames=12,
                         width=64, height=48)
        root = tmp_path / "corpus"
        manifest = generate_synthetic_corpus(spec, 5, root)
        name = manifest.entries[0].path
        seq = root / name
        path = root / "manifest.tsv"
        extract_corpus(path, Config(), cache_dir=tmp_path / "c")

        for file in ("color.ppm", "depth.pgm", "meta.txt", "skeleton.txt"):
            # the second-to-last byte: a raster byte, or the last digit of
            # the fps or of the last joint's confidence
            data = bytearray((seq / file).read_bytes())
            data[-2] ^= 1
            (seq / file).write_bytes(data)
            extractions.clear()
            extract_corpus(path, Config(), cache_dir=tmp_path / "c")
            assert extractions == [str(seq)], file
        gt = seq / "gt_left.pgm"
        gt.write_bytes(gt.read_bytes()[:-1] + bytes([gt.read_bytes()[-1] ^ 1]))
        (seq / "notes.txt").write_text("stray\n")
        assert cli.main(["segment", "--data", str(path), "--sample", name,
                         "--out", str(root)]) == 0
        assert (seq / "hands.pgm").exists()
        extractions.clear()
        extract_corpus(path, Config(), cache_dir=tmp_path / "c")
        assert extractions == []
        (seq / "color.ppm").unlink()
        with pytest.raises(LoadError, match=rf"{name}/color.ppm: missing"):
            extract_corpus(path, Config(), cache_dir=tmp_path / "c")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_entries_before_a_bad_recording_stay_cached(self, tmp_path, jobs):
        spec = SynthSpec(num_classes=2, num_signers=1, samples=2, frames=12,
                         width=96, height=72)
        manifest = generate_synthetic_corpus(spec, 9, tmp_path / "corpus")
        paths = [e.path for e in manifest.entries]
        bad = tmp_path / "corpus" / paths[1] / "color.ppm"
        image = len(b"P6\n96 72\n255\n") + 96 * 72 * 3
        bad.write_bytes(bad.read_bytes()[: 4 * image - 50])
        with pytest.raises(LoadError, match="color.ppm: image 3"):
            extract_corpus(tmp_path / "corpus" / "manifest.tsv", Config(),
                           cache_dir=tmp_path / "c", jobs=jobs)
        digest = pipeline._corpus_digest(pipeline._read_skin_lists(tmp_path / "corpus"),
                                         Config())
        key = pipeline._sequence_key(tmp_path / "corpus" / paths[0], digest)
        assert [p.name for p in (tmp_path / "c").iterdir()] == [f"{key}.npz"]

    def test_entries_that_differ_only_in_separators_keep_their_records(self, tmp_path,
                                                                        extractions):
        spec = SynthSpec(num_classes=3, num_signers=1, samples=1, frames=12,
                         width=96, height=72)
        root = tmp_path / "corpus"
        manifest = generate_synthetic_corpus(spec, 4, root)
        (root / "x").mkdir()
        for entry, path in zip(manifest.entries, ("x/y", "x__y", "x%2Fy")):
            (root / entry.path).rename(root / path)
            entry.path = path
        manifest.save(root / "manifest.tsv")
        extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        assert len(extractions) == 3
        for _ in range(2):
            extractions.clear()
            extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
            assert extractions == []

    def test_corpora_sharing_a_cache_keep_their_records(self, tmp_path, extractions):
        # the same entry paths with other recordings: neither evicts the other
        spec = SynthSpec(num_classes=2, num_signers=2, samples=2, frames=12,
                         width=64, height=48)
        paths = [tmp_path / str(seed) / "manifest.tsv" for seed in (1, 2)]
        for seed, path in zip((1, 2), paths):
            generate_synthetic_corpus(spec, seed, path.parent)
        fresh = [extract_corpus(path, Config(), cache_dir=tmp_path / "fresh") for path in paths]
        assert not np.array_equal(fresh[0][0][1].frames, fresh[1][0][1].frames)
        for expected in (16, 0):
            extractions.clear()
            for path, want in zip(paths, fresh):
                assert same_features(extract_corpus(path, Config(), cache_dir=tmp_path / "c"),
                                     want)
            assert len(extractions) == expected
        assert len(list((tmp_path / "c").iterdir())) == 16

    def test_parallel_equals_serial(self, tiny_corpus, tmp_path):
        root, _ = tiny_corpus
        cfg = Config()
        serial = extract_corpus(root / "manifest.tsv", cfg, cache_dir=tmp_path / "s",
                                jobs=1)
        parallel = extract_corpus(root / "manifest.tsv", cfg, cache_dir=tmp_path / "p",
                                  jobs=2)
        for (_, a), (_, b) in zip(serial, parallel):
            save_sample(a.frames, tmp_path / "a.txt")
            save_sample(b.frames, tmp_path / "b.txt")
            assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestPipelineProperties:
    def test_positional_features_scale_invariant(self, tmp_path):
        # same signs rendered at 1x and 2x resolution (signer twice as close)
        # the plain one-handed class only: occlusion recovery quantizes
        # centroids to pixels, which is not what this property is about
        kwargs = dict(num_classes=2, num_signers=1, samples=1, frames=16,
                      traj_noise=0.0, depth_noise=0.0, skeleton_noise=0.0)
        man_1 = generate_synthetic_corpus(
            SynthSpec(width=160, height=120, **kwargs), 13, tmp_path / "one")
        man_2 = generate_synthetic_corpus(
            SynthSpec(width=320, height=240, **kwargs), 13, tmp_path / "two")
        cfg = Config()
        m1 = general_skin_model(tmp_path / "one")
        m2 = general_skin_model(tmp_path / "two")
        from signrec.features import HAND_DIM

        pos_cols = np.array([0, 1, 2, 3, 4, 5])
        pairs = [
            (e1, e2) for e1, e2 in zip(man_1.entries, man_2.entries)
            if e1.sign_label == "sign00"
        ]
        assert pairs
        for e1, e2 in pairs:
            a = extract_sequence(tmp_path / "one" / e1.path, m1, cfg)
            b = extract_sequence(tmp_path / "two" / e2.path, m2, cfg)
            t = min(len(a), len(b))
            for base in (0, HAND_DIM):
                va = a[:t, base + pos_cols]
                vb = b[:t, base + pos_cols]
                # within 2%, with a floor of 2% of a shoulder width for the
                # near-zero velocity entries
                tolerance = 0.02 * np.maximum(1.0, np.abs(va))
                assert np.max(np.abs(va - vb) - tolerance) <= 0.0

    def test_one_handed_sign_left_hand_zeroed(self, tiny_extracted):
        from signrec.evaluation import prepare_dataset
        from signrec.features import HAND_DIM, FeatureSetSpec

        extracted, cfg = tiny_extracted
        # class sign00 is one-handed by construction
        data = prepare_dataset(extracted, FeatureSetSpec(("pos", "S")), cfg)
        for s in data:
            left = s.frames[:, s.frames.shape[1] // 2 :]
            if s.label == "sign00":
                assert not left.any()
            else:
                assert left.any()

    def test_skin_mask_precision_recall(self, tiny_corpus):
        from signrec.dataio import load_sequence
        from signrec.segmentation import SKIN_THRESHOLD, body_region, rg_bins
        from signrec.synth import Scene, SynthSpec, load_ground_truth, _ellipse_mask

        root, manifest = tiny_corpus
        cfg = Config()
        model = general_skin_model(root)
        entry = manifest.entries[0]
        seq = load_sequence(root / entry.path)
        gt = load_ground_truth(root / entry.path)
        shape = seq.color_frames[0].shape[:2]
        scene = Scene(*shape[::-1])
        box, inside = _ellipse_mask(shape, scene.head, scene.head_axes)
        head = np.zeros(shape, dtype=bool)
        head[box] = inside
        truth = gt.left_masks[0] | gt.right_masks[0] | head
        depth = seq.depth_frames[0].astype(float)
        body = body_region(depth, seq.skeleton[0].joints["torso"][2],
                           cfg.body_depth_front, cfg.body_depth_back)
        predicted = model.lookup(rg_bins(seq.color_frames[0], model.bins),
                                 SKIN_THRESHOLD) & body
        tp = (predicted & truth).sum()
        precision = tp / max(predicted.sum(), 1)
        recall = tp / max(truth.sum(), 1)
        assert precision >= 0.9
        assert recall >= 0.9

    def test_fast_hand_stays_inside_search_window(self):
        # 20 px/frame target: the padded window must contain the true centroid
        from signrec import tracking

        rng = np.random.default_rng(31)
        hits = total = 0
        for trial in range(20):
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            speed = 20.0
            pos = np.array([320.0, 240.0])
            track = tracking.HandTrack.seed(pos, box=(24.0, 24.0))
            for t in range(50):
                pos = pos + speed * direction
                if not (0 <= pos[0] < 640 and 0 <= pos[1] < 480):
                    break
                track = tracking.predict(track)
                x0, y0, x1, y1 = tracking.search_window(track, (480, 640))
                total += 1
                hits += x0 <= pos[0] <= x1 and y0 <= pos[1] <= y1
                noisy = pos + rng.normal(0, 1.0, 2)
                track = tracking.update(track, noisy, (24.0, 24.0))
        assert hits / total >= 0.99

    def test_face_touch_sequence_keeps_hand_iou(self, tmp_path):
        # the class that reaches up to the face: depth separates hand pixels
        from signrec.dataio import load_sequence
        from signrec.segmentation import SequenceSegmenter
        from signrec.synth import load_ground_truth

        spec = SynthSpec(num_classes=3, num_signers=1, samples=2, frames=36,
                         width=160, height=120)
        manifest = generate_synthetic_corpus(spec, 55, tmp_path)
        cfg = Config()
        model = general_skin_model(tmp_path)
        face_entries = [e for e in manifest.entries if e.sign_label == "sign02"]
        assert face_entries
        for entry in face_entries:
            seq = load_sequence(tmp_path / entry.path)
            gt = load_ground_truth(tmp_path / entry.path)
            result = SequenceSegmenter(model, cfg).run(seq)
            ious = []
            for t, frame in enumerate(result.frames):
                if frame.right is None:
                    ious.append(0.0)
                    continue
                full = np.zeros_like(gt.right_masks[t])
                x, y, w, h = frame.right.bbox
                full[y : y + h, x : x + w] = frame.right.mask
                union = (full | gt.right_masks[t]).sum()
                ious.append((full & gt.right_masks[t]).sum() / union)
            assert np.mean(ious) >= 0.8


class TestMirroredExtraction:
    def test_left_handed_extraction_matches_right_handed_twin(self, tmp_path):
        # identical corpora except for the stored orientation of one signer:
        # mirroring at load time must undo the stored mirroring exactly
        spec_r = SynthSpec(num_classes=2, num_signers=1, samples=1, frames=16,
                           width=96, height=72)
        spec_l = SynthSpec(num_classes=2, num_signers=1, samples=1, frames=16,
                           width=96, height=72, left_handed=(0,))
        man_r = generate_synthetic_corpus(spec_r, 77, tmp_path / "r")
        man_l = generate_synthetic_corpus(spec_l, 77, tmp_path / "l")
        cfg = Config()
        model_r = general_skin_model(tmp_path / "r")
        model_l = general_skin_model(tmp_path / "l")
        for er, el in zip(man_r.entries, man_l.entries):
            a = extract_sequence(tmp_path / "r" / er.path, model_r, cfg)
            b = extract_sequence(tmp_path / "l" / el.path, model_l, cfg)
            # pixel data round-trips exactly; skeleton floats may wobble one
            # ulp through the double reflection, so features are near-equal
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=1e-9, atol=1e-9)
