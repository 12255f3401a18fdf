import pathlib

import numpy as np
import pytest

from signrec import pipeline
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

    def test_cache_invalidated_by_config(self, tiny_corpus, tmp_path, extractions):
        root, manifest = tiny_corpus
        cfg = Config()
        extract_corpus(root / "manifest.tsv", cfg, cache_dir=tmp_path / "c")
        changed = Config(motion_threshold=9.0)
        extractions.clear()
        cached = extract_corpus(root / "manifest.tsv", changed, cache_dir=tmp_path / "c")
        assert len(extractions) == len(manifest.entries)
        assert same_features(cached, extract_corpus(root / "manifest.tsv", changed))
        # a setting extraction does not read keeps every entry
        extractions.clear()
        extract_corpus(root / "manifest.tsv", Config(motion_threshold=9.0, hmm_states=3),
                       cache_dir=tmp_path / "c")
        assert extractions == []

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
        assert same_features(cached, extract_corpus(path, cfg))

    @pytest.mark.parametrize("bad", ["12.5 200 30\n", "1 2 3 4\n", b"\xff\xfe 1 2\n"])
    def test_malformed_skin_list_names_its_file(self, tmp_path, bad):
        spec = SynthSpec(num_classes=2, num_signers=1, samples=1, frames=12,
                         width=96, height=72)
        generate_synthetic_corpus(spec, 8, tmp_path / "corpus")
        skin = tmp_path / "corpus" / "skin_pixels.txt"
        skin.write_bytes(skin.read_bytes() + (bad if isinstance(bad, bytes) else bad.encode()))
        with pytest.raises(LoadError, match="skin_pixels.txt"):
            extract_corpus(tmp_path / "corpus" / "manifest.tsv", Config())
        with pytest.raises(LoadError, match="skin_pixels.txt"):
            general_skin_model(tmp_path / "corpus", Config())

    def test_interrupted_run_leaves_no_stale_entry(self, tiny_corpus, tmp_path, monkeypatch):
        # run A fills the cache; run B dies right after its first write
        root, _ = tiny_corpus
        path = root / "manifest.tsv"
        cfg_a, cfg_b = Config(), Config(focal_per_width=0.5)
        fresh_a = extract_corpus(path, cfg_a)
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
        assert not np.array_equal(written[0].frames, fresh_a[0][1].frames)
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

    @pytest.mark.parametrize("meta", [{"label": "sign00", "signer": "signerA"},
                                      7, ["key"]])
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

    @pytest.mark.parametrize("fault", ["label 7", "<U1 frames"])
    def test_entry_of_wrong_types_is_a_miss(self, tiny_corpus, tmp_path, extractions, fault):
        root, _ = tiny_corpus
        fresh = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        entry = sorted((tmp_path / "c").glob("*.npz"))[0]
        meta, arrays = load_record(entry, ("frames",), {})
        if fault == "label 7":
            meta["label"] = 7
        else:
            arrays["frames"] = arrays["frames"].astype("<U1")
        save_record(entry, meta, **arrays)
        extractions.clear()
        again = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        assert len(extractions) == 1
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
            meta, arrays = load_record(entry, ("frames",), {"key": str})
            save_record(entry, {**meta, "selected": "full"}, **arrays)
        extractions.clear()
        again = extract_corpus(root / "manifest.tsv", Config(), cache_dir=tmp_path / "c")
        assert extractions == []
        assert same_features(again, fresh)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_entries_before_a_bad_recording_stay_cached(self, tmp_path, jobs):
        spec = SynthSpec(num_classes=2, num_signers=1, samples=2, frames=12,
                         width=96, height=72)
        manifest = generate_synthetic_corpus(spec, 9, tmp_path / "corpus")
        paths = [e.path for e in manifest.entries]
        bad = tmp_path / "corpus" / paths[1] / "color_000003.ppm"
        bad.write_bytes(bad.read_bytes()[:-50])
        with pytest.raises(LoadError, match="color_000003.ppm"):
            extract_corpus(tmp_path / "corpus" / "manifest.tsv", Config(),
                           cache_dir=tmp_path / "c", jobs=jobs)
        assert [p.name for p in (tmp_path / "c").iterdir()] == [
            pipeline._cache_name(paths[0])]

    def test_parallel_equals_serial(self, tiny_corpus, tmp_path):
        root, _ = tiny_corpus
        cfg = Config()
        serial = extract_corpus(root / "manifest.tsv", cfg, cache_dir=tmp_path / "s",
                                jobs=1)
        parallel = extract_corpus(root / "manifest.tsv", cfg, cache_dir=tmp_path / "p",
                                  jobs=2)
        for (_, a), (_, b) in zip(serial, parallel):
            save_sample(a, tmp_path / "a.txt")
            save_sample(b, tmp_path / "b.txt")
            assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestPipelineProperties:
    def test_positional_features_scale_invariant(self, tmp_path):
        # same signs rendered at 1x and 2x resolution (signer twice as close)
        # the plain one-handed class only: occlusion recovery quantizes
        # centroids to pixels, which is not what this property is about
        kwargs = dict(num_classes=2, num_signers=1, samples=1, frames=16,
                      traj_noise=0.0, depth_noise=0.0, skeleton_noise=0.0,
                      cross_class=99, face_class=99)
        man_1 = generate_synthetic_corpus(
            SynthSpec(width=160, height=120, **kwargs), 13, tmp_path / "one")
        man_2 = generate_synthetic_corpus(
            SynthSpec(width=320, height=240, **kwargs), 13, tmp_path / "two")
        cfg = Config()
        m1 = general_skin_model(tmp_path / "one", cfg)
        m2 = general_skin_model(tmp_path / "two", cfg)
        from signrec.features import HAND_DIM

        pos_cols = np.array([0, 1, 2, 3, 4, 5])
        pairs = [
            (e1, e2) for e1, e2 in zip(man_1.entries, man_2.entries)
            if e1.sign_label == "sign00"
        ]
        assert pairs
        for e1, e2 in pairs:
            a = extract_sequence(tmp_path / "one" / e1.path, m1, cfg).frames
            b = extract_sequence(tmp_path / "two" / e2.path, m2, cfg).frames
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
        from signrec.segmentation import body_region, rg_bins
        from signrec.synth import Scene, SynthSpec, load_ground_truth, _ellipse_mask

        root, manifest = tiny_corpus
        cfg = Config()
        model = general_skin_model(root, cfg)
        entry = manifest.entries[0]
        seq = load_sequence(root / entry.path)
        gt = load_ground_truth(root / entry.path)
        scene = Scene(*seq.frame_shape[::-1])
        head = _ellipse_mask(seq.frame_shape, scene.head, scene.head_axes)
        truth = gt.left_masks[0] | gt.right_masks[0] | head
        depth = seq.depth_frames[0].astype(float)
        body = body_region(depth, seq.skeleton[0].joints["torso"][2],
                           cfg.body_depth_front, cfg.body_depth_back)
        predicted = model.lookup(rg_bins(seq.color_frames[0], model.bins),
                                 cfg.skin_threshold) & body
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
        model = general_skin_model(tmp_path, cfg)
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
        model_r = general_skin_model(tmp_path / "r", cfg)
        model_l = general_skin_model(tmp_path / "l", cfg)
        for er, el in zip(man_r.entries, man_l.entries):
            a = extract_sequence(tmp_path / "r" / er.path, model_r, cfg)
            b = extract_sequence(tmp_path / "l" / el.path, model_l, cfg)
            # pixel data round-trips exactly; skeleton floats may wobble one
            # ulp through the double reflection, so features are near-equal
            assert a.frames.shape == b.frames.shape
            assert np.allclose(a.frames, b.frames, rtol=1e-9, atol=1e-9)
