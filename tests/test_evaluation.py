import dataclasses
import hashlib
import json
from xml.etree import ElementTree

import numpy as np
import pytest

from signrec.config import Config
from signrec.dataio import LoadError
from signrec.evaluation import (
    EvalReport,
    _PreparedSample,
    emit_report,
    prepare_dataset,
    run_sd_loocv,
    run_si_loso,
    train_recognizer,
)
from signrec import evaluation, signerlda
from signrec.features import FeatureSetSpec
from signrec.pipeline import extract_corpus
from signrec.synth import SynthSpec, generate_synthetic_corpus


def three_signers(length):
    """Signers A, B and C with classes x and y, three samples each; sample k
    of (signer, label) has `length(signer, label, k)` frames."""
    rng = np.random.default_rng(3)
    data = []
    for signer in ("signerA", "signerB", "signerC"):
        for label, offset in (("x", 0.0), ("y", 4.0)):
            for k in range(3):
                frames = offset + rng.normal(size=(length(signer, label, k), 4))
                data.append(_PreparedSample(signer=signer, label=label, frames=frames,
                                            posxy=frames[:, :2]))
    return data


@pytest.fixture(scope="module")
def prepared(tiny_extracted):
    extracted, cfg = tiny_extracted
    spec = FeatureSetSpec.parse("pos,S")
    return prepare_dataset(extracted, spec, cfg), cfg


class TestSdLoocv:
    def test_report_invariants(self, prepared):
        data, cfg = prepared
        report = run_sd_loocv(data, cfg, feature_spec_name="pos,S")
        assert report.protocol == "SD-LOOCV"
        # row sums equal per-class test counts: every sample tested once
        counts = {}
        for s in data:
            counts[s.label] = counts.get(s.label, 0) + 1
        for i, label in enumerate(report.vocabulary):
            assert report.confusion[i].sum() == counts[label]
        assert report.overall_accuracy == pytest.approx(
            np.trace(report.confusion) / report.confusion.sum()
        )
        assert report.mean_accuracy == pytest.approx(
            np.mean(list(report.per_signer.values()))
        )

    def test_fold_count_equals_samples(self, prepared):
        data, cfg = prepared
        report = run_sd_loocv(data, cfg)
        per_signer_counts = {}
        for s in data:
            per_signer_counts[s.signer] = per_signer_counts.get(s.signer, 0) + 1
        assert int(report.confusion.sum()) == sum(per_signer_counts.values())

    def test_single_class_trivially_perfect(self, prepared):
        data, cfg = prepared
        only = [s for s in data if s.label == "sign00"]
        report = run_sd_loocv(only, cfg)
        assert report.mean_accuracy == 1.0

    def test_insufficient_samples_skips_signer(self, prepared):
        data, cfg = prepared
        # strip signerB's sign00 samples below the leave-one-out minimum
        pruned = [
            s for s in data
            if not (s.signer == "signerB" and s.label == "sign00")
        ] + [s for s in data if s.signer == "signerB" and s.label == "sign00"][:1]
        report = run_sd_loocv(pruned, cfg)
        assert "signerB" not in report.per_signer
        assert "signerA" in report.per_signer

    def test_signer_with_a_class_shorter_than_the_chain_skipped(self, caplog):
        # signer A's class x has only 5-frame samples, which a 7-state chain
        # cannot fit; signer B is still scored
        cfg = Config()
        assert cfg.hmm_states == 7
        rng = np.random.default_rng(3)
        data = []
        for signer in ("signerA", "signerB"):
            for label, offset in (("x", 0.0), ("y", 4.0)):
                for _ in range(3):
                    n = 5 if (signer, label) == ("signerA", "x") else 20
                    frames = offset + rng.normal(size=(n, 4))
                    data.append(_PreparedSample(signer=signer, label=label, frames=frames,
                                                posxy=frames[:, :2]))
        report = run_sd_loocv(data, cfg)
        assert set(report.per_signer) == {"signerB"}
        assert int(report.confusion.sum()) == 6
        assert "SD-LOOCV: skipping signer signerA" in caplog.text


@pytest.mark.parametrize("protocol", [run_sd_loocv, run_si_loso])
def test_unscorable_sample_counted_as_miss(prepared, protocol, tmp_path):
    # 5 frames cannot cross the 7-state chains: unscorable, and left out of
    # training where other folds would use it
    data, cfg = prepared
    assert cfg.hmm_states == 7
    short = type(data[0])(signer=data[0].signer, label=data[0].label,
                          frames=data[0].frames[:5], posxy=data[0].posxy[:5])
    report = protocol([short] + data[1:], cfg)
    assert report.unscorable == 1
    assert int(report.confusion.sum()) == len(data) - 1
    assert report.overall_accuracy == pytest.approx(
        np.trace(report.confusion) / len(data))
    emit_report(report, tmp_path)
    loaded = EvalReport.from_json((tmp_path / "report.json").read_text(),
                                  tmp_path / "report.json")
    assert loaded.unscorable == 1


class TestSiLoso:
    def test_baseline_runs_and_counts(self, prepared):
        data, cfg = prepared
        report = run_si_loso(data, cfg, lda_dims=0, feature_spec_name="pos,S")
        assert report.protocol == "SI-LOSO"
        assert report.lda_dims == 0
        assert int(report.confusion.sum()) == len(data)
        assert set(report.per_signer) == {"signerA", "signerB"}

    def test_lda_dims_recorded(self, prepared):
        data, cfg = prepared
        report = run_si_loso(data, cfg, lda_dims=4, feature_spec_name="pos,S")
        assert report.lda_dims == 4
        assert int(report.confusion.sum()) == len(data)

    def test_duplicated_signer_reaches_sd_level(self, tiny_extracted):
        # held-out signer identical to a training signer: no distribution shift
        extracted, cfg = tiny_extracted
        spec = FeatureSetSpec.parse("pos,S")
        data = prepare_dataset(extracted, spec, cfg)
        clones = []
        for s in data:
            if s.signer == "signerA":
                clone = type(s)(signer="signerX", label=s.label,
                                frames=s.frames.copy(), posxy=s.posxy.copy())
                clones.append(clone)
        report = run_si_loso(data + clones, cfg, lda_dims=0)
        assert report.per_signer["signerX"] >= 0.89

    def test_fold_whose_training_lacks_a_class_is_skipped(self, prepared, caplog):
        # only signerA performs sign00: holding it out leaves no sign00 to train
        data, cfg = prepared
        kept = [s for s in data if s.signer == "signerA" or s.label != "sign00"]
        report = run_si_loso(kept, cfg)
        assert set(report.per_signer) == {"signerB"}
        assert "SI-LOSO: skipping signer signerA" in caplog.text
        # each signer performs a class the other lacks: no fold can be trained
        split = [s for s in data if (s.signer == "signerA") == (s.label == "sign00")]
        with pytest.raises(ValueError, match="SI-LOSO: no signer could be evaluated"):
            run_si_loso(split, cfg)

    @pytest.mark.parametrize("lda_dims", [0, 2])
    def test_fold_whose_training_class_is_shorter_than_the_chain_skipped(self, caplog,
                                                                         lda_dims):
        # A's and B's class x has only 5-frame samples, which a 7-state chain
        # cannot fit: holding out C leaves no x to train, A and B are scored
        data = three_signers(lambda signer, label, k: 5 if label == "x"
                             and signer != "signerC" else 20)
        report = run_si_loso(data, Config(), lda_dims=lda_dims)
        assert set(report.per_signer) == {"signerA", "signerB"}
        assert report.unscorable == 6
        assert int(report.confusion.sum()) == 6
        assert "SI-LOSO: skipping signer signerC" in caplog.text

    def test_two_frame_sample_with_lda_counted_unscorable(self):
        # the transform trains on what the bank trains on, so the 2-frame
        # sample, too short to align, is only scored (and unscorable)
        data = three_signers(lambda signer, label, k: 2 if (signer, label, k) == (
            "signerA", "y", 0) else 20)
        report = run_si_loso(data, Config(), lda_dims=2)
        assert set(report.per_signer) == {"signerA", "signerB", "signerC"}
        assert report.unscorable == 1
        assert int(report.confusion.sum()) == len(data) - 1

    def test_two_frame_sample_with_lda_at_two_states_trains(self):
        # at 2 states the 2-frame sample is long enough for the chain, so the
        # transform is fitted on it too: every fold is trained and scored
        data = three_signers(lambda signer, label, k: 2 if (signer, label, k) == (
            "signerA", "y", 0) else 20)
        report = run_si_loso(data, Config(hmm_states=2), lda_dims=2)
        assert set(report.per_signer) == {"signerA", "signerB", "signerC"}
        assert report.unscorable == 0
        assert int(report.confusion.sum()) == 18

    def test_recognizer_trains_on_a_two_frame_sample_at_two_states(self):
        data = three_signers(lambda signer, label, k: 2 if (signer, label, k) == (
            "signerA", "y", 0) else 20)
        transform, bank = train_recognizer(data, Config(hmm_states=2), 2)
        assert transform.weights.shape == (4, 2)
        assert bank.vocabulary == ["x", "y"]

    def test_untrainable_class_named_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the transform was fitted")

        monkeypatch.setattr(evaluation, "fit_transform", no_fit)
        data = three_signers(lambda signer, label, k: 5 if label == "x" else 20)
        with pytest.raises(ValueError, match="class 'x': every sequence is shorter"):
            train_recognizer(data, Config(), 2)

    def test_single_signer_rejected(self, prepared):
        data, cfg = prepared
        own = [s for s in data if s.signer == "signerA"]
        with pytest.raises(ValueError, match="2 signers"):
            run_si_loso(own, cfg)

    def test_no_information_leak_from_held_out_data(self, prepared, monkeypatch, tmp_path):
        # the fold holding out signerB fits its transform and its bank on the
        # other signers only: shifting signerB's samples leaves both bit-equal
        data, cfg = prepared
        vocabulary = sorted({s.label for s in data})
        shifted = [dataclasses.replace(s, frames=s.frames + 123.0, posxy=s.posxy + 9.0)
                   if s.signer == "signerB" else s for s in data]
        fitted = []

        def recorded(fit):
            def wrapper(*args, **kwargs):
                fitted.append(fit(*args, **kwargs))
                return fitted[-1]
            return wrapper

        for name in ("fit_transform", "train_bank"):
            monkeypatch.setattr(evaluation, name, recorded(getattr(evaluation, name)))

        def fold_records(dataset, out):
            fitted.clear()
            evaluation._si_one_signer(("signerB", dataset, vocabulary, cfg, 2))
            transform, bank = fitted
            bank.save(out)
            transform.save(out / "transform.npz")
            return {p.name: p.read_bytes() for p in out.iterdir()}

        clean = fold_records(data, tmp_path / "clean")
        assert sorted(clean) == ["models.npz", "transform.npz"]
        assert clean == fold_records(shifted, tmp_path / "shifted")

    def test_one_sample_per_class_scores_every_fold(self, monkeypatch):
        # one training sample per class leaves no within-sign scatter, so the
        # LDA ridge is lda_shrinkage times the identity
        traces = []
        solve = signerlda.solve_transform

        def traced(between, within, *rest):
            traces.append(np.trace(within))
            return solve(between, within, *rest)

        monkeypatch.setattr(signerlda, "solve_transform", traced)
        rng = np.random.default_rng(8)
        data = [_PreparedSample(signer, label, frames, frames[:, :2])
                for signer in ("signerA", "signerB")
                for label, offset in (("x", 0.0), ("y", 4.0))
                for frames in [offset + rng.normal(size=(20, 4))]]
        report = run_si_loso(data, Config(), lda_dims=2)
        assert traces == [0.0, 0.0]
        assert sorted(report.per_signer) == ["signerA", "signerB"]
        assert report.confusion.sum() == 4


def with_field(key, value):
    """A fault for `test_malformed_report_names_file`: `key` set to `value`."""
    return lambda text: json.dumps({**json.loads(text), key: value})


class TestEmitReport:
    def make_report(self):
        confusion = np.array([[5, 1], [0, 6]], dtype=np.int64)
        return EvalReport(
            protocol="SD-LOOCV",
            feature_spec="pos,S",
            lda_dims=0,
            vocabulary=["sign00", "sign01"],
            per_signer={"signerA": 11 / 12},
            mean_accuracy=11 / 12,
            overall_accuracy=11 / 12,
            confusion=confusion,
            runtime_seconds=1.25,
            config_snapshot=Config().snapshot(),
        )

    def test_files_written(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path)
        for name in ("report.csv", "confusion.csv", "confusion.svg", "config.txt",
                     "report.json"):
            assert (tmp_path / name).exists()

    def test_confusion_rows_sum_to_counts(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path)
        lines = (tmp_path / "confusion.csv").read_text().splitlines()
        assert lines[1].split(",")[1:] == ["5", "1"]
        assert lines[2].split(",")[1:] == ["0", "6"]

    def test_reemission_byte_identical(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path / "a")
        emit_report(report, tmp_path / "b")
        for name in ("report.csv", "confusion.csv", "confusion.svg", "config.txt",
                     "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_json_round_trip(self, tmp_path):
        report = self.make_report()
        text = report.to_json()
        loaded = EvalReport.from_json(text, "report.json")
        assert loaded.to_json() == text
        assert np.array_equal(loaded.confusion, report.confusion)

    def test_report_missing_a_key_names_file_and_key(self, tmp_path):
        data = json.loads(self.make_report().to_json())
        del data["unscorable"]             # as written before that count existed
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        with pytest.raises(LoadError, match=r"report\.json: missing key 'unscorable'"):
            EvalReport.from_json(path.read_text(), path)

    @pytest.mark.parametrize("fault, message", [
        (lambda text: text[: len(text) // 2], r"not a report \(JSONDecodeError: "),
        (lambda text: "[" + text + "]", r"not a report \(TypeError: "),
        (with_field("confusion", [[5]]), r"confusion of shape \(1, 1\) for 2 labels"),
        (with_field("per_signer", [0.5]), "key 'per_signer' holds .*, not an object"),
        (with_field("vocabulary", [1, 2]), "key 'vocabulary' holds .*, not a list"),
        (with_field("vocabulary", "ab"), "key 'vocabulary' holds .*, not a list"),
        (with_field("mean_accuracy", "x"), "key 'mean_accuracy' holds .*, not a number"),
        (with_field("runtime_seconds", "x"), "key 'runtime_seconds' holds .*, not a number"),
        (with_field("config_snapshot", 5), "key 'config_snapshot' holds 5, not a string"),
        (with_field("protocol", None), "key 'protocol' holds None, not a string"),
        (with_field("feature_spec", 3), "key 'feature_spec' holds 3, not a string"),
        (with_field("lda_dims", True), "key 'lda_dims' holds True, not an integer"),
        (with_field("lda_dims", 8.0), "key 'lda_dims' holds 8.0, not an integer"),
        (with_field("overall_accuracy", False),
         "key 'overall_accuracy' holds False, not a number"),
        (with_field("per_signer", {"s": "high"}), "key 'per_signer' holds .*, not an object"),
        (with_field("confusion", [[1, 0], "ab"]), "key 'confusion' holds .*, not a list"),
        (with_field("confusion", [[1, 0.5], [0, 1]]), "key 'confusion' holds .*, not a list"),
        (with_field("unscorable", "0"), "key 'unscorable' holds '0', not an integer"),
        (with_field("confusion", [[1, 0], [0]]), r"not a report \(ValueError: "),
        (with_field("confusion", [[10**30, 0], [0, 1]]), r"not a report \(OverflowError: "),
    ], ids=["broken JSON", "top-level list", "1x1 confusion for 2 labels",
            "per_signer list", "vocabulary of ints", "vocabulary string", "mean_accuracy string",
            "runtime_seconds string", "config_snapshot int", "protocol null",
            "feature_spec int", "lda_dims true", "lda_dims float", "overall_accuracy false",
            "per_signer string value", "confusion string row", "confusion float count",
            "unscorable string", "ragged confusion", "confusion count past int64"])
    def test_malformed_report_names_file(self, tmp_path, fault, message):
        path = tmp_path / "report.json"
        path.write_text(fault(self.make_report().to_json()))
        with pytest.raises(LoadError, match=rf"report\.json: {message}"):
            EvalReport.from_json(path.read_text(), path)

    def test_perfect_classifier_diagonal_heatmap(self, tmp_path):
        report = self.make_report()
        report.confusion = np.diag([6, 6]).astype(np.int64)
        emit_report(report, tmp_path)
        svg = (tmp_path / "confusion.svg").read_text()
        # off-diagonal cells render as the empty shade
        assert svg.count("rgb(40,40,255)") == 2
        assert svg.count("rgb(245,245,245)") == 2

    def test_svg_escapes_markup_in_labels(self, tmp_path):
        report = self.make_report()
        report.vocabulary = ["a<b", "c&d"]
        emit_report(report, tmp_path)
        root = ElementTree.parse(tmp_path / "confusion.svg").getroot()
        texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0::2] == ["a<b", "c&d"]


# SHA-256 of the features (entry path, then frame bytes, in manifest order)
# and of the decisions of three protocol runs on them, taken from the code
# before the bank became an ordered list of models. A change that should
# keep every feature and decision must leave both as they are.
PINNED_FEATURES = "a0bc729b6f70475973ed8866215a37736099d1c6f80f325cab213e1b34bb460c"
PINNED_DECISIONS = "c2848221c39d090537c1a8430cab73e9a681a9d1e2d7d687df7c9ee561fc7390"


def test_decisions_pinned(tmp_path):
    spec = SynthSpec(num_classes=3, num_signers=3, samples=2, frames=16, width=96,
                     height=72, style_strength=1.6, left_handed=(1,))
    generate_synthetic_corpus(spec, 11, tmp_path / "corpus")
    cfg = Config(hmm_states=4)
    extracted = extract_corpus(tmp_path / "corpus" / "manifest.tsv", cfg,
                               cache_dir=tmp_path / "cache", jobs=1)
    features = hashlib.sha256()
    for entry, sample in extracted:
        features.update(entry.path.encode())
        features.update(np.ascontiguousarray(sample.frames, dtype=np.float64).tobytes())

    full = prepare_dataset(extracted, FeatureSetSpec.parse("pos,S,HOG"), cfg)
    small = prepare_dataset(extracted, FeatureSetSpec.parse("pos,S"), cfg)
    decisions = hashlib.sha256()
    for report in (run_sd_loocv(full, cfg, jobs=1), run_si_loso(full, cfg, jobs=1),
                   run_si_loso(small, cfg, lda_dims=4, jobs=1)):
        decisions.update(report.confusion.astype(np.int64).tobytes())
        decisions.update(str(report.unscorable).encode())
        for signer, accuracy in sorted(report.per_signer.items()):
            decisions.update(f"{signer}={accuracy!r};".encode())
    assert (features.hexdigest(), decisions.hexdigest()) == (PINNED_FEATURES,
                                                             PINNED_DECISIONS)
