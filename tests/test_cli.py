import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from signrec import cli, features, pipeline
from signrec.cli import main
from signrec.dataio import load_sequence, mirror_sequence, read_pgm8_stream
from signrec.hmm import ClassifierBank
from signrec.segmentation import to_gray
from signrec.signerlda import LdaTransform
from signrec.synth import SynthSpec

DUMP_STREAMS = ["candidates.pgm", "frames.pgm", "hands.pgm"]


def no_assemble(*args, **kwargs):
    raise AssertionError("segment computed descriptors")


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    code = main([
        "synth", "--out", str(out), "--seed", "3",
        "--classes", "2", "--signers", "2", "--samples", "2",
        "--width", "96", "--height", "72", "--frames", "16",
    ])
    assert code == 0
    return out


class TestCli:
    def test_synth_writes_manifest(self, cli_corpus):
        assert (cli_corpus / "manifest.tsv").exists()
        assert (cli_corpus / "skin_pixels.txt").exists()

    def test_segment_writes_masks(self, cli_corpus, tmp_path, monkeypatch):
        """Three 8-bit PGM streams of one image per frame, and no descriptors."""
        monkeypatch.setattr(pipeline, "assemble", no_assemble)
        monkeypatch.setattr(features, "assemble", no_assemble)
        code = main([
            "segment", "--data", str(cli_corpus / "manifest.tsv"),
            "--sample", "sign00_signerA_00", "--out", str(tmp_path),
        ])
        assert code == 0
        out = tmp_path / "sign00_signerA_00"
        assert sorted(p.name for p in out.iterdir()) == DUMP_STREAMS
        streams = {name: read_pgm8_stream(out / name) for name in DUMP_STREAMS}
        frames = len(load_sequence(cli_corpus / "sign00_signerA_00"))
        assert {len(images) for images in streams.values()} == {frames}
        hands = np.stack(list(streams["hands.pgm"]))
        candidates = np.stack(list(streams["candidates.pgm"]))
        assert set(np.unique(hands)) <= {0, 128, 255} and (hands == 255).any()
        assert set(np.unique(candidates)) <= {0, 255} and (candidates == 255).any()

    def test_segment_dumps_left_handed_sample_mirrored(self, tmp_path):
        """A left-handed recording is dumped in its mirrored, right-handed frame."""
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--classes", "2", "--signers", "1",
                     "--samples", "1", "--width", "64", "--height", "48", "--frames", "12",
                     "--left-handed", "0"]) == 0
        assert main(["segment", "--data", str(corpus / "manifest.tsv"),
                     "--sample", "sign00_signerA_00", "--out", str(tmp_path / "dump")]) == 0
        out = tmp_path / "dump" / "sign00_signerA_00"
        assert sorted(p.name for p in out.iterdir()) == DUMP_STREAMS
        seq = load_sequence(corpus / "sign00_signerA_00")
        assert seq.handedness == "left"
        mirrored = mirror_sequence(seq)
        grays = read_pgm8_stream(out / "frames.pgm")
        assert len(grays) == len(seq)
        for t, gray in enumerate(grays):
            expect = np.clip(to_gray(mirrored.color_frames[t]), 0, 255).astype(np.uint8)
            assert np.array_equal(gray, expect)
        assert any((hands == 255).any() for hands in read_pgm8_stream(out / "hands.pgm"))

    def test_extract_then_eval_sd(self, cli_corpus, tmp_path):
        out = tmp_path / "run"
        code = main([
            "extract", "--data", str(cli_corpus / "manifest.tsv"),
            "--out", str(out),
        ])
        assert code == 0
        assert list((out / "features").glob("*.npz"))
        code = main([
            "eval-sd", "--data", str(cli_corpus / "manifest.tsv"),
            "--set", "posXY", "--out", str(out),
        ])
        assert code == 0
        assert (out / "report.csv").exists()
        assert (out / "confusion.svg").exists()

    def test_eval_si_and_report_roundtrip(self, cli_corpus, tmp_path):
        out = tmp_path / "run"
        code = main([
            "eval-si", "--data", str(cli_corpus / "manifest.tsv"),
            "--set", "posXY", "--lda-dims", "2", "--out", str(out),
        ])
        assert code == 0
        rerender = tmp_path / "again"
        code = main([
            "report", "--report", str(out / "report.json"), "--out", str(rerender),
        ])
        assert code == 0
        assert (rerender / "report.csv").read_bytes() == (out / "report.csv").read_bytes()
        assert (rerender / "confusion.svg").read_bytes() == (out / "confusion.svg").read_bytes()

    def test_train_writes_bank(self, cli_corpus, tmp_path):
        out = tmp_path / "trained"
        code = main([
            "train", "--data", str(cli_corpus / "manifest.tsv"),
            "--set", "posXY", "--lda-dims", "2", "--out", str(out),
        ])
        assert code == 0
        assert (out / "bank" / "models.npz").exists()
        assert (out / "transform.npz").exists()

    def test_train_names_the_feature_set_in_both_records(self, cli_corpus, tmp_path):
        # training names no feature set; the verb that saves the records does
        out = tmp_path / "trained"
        assert main(["train", "--data", str(cli_corpus / "manifest.tsv"), "--set", "pos,S",
                     "--lda-dims", "2", "--out", str(out)]) == 0
        assert ClassifierBank.load(out / "bank").feature_spec == "pos,S"
        assert LdaTransform.load(out / "transform.npz").feature_spec == "pos,S"

    def test_synth_defaults_are_synth_spec(self, tmp_path, monkeypatch):
        """`synth` without optional flags renders SynthSpec() at seed 0."""
        calls = []

        def render(spec, seed, out):
            calls.append((spec, seed))
            return SimpleNamespace(entries=[])

        monkeypatch.setattr(cli, "generate_synthetic_corpus", render)
        assert main(["synth", "--out", str(tmp_path)]) == 0
        assert calls == [(SynthSpec(), 0)]

    @pytest.mark.parametrize("flag, field, value", [
        ("--classes", "num_classes", 3), ("--signers", "num_signers", 2),
        ("--samples", "samples", 5), ("--width", "width", 96), ("--height", "height", 72),
        ("--frames", "frames", 20), ("--style", "style_strength", 1.25),
        ("--traj-noise", "traj_noise", 0.75),
    ])
    def test_synth_flag_sets_its_field(self, tmp_path, monkeypatch, flag, field, value):
        calls = []
        monkeypatch.setattr(cli, "generate_synthetic_corpus",
                            lambda spec, seed, out: calls.append(spec)
                            or SimpleNamespace(entries=[]))
        assert main(["synth", "--out", str(tmp_path), flag, str(value)]) == 0
        assert calls == [dataclasses.replace(SynthSpec(), **{field: value})]
        assert type(getattr(calls[0], field)) is type(value)

    @pytest.mark.parametrize("data, message", [
        (None, "report.json: missing"),
        (b'{"protocol": "SD-\xff"}', "report.json: not UTF-8 text"),
        (b'{"protocol": ', "report.json: not a report (JSONDecodeError"),
    ], ids=["missing", "not UTF-8", "cut JSON"])
    def test_report_names_a_bad_report_file(self, tmp_path, capsys, data, message):
        if data is not None:
            (tmp_path / "report.json").write_bytes(data)
        assert main(["report", "--report", str(tmp_path / "report.json"),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: LoadError: {tmp_path}/{message}")

    def test_synth_rejects_a_zero_width(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "corpus"), "--width", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: width") and err.count("\n") == 1
        assert not (tmp_path / "corpus").exists()

    def test_error_is_one_line_and_nonzero(self, tmp_path, capsys):
        code = main(["extract", "--data", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--data", str(tmp_path / "nope.tsv"),
                  "--out", str(tmp_path), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["train", "eval-si"])
    def test_negative_lda_dims_is_a_usage_error(self, tmp_path, capsys, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--data", str(tmp_path / "nope.tsv"), "--out", str(tmp_path),
                  "--lda-dims", "-1"])
        assert exc.value.code == 2
        assert "--lda-dims" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval-sd", "--data", "m.tsv", "--seed", "1"],
        ["report", "--report", "r.json", "--jobs", "2"],
        ["segment", "--data", "m.tsv", "--sample", "s", "--jobs", "2"],
        ["synth", "--config", "c.txt"],
    ], ids=["eval-sd-seed", "report-jobs", "segment-jobs", "synth-config"])
    def test_flag_a_verb_does_not_read_is_a_usage_error(self, tmp_path, capsys, argv):
        flag = argv[-2]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
