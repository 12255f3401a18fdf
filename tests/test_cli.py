from pathlib import Path
from types import SimpleNamespace

import pytest

from signrec import cli
from signrec.cli import main
from signrec.synth import SynthSpec


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

    def test_segment_writes_masks(self, cli_corpus, tmp_path):
        code = main([
            "segment", "--data", str(cli_corpus / "manifest.tsv"),
            "--sample", "sign00_signerA_00", "--out", str(tmp_path),
        ])
        assert code == 0
        masks = list((tmp_path / "sign00_signerA_00").glob("hands_*.pgm"))
        assert masks

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

    def test_synth_defaults_are_synth_spec(self, tmp_path, monkeypatch):
        """`synth` without optional flags renders SynthSpec() at seed 0."""
        calls = []

        def render(spec, seed, out):
            calls.append((spec, seed))
            return SimpleNamespace(entries=[])

        monkeypatch.setattr(cli, "generate_synthetic_corpus", render)
        assert main(["synth", "--out", str(tmp_path)]) == 0
        assert calls == [(SynthSpec(), 0)]

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
