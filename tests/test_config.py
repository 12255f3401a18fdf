import dataclasses

import pytest

from signrec.config import _PARSERS, Config
from signrec.dataio import LoadError

# parsable values outside their key's range, or not finite
OUT_OF_RANGE = [
    "motion_threshold=nan", "skin_threshold=nan", "lda_shrinkage=inf",
    "variance_floor=-inf", "hist_bins=0", "hmm_states=0", "hmm_states=-3",
    "hmm_max_iter=0", "lda_resample_third=0", "jobs=0", "min_blob_area=-1",
    "max_coast=-1", "hmm_self_prob=1.5", "hmm_self_prob=1.0", "hmm_self_prob=0.0",
    "variance_floor=0.0", "variance_floor=-1e-4", "skin_alpha=1.5", "skin_alpha=-0.1",
    "face_update_rate=2.0", "face_update_rate=-1.0", "lda_shrinkage=-0.001"]


class TestConfig:
    def test_round_trip(self, tmp_path):
        # the bounds each range check must still accept
        cfg = Config(motion_threshold=9.0, hmm_states=1, hist_bins=1, min_blob_area=0,
                     max_coast=0, hmm_self_prob=0.999, variance_floor=1e-12, skin_alpha=0.0,
                     face_update_rate=1.0)
        (tmp_path / "c.txt").write_text(cfg.snapshot() + "\n")
        loaded = Config.load(tmp_path / "c.txt")
        assert loaded == cfg

    def test_comments_and_blanks_ignored(self, tmp_path):
        (tmp_path / "c.txt").write_text(
            "# tuning\n\nmotion_threshold=8.5   # lower for dim scenes\n"
        )
        assert Config.load(tmp_path / "c.txt").motion_threshold == 8.5

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "c.txt").write_text("nope=1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            Config.load(tmp_path / "c.txt")

    @pytest.mark.parametrize("line", [
        "hmm_states=seven", "hmm_states=7.0", "motion_threshold=twelve", *OUT_OF_RANGE])
    def test_unparsable_value_named(self, tmp_path, line):
        (tmp_path / "c.txt").write_text(f"# tuning\n{line}\n")
        key = line.split("=")[0]
        with pytest.raises(ValueError, match=rf"c.txt:2: {key}="):
            Config.load(tmp_path / "c.txt")

    @pytest.mark.parametrize("line", OUT_OF_RANGE)
    def test_out_of_range_value_rejected_in_code(self, line):
        key, value = line.split("=")
        kind = {f.name: f.type for f in dataclasses.fields(Config)}[key]
        value = {"int": int, "float": float}[kind](value)
        with pytest.raises(ValueError, match=rf"^{key}="):
            Config(**{key: value})
        with pytest.raises(ValueError, match=rf"^{key}="):
            dataclasses.replace(Config(), **{key: value})

    @pytest.mark.parametrize("key", [
        "zero_idle", "lda_shrinkage_max", "process_noise", "measurement_noise",
        "initial_covariance", "window_pad_frac", "window_pad_min", "min_assign_score",
        "depth_score_scale", "proximity_scale"])
    def test_zero_idle_key_is_gone(self, tmp_path, key):
        (tmp_path / "c.txt").write_text(f"{key}=1\n")
        with pytest.raises(ValueError, match=f"c.txt:1: unknown config key '{key}'"):
            Config.load(tmp_path / "c.txt")

    def test_line_without_equals_named(self, tmp_path):
        (tmp_path / "c.txt").write_text("hmm_states=7\n# a comment\nhmm_states 7\n")
        with pytest.raises(ValueError, match="c.txt:3: expected key=value, got 'hmm_states 7'"):
            Config.load(tmp_path / "c.txt")

    def test_every_field_type_has_a_parser(self):
        # `load` reads only what `_PARSERS` can parse, and catches only ValueError
        assert {f.type for f in dataclasses.fields(Config)} <= _PARSERS.keys()

    def test_undecodable_bytes_named(self, tmp_path):
        (tmp_path / "c.txt").write_bytes(b"hmm_states=7 # \xff\n")
        with pytest.raises(LoadError, match="c.txt.*UTF-8"):
            Config.load(tmp_path / "c.txt")

    def test_snapshot_contains_every_field(self):
        snap = Config().snapshot()
        for key in ("hist_bins", "hmm_states", "lda_shrinkage", "max_coast"):
            assert key in snap
