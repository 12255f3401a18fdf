import pytest

from signrec.config import Config
from signrec.dataio import LoadError


class TestConfig:
    def test_round_trip(self, tmp_path):
        # the bounds each range check must still accept
        cfg = Config(motion_threshold=9.0, hmm_states=1, zero_idle=False, hist_bins=1,
                     min_blob_area=0, max_coast=0, hmm_self_prob=0.999,
                     variance_floor=1e-12, skin_alpha=0.0, face_update_rate=1.0)
        cfg.save(tmp_path / "c.txt")
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
        "zero_idle=flase", "zero_idle=yes", "hmm_states=seven", "hmm_states=7.0",
        "motion_threshold=twelve",
        # parsable but out of range
        "motion_threshold=nan", "skin_threshold=nan", "lda_shrinkage=inf",
        "variance_floor=-inf", "hist_bins=0", "hmm_states=0", "hmm_states=-3",
        "hmm_max_iter=0", "lda_resample_third=0", "jobs=0", "min_blob_area=-1",
        "max_coast=-1", "hmm_self_prob=1.5", "hmm_self_prob=1.0", "hmm_self_prob=0.0",
        "variance_floor=0.0", "variance_floor=-1e-4", "skin_alpha=1.5", "skin_alpha=-0.1",
        "face_update_rate=2.0", "face_update_rate=-1.0"])
    def test_unparsable_value_named(self, tmp_path, line):
        (tmp_path / "c.txt").write_text(f"# tuning\n{line}\n")
        key = line.split("=")[0]
        with pytest.raises(ValueError, match=rf"c.txt:2: {key}="):
            Config.load(tmp_path / "c.txt")

    @pytest.mark.parametrize("value, expected", [("true", True), ("1", True),
                                                 ("False", False), ("0", False)])
    def test_boolean_spellings(self, tmp_path, value, expected):
        (tmp_path / "c.txt").write_text(f"zero_idle={value}\n")
        assert Config.load(tmp_path / "c.txt").zero_idle is expected

    def test_undecodable_bytes_named(self, tmp_path):
        (tmp_path / "c.txt").write_bytes(b"hmm_states=7 # \xff\n")
        with pytest.raises(LoadError, match="c.txt.*UTF-8"):
            Config.load(tmp_path / "c.txt")

    def test_snapshot_contains_every_field(self):
        snap = Config().snapshot()
        for key in ("hist_bins", "hmm_states", "lda_shrinkage", "window_pad_min"):
            assert key in snap
