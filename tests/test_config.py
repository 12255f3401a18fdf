import dataclasses
import inspect

import pytest

from signrec import hmm, segmentation, signerlda
from signrec.config import _PARSERS, Config
from signrec.dataio import LoadError

# parsable values outside their key's range, or not finite
OUT_OF_RANGE = [
    "face_depth_threshold=nan", "lda_shrinkage=inf", "hmm_states=0", "hmm_states=-3",
    "hmm_max_iter=0", "jobs=0", "lda_shrinkage=-0.001"]
# the tuning values that became constants beside their code
REMOVED_KEYS = [
    "hist_bins", "skin_alpha", "skin_threshold", "motion_threshold", "face_update_rate",
    "min_blob_area", "weight_depth", "weight_size", "weight_proximity", "max_coast",
    "lda_resample_third", "hmm_self_prob", "hmm_tol", "variance_floor"]
# values the range checks of those keys used to reject: each line now fails as
# an unknown key, in a file and in code
RETIRED = [
    "motion_threshold=nan", "skin_threshold=nan", "variance_floor=-inf", "hist_bins=0",
    "lda_resample_third=0", "min_blob_area=-1", "max_coast=-1", "hmm_self_prob=1.5",
    "hmm_self_prob=1.0", "hmm_self_prob=0.0", "variance_floor=0.0", "variance_floor=-1e-4",
    "skin_alpha=1.5", "skin_alpha=-0.1", "face_update_rate=2.0", "face_update_rate=-1.0"]


class TestConfig:
    def test_round_trip(self, tmp_path):
        # the bounds each range check must still accept, and a changed float
        cfg = Config(hmm_states=1, hmm_max_iter=1, jobs=1, lda_shrinkage=0.0,
                     face_depth_threshold=9.0)
        (tmp_path / "c.txt").write_text(cfg.snapshot() + "\n")
        loaded = Config.load(tmp_path / "c.txt")
        assert loaded == cfg

    def test_comments_and_blanks_ignored(self, tmp_path):
        (tmp_path / "c.txt").write_text(
            "# tuning\n\nface_depth_threshold=8.5   # lower for a hand near the face\n"
        )
        assert Config.load(tmp_path / "c.txt").face_depth_threshold == 8.5

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "c.txt").write_text("nope=1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            Config.load(tmp_path / "c.txt")

    @pytest.mark.parametrize("line", [
        "hmm_states=seven", "hmm_states=7.0", "face_depth_threshold=twelve", *OUT_OF_RANGE,
        *RETIRED])
    def test_unparsable_value_named(self, tmp_path, line):
        (tmp_path / "c.txt").write_text(f"# tuning\n{line}\n")
        key = line.split("=")[0]
        error = f"unknown config key '{key}'" if key in REMOVED_KEYS else f"{key}="
        with pytest.raises(ValueError, match=rf"c.txt:2: {error}"):
            Config.load(tmp_path / "c.txt")

    @pytest.mark.parametrize("line", [*OUT_OF_RANGE, *RETIRED])
    def test_out_of_range_value_rejected_in_code(self, line):
        key, value = line.split("=")
        if key in REMOVED_KEYS:
            with pytest.raises(TypeError, match=rf"'{key}'"):
                Config(**{key: float(value)})
            with pytest.raises(TypeError, match=rf"'{key}'"):
                dataclasses.replace(Config(), **{key: float(value)})
            return
        kind = {f.name: f.type for f in dataclasses.fields(Config)}[key]
        value = {"int": int, "float": float}[kind](value)
        with pytest.raises(ValueError, match=rf"^{key}="):
            Config(**{key: value})
        with pytest.raises(ValueError, match=rf"^{key}="):
            dataclasses.replace(Config(), **{key: value})

    @pytest.mark.parametrize("key", [
        "zero_idle", "lda_shrinkage_max", "process_noise", "measurement_noise",
        "initial_covariance", "window_pad_frac", "window_pad_min", "min_assign_score",
        "depth_score_scale", "proximity_scale", *REMOVED_KEYS])
    def test_zero_idle_key_is_gone(self, tmp_path, key):
        (tmp_path / "c.txt").write_text(f"{key}=1\n")
        with pytest.raises(ValueError, match=f"c.txt:1: unknown config key '{key}'"):
            Config.load(tmp_path / "c.txt")
        with pytest.raises(TypeError, match=key):
            Config(**{key: 1})

    def test_fields_are_the_varied_settings(self):
        assert [f.name for f in dataclasses.fields(Config)] == [
            "face_depth_threshold", "body_depth_front", "body_depth_back", "focal_per_width",
            "idle_path_threshold", "idle_speed_threshold", "lda_shrinkage", "hmm_states",
            "hmm_max_iter", "jobs"]

    def test_kernels_do_not_restate_the_settings(self):
        """`Config` alone defines the chain length, the EM cap and the LDA
        ridge: the kernels that take them have no default. The face model's
        update rate is `segmentation.FACE_UPDATE_RATE`, no parameter."""
        def default(function, name):
            return inspect.signature(function).parameters[name].default

        assert default(hmm.init_model, "n_states") is inspect.Parameter.empty
        assert default(hmm.baum_welch, "max_iter") is inspect.Parameter.empty
        assert default(signerlda.solve_transform, "shrinkage") is inspect.Parameter.empty
        assert "update_rate" not in inspect.signature(
            segmentation.resolve_face_occlusion).parameters

    def test_line_without_equals_named(self, tmp_path):
        (tmp_path / "c.txt").write_text("hmm_states=7\n# a comment\nhmm_states 7\n")
        with pytest.raises(ValueError, match="c.txt:3: expected key=value, got 'hmm_states 7'"):
            Config.load(tmp_path / "c.txt")

    def test_key_set_twice_named(self, tmp_path):
        (tmp_path / "c.txt").write_text("jobs=2\nhmm_states=5\n# again\n hmm_states = 6\n")
        with pytest.raises(ValueError, match="c.txt:4: hmm_states was already set on line 2"):
            Config.load(tmp_path / "c.txt")

    def test_every_field_type_has_a_parser(self):
        # `load` reads only what `_PARSERS` can parse, and catches only ValueError
        assert {f.type for f in dataclasses.fields(Config)} <= _PARSERS.keys()

    def test_undecodable_bytes_named(self, tmp_path):
        (tmp_path / "c.txt").write_bytes(b"hmm_states=7 # \xff\n")
        with pytest.raises(LoadError, match="c.txt.*UTF-8"):
            Config.load(tmp_path / "c.txt")

    def test_snapshot_contains_every_field(self):
        snap = Config().snapshot().splitlines()
        assert [line.split("=")[0] for line in snap] == [f.name for f in dataclasses.fields(Config)]
