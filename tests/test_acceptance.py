"""Acceptance suite: each test checks one release criterion at its stated
tolerance and prints a single PASS/FAIL line (run with -s to see them live).

The end-to-end gates run the full pipeline on synthetic corpora rendered
with ground truth; the oracle gates compare the fast implementations to
brute-force references.
"""

import itertools
import math
import time

import numpy as np
import pytest

from signrec.config import Config
from signrec.evaluation import prepare_dataset, run_sd_loocv, run_si_loso
from signrec.features import (
    FeatureSetSpec,
    geometric_features,
    hog,
    hu_moments,
    shape_context,
)
from signrec.hmm import baum_welch, forward_loglik, init_model
from signrec.pipeline import extract_corpus, general_skin_model
from signrec.segmentation import SequenceSegmenter
from signrec.signerlda import accumulate_scatter, dtw_align, solve_transform
from signrec.synth import SynthSpec, generate_synthetic_corpus, load_ground_truth
from signrec.dataio import load_sequence

from conftest import JOBS
from test_features import random_blob
from test_hmm import enumerate_loglik, random_model
from test_signerlda import brute_force_dtw


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- shared corpora ----------------------------------------------------------

@pytest.fixture(scope="session")
def e2e(tmp_path_factory):
    """10 classes x 4 signers x 6 samples with strong per-signer styles and
    one left-handed signer; extracted once and shared by the SD/SI gates."""
    root = tmp_path_factory.mktemp("e2e_corpus")
    spec = SynthSpec(num_classes=10, num_signers=4, samples=6, frames=36,
                     width=160, height=120, style_strength=1.6,
                     left_handed=(1,))
    generate_synthetic_corpus(spec, 2024, root)
    cfg = Config()
    start = time.monotonic()
    extracted = extract_corpus(root / "manifest.tsv", cfg, cache_dir=root / "cache",
                               jobs=JOBS)
    extract_seconds = time.monotonic() - start
    return extracted, cfg, extract_seconds


@pytest.fixture(scope="session")
def seg_corpus(tmp_path_factory):
    """Small ground-truthed corpus covering plain motion, crossing hands and
    a face touch."""
    root = tmp_path_factory.mktemp("seg_corpus")
    spec = SynthSpec(num_classes=4, num_signers=1, samples=2, frames=36,
                     width=160, height=120)
    manifest = generate_synthetic_corpus(spec, 99, root)
    return root, manifest


class TestCriterion01HmmOracle:
    def test_forward_matches_path_enumeration(self):
        rng = np.random.default_rng(1001)
        start = time.monotonic()
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 5))             # N <= 4
            dim = int(rng.integers(1, 4))           # D <= 3
            t_len = int(rng.integers(n, 7))         # T <= 6
            model = random_model(rng, n, dim)
            frames = rng.normal(size=(t_len, dim))
            got = forward_loglik(model, frames)
            want = enumerate_loglik(model, frames)
            worst = max(worst, abs(got - want) / abs(want))
        elapsed = time.monotonic() - start
        ok = worst <= 1e-9 and elapsed < 10.0
        report("01 HMM forward oracle", ok,
               f"100 instances, worst relative error {worst:.2e}, {elapsed:.1f}s")


class TestCriterion02DtwOracle:
    def test_cost_matches_exhaustive_paths(self):
        rng = np.random.default_rng(1002)
        start = time.monotonic()
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            ref = rng.normal(size=(n, 2))
            query = rng.normal(size=(m, 2))
            _, cost = dtw_align(ref, query)
            want = brute_force_dtw(ref, query)
            scale = max(abs(want), 1e-12)
            worst = max(worst, abs(cost - want) / scale)
        elapsed = time.monotonic() - start
        ok = worst <= 1e-9 and elapsed < 10.0
        report("02 DTW oracle", ok,
               f"100 pairs, worst relative error {worst:.2e}, {elapsed:.1f}s")


class TestCriterion03EmMonotonicity:
    def test_loglik_never_drops(self):
        rng = np.random.default_rng(1003)
        worst = -np.inf
        for _ in range(20):
            n = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 4))
            samples = [rng.normal(size=(int(rng.integers(n + 3, 20)), dim))
                       for _ in range(int(rng.integers(2, 5)))]
            model = init_model(samples, n_states=n)
            _, history = baum_welch(model, samples, max_iter=12, tol=0.0)
            drops = [a - b for a, b in zip(history, history[1:])]
            if drops:
                worst = max(worst, max(drops))
        ok = worst <= 1e-8
        report("03 EM monotonicity", ok, f"20 runs, worst decrease {worst:.2e}")


class TestCriterion04Lda:
    def test_fisher_direction_and_degenerate_scatters(self):
        rng = np.random.default_rng(1004)
        mu1, mu2 = rng.normal(size=5), rng.normal(size=5) + 2.0
        a = rng.normal(size=(5, 5))
        mix = a @ a.T / 5 + np.eye(5)
        x1 = mu1 + rng.normal(size=(60, 5)) @ mix
        x2 = mu2 + rng.normal(size=(60, 5)) @ mix
        between, within = accumulate_scatter([x1[:, None, :], x2[:, None, :]])
        weights, _, _ = solve_transform(between, within, out_dim=1, shrinkage=1e-9)
        fisher = np.linalg.solve(within, x1.mean(0) - x2.mean(0))
        w = weights[:, 0]
        cos = abs(fisher @ w) / (np.linalg.norm(fisher) * np.linalg.norm(w))

        single_between, _ = accumulate_scatter([rng.normal(size=(6, 3, 4))])
        sb_zero = np.array_equal(single_between, np.zeros((4, 4)))
        _, one_each_within = accumulate_scatter(
            [rng.normal(size=(1, 3, 4)) for _ in range(3)]
        )
        sw_zero = np.array_equal(one_each_within, np.zeros((4, 4)))

        ok = cos >= 0.999 and sb_zero and sw_zero
        report("04 LDA correctness", ok,
               f"|cos|={cos:.6f}, single-class S^B==0: {sb_zero}, "
               f"one-per-class S^W==0: {sw_zero}")


class TestCriterion05Descriptors:
    def test_invariances(self):
        rng = np.random.default_rng(1005)
        blob = random_blob(rng, size=28)
        big = np.zeros((90, 90), dtype=bool)
        big[20:48, 20:48] = blob
        moved = np.zeros((90, 90), dtype=bool)
        moved[8:36, 57:85] = blob
        hu_a = hu_moments(big)
        hu_b = hu_moments(moved)
        hu_translation = float(np.max(np.abs(hu_a - hu_b)))
        hu_c = hu_moments(np.rot90(big))
        hu_rotation = float(np.max(np.abs(hu_a - hu_c)))

        sc_a = shape_context(big)
        sc_b = shape_context(moved)
        sc_sum = float(sc_a.sum())
        sc_translation = float(np.max(np.abs(sc_a - sc_b)))

        hog_vec = hog(np.full((24, 24), 77.0))
        hog_zero = not hog_vec.any()

        square = np.zeros((16, 16), dtype=bool)
        square[3:13, 3:13] = True
        s_block = geometric_features(square)

        ok = (
            hu_translation <= 1e-12
            and hu_rotation <= 1e-9
            and abs(sc_sum - 1.0) <= 1e-12
            and sc_translation <= 1e-9
            and hog_zero
            and abs(s_block[3]) <= 1e-12
            and abs(s_block[2] - 1.0) <= 1e-12
        )
        report("05 descriptor invariances", ok,
               f"Hu shift {hu_translation:.1e}, Hu rot {hu_rotation:.1e}, "
               f"SC sum {sc_sum:.12f}, SC shift {sc_translation:.1e}, "
               f"uniform HOG zero: {hog_zero}, square c={s_block[3]:.1e} "
               f"s={s_block[2]:.12f}")


class TestCriterion06Segmentation:
    def test_iou_and_occlusion_centroids(self, seg_corpus):
        root, manifest = seg_corpus
        cfg = Config()
        model = general_skin_model(root, cfg)
        ious = []
        occl_errors = []
        for entry in manifest.entries:
            seq = load_sequence(root / entry.path)
            gt = load_ground_truth(root / entry.path)
            result = SequenceSegmenter(model, cfg).run(seq)
            for t, frame in enumerate(result.frames):
                gl, gr = gt.left_masks[t], gt.right_masks[t]
                occluded = (gl & gr).any()
                row = gt.trajectory[t]
                for hand, gmask, gxy in (
                    ("left", gl, row[3:5]),
                    ("right", gr, row[0:3]),
                ):
                    obs = getattr(frame, hand)
                    if occluded:
                        if obs is not None:
                            occl_errors.append(
                                math.hypot(obs.centroid[0] - gxy[0],
                                           obs.centroid[1] - gxy[1])
                            )
                        continue
                    if obs is None:
                        ious.append(0.0)
                        continue
                    full = np.zeros_like(gmask)
                    x, y, w, h = obs.bbox
                    full[y : y + h, x : x + w] = obs.mask
                    union = (full | gmask).sum()
                    ious.append((full & gmask).sum() / union if union else 0.0)
        mean_iou = float(np.mean(ious))
        mean_err = float(np.mean(occl_errors)) if occl_errors else 0.0
        max_err = float(np.max(occl_errors)) if occl_errors else 0.0
        ok = mean_iou >= 0.8 and occl_errors and mean_err <= 10.0
        report("06 segmentation gate", ok,
               f"mean IoU {mean_iou:.3f} over {len(ious)} hand-frames, "
               f"hand-over-hand centroid error mean {mean_err:.1f}px "
               f"max {max_err:.1f}px over {len(occl_errors)} frames")


class TestCriterion07SdGate:
    def test_sd_loocv_accuracy(self, e2e):
        extracted, cfg, extract_seconds = e2e
        spec = FeatureSetSpec.parse("pos,S,HOG")
        start = time.monotonic()
        prepared = prepare_dataset(extracted, spec, cfg)
        result = run_sd_loocv(prepared, cfg, feature_spec_name=spec.name, jobs=JOBS)
        elapsed = extract_seconds + (time.monotonic() - start)
        ok = result.mean_accuracy >= 0.90 and elapsed < 300.0
        per_signer = {k: round(v, 3) for k, v in result.per_signer.items()}
        report("07 end-to-end SD gate", ok,
               f"mean accuracy {result.mean_accuracy:.3f} {per_signer}, "
               f"{elapsed:.0f}s incl. extraction")


class TestCriterion08SiGate:
    def test_lda_beats_baseline(self, e2e):
        extracted, cfg, extract_seconds = e2e
        spec = FeatureSetSpec.parse("pos,S,HOG")
        start = time.monotonic()
        prepared = prepare_dataset(extracted, spec, cfg)
        baseline = run_si_loso(prepared, cfg, lda_dims=0,
                               feature_spec_name=spec.name, jobs=JOBS)
        with_lda = run_si_loso(prepared, cfg, lda_dims=8,
                               feature_spec_name=spec.name, jobs=JOBS)
        elapsed = extract_seconds + (time.monotonic() - start)
        gain = with_lda.mean_accuracy - baseline.mean_accuracy
        ok = gain >= 0.05 and elapsed < 600.0
        report("08 end-to-end SI gate", ok,
               f"baseline {baseline.mean_accuracy:.3f} -> LDA(8) "
               f"{with_lda.mean_accuracy:.3f} (gain {gain * 100:+.1f} points), "
               f"{elapsed:.0f}s incl. extraction")


class TestCriterion09DepthGate:
    def test_depth_separates_paired_classes(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("depth_corpus")
        spec = SynthSpec(num_classes=6, num_signers=1, samples=5, frames=36,
                         width=160, height=120, depth_pairs=True)
        generate_synthetic_corpus(spec, 321, root)
        cfg = Config()
        extracted = extract_corpus(root / "manifest.tsv", cfg,
                                   cache_dir=root / "cache", jobs=JOBS)
        accuracies = {}
        for name in ("posXY", "posXYZ"):
            fs = FeatureSetSpec.parse(name)
            prepared = prepare_dataset(extracted, fs, cfg)
            accuracies[name] = run_sd_loocv(prepared, cfg, feature_spec_name=name,
                                            jobs=JOBS).mean_accuracy
        gain = accuracies["posXYZ"] - accuracies["posXY"]
        ok = gain >= 0.05
        report("09 depth feature gate", ok,
               f"posXY {accuracies['posXY']:.3f} -> posXYZ "
               f"{accuracies['posXYZ']:.3f} (gain {gain * 100:+.1f} points)")


class TestCriterion10Dimensions:
    def test_printed_dimensions(self):
        dims = {
            "pos,S": FeatureSetSpec.parse("pos,S").dimension,
            "pos,HOG": FeatureSetSpec.parse("pos,HOG").dimension,
            "pos,S,HOG": FeatureSetSpec.parse("pos,S,HOG").dimension,
        }
        ok = dims == {"pos,S": 26, "pos,HOG": 84, "pos,S,HOG": 98}
        report("10 dimension bookkeeping", ok, f"{dims}")


class TestCriterion11Determinism:
    def test_stages_bit_reproducible(self, tmp_path_factory):
        import hashlib

        from signrec.evaluation import emit_report
        from signrec.features import save_sample

        spec = SynthSpec(num_classes=2, num_signers=2, samples=2, frames=16,
                         width=96, height=72, style_strength=1.0)

        def corpus_digest(root):
            digest = hashlib.sha256()
            for path in sorted(root.rglob("*")):
                if path.is_file():
                    digest.update(str(path.relative_to(root)).encode())
                    digest.update(path.read_bytes())
            return digest.hexdigest()

        roots = [tmp_path_factory.mktemp(f"det_{i}") for i in range(2)]
        for root in roots:
            generate_synthetic_corpus(spec, 555, root)
        synth_same = corpus_digest(roots[0]) == corpus_digest(roots[1])

        cfg = Config()
        runs = []
        for root, jobs in ((roots[0], 1), (roots[1], 2)):
            extracted = extract_corpus(root / "manifest.tsv", cfg,
                                       cache_dir=root / "cache", jobs=jobs)
            blob = []
            for entry, sample in extracted:
                out = root / "dump.txt"
                save_sample(sample, out)
                blob.append((entry.path, out.read_bytes()))
            runs.append(blob)
        extract_same = runs[0] == runs[1]

        fs = FeatureSetSpec.parse("pos,S")
        reports = []
        for root, jobs in ((roots[0], 1), (roots[1], 2)):
            extracted = extract_corpus(root / "manifest.tsv", cfg,
                                       cache_dir=root / "cache", jobs=jobs)
            prepared = prepare_dataset(extracted, fs, cfg)
            result = run_sd_loocv(prepared, cfg, feature_spec_name=fs.name, jobs=jobs)
            out = root / "report"
            emit_report(result, out)
            # runtime_seconds is wall-clock, everything else must match bit-wise
            csv_rows = [
                line for line in (out / "report.csv").read_text().splitlines()
                if not line.startswith("runtime_seconds")
            ]
            reports.append(
                (csv_rows,
                 (out / "confusion.csv").read_bytes(),
                 (out / "confusion.svg").read_bytes())
            )
        eval_same = reports[0] == reports[1]

        ok = synth_same and extract_same and eval_same
        report("11 determinism", ok,
               f"synthesis identical: {synth_same}, extraction identical "
               f"(serial vs 2 jobs): {extract_same}, evaluation reports "
               f"identical: {eval_same}")
