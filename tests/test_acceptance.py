"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The learned-estimator
criteria share one desk-scale training run (session fixture).  Run alone on
a 2-CPU host (numpy 2.4.6, OpenBLAS) the module took 28.2 and 28.6 s, most
of it waiting for the toy-training child.
"""

import math
import time

import numpy as np
from cli_sequence import run_cli_sequence
from conftest import gaussian_histogram
from heldout import score_heldout
from scipy import stats

from rawnoise import synthetic
from rawnoise.calibration import CameraModel, fit_log_linear, sample_params
from rawnoise.estimator import (
    ConvStage,
    EstimatorCheckpoint,
    EstimatorConfig,
    estimate,
    make_triplet_batch,
    backward,
    total_loss,
)
from rawnoise.estimator.network import DETAIL_GAIN, parameter_shapes
from rawnoise.metrics import build_histogram, default_range, kl_divergence
from rawnoise.noise_core import NoiseParams, sample_read, sample_row, sample_shot, synthesize_noise
from rawnoise.oracle import estimate_params_oracle
from rawnoise.streams import derive_stream


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


class TestAcceptance:
    def test_criterion_01_sampler_statistics(self):
        """Shot/read/row samplers pass moment and GOF tests at 10^6 samples."""
        start = time.perf_counter()
        ok = True

        rng = derive_stream(201, 0)
        clean = np.full(10**6, 100.0)
        noisy = clean + sample_shot(clean, 2.0, rng)
        ok &= abs(noisy.mean() - 100.0) < 0.1
        ok &= abs(noisy.var() - 200.0) < 0.02 * 200.0

        counts = np.rint(np.full(10**6, 5.0) + sample_shot(np.full(10**6, 5.0), 1.0, rng))
        k_max = 17
        observed = np.bincount(np.minimum(counts.astype(np.int64), k_max), minlength=k_max + 1)
        pmf = stats.poisson.pmf(np.arange(k_max + 1), 5.0)
        pmf[k_max] = 1.0 - pmf[:k_max].sum()
        ok &= stats.chisquare(observed, pmf * counts.size).pvalue > 0.001

        read = sample_read((10**6,), mu_c=-1.5, sigma=2.0, rng=rng)
        ok &= abs(read.mean() + 1.5) < 0.01
        ok &= abs(read.std() - 2.0) < 0.01 * 2.0

        offsets = np.concatenate(
            [
                np.concatenate([row[0, :, 0], row[2, :, 0]])
                for row in (sample_row((4, 64, 64), 3.0, rng) for _ in range(10**4))
            ]
        )
        ok &= abs(offsets.std() - 3.0) < 0.05 * 3.0

        elapsed = time.perf_counter() - start
        ok &= elapsed < 30.0
        report(1, "sampler moment/GOF statistics", ok, f"{elapsed:.1f}s")

    def test_criterion_02_variance_additivity(self):
        """Var(noise) matches K*c + sigma^2 + sigma_r^2 within 3% for 5 tuples."""
        rng = derive_stream(202, 0)
        ok = True
        details = []
        for _ in range(5):
            params = NoiseParams(
                K=float(rng.uniform(0.2, 6.0)),
                sigma=float(rng.uniform(0.5, 5.0)),
                mu_c=float(rng.uniform(-1.0, 1.0)),
                sigma_r=float(rng.uniform(0.1, 2.0)),
            )
            level = float(rng.uniform(10.0, 300.0))
            clean = np.full((4, 500, 500), level)
            noisy, _ = synthesize_noise(clean, params, rng)
            expected = params.K * level + params.sigma**2 + params.sigma_r**2
            rel = abs(float((noisy - clean).var()) - expected) / expected
            details.append(f"{rel:.3%}")
            ok &= rel < 0.03
        report(2, "synthesized variance additivity at 10^6 samples", ok, " ".join(details))

    def test_criterion_03_haar(self):
        """Perfect reconstruction and Parseval to 1e-6 on 100 random patches."""
        from rawnoise.wavelets import haar_dwt2, haar_idwt2

        rng = derive_stream(203, 0)
        ok = True
        for _ in range(100):
            patch = rng.uniform(0, 1023, size=(4, 32, 32))
            subbands = haar_dwt2(patch)
            ok &= float(np.abs(haar_idwt2(subbands) - patch).max()) <= 1e-6
            energy_in = float(np.sum(patch**2))
            ok &= abs(float(np.sum(subbands**2)) - energy_in) <= 1e-6 * energy_in
        report(3, "Haar reconstruction and Parseval", ok)

    def test_criterion_04_regression_oracle_equivalence(self):
        """fit_log_linear matches closed-form normal equations to 1e-9."""
        rng = derive_stream(204, 0)
        ok = True

        def oracle(x, y):
            design = np.column_stack([x, np.ones_like(x)])
            return np.linalg.solve(design.T @ design, design.T @ y)

        for _ in range(50):
            n = int(rng.integers(3, 16))
            gains = rng.uniform(0.05, 12.0, size=n)
            gains[1] = gains[0] * float(rng.uniform(1.5, 3.0))
            sigmas = rng.uniform(0.1, 9.0, size=n)
            sigma_rs = rng.uniform(0.05, 5.0, size=n)
            model = fit_log_linear(
                NoiseParams(K=gains[i], sigma=sigmas[i], mu_c=0.0, sigma_r=sigma_rs[i])
                for i in range(n)
            )
            a, b = oracle(np.log(gains), np.log(sigmas))
            a_r, b_r = oracle(np.log(gains), np.log(sigma_rs))
            ok &= abs(model.a - a) <= 1e-9 and abs(model.b - b) <= 1e-9
            ok &= abs(model.a_r - a_r) <= 1e-9 and abs(model.b_r - b_r) <= 1e-9

        exact = fit_log_linear(
            NoiseParams(K=k, sigma=2.0 * k, mu_c=0.0, sigma_r=2.0 * k) for k in (0.5, 1.0, 2.0, 4.0)
        )
        ok &= abs(exact.a - 1.0) <= 1e-12 and abs(exact.b - math.log(2.0)) <= 1e-12
        ok &= exact.sigma_hat <= 1e-12
        report(4, "log-linear fit equals normal-equation oracle", ok)

    def test_criterion_05_oracle_round_trip(self):
        """estimate_params_oracle recovers 5 generating tuples within
        (5%, 10%, 10%, 0.05 DN) from 64 frames of 128x128 per set."""
        tuples = [
            NoiseParams(K=0.5, sigma=2.0, mu_c=1.0, sigma_r=0.5),
            NoiseParams(K=4.0, sigma=6.0, mu_c=0.0, sigma_r=1.0),
            NoiseParams(K=6.0, sigma=4.0, mu_c=0.0, sigma_r=2.0),
            NoiseParams(K=1.2, sigma=3.0, mu_c=-0.5, sigma_r=1.5),
            NoiseParams(K=2.5, sigma=1.5, mu_c=0.3, sigma_r=0.4),
        ]
        levels = (2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0)
        ok = True
        details = []
        for i, params in enumerate(tuples):
            rng = derive_stream(205, i)
            start = time.perf_counter()
            series = []
            for level in levels:
                clean = np.full((4, 128, 128), level)
                series.append(
                    (level, [synthesize_noise(clean, params, rng)[0] for _ in range(8)])
                )
            darks = [
                synthesize_noise(np.zeros((4, 128, 128)), params, rng)[0] for _ in range(64)
            ]
            est = estimate_params_oracle(series, darks)
            elapsed = time.perf_counter() - start
            ok &= abs(est.K - params.K) <= 0.05 * params.K
            ok &= abs(est.sigma - params.sigma) <= 0.10 * params.sigma
            ok &= abs(est.sigma_r - params.sigma_r) <= 0.10 * params.sigma_r
            ok &= abs(est.mu_c - params.mu_c) <= 0.05
            ok &= elapsed < 10.0
            details.append(f"set{i}:{elapsed:.1f}s")
        report(5, "oracle recovers generating tuples", ok, " ".join(details))

    def test_criterion_06_joint_sampling_distribution(self):
        """10^5 sampled tuples: log-K uniformity (KS) and per-bin conditional means."""
        model = CameraModel(
            a=0.7, b=0.1, a_r=0.5, b_r=-0.2, sigma_hat=0.15, sigma_r_hat=0.1,
            K_min=0.25, K_max=8.0, mu_c_model=0.0,
        )
        rng = derive_stream(206, 0)
        samples = [sample_params(model, rng) for _ in range(10**5)]
        log_k = np.log([p.K for p in samples])
        log_sigma = np.log([p.sigma for p in samples])
        log_sigma_r = np.log([p.sigma_r for p in samples])

        lo, hi = math.log(0.25), math.log(8.0)
        p_value = stats.kstest(log_k, stats.uniform(loc=lo, scale=hi - lo).cdf).pvalue
        ok = p_value > 0.001

        edges = np.linspace(lo, hi, 11)
        which = np.digitize(log_k, edges[1:-1])
        for b in range(10):
            mask = which == b
            n = int(mask.sum())
            ok &= abs(float((log_sigma[mask] - (0.7 * log_k[mask] + 0.1)).mean())) <= 3 * 0.15 / math.sqrt(n)
            ok &= abs(float((log_sigma_r[mask] - (0.5 * log_k[mask] - 0.2)).mean())) <= 3 * 0.1 / math.sqrt(n)
        report(6, "joint sampling matches its distribution", ok, f"KS p={p_value:.3f}")

    def test_criterion_07_gradient_correctness(self):
        """Analytic gradients match central differences (step 1e-4) to 1e-4.

        The input scale undoes the network's detail gain, so the Haar detail
        planes of the 64-DN scenes enter the first convolution in the unit
        range.  With 16 times larger inputs, central differences at this step
        lose the 1e-4 accuracy to truncation and float64 round-off, whatever
        the analytic gradient.
        """
        config = EstimatorConfig(
            patch_height=8, patch_width=8,
            extractor=(ConvStage(3, 2, 3, "relu"), ConvStage(3, 1, 3, "tanh")),
            feature_dim=6, projector=(4, 3), head=(4, 4),
            tau=1.0, tau_loss=0.5, batch_size=2, train_triplets=4,
            input_scale=1 / (64.0 * DETAIL_GAIN), seed=7,
        )
        shapes = parameter_shapes(config)
        n_params = sum(int(np.prod(s)) for s in shapes.values())
        assert n_params <= 2000

        prng = np.random.default_rng(2024)
        params = {name: prng.normal(0.0, 0.5, size=shape) for name, shape in shapes.items()}
        checkpoint = EstimatorCheckpoint(config=config, params=params)

        rng = derive_stream(207, 0)
        scenes = synthetic.make_scene_pool(rng, 4, 8, 8, white_level=64.0)
        batch = make_triplet_batch(scenes, synthetic.default_camera_bank(), rng, 3)
        grads = backward(batch, checkpoint)

        step = 1e-4
        worst = 0.0
        for name in sorted(params):
            tensor = params[name]
            for idx in np.ndindex(tensor.shape):
                orig = tensor[idx]
                tensor[idx] = orig + step
                up = total_loss(batch, checkpoint)
                tensor[idx] = orig - step
                down = total_loss(batch, checkpoint)
                tensor[idx] = orig
                fd = (up - down) / (2 * step)
                an = grads[name][idx]
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
        ok = worst < 1e-4
        report(7, "gradients match finite differences", ok, f"{n_params} params, max rel {worst:.2e}")

    def test_criterion_08_toy_contrastive_training(self, toy_run):
        """Toy run: heldout triplet accuracy >= 0.9, weighted MSE <= 0.25x the
        mean-predictor baseline, and stage 1 improves separation over init."""
        heldout, train_params = toy_run["heldout"], toy_run["train_params"]
        final_eval = score_heldout(toy_run["checkpoint"], heldout, train_params)
        init_eval = score_heldout(toy_run["init_checkpoint"], heldout, train_params)
        stage1_eval = score_heldout(toy_run["stage1_checkpoint"], heldout, train_params)

        mse, baseline = final_eval["mse"], final_eval["baseline"]

        ok = final_eval["accuracy"] >= 0.9
        ok &= mse <= 0.25 * baseline
        ok &= stage1_eval["separation"] > init_eval["separation"]
        report(
            8,
            "toy contrastive training quality",
            ok,
            f"acc={final_eval['accuracy']:.3f} mse_ratio={mse/baseline:.3f} "
            f"sep {init_eval['separation']:.3f}->{stage1_eval['separation']:.3f}",
        )

    def test_criterion_09_end_to_end_camera_recovery(self, toy_run):
        """Per-image neural estimates refit the generating camera's slope:
        correct sign and |delta a| <= 0.3."""
        camera = toy_run["bank"][1]
        config = toy_run["config"]
        scenes = toy_run["scenes"]
        rng = derive_stream(209, 0)
        entries = []
        for i in range(60):
            params = sample_params(camera, rng)
            scene = scenes[rng.integers(len(scenes))]
            noisy, _ = synthesize_noise(scene, params, rng)
            entries.append(estimate(noisy, toy_run["checkpoint"]))
        refit = fit_log_linear(entries)
        delta = abs(refit.a - camera.a)
        ok = refit.a > 0.0 and delta <= 0.3
        report(9, "neural estimates recover camera slope", ok, f"a={refit.a:.3f} vs {camera.a}")

    def test_criterion_10_kl_metric(self):
        """Self-score ~ 0; worked two-bin value; matched model beats a
        variance-matched Gaussian with KL_matched < 0.01."""
        rng = derive_stream(210, 0)
        values = rng.normal(size=10**5)
        hist = build_histogram(values, bins=256, value_range=(-6.0, 6.0))
        ok = kl_divergence(hist, hist) <= 1e-9

        p = build_histogram(np.array([0.2, 0.8]), bins=2, value_range=(0.0, 1.0))
        q = build_histogram(np.array([0.2, 0.6, 0.7, 0.8]), bins=2, value_range=(0.0, 1.0))
        worked = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        ok &= abs(kl_divergence(p, q) - worked) <= 1e-5

        params = NoiseParams(K=2.0, sigma=0.8, mu_c=0.5, sigma_r=1.6)  # sigma_r >= sigma
        level = 10.0
        clean = np.full((4, 64, 64), level)

        def draw(seed):
            gen = derive_stream(seed, 0)
            return np.concatenate(
                [(synthesize_noise(clean, params, gen)[0] - clean).ravel() for _ in range(64)]
            )

        real = draw(1)
        matched = draw(2)
        value_range = default_range(real)
        hist_real = build_histogram(real, bins=256, value_range=value_range)
        hist_matched = build_histogram(matched, bins=256, value_range=value_range)
        variance = params.K * level + params.sigma**2 + params.sigma_r**2
        hist_gauss = gaussian_histogram(
            params.mu_c, math.sqrt(variance), hist_real.edges, count=real.size
        )
        kl_matched = kl_divergence(hist_real, hist_matched)
        kl_gauss = kl_divergence(hist_real, hist_gauss)
        ok &= kl_matched < 0.01 and kl_matched < kl_gauss
        report(10, "KL metric values and ordering", ok, f"matched={kl_matched:.5f} gauss={kl_gauss:.4f}")

    def test_criterion_11_cli_determinism(self, tmp_path):
        """Every command is byte-reproducible under fixed seeds."""
        ok = True
        outputs = {tag: run_cli_sequence(tmp_path / tag) for tag in ("one", "two")}
        for rel in outputs["one"]:
            ok &= outputs["one"][rel] == outputs["two"][rel]
        report(11, "CLI byte-reproducibility", ok, f"{len(outputs['one'])} artifacts")
