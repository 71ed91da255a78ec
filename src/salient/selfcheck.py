"""Built-in verification oracles, runnable from the CLI.

Each check compares an implementation against an independent route: hand
computable kernel values, closed-form moments, finite differences, or exact
round trips.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import corpus as corpus_mod
from . import losses as losses_mod
from . import model as model_mod
from . import training
from .losses import LossWeights
from .seeding import named_stream


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, passed, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def flat_composite_loss(config, inputs, targets, prior, weights):
    """The training objective (`training.step_objective`) as a function of a
    single flattened parameter vector, in grad_check form: f(tape, flat).

    inputs: (m, Q, T, N); targets: (m, T, N); prior: (m*T, L).
    """
    shapes = model_mod.param_shapes(config)
    names = sorted(shapes)
    sizes = [int(np.prod(shapes[k])) for k in names]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def f(tape, flat):
        leaves = {
            k: ad.reshape(ad.slice_(flat, 0, int(offsets[i]), int(offsets[i + 1])), shapes[k])
            for i, k in enumerate(names)
        }
        return training.step_objective(leaves, config, inputs, targets, prior, weights)[-1]

    return f


def flatten_params(params) -> np.ndarray:
    names = sorted(params.tensors)
    return np.concatenate([params.tensors[k].astype(np.float64).ravel() for k in names])


def _mmd_oracles():
    w = LossWeights()
    # identical 1-D samples: within = 2, cross = 2, difference exactly 0
    got_zero = losses_mod.mmd_sq(np.zeros((2, 1)), np.zeros((2, 1)), w)
    ok_zero = abs(got_zero - 0.0) <= 1e-12
    yield _check("mmd oracle (identical samples)", ok_zero, f"expected 0.0, actual {got_zero!r}")
    # z = {1, 2}, y = {0, 0} with C = 2: within terms give 5/3, cross gives 1
    got = losses_mod.mmd_sq(np.array([[1.0], [2.0]]), np.zeros((2, 1)), w)
    expected = 2.0 / 3.0
    ok = abs(got - expected) <= 1e-12
    yield _check("mmd oracle (shifted samples)", ok, f"expected {expected!r}, actual {got!r}")


def _laplace_moments():
    rng = named_stream(20240, "selfcheck/laplace")
    x = losses_mod.laplace_prior_sample(100_000, 4, rng)
    var = x.var(axis=0)
    kurt = np.mean((x - x.mean(axis=0)) ** 4, axis=0) / var**2 - 3.0
    ok_v = bool(np.all((var > 0.97) & (var < 1.03)))
    yield _check("laplace prior variance", ok_v, f"per-dim variance {np.round(var, 4).tolist()}, want [0.97, 1.03]")
    ok_k = bool(np.all((kurt > 2.7) & (kurt < 3.3)))
    yield _check("laplace prior excess kurtosis", ok_k, f"per-dim kurtosis {np.round(kurt, 3).tolist()}, want [2.7, 3.3]")


def _snr_mixer():
    rng = named_stream(77, "selfcheck/snr")
    clean, noise = rng.uniform(-0.5, 0.5, (2, 16000)).astype(np.float32)
    target = 7.0
    mix = corpus_mod.mix_at_snr(clean, noise, target)
    got = corpus_mod.measured_snr_db(mix, clean)
    ok = abs(got - target) <= 1e-6
    yield _check("snr mixer accuracy", ok, f"requested {target} dB, measured {got!r} dB")


def _checkpoint_roundtrip():
    cfg = model_mod.EncoderConfig(lstm_layers=1, hidden=8, feature_dim=3, input_dim=10)
    params = model_mod.init_params(cfg, seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "rt.ckpt"
        model_mod.save_checkpoint(params, p)
        back = model_mod.load_checkpoint(p)
    same = all(np.array_equal(params.tensors[k], back.tensors[k]) for k in params.tensors)
    same = same and np.array_equal(params.mean, back.mean) and np.array_equal(params.std, back.std)
    same = same and back.config == params.config
    yield _check("checkpoint round trip", same, "bit-exact" if same else "mismatch after reload")


def _gradient_check():
    # encoder -> losses -> decoder on a small desk-shaped model, float64,
    # central finite differences on a sampled coordinate subset
    cfg = model_mod.EncoderConfig(lstm_layers=2, fc_layers=1, hidden=10, feature_dim=4, input_dim=12)
    params = model_mod.init_params(cfg, seed=11)
    rng = named_stream(11, "selfcheck/grad")
    m, q, t = 2, 3, 4
    inputs = rng.standard_normal((m, q, t, cfg.input_dim))
    targets = 0.3 * rng.standard_normal((m, t, cfg.input_dim))
    prior = losses_mod.laplace_prior_sample(m * t, cfg.feature_dim, rng)

    f = flat_composite_loss(cfg, inputs, targets, prior, LossWeights())
    flat0 = flatten_params(params)
    err = ad.directional_grad_check(f, flat0, h=1e-5, n_dirs=16, rng=named_stream(11, "selfcheck/grad/dirs"))
    ok = err <= 1e-5
    yield _check("composite gradient vs finite differences", ok, f"max relative error {err:.3e}, budget 1e-5")


def run_selfcheck() -> list:
    """Run every oracle; returns CheckResult entries in a fixed order."""
    results = []
    for gen in (
        _mmd_oracles(),
        _laplace_moments(),
        _snr_mixer(),
        _checkpoint_roundtrip(),
        _gradient_check(),
    ):
        results.extend(gen)
    return results
