"""The three training loss terms and their weighted combination.

    total = equivalence + lambda_mmd * mmd_sq + lambda_d * decoder_loss

Equivalence sums squared feature distances between clone 1 and every other
clone. The distribution term is the squared maximum mean discrepancy between
pooled clone-1 features and draws from a unit-variance, independent-component
Laplacian, under the inverse multiquadratic kernel k(a,b) = C / (C + |a-b|^2)
with C = 2 * dim * scale^2. The estimator mixes an off-diagonal average for
the within-sample sums with a full-pair average for the cross term, so small
negative values are possible. The decoder term sums squared reconstruction
errors of every clone against the shared clean target frame.

Each term has a plain numpy function (the public, checkable surface) and a
tape graph builder used for training. The MMD builder is the fused
`autodiff.imq_mmd` op, which uses the expanded form of the squared distance
in the tape dtype; its numpy twin `mmd_sq` uses the direct form in float64,
so the two are independent routes. Tests pin the routes against each other
and against hand-computed values. Both routes return the sums; the training
objective (`training.step_objective`) divides the equivalence and decoder
sums by their element counts before weighting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimMismatch, InvalidRange, QTooSmall, ShapeMismatch, TooFewSamples


@dataclass(frozen=True)
class LossWeights:
    lambda_mmd: float = 1.0
    lambda_d: float = 18.0
    kernel_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.lambda_mmd < np.inf and 0.0 <= self.lambda_d < np.inf and 0.0 < self.kernel_scale < np.inf):
            raise InvalidRange(f"loss weights must be finite and >= 0, kernel_scale > 0, got {self}")


@dataclass(frozen=True)
class LossBreakdown:
    d_e: float
    d_mmd: float
    d_d: float
    d_global: float


def global_loss(d_e: float, d_mmd: float, d_d: float, weights: LossWeights = LossWeights()) -> LossBreakdown:
    """Combine the three terms; d_global is computed exactly as
    d_e + lambda_mmd * d_mmd + lambda_d * d_d in float64."""
    return LossBreakdown(
        d_e=float(d_e),
        d_mmd=float(d_mmd),
        d_d=float(d_d),
        d_global=float(d_e) + weights.lambda_mmd * float(d_mmd) + weights.lambda_d * float(d_d),
    )


# ---------------------------------------------------------------------------
# numpy reference implementations (public surface)
# ---------------------------------------------------------------------------

def equivalence_loss(features: np.ndarray) -> float:
    """Sum over items, frames and clones q >= 2 of |z^(1) - z^(q)|^2.

    features: (m, Q, T, L) with clone 1 at index 0.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 4:
        raise ShapeMismatch(f"expected (m, Q, T, L), got {f.shape}")
    if f.shape[1] < 2:
        raise QTooSmall(f"need at least 2 clones, got {f.shape[1]}")
    diff = f[:, 1:] - f[:, :1]
    return float(np.sum(diff * diff))


def decoder_loss(decoded: np.ndarray, targets: np.ndarray) -> float:
    """Sum over items, frames and all clones of |decoded - target|^2.

    decoded: (m, Q, T, N); targets: (m, T, N), shared across clones.
    """
    d = np.asarray(decoded, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if d.ndim != 4 or t.ndim != 3 or d.shape[0] != t.shape[0] or d.shape[2:] != t.shape[1:]:
        raise ShapeMismatch(f"decoded {d.shape} incompatible with targets {t.shape}")
    res = d - t[:, None]
    return float(np.sum(res * res))


def imq_constant(dim: int, scale: float) -> float:
    return 2.0 * dim * scale * scale


def imq_kernel(a, b, scale: float = 1.0, dim: int = None) -> float:
    """Inverse multiquadratic kernel C / (C + |a-b|^2), C = 2*dim*scale^2."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if dim is None:
        dim = a.shape[-1]
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] != dim:
        raise DimMismatch(f"kernel inputs must both be ({dim},), got {a.shape} and {b.shape}")
    if not scale > 0:
        raise InvalidRange(f"kernel scale must be positive, got {scale}")
    c = imq_constant(dim, scale)
    d2 = float(np.sum((a - b) ** 2))
    return c / (c + d2)


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # direct form: no cancellation, exact zeros on identical rows
    diff = a[:, None, :] - b[None, :, :]
    return np.sum(diff * diff, axis=-1)


def mmd_sq(z: np.ndarray, y: np.ndarray, weights: LossWeights = LossWeights()) -> float:
    """Squared-MMD estimate between samples z and the prior draws y:

        1/(m(m-1)) * sum_{i != j} [k(z_i,z_j) + k(y_i,y_j)]
        - 2/m^2    * sum_{i,j}    k(z_i,y_j)

    The cross sum runs over all pairs including i = j, so the result can dip
    slightly below zero for same-distribution samples.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if z.ndim != 2 or y.ndim != 2 or z.shape[1] != y.shape[1]:
        raise DimMismatch(f"sample dims differ: {z.shape} vs {y.shape}")
    if z.shape[0] != y.shape[0] or z.shape[0] < 2:
        raise TooFewSamples(f"need equal sample counts >= 2, got {z.shape[0]} and {y.shape[0]}")
    n = z.shape[0]
    c = imq_constant(z.shape[1], weights.kernel_scale)
    kzz = c / (c + _pairwise_sq_dists(z, z))
    kyy = c / (c + _pairwise_sq_dists(y, y))
    kzy = c / (c + _pairwise_sq_dists(z, y))
    off = ~np.eye(n, dtype=bool)
    within = (np.sum(kzz[off]) + np.sum(kyy[off])) / (n * (n - 1))
    cross = 2.0 * np.sum(kzy) / (n * n)
    return float(within - cross)


def laplace_prior_sample(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """count x dim draws from the unit-variance independent Laplacian.

    Inverse CDF with scale b = 1/sqrt(2) (variance 2*b^2 = 1):
    x = -b * sign(u) * ln(1 - 2|u|), u uniform on (-1/2, 1/2).
    """
    u = rng.random((count, dim))
    u = np.where(u == 0.0, 0.5, u) - 0.5  # keep u strictly inside (-1/2, 1/2)
    b = 1.0 / np.sqrt(2.0)
    return -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))


# ---------------------------------------------------------------------------
# tape graph builders (training path)
# ---------------------------------------------------------------------------

def equivalence_loss_graph(z: Tensor, items: int) -> Tensor:
    """z: time-major features (T, Q*m, L) in clone-major row order (clone q
    occupies rows [q*m, (q+1)*m)), with m = items; clone 1 is the reference
    every other clone is compared against."""
    if z.shape[1] < 2 * items:
        raise QTooSmall(f"need at least 2 clones of {items} items, got {z.shape[1]} rows")
    ref = ad.slice_(z, 1, 0, items)
    return ad.sub(ad.slice_(z, 1, items, z.shape[1]), ref).sqnorm()


def decoder_loss_graph(dec: Tensor, targets: np.ndarray) -> Tensor:
    """dec: time-major reconstructions (T, Q*m, N), clone-major; targets: the
    clean frames (T, m, N), shared by every clone, a constant array off the tape."""
    return ad.sub(dec, targets).sqnorm()


def mmd_sq_graph(z: Tensor, y: np.ndarray, weights: LossWeights) -> Tensor:
    """Differentiable twin of mmd_sq in z, an (n, dim) tensor, as one fused
    tape op; the prior draws y (n, dim) carry no gradient, so they stay off
    the tape as a numpy array."""
    dim = z.shape[-1] if z.shape else 0  # a 0-d z is rejected by the op
    return ad.imq_mmd(z, y, imq_constant(dim, weights.kernel_scale))
