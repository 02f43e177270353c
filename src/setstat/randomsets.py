"""Random translated sets and their limit-law diagnostics.

A random set here is a fixed compact convex body translated by a random
noise vector with bounded support.  For that model the selection expectation
is the body translated by the noise mean, the Minkowski sample mean obeys a
strong law, and the scaled Minkowski-difference residual obeys a central
limit theorem; the routines in this module simulate those statements and
check the selection-expectation algebra and Jensen/delta-method bounds.

Samples are drawn as one geometry.TranslatedFamily (the body plus the
(n, d) array of noise draws), a sequence that materializes translates on
access.  Sample means are read from the arrays, so the limit-law replicates
build no per-draw set objects; for Box and Ball bodies the means are
byte-identical to averaging the materialized translates.  The expectation-law
checks average one family too, since translates close under the law's
operation: (K + s_i) + (L + t_i) = (K + L) + (s_i + t_i), psi_i (K + s_i) =
|psi_i| (sigma K + sigma s_i) for the common sign sigma of psi, and
(K + s_i) - (L + t_i) = (K - L) + (s_i - t_i) for erosions.  So do the
Jensen gaps of maps that commute with translation: A (K + s_i) + K0 =
(A K + K0) + A s_i.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import (
    Box,
    ConvexSet,
    TranslatedFamily,
    bounds_of,
    direction_grid,
    hausdorff,
    minkowski_diff,
    minkowski_sum,
    scale,
    translated_family,
    weighted_minkowski_average,
)

__all__ = [
    "RngSeed",
    "NoiseDistribution",
    "UniformBoxNoise",
    "UniformBallNoise",
    "TriangularNoise",
    "TruncatedGaussianNoise",
    "noise_to_dict",
    "noise_from_dict",
    "RandomlyTranslatedSet",
    "InternalConsistencyError",
    "sample_translated_sets",
    "selection_expectation",
    "minkowski_sample_mean",
    "slln_curve",
    "SllnPoint",
    "clt_replicates",
    "EXPECTATION_LAWS",
    "LawReport",
    "check_expectation_law",
    "AffineSetMap",
    "SymmetricConcaveIntervalMap",
    "jensen_inclusion_gap",
    "DeltaTailReport",
    "delta_method_statistics",
    "delta_method_tails",
]


class InternalConsistencyError(RuntimeError):
    """A structural identity that must hold by construction failed."""


@dataclass(frozen=True)
class RngSeed:
    """Deterministic generator label: a 64-bit seed plus a stream index.

    Identical (seed, stream) pairs always produce identical draws; replicate
    r of an experiment uses the derived stream ``base.derive(r)``.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)

    def derive(self, offset: int) -> "RngSeed":
        return RngSeed(self.seed, self.stream + offset)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "stream": self.stream}


# numpy's SeedSequence pool hash (pool size 4, 32-bit words) and PCG64
# seeding, fixed by numpy's stream-stability policy (NEP 19).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a nonnegative int."""
    if value < 0:
        raise ValueError(f"expected a nonnegative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _pool_state_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(...).generate_state(8) of each row of a (k, m) uint32
    entropy array, m >= 4 (run entropy padded to the pool size, then the
    spawn key), computed for all rows at once with 32-bit wraparound."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    out, hash_const = [], _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out.append(value ^ (value >> 16))
    return np.stack(out, axis=1)


# Streams hashed at once by _derived_generators, which bounds its memory.
_SEED_CHUNK = 1 << 10


def _derived_generators(seed: RngSeed, offsets: range) -> Iterator[np.random.Generator]:
    """For each j in offsets, a Generator in the state of
    seed.derive(j).generator(): one Generator, reseeded before each yield,
    so a replicate must finish its draws before it asks for the next.

    Per _SEED_CHUNK offsets the SeedSequence hash runs once over arrays,
    one pass per spawn-key word count (keys of 2**32 or more take two
    words), and each stream's PCG64 (state, inc) pair is set in Python ints
    as PCG64.__init__ sets it from the four 64-bit words (s, s', q, q') of
    generate_state: inc = (q << 1) | 1, state = ((inc + s) MULT + inc)
    mod 2**128 with q = q:q' and s = s:s'.  No SeedSequence, PCG64 or
    Generator is built per stream.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    run = _uint32_words(seed.seed)
    run += [0] * (4 - len(run))  # as SeedSequence pads run entropy before a spawn key
    for start in range(0, len(offsets), _SEED_CHUNK):
        keys = [_uint32_words(seed.stream + j) for j in offsets[start : start + _SEED_CHUNK]]
        words = np.empty((len(keys), 8), dtype=np.uint32)
        for size in {len(key) for key in keys}:
            rows = [r for r, key in enumerate(keys) if len(key) == size]
            words[rows] = _pool_state_words(np.array([run + keys[r] for r in rows], np.uint32))
        for s_hi, s_lo, q_hi, q_lo in words.astype("<u4").view("<u8").tolist():
            inc = ((q_hi << 65) | (q_lo << 1) | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


class NoiseDistribution(geometry._Record):
    """Bounded-support noise with closed-form mean and covariance."""

    dim: int

    @property
    def mean(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def covariance(self) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def sample_block(self, rngs: Iterable[np.random.Generator], block: np.ndarray) -> np.ndarray:
        """Fill the rows of a C-contiguous (k, n, d) block from the next k rngs; return it."""
        for row, rng in zip(block, rngs):  # block first: zip then takes no extra generator
            row[...] = self.sample(rng, block.shape[1])
        return block

    def integrate_shifted(self, y, lo, hi):
        """The probability of [y - hi, y - lo], the integral over x in [lo, hi]
        of the density at y - x, for a 1-D law (vectorized)."""
        name = type(self).__name__
        raise ValueError(f"the likelihood takes a UniformBoxNoise or TruncatedGaussianNoise, not {name}")


class UniformBoxNoise(NoiseDistribution, tag="uniform-box", fields=("lower", "upper")):
    """Uniform on an axis-aligned box (degenerate widths give point mass).

    A draw is lower + (upper - lower) * u for u from rng.random, the same
    per-element operations, in the same order, as rng.uniform(lower, upper),
    so the two agree bit for bit.  Its mean and covariance must be finite.
    A block maps its raw u in place per coordinate column; sample is one row.
    """

    def __init__(self, lower, upper):
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        self.lower, self.upper = lo, hi
        self.dim = lo.shape[0]
        shaped = lo.shape == hi.shape and lo.ndim == 1
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN moments are refused
            finite = shaped and np.isfinite(self.mean).all() and np.isfinite(self.covariance).all()
        if not finite or np.any(lo > hi):
            raise ValueError("need lower <= upper of equal length with finite widths, mean and covariance")

    @property
    def mean(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def covariance(self) -> np.ndarray:
        return np.diag((self.upper - self.lower) ** 2 / 12.0)

    def sample(self, rng, n):
        return self.sample_block([rng], np.empty((1, n, self.dim)))[0]

    def sample_block(self, rngs, block):
        for row, rng in zip(block, rngs):
            rng.random(out=row)
        for col, lo, width in zip(np.moveaxis(block, -1, 0), self.lower, self.upper - self.lower):
            np.add(np.multiply(col, width, out=col), lo, out=col)  # lower + width * u
        return block

    def _bounds_1d(self) -> tuple[float, float]:
        """(lower, upper) of a 1-D law of positive width, as Python floats."""
        if self.dim != 1 or not self.lower[0] < self.upper[0]:
            raise ValueError("the likelihood needs a 1-D uniform law of positive width")
        return float(self.lower[0]), float(self.upper[0])

    def integrate_shifted(self, y, lo, hi):
        lower, upper = self._bounds_1d()
        a = np.maximum(lo, y - upper)
        b = np.minimum(hi, y - lower)
        return np.maximum(b - a, 0.0) / (upper - lower)


def _integral(value, what: str = "value") -> int:
    """int(value) for an integral number or digit string: 3, 3.0 and "3"
    give 3; a bool, a fraction, an infinity or a NaN raises ValueError."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


class UniformBallNoise(NoiseDistribution, tag="uniform-ball", fields=("radius", "dim")):
    """Uniform on a centered Euclidean ball."""

    def __init__(self, radius: float, dim: int):
        if not 0 <= radius < math.inf:
            raise ValueError("radius must be finite and nonnegative")
        self.radius = float(radius)
        self.dim = _integral(dim, "dim")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")

    @property
    def mean(self) -> np.ndarray:
        return np.zeros(self.dim)

    @property
    def covariance(self) -> np.ndarray:
        # E|x|^2 = d r^2 / (d + 2) split evenly across coordinates
        return (self.radius**2 / (self.dim + 2)) * np.eye(self.dim)

    def sample(self, rng, n):
        z = rng.standard_normal((n, self.dim))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        r = self.radius * rng.uniform(size=(n, 1)) ** (1.0 / self.dim)
        return r * z / norms


class TriangularNoise(NoiseDistribution, tag="triangular", fields=("halfwidth",)):
    """Symmetric triangular on [-halfwidth, halfwidth], one-dimensional."""

    def __init__(self, halfwidth: float):
        if not 0 <= halfwidth < math.inf:
            raise ValueError("halfwidth must be finite and nonnegative")
        self.halfwidth = float(halfwidth)
        self.dim = 1

    @property
    def mean(self) -> np.ndarray:
        return np.zeros(1)

    @property
    def covariance(self) -> np.ndarray:
        return np.array([[self.halfwidth**2 / 6.0]])

    def sample(self, rng, n):
        if self.halfwidth == 0:
            return np.zeros((n, 1))
        return rng.triangular(-self.halfwidth, 0.0, self.halfwidth, size=(n, 1))


class TruncatedGaussianNoise(NoiseDistribution, tag="truncated-gaussian", fields=("sigma", "radius")):
    """Centered Gaussian conditioned on the Mahalanobis ball of a given radius.

    Truncation is elliptical (x' Sigma^-1 x <= radius^2), which keeps the
    support bounded and the covariance in closed form: a chi-square ratio
    times the shape matrix.
    """

    def __init__(self, sigma, radius: float):
        s = np.atleast_2d(np.asarray(sigma, dtype=float))
        finite = np.isfinite(s).all()
        if s.shape[0] != s.shape[1] or not finite or not np.allclose(s, s.T, atol=1e-12):
            raise ValueError("sigma must be a finite symmetric matrix")
        eigvals = np.linalg.eigvalsh(s)  # ascending; a null one's rounding scales with the largest
        if eigvals[0] < -1e-12 * eigvals[-1]:
            raise ValueError("sigma must be positive semidefinite")
        if not 0 < radius < math.inf:
            raise ValueError("truncation radius must be positive and finite")
        from scipy.special import chdtr  # chi-square cdf; scipy.stats is slow to import

        self.sigma = s
        self.radius = float(radius)
        self.dim = s.shape[0]
        null = 1e-12 * eigvals[-1]  # an eigenvalue at or below it counts as 0
        if eigvals[0] > null:
            self._factor = np.linalg.cholesky(s + 1e-15 * np.eye(self.dim))
        else:  # singular: V sqrt(L) with the null eigenvalues cut keeps draws on the support
            lam, v = np.linalg.eigh(s)
            self._factor = v * np.sqrt(np.where(lam > null, lam, 0.0))
        with np.errstate(all="ignore"):  # 0/0 or an underflow to 0 at tiny radii
            self._shrink = chdtr(self.dim + 2, self.radius**2) / chdtr(self.dim, self.radius**2)
            if not 0 < self._shrink < math.inf:
                raise ValueError(f"truncation radius {radius!r} is too small for a covariance")

    @property
    def mean(self) -> np.ndarray:
        return np.zeros(self.dim)

    @property
    def covariance(self) -> np.ndarray:
        return self._shrink * self.sigma

    def sample(self, rng, n):
        # exact, no rejection: direction z / |z|, rho^2 = 2 P^-1(d/2, u P(d/2, radius^2 / 2))
        # for P the regularized lower gamma, the chi-square law cut at radius^2
        from scipy.special import gammainc, gammaincinv

        z = rng.standard_normal((n, self.dim))
        half = 0.5 * self.dim
        rho = np.sqrt(2.0 * gammaincinv(half, rng.random(n) * gammainc(half, 0.5 * self.radius**2)))
        rho = np.minimum(rho, self.radius)  # a rounding error must not leave the support
        return ((rho / np.linalg.norm(z, axis=1))[:, None] * z) @ self._factor.T

    def integrate_shifted(self, y, lo, hi):
        """With s = sqrt(Sigma[0, 0]) and [a, b] = [y - hi, y - lo] / s cut to
        [-radius, radius], (Phi(b) - Phi(a)) / mass for the mass Phi(radius) -
        Phi(-radius), taken as Phi(-a) - Phi(-b) where a > 0 so that the upper
        tail does not cancel; exactly 0 for an empty overlap."""
        if self.dim != 1 or not self.sigma[0, 0] > 0:
            raise ValueError("the likelihood needs a 1-D truncated Gaussian law of positive variance")
        from scipy.special import ndtr  # standard normal cdf

        s, r = math.sqrt(self.sigma[0, 0]), self.radius
        a = np.maximum((y - hi) / s, -r)
        b = np.minimum((y - lo) / s, r)
        mass = np.where(a > 0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))
        return np.maximum(mass, 0.0) / (ndtr(r) - ndtr(-r))


def noise_to_dict(noise: NoiseDistribution) -> dict:
    """JSON-ready description of a noise law; inverse of noise_from_dict."""
    return noise.to_dict()


def noise_from_dict(data: dict) -> NoiseDistribution:
    cls, fields = geometry._record_fields(
        data, (UniformBoxNoise, UniformBallNoise, TriangularNoise, TruncatedGaussianNoise), "noise"
    )
    return cls(**fields)


@dataclass(frozen=True)
class RandomlyTranslatedSet:
    """Random set X = body + {xi} with xi drawn from a bounded noise law."""

    body: ConvexSet
    noise: NoiseDistribution

    def __post_init__(self):
        if self.body.dim != self.noise.dim:
            raise ValueError(
                f"body dimension {self.body.dim} != noise dimension {self.noise.dim}"
            )


def sample_translated_sets(
    model: RandomlyTranslatedSet, n: int, seed: RngSeed
) -> TranslatedFamily:
    """n independent realizations of the translated-set model, as one family
    (indexing or iterating it yields body.translate(xi_i))."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    xi = model.noise.sample(seed.generator(), n)
    return translated_family(model.body, xi)


def selection_expectation(model: RandomlyTranslatedSet) -> ConvexSet:
    """Selection expectation of a translated set: body + {E xi}."""
    return model.body.translate(model.noise.mean)


def minkowski_sample_mean(samples: Sequence[ConvexSet]) -> ConvexSet:
    """Equal-weight Minkowski average (1/n) (S_1 + ... + S_n) of a list of
    sets or a TranslatedFamily."""
    n = len(samples)
    if n == 0:
        raise ValueError("need at least one set")
    return weighted_minkowski_average(np.full(n, 1.0 / n), samples)


@dataclass(frozen=True)
class SllnPoint:
    n: int
    mean_error: float


def slln_curve(
    model: RandomlyTranslatedSet,
    n_values: list[int],
    replicates: int,
    seed: RngSeed,
) -> tuple[list[SllnPoint], list[tuple[int, int, float]]]:
    """Hausdorff error of the Minkowski sample mean versus sample size.

    Returns summary points (n, mean error over replicates) plus the flat
    (n, replicate, error) records, replicate-major.  Replicate r at size
    index i draws from the derived stream seed.derive(1_000_000 * i + r).
    The errors are the distances of _mean_residuals, one call per n (a
    draw block for Box bodies, the one-set chain for others), so every
    replicate also checks that its residual erosion is a singleton.
    """
    errors = np.array([
        _mean_residuals(model, n, seed, range(1_000_000 * i, 1_000_000 * i + replicates))[1]
        for i, n in enumerate(n_values)
    ])
    records = [
        (n, r, err) for r, row in enumerate(errors.T.tolist()) for n, err in zip(n_values, row)
    ]
    points = [SllnPoint(n=n, mean_error=float(errors[i].mean())) for i, n in enumerate(n_values)]
    return points, records


def _residual_vector(bounds: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """v from the bounds of {v} = M - E(X) (None: an empty erosion), which
    must be a singleton; bounds may carry a leading replicate axis."""
    if bounds is None:
        raise InternalConsistencyError("translated-set residual erosion came back empty")
    lo, hi = bounds
    if np.any(hi - lo > 1e-8):
        raise InternalConsistencyError(
            f"translated-set residual is not a singleton (extent {hi - lo})"
        )
    return 0.5 * (lo + hi)


# Noise draws held at once by _mean_residuals: k replicates of n draws in d
# dimensions, with k * n * d at most this (and k at least 1).
_BLOCK_ELEMENTS = 1 << 16


def _mean_residuals(
    model: RandomlyTranslatedSet, n: int, seed: RngSeed, offsets: range
) -> tuple[np.ndarray, np.ndarray]:
    """Residual vectors v_r, {v_r} = M_r - E(X), and distances
    Hausdorff(M_r, E(X)) of the Minkowski means M_r of n draws from
    seed.derive(offsets[r]); an erosion that is not a singleton raises
    InternalConsistencyError.

    Bodies other than boxes run the one-set chain per replicate.  Box bodies
    build no set objects and no per-replicate generator: noise.sample_block
    draws k replicates, each from the stream of seed.derive(offsets[r]) as
    _derived_generators seeds it, into one (k, n, d) block, and each step
    runs over its leading replicate axis with the chain's bits: the means
    are one dgemv per replicate, np.matmul of w against body + draws (added
    a coordinate column at a time into one buffer) as in
    weighted_minkowski_average; the erosion, its bounds and the distance
    are geometry's box closed forms.  In 1-D the box distance
    sqrt(max gap**2) is hausdorff's interval form max |gap|: sqrt(fl(x * x))
    = |x| for the endpoint gaps, and rounding is monotone.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    body, d = model.body, model.body.dim
    e = selection_expectation(model)
    vectors, dists = np.empty((len(offsets), d)), np.empty(len(offsets))
    if not isinstance(body, Box):
        for r, j in enumerate(offsets):
            mean_set = minkowski_sample_mean(sample_translated_sets(model, n, seed.derive(j)))
            diff = minkowski_diff(mean_set, e)
            vectors[r] = _residual_vector(None if diff is None else bounds_of(diff))
            dists[r] = hausdorff(mean_set, e)
        return vectors, dists
    axes = geometry._signed_axes(d)
    e_bound = geometry._max_abs_bound(e)
    w = np.full(n, 1.0 / n)
    k = max(1, _BLOCK_ELEMENTS // (n * d))
    xi = np.empty((min(k, len(offsets)), n, d))
    shifted = np.empty_like(xi)
    rngs = _derived_generators(seed, offsets)
    for start in range(0, len(offsets), k):
        chunk = offsets[start : start + k]
        block, out = model.noise.sample_block(rngs, xi[: len(chunk)]), shifted[: len(chunk)]
        wk, means = np.broadcast_to(w, (len(chunk), 1, n)), []
        for corner in (body.lower, body.upper):  # corner + draws, a coordinate column at a time
            for c in range(d):
                np.add(block[..., c], corner[c], out=out[..., c])
            means.append(np.matmul(wk, out)[:, 0])
        lo, hi = means
        hm = geometry._box_support(lo, hi, axes)  # the means' bounds, as bounds_of reads them
        if not np.isfinite(hm).all():
            raise ValueError("vector entries must be finite")
        tol = geometry._erosion_slack(np.abs(hm).max(axis=-1), e_bound)
        diff = geometry._box_erosion(lo, hi, e.lower, e.upper, tol[:, None])
        h = None if diff is None else geometry._box_support(*diff, axes)
        rows = slice(start, start + len(chunk))
        vectors[rows] = _residual_vector(None if h is None else geometry._axis_bounds(h))
        fwd = geometry._box_directed_hausdorff(lo, hi, e.lower, e.upper)
        dists[rows] = np.maximum(fwd, geometry._box_directed_hausdorff(e.lower, e.upper, lo, hi))
    return vectors, dists


def clt_replicates(
    model: RandomlyTranslatedSet, n: int, replicates: int, seed: RngSeed
) -> tuple[np.ndarray, np.ndarray]:
    """Replicated CLT residuals of the Minkowski mean of n draws.

    Replicate r draws one family from seed.derive(r) and takes its
    Minkowski mean M once; _mean_residuals gives v, {v} = M - E(X), and
    Hausdorff(M, E(X)), which for translated sets is the norm of v.  Returns
    the (replicates, d) vectors sqrt(n) v and the (replicates,) statistics
    sqrt(n) Hausdorff(M, E(X)).  Box bodies hold at most _BLOCK_ELEMENTS
    (2**16) draws and hash at most _SEED_CHUNK (2**10) seeds at once, so
    memory does not grow with replicates.
    """
    root_n = math.sqrt(n)
    vectors, dists = _mean_residuals(model, n, seed, range(replicates))
    return root_n * vectors, root_n * dists


# --- selection-expectation algebra ---------------------------------------

EXPECTATION_LAWS = (
    "deterministic",
    "sum",
    "scale",
    "subset",
    "union",
    "intersection",
    "erosion",
)

_EQUALITY_LAWS = {"deterministic", "sum", "scale"}


@dataclass(frozen=True)
class LawReport:
    law: str
    kind: str  # "equality" or "inclusion"
    lhs: ConvexSet
    rhs: ConvexSet
    metric: float  # Hausdorff gap (equality) or max support slack (inclusion)
    tolerance: float
    passed: bool
    n_samples: int


def _box_intersection(a: Box, b: Box) -> Box | None:
    lo = np.maximum(a.lower, b.lower)
    hi = np.minimum(a.upper, b.upper)
    if np.any(lo > hi):
        return None
    return Box(lo, hi)


def _outer_polytope(dirs: np.ndarray, values: np.ndarray) -> ConvexSet:
    """Convex body reconstructed from support values on a direction grid.

    1-D: the interval [-h(-1), h(+1)].  2-D: the polygon {x : dirs x <= values}
    for an angle-ordered ring of dirs, which reproduces polytopes exactly when
    the grid is fine enough.
    """
    d = dirs.shape[1]
    if d == 1:
        pos = float(values[np.argmax(dirs[:, 0])])
        neg = float(values[np.argmin(dirs[:, 0])])
        return geometry.interval(-neg, pos)
    if d != 2:
        raise ValueError("support reconstruction implemented for 1-D and 2-D only")
    tol = 1e-9 * (1.0 + np.max(np.abs(values)))
    # a line through the crossing of its two neighbours adds no facet: drop the
    # concurrent lines at a box profile's corners before they are crossed pairwise
    lines = np.column_stack([dirs, -values])
    meet = np.cross(np.roll(lines, 1, axis=0), np.roll(lines, -1, axis=0))  # (x w, y w, w)
    keep = np.abs(np.sum(lines * meet, axis=1)) > tol * np.abs(meet[:, 2])
    keep |= keep.sum() < 3  # a point keeps its lines
    return geometry.VertexPolytope(geometry._halfplane_vertices(dirs[keep], values[keep], tol))


_EQUALITY_TOL = 0.05


def check_expectation_law(
    law: str,
    models: dict,
    n_samples: int = 10_000,
    seed: RngSeed = RngSeed(0),
) -> LawReport:
    """Monte-Carlo check of one selection-expectation identity or inclusion.

    The ``models`` mapping supplies the ingredients per law: "c" always, "d"
    for the two-set laws, and "psi_values"/"psi_probs" for the scaling law
    (sign-definite values unless degenerate, since sign-mixing random scale
    factors void the identity).  Equality laws compare a Monte-Carlo
    Minkowski average against the closed-form side in Hausdorff distance,
    within _EQUALITY_TOL; inclusion laws measure the maximum support slack
    of the nominally smaller side over geometry's direction grid and allow
    two Monte-Carlo standard errors where a sampled side is involved.
    """
    if law not in EXPECTATION_LAWS:
        raise ValueError(f"unknown expectation law {law!r}; choose from {EXPECTATION_LAWS}")
    c: RandomlyTranslatedSet = models["c"]
    dirs = direction_grid(c.body.dim, geometry._N_DIRECTIONS)
    eq_w = np.full(n_samples, 1.0 / n_samples)

    if law == "deterministic":
        # E(K) = K for a deterministic convex body: the MC side averages n
        # untranslated copies.
        zeros = np.zeros((n_samples, c.body.dim))
        lhs = weighted_minkowski_average(eq_w, translated_family(c.body, zeros))
        rhs = c.body
    elif law == "sum":
        # (K + s_i) + (L + t_i) = (K + L) + (s_i + t_i)
        d: RandomlyTranslatedSet = models["d"]
        xc = c.noise.sample(seed.derive(1).generator(), n_samples)
        xd = d.noise.sample(seed.derive(2).generator(), n_samples)
        sums = translated_family(minkowski_sum(c.body, d.body), xc + xd)
        lhs = weighted_minkowski_average(eq_w, sums)
        rhs = minkowski_sum(selection_expectation(c), selection_expectation(d))
    elif law == "scale":
        psi_values = np.asarray(models["psi_values"], dtype=float)
        psi_probs = np.asarray(models["psi_probs"], dtype=float)
        if psi_values.ndim != 1 or psi_values.shape != psi_probs.shape:
            raise ValueError("psi_values and psi_probs must be matching vectors")
        if abs(psi_probs.sum() - 1.0) > 1e-12 or np.any(psi_probs < 0):
            raise ValueError("psi_probs must be a probability vector")
        if psi_values.size > 1 and psi_values.min() < 0 < psi_values.max():
            raise ValueError("random scale factors must be sign-definite for this law")
        xc = c.noise.sample(seed.derive(2).generator(), n_samples)
        psis = seed.derive(1).generator().choice(psi_values, size=n_samples, p=psi_probs)
        # psi_i (K + s_i) = |psi_i| (sigma K + sigma s_i) for the common sign
        # sigma; psi = 0 throughout averages to {0}
        sigma = -1.0 if psi_values.min() < 0 else 1.0
        scaled = translated_family(scale(sigma, c.body), sigma * xc)
        lhs = weighted_minkowski_average(eq_w * np.abs(psis), scaled, allow_zero_total=True)
        epsi = float(psi_values @ psi_probs)
        rhs = scale(epsi, selection_expectation(c))
    elif law == "subset":
        d = models["d"]
        # coupled translation: C = body_c + xi and D = body_d + xi with
        # body_c inside body_d, so C is a.s. contained in D
        slack_bodies = c.body.support_many(dirs) - d.body.support_many(dirs)
        if np.max(slack_bodies) > 1e-9:
            raise ValueError("subset law needs models['c'].body inside models['d'].body")
        if c.noise is not d.noise:
            raise ValueError("subset law couples the noise; share one noise object")
        lhs = selection_expectation(c)
        rhs = selection_expectation(d)
        metric = float(np.max(lhs.support_many(dirs) - rhs.support_many(dirs)))
    elif law == "union":
        # co(E(C) u E(D)) inside E(co(C u D)); the right side is sampled, so
        # the inclusion is checked per direction on support values with a
        # two-standard-error allowance.  The per-sample hull support is the
        # max of the two translated supports, h(K, u) + s_i.u.
        d = models["d"]
        _require_box_bodies(law, c, d)
        xc = c.noise.sample(seed.derive(1).generator(), n_samples)
        xd = d.noise.sample(seed.derive(2).generator(), n_samples)
        sample_profiles = np.maximum(
            c.body.support_many(dirs) + xc @ dirs.T,
            d.body.support_many(dirs) + xd @ dirs.T,
        )
        rhs_profile = sample_profiles.mean(axis=0)
        ec, ed = selection_expectation(c), selection_expectation(d)
        lhs_profile = np.maximum(ec.support_many(dirs), ed.support_many(dirs))
        se = sample_profiles.std(axis=0, ddof=1) / math.sqrt(n_samples)
        metric = float(np.max(lhs_profile - rhs_profile - 2.0 * se))
        lhs = geometry.VertexPolytope(
            np.vstack([geometry.vertices_of(ec), geometry.vertices_of(ed)])
        )
        rhs = _outer_polytope(dirs, rhs_profile)
    elif law == "intersection":
        # E(C n D) inside E(C) n E(D) under coupled translation, which keeps
        # every realization C n D = (body_c n body_d) + xi nonempty.
        d = models["d"]
        _require_box_bodies(law, c, d)
        inter_body = _box_intersection(c.body, d.body)
        if inter_body is None:
            raise ValueError("intersection law needs overlapping bodies")
        if c.noise is not d.noise:
            raise ValueError("intersection law couples the noise; share one noise object")
        shifts = c.noise.sample(seed.derive(1).generator(), n_samples)
        lhs = inter_body.translate(shifts.mean(axis=0))
        rhs = _box_intersection(_expect_box(c), _expect_box(d))
        if rhs is None:
            raise ValueError("expectations do not intersect; law not informative")
    else:
        # erosion: E(C - D) inside E(C) - E(D), where for boxes
        # (K + s_i) - (L + t_i) = (K - L) + (s_i - t_i)
        d = models["d"]
        _require_box_bodies(law, c, d)
        eroded = minkowski_diff(c.body, d.body)
        if eroded is None:
            raise ValueError("erosion law needs an a.s. nonempty difference C - D")
        xc = c.noise.sample(seed.derive(1).generator(), n_samples)
        shifts = xc - d.noise.sample(seed.derive(2).generator(), n_samples)
        lhs = weighted_minkowski_average(eq_w, translated_family(eroded, shifts))
        rhs = minkowski_diff(selection_expectation(c), selection_expectation(d))
        if rhs is None:
            raise ValueError("erosion of the expectations is empty")

    if law in ("intersection", "erosion"):
        se = (shifts @ dirs.T).std(axis=0, ddof=1) / math.sqrt(n_samples)
        metric = float(np.max(lhs.support_many(dirs) - rhs.support_many(dirs) - 2.0 * se))
    if law in _EQUALITY_LAWS:
        metric = hausdorff(lhs, rhs)
        tol = 1e-9 if law == "deterministic" else _EQUALITY_TOL
        return LawReport(law, "equality", lhs, rhs, metric, tol, metric <= tol, n_samples)
    return LawReport(law, "inclusion", lhs, rhs, metric, 1e-9, metric <= 1e-9, n_samples)


def _require_box_bodies(law: str, *models: RandomlyTranslatedSet) -> None:
    for m in models:
        if not isinstance(m.body, Box):
            raise ValueError(f"{law} law is implemented for box bodies")


def _expect_box(model: RandomlyTranslatedSet) -> Box:
    e = selection_expectation(model)
    if not isinstance(e, Box):
        raise ValueError("expected a box-valued expectation")
    return e


# --- set-valued maps for Jensen and delta-method checks --------------------


class AffineSetMap:
    """G(C) = A C + K0 for a scalar or (m, d) matrix A and a set K0 (None adds none).

    Graph-convex, so Jensen is tight, and Lipschitz in Hausdorff distance with
    kappa = |A| or the spectral norm of A: adding K0 moves no distance.
    """

    def __init__(self, linear, offset_set: ConvexSet | None):
        a = np.asarray(linear, dtype=float)
        if a.ndim not in (0, 2):
            raise ValueError("linear part must be a scalar or an (m, d) matrix")
        self.linear = a
        self.offset_set = offset_set
        self.lipschitz = float(abs(a)) if a.ndim == 0 else float(np.linalg.norm(a, 2))

    def apply_to_set(self, c: ConvexSet) -> ConvexSet:
        image = scale(self.linear, c)
        return image if self.offset_set is None else minkowski_sum(image, self.offset_set)

    def apply_to_family(self, family: TranslatedFamily) -> TranslatedFamily:
        # A (K + s) + K0 = (A K + K0) + A s
        s, a = family.shifts, self.linear
        return translated_family(self.apply_to_set(family.body), s * a if a.ndim == 0 else s @ a.T)


class SymmetricConcaveIntervalMap:
    """S(x) = [-phi(x), phi(x)] for a concave positive phi on 1-D intervals.

    A peak search on [lo, hi] stopped at its iteration cap raises SolverLimitError.
    """

    def __init__(self, phi):
        self.phi = phi

    def apply_to_set(self, c: ConvexSet) -> ConvexSet:
        if c.dim != 1:
            raise ValueError("interval map needs 1-D input sets")
        lo, hi = bounds_of(c)
        from scipy.optimize import minimize_scalar

        if hi[0] - lo[0] < 1e-14:
            peak = float(self.phi(lo[0]))
        else:
            res = minimize_scalar(
                lambda t: -self.phi(t), bounds=(lo[0], hi[0]), method="bounded"
            )
            if not res.success:
                raise geometry.SolverLimitError(f"interval map peak search failed: {res.message}")
            peak = float(-res.fun)
            peak = max(peak, float(self.phi(lo[0])), float(self.phi(hi[0])))
        if peak < 0:
            raise ValueError("phi must be positive on the input interval")
        return geometry.interval(-peak, peak)


def jensen_inclusion_gap(
    set_map,
    model: RandomlyTranslatedSet,
    n_samples: int = 10_000,
    seed: RngSeed = RngSeed(0),
) -> float:
    """Maximum support slack of E(S(X)) relative to S(E(X)).

    Negative or near-zero values certify the Jensen inclusion
    E(S(X)) inside S(E(X)) for graph-convex set-valued maps; the expectation
    of the mapped set is estimated by a Minkowski sample mean.  AffineSetMap
    commutes with translation: apply_to_family maps the drawn family to one
    family, A (K + s_i) + K0 = (A K + K0) + A s_i, averaged from its arrays;
    maps without it (SymmetricConcaveIntervalMap) map each draw.
    """
    samples = sample_translated_sets(model, n_samples, seed)
    if hasattr(set_map, "apply_to_family"):
        mapped = set_map.apply_to_family(samples)
    else:
        mapped = [set_map.apply_to_set(s) for s in samples]
    mc_mean = minkowski_sample_mean(mapped)
    target = set_map.apply_to_set(selection_expectation(model))
    dirs = direction_grid(mc_mean.dim, geometry._N_DIRECTIONS)
    return float(np.max(mc_mean.support_many(dirs) - target.support_many(dirs)))


@dataclass(frozen=True)
class DeltaTailReport:
    threshold: float
    lhs_tail: float  # P(sqrt(n) D(G(mean), G(E)) >= u)
    rhs_tail: float  # P(kappa * base statistic >= u)
    lhs_se: float
    rhs_se: float
    replicates: int


def delta_method_statistics(
    set_map,
    model: RandomlyTranslatedSet,
    n: int,
    replicates: int,
    seed: RngSeed,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-replicate (mapped, base) scaled Hausdorff statistics.

    base[r] = sqrt(n) * Hausdorff(mean_r, E(X)) and mapped[r] applies the
    Lipschitz set map G to both arguments first; replicate r draws from
    seed.derive(r).
    """
    expectation = selection_expectation(model)
    mapped_expect = set_map.apply_to_set(expectation)
    mapped_vals = np.empty(replicates)
    base_vals = np.empty(replicates)
    for r in range(replicates):
        samples = sample_translated_sets(model, n, seed.derive(r))
        mean_set = minkowski_sample_mean(samples)
        base_vals[r] = math.sqrt(n) * hausdorff(mean_set, expectation)
        mapped_vals[r] = math.sqrt(n) * hausdorff(
            set_map.apply_to_set(mean_set), mapped_expect
        )
    return mapped_vals, base_vals


def delta_method_tails(
    set_map,
    model: RandomlyTranslatedSet,
    n: int,
    replicates: int,
    seed: RngSeed,
    threshold: float,
) -> DeltaTailReport:
    """Empirical tails for the approximate delta method.

    Per replicate the base statistic is w = sqrt(n) * Hausdorff(mean, E(X));
    the mapped statistic applies a Lipschitz map G to both sets first.  The
    delta-method bound predicts tail(mapped) <= tail(kappa * w) up to
    Monte-Carlo error.
    """
    kappa = float(set_map.lipschitz)
    lhs_vals, base_vals = delta_method_statistics(set_map, model, n, replicates, seed)
    lhs_tail = float(np.mean(lhs_vals >= threshold))
    rhs_tail = float(np.mean(kappa * base_vals >= threshold))
    lhs_se = math.sqrt(max(lhs_tail * (1 - lhs_tail), 1e-12) / replicates)
    rhs_se = math.sqrt(max(rhs_tail * (1 - rhs_tail), 1e-12) / replicates)
    return DeltaTailReport(
        threshold=threshold,
        lhs_tail=lhs_tail,
        rhs_tail=rhs_tail,
        lhs_se=lhs_se,
        rhs_se=rhs_se,
        replicates=replicates,
    )
