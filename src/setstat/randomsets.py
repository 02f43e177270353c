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
(K + s_i) - (L + t_i) = (K - L) + (s_i - t_i) for erosions.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
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
    "clt_difference_replicates",
    "hausdorff_statistic_replicates",
    "EXPECTATION_LAWS",
    "LawReport",
    "check_expectation_law",
    "AffineSetMap",
    "SymmetricConcaveIntervalMap",
    "MinkowskiSumMap",
    "LinearScaleMap",
    "jensen_inclusion_gap",
    "DeltaTailReport",
    "delta_method_statistics",
    "delta_method_tails",
    "IdentityMap",
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


class NoiseDistribution:
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


class UniformBoxNoise(NoiseDistribution):
    """Uniform on an axis-aligned box (degenerate widths give point mass)."""

    def __init__(self, lower, upper):
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or np.any(lo > hi):
            raise ValueError("need lower <= upper vectors of equal length")
        self.lower, self.upper = lo, hi
        self.dim = lo.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def covariance(self) -> np.ndarray:
        return np.diag((self.upper - self.lower) ** 2 / 12.0)

    def sample(self, rng, n):
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))


class UniformBallNoise(NoiseDistribution):
    """Uniform on a centered Euclidean ball."""

    def __init__(self, radius: float, dim: int):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.radius = float(radius)
        self.dim = int(dim)

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


class TriangularNoise(NoiseDistribution):
    """Symmetric triangular on [-halfwidth, halfwidth], one-dimensional."""

    def __init__(self, halfwidth: float):
        if halfwidth < 0:
            raise ValueError("halfwidth must be nonnegative")
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


class TruncatedGaussianNoise(NoiseDistribution):
    """Centered Gaussian conditioned on the Mahalanobis ball of a given radius.

    Truncation is elliptical (x' Sigma^-1 x <= radius^2), which keeps the
    support bounded and the covariance in closed form: a chi-square ratio
    times the shape matrix.
    """

    def __init__(self, sigma, radius: float):
        s = np.atleast_2d(np.asarray(sigma, dtype=float))
        if s.shape[0] != s.shape[1] or not np.allclose(s, s.T, atol=1e-12):
            raise ValueError("sigma must be a symmetric matrix")
        eigvals = np.linalg.eigvalsh(s)
        if np.any(eigvals < -1e-12):
            raise ValueError("sigma must be positive semidefinite")
        if radius <= 0:
            raise ValueError("truncation radius must be positive")
        self.sigma = s
        self.radius = float(radius)
        self.dim = s.shape[0]
        self._chol = np.linalg.cholesky(s + 1e-15 * np.eye(self.dim))

    @property
    def mean(self) -> np.ndarray:
        return np.zeros(self.dim)

    @property
    def covariance(self) -> np.ndarray:
        from scipy.special import chdtr  # chi-square cdf; scipy.stats is slow to import

        r2 = self.radius**2
        shrink = chdtr(self.dim + 2, r2) / chdtr(self.dim, r2)
        return shrink * self.sigma

    def sample(self, rng, n):
        out = np.empty((n, self.dim))
        got = 0
        while got < n:
            z = rng.standard_normal((max(n - got, 16), self.dim))
            keep = z[np.einsum("ij,ij->i", z, z) <= self.radius**2]
            take = min(keep.shape[0], n - got)
            out[got : got + take] = keep[:take]
            got += take
        return out @ self._chol.T


def noise_to_dict(noise: NoiseDistribution) -> dict:
    """JSON-ready description of a noise law; inverse of noise_from_dict."""
    if isinstance(noise, UniformBoxNoise):
        return {
            "type": "uniform-box",
            "lower": [float(v) for v in noise.lower],
            "upper": [float(v) for v in noise.upper],
        }
    if isinstance(noise, UniformBallNoise):
        return {"type": "uniform-ball", "radius": noise.radius, "dim": noise.dim}
    if isinstance(noise, TriangularNoise):
        return {"type": "triangular", "halfwidth": noise.halfwidth}
    if isinstance(noise, TruncatedGaussianNoise):
        return {
            "type": "truncated-gaussian",
            "sigma": [[float(v) for v in row] for row in noise.sigma],
            "radius": noise.radius,
        }
    raise ValueError(f"unknown noise distribution {type(noise).__name__}")


_NOISE_FIELDS = {
    "uniform-box": {"lower", "upper"},
    "uniform-ball": {"radius", "dim"},
    "triangular": {"halfwidth"},
    "truncated-gaussian": {"sigma", "radius"},
}


def noise_from_dict(data: dict) -> NoiseDistribution:
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("noise description must be a dict with a 'type' field")
    kind = data["type"]
    if kind not in _NOISE_FIELDS:
        raise ValueError(f"unknown noise type {kind!r}")
    extra = set(data) - _NOISE_FIELDS[kind] - {"type"}
    missing = _NOISE_FIELDS[kind] - set(data)
    if extra or missing:
        raise ValueError(
            f"noise type {kind!r}: unexpected fields {sorted(extra)}, "
            f"missing {sorted(missing)}"
        )
    if kind == "uniform-box":
        return UniformBoxNoise(data["lower"], data["upper"])
    if kind == "uniform-ball":
        return UniformBallNoise(data["radius"], data["dim"])
    if kind == "triangular":
        return TriangularNoise(data["halfwidth"])
    return TruncatedGaussianNoise(data["sigma"], data["radius"])


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
    (n, replicate, error) records.  Replicate r at size index i draws
    from the derived stream seed.derive(1_000_000 * i + r).
    """
    expectation = selection_expectation(model)
    records: list[tuple[int, int, float]] = []
    points: list[SllnPoint] = []
    errors = np.zeros((len(n_values), replicates))
    for r in range(replicates):
        for i, n in enumerate(n_values):
            samples = sample_translated_sets(model, n, seed.derive(1_000_000 * i + r))
            err = hausdorff(minkowski_sample_mean(samples), expectation)
            errors[i, r] = err
            records.append((n, r, err))
    for i, n in enumerate(n_values):
        points.append(SllnPoint(n=n, mean_error=float(errors[i].mean())))
    return points, records


def _difference_vector(mean_set: ConvexSet, expectation: ConvexSet) -> np.ndarray:
    """Extract v from {v} = mean_set - expectation, which must be a singleton."""
    diff = minkowski_diff(mean_set, expectation)
    if diff is None:
        raise InternalConsistencyError("translated-set residual erosion came back empty")
    lo, hi = bounds_of(diff)
    if np.any(hi - lo > 1e-8):
        raise InternalConsistencyError(
            f"translated-set residual is not a singleton (extent {hi - lo})"
        )
    return 0.5 * (lo + hi)


def clt_difference_replicates(
    model: RandomlyTranslatedSet, n: int, replicates: int, seed: RngSeed
) -> np.ndarray:
    """Replicated sqrt(n) * v where {v} = (Minkowski mean of n draws) - E(X).

    For translated sets the erosion is a singleton translate by construction;
    anything else raises InternalConsistencyError.
    """
    expectation = selection_expectation(model)
    out = np.empty((replicates, model.body.dim))
    for r in range(replicates):
        samples = sample_translated_sets(model, n, seed.derive(r))
        mean_set = minkowski_sample_mean(samples)
        out[r] = math.sqrt(n) * _difference_vector(mean_set, expectation)
    return out


def hausdorff_statistic_replicates(
    model: RandomlyTranslatedSet, n: int, replicates: int, seed: RngSeed
) -> np.ndarray:
    """Replicated sqrt(n) * Hausdorff(Minkowski mean of n draws, E(X)).

    Shares the replicate streams of clt_difference_replicates, so for
    translated sets each value equals the norm of the matching difference
    vector.
    """
    expectation = selection_expectation(model)
    out = np.empty(replicates)
    for r in range(replicates):
        samples = sample_translated_sets(model, n, seed.derive(r))
        mean_set = minkowski_sample_mean(samples)
        out[r] = math.sqrt(n) * hausdorff(mean_set, expectation)
    return out


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


def _support_profile(s: ConvexSet, dirs: np.ndarray) -> np.ndarray:
    return np.array([s.support(u) for u in dirs])


def _box_intersection(a: Box, b: Box) -> Box | None:
    lo = np.maximum(a.lower, b.lower)
    hi = np.minimum(a.upper, b.upper)
    if np.any(lo > hi):
        return None
    return Box(lo, hi)


def _outer_polytope(dirs: np.ndarray, values: np.ndarray) -> ConvexSet:
    """Convex body reconstructed from support values on a direction grid.

    1-D: the interval [-h(-1), h(+1)].  2-D: the polygon {x : dirs x <= values},
    which reproduces polytopes exactly when the grid is fine enough.
    """
    d = dirs.shape[1]
    if d == 1:
        pos = float(values[np.argmax(dirs[:, 0])])
        neg = float(values[np.argmin(dirs[:, 0])])
        return geometry.interval(-neg, pos)
    if d != 2:
        raise ValueError("support reconstruction implemented for 1-D and 2-D only")
    tol = 1e-9 * (1.0 + np.max(np.abs(values)))
    return geometry.VertexPolytope(geometry._halfplane_vertices(dirs, values, tol))


def check_expectation_law(
    law: str,
    models: dict,
    n_samples: int = 10_000,
    seed: RngSeed = RngSeed(0),
    n_directions: int = 360,
    equality_tol: float = 0.05,
) -> LawReport:
    """Monte-Carlo check of one selection-expectation identity or inclusion.

    The ``models`` mapping supplies the ingredients per law: "c" always, "d"
    for the two-set laws, and "psi_values"/"psi_probs" for the scaling law
    (sign-definite values unless degenerate, since sign-mixing random scale
    factors void the identity).  Equality laws compare a Monte-Carlo
    Minkowski average against the closed-form side in Hausdorff distance;
    inclusion laws measure the maximum support slack of the nominally
    smaller side over a direction grid and allow two Monte-Carlo standard
    errors where a sampled side is involved.
    """
    if law not in EXPECTATION_LAWS:
        raise ValueError(f"unknown expectation law {law!r}; choose from {EXPECTATION_LAWS}")
    c: RandomlyTranslatedSet = models["c"]
    rng_seed = seed
    dirs = direction_grid(c.body.dim, n_directions)
    eq_w = np.full(n_samples, 1.0 / n_samples)

    if law == "deterministic":
        # E(K) = K for a deterministic convex body: the MC side averages n
        # untranslated copies.
        zeros = np.zeros((n_samples, c.body.dim))
        lhs = weighted_minkowski_average(eq_w, translated_family(c.body, zeros))
        rhs = c.body
        metric = hausdorff(lhs, rhs, n_directions)
        tol = 1e-9
        return LawReport(law, "equality", lhs, rhs, metric, tol, metric <= tol, n_samples)

    if law == "sum":
        # (K + s_i) + (L + t_i) = (K + L) + (s_i + t_i)
        d: RandomlyTranslatedSet = models["d"]
        xc = c.noise.sample(rng_seed.derive(1).generator(), n_samples)
        xd = d.noise.sample(rng_seed.derive(2).generator(), n_samples)
        sums = translated_family(minkowski_sum(c.body, d.body), xc + xd)
        lhs = weighted_minkowski_average(eq_w, sums)
        rhs = minkowski_sum(selection_expectation(c), selection_expectation(d))
        metric = hausdorff(lhs, rhs, n_directions)
        return LawReport(
            law, "equality", lhs, rhs, metric, equality_tol, metric <= equality_tol, n_samples
        )

    if law == "scale":
        psi_values = np.asarray(models["psi_values"], dtype=float)
        psi_probs = np.asarray(models["psi_probs"], dtype=float)
        if psi_values.ndim != 1 or psi_values.shape != psi_probs.shape:
            raise ValueError("psi_values and psi_probs must be matching vectors")
        if abs(psi_probs.sum() - 1.0) > 1e-12 or np.any(psi_probs < 0):
            raise ValueError("psi_probs must be a probability vector")
        if psi_values.size > 1 and psi_values.min() < 0 < psi_values.max():
            raise ValueError("random scale factors must be sign-definite for this law")
        xc = c.noise.sample(rng_seed.derive(2).generator(), n_samples)
        psis = rng_seed.derive(1).generator().choice(psi_values, size=n_samples, p=psi_probs)
        # psi_i (K + s_i) = |psi_i| (sigma K + sigma s_i) for the common sign
        # sigma; psi = 0 throughout averages to {0}
        sigma = -1.0 if psi_values.min() < 0 else 1.0
        scaled = translated_family(scale(sigma, c.body), sigma * xc)
        lhs = weighted_minkowski_average(eq_w * np.abs(psis), scaled, allow_zero_total=True)
        epsi = float(psi_values @ psi_probs)
        rhs = scale(epsi, selection_expectation(c))
        metric = hausdorff(lhs, rhs, n_directions)
        return LawReport(
            law, "equality", lhs, rhs, metric, equality_tol, metric <= equality_tol, n_samples
        )

    if law == "subset":
        d = models["d"]
        # coupled translation: C = body_c + xi and D = body_d + xi with
        # body_c inside body_d, so C is a.s. contained in D
        slack_bodies = _support_profile(c.body, dirs) - _support_profile(d.body, dirs)
        if np.max(slack_bodies) > 1e-9:
            raise ValueError("subset law needs models['c'].body inside models['d'].body")
        if c.noise is not d.noise:
            raise ValueError("subset law couples the noise; share one noise object")
        lhs = selection_expectation(c)
        rhs = selection_expectation(d)
        metric = float(np.max(_support_profile(lhs, dirs) - _support_profile(rhs, dirs)))
        tol = 1e-9
        return LawReport(law, "inclusion", lhs, rhs, metric, tol, metric <= tol, n_samples)

    if law == "union":
        # co(E(C) u E(D)) inside E(co(C u D)); the right side is sampled, so
        # the inclusion is checked per direction on support values with a
        # two-standard-error allowance.  The per-sample hull support is the
        # max of the two translated supports, h(K, u) + s_i.u.
        d = models["d"]
        _require_box_bodies(law, c, d)
        xc = c.noise.sample(rng_seed.derive(1).generator(), n_samples)
        xd = d.noise.sample(rng_seed.derive(2).generator(), n_samples)
        sample_profiles = np.maximum(
            _support_profile(c.body, dirs) + xc @ dirs.T,
            _support_profile(d.body, dirs) + xd @ dirs.T,
        )
        rhs_profile = sample_profiles.mean(axis=0)
        se = sample_profiles.std(axis=0, ddof=1) / math.sqrt(n_samples)
        ec, ed = selection_expectation(c), selection_expectation(d)
        lhs_profile = np.maximum(_support_profile(ec, dirs), _support_profile(ed, dirs))
        metric = float(np.max(lhs_profile - rhs_profile - 2.0 * se))
        tol = 1e-9
        lhs = geometry.VertexPolytope(
            np.vstack([geometry.vertices_of(ec), geometry.vertices_of(ed)])
        )
        rhs = _outer_polytope(dirs, rhs_profile)
        return LawReport(law, "inclusion", lhs, rhs, metric, tol, metric <= tol, n_samples)

    if law == "intersection":
        # E(C n D) inside E(C) n E(D) under coupled translation, which keeps
        # every realization C n D = (body_c n body_d) + xi nonempty.
        d = models["d"]
        _require_box_bodies(law, c, d)
        inter_body = _box_intersection(c.body, d.body)
        if inter_body is None:
            raise ValueError("intersection law needs overlapping bodies")
        if c.noise is not d.noise:
            raise ValueError("intersection law couples the noise; share one noise object")
        xi = c.noise.sample(rng_seed.derive(1).generator(), n_samples)
        lhs = inter_body.translate(xi.mean(axis=0))
        rhs = _box_intersection(_expect_box(c), _expect_box(d))
        if rhs is None:
            raise ValueError("expectations do not intersect; law not informative")
        se = (xi @ dirs.T).std(axis=0, ddof=1) / math.sqrt(n_samples)
        slack = _support_profile(lhs, dirs) - _support_profile(rhs, dirs)
        metric = float(np.max(slack - 2.0 * se))
        tol = 1e-9
        return LawReport(law, "inclusion", lhs, rhs, metric, tol, metric <= tol, n_samples)

    # law == "erosion": E(C - D) inside E(C) - E(D), where for boxes
    # (K + s_i) - (L + t_i) = (K - L) + (s_i - t_i)
    d = models["d"]
    _require_box_bodies(law, c, d)
    eroded = minkowski_diff(c.body, d.body)
    if eroded is None:
        raise ValueError("erosion law needs an a.s. nonempty difference C - D")
    xc = c.noise.sample(rng_seed.derive(1).generator(), n_samples)
    shifts = xc - d.noise.sample(rng_seed.derive(2).generator(), n_samples)
    lhs = weighted_minkowski_average(eq_w, translated_family(eroded, shifts))
    rhs = minkowski_diff(selection_expectation(c), selection_expectation(d))
    if rhs is None:
        raise ValueError("erosion of the expectations is empty")
    se = (shifts @ dirs.T).std(axis=0, ddof=1) / math.sqrt(n_samples)
    slack = _support_profile(lhs, dirs) - _support_profile(rhs, dirs)
    metric = float(np.max(slack - 2.0 * se))
    tol = 1e-9
    return LawReport(law, "inclusion", lhs, rhs, metric, tol, metric <= tol, n_samples)


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
    """S(x) = A x + K0 applied pointwise; graph-convex, so Jensen is tight."""

    def __init__(self, matrix, offset_set: ConvexSet):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.offset_set = offset_set

    def apply_to_set(self, c: ConvexSet) -> ConvexSet:
        return minkowski_sum(scale(self.matrix, c), self.offset_set)


class SymmetricConcaveIntervalMap:
    """S(x) = [-phi(x), phi(x)] for a concave positive phi on 1-D intervals."""

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
            peak = float(-res.fun)
            peak = max(peak, float(self.phi(lo[0])), float(self.phi(hi[0])))
        if peak < 0:
            raise ValueError("phi must be positive on the input interval")
        return geometry.interval(-peak, peak)


class MinkowskiSumMap:
    """G(C) = C + B0; nonexpansive in Hausdorff distance (kappa = 1)."""

    def __init__(self, offset_set: ConvexSet):
        self.offset_set = offset_set
        self.lipschitz = 1.0

    def apply_to_set(self, c: ConvexSet) -> ConvexSet:
        return minkowski_sum(c, self.offset_set)


class LinearScaleMap:
    """G(C) = Psi C; Lipschitz in Hausdorff distance with the spectral norm."""

    def __init__(self, psi):
        p = np.asarray(psi, dtype=float)
        self.psi = p
        self.lipschitz = float(abs(p)) if p.ndim == 0 else float(np.linalg.norm(p, 2))

    def apply_to_set(self, c: ConvexSet) -> ConvexSet:
        return scale(self.psi, c)


class IdentityMap:
    """G(C) = C."""

    lipschitz = 1.0

    def apply_to_set(self, c: ConvexSet) -> ConvexSet:
        return c


def jensen_inclusion_gap(
    set_map,
    model: RandomlyTranslatedSet,
    n_samples: int = 10_000,
    seed: RngSeed = RngSeed(0),
    n_directions: int = 360,
) -> float:
    """Maximum support slack of E(S(X)) relative to S(E(X)).

    Negative or near-zero values certify the Jensen inclusion
    E(S(X)) inside S(E(X)) for graph-convex set-valued maps; the expectation
    of the mapped set is estimated by a Minkowski sample mean.
    """
    samples = sample_translated_sets(model, n_samples, seed)
    mapped = [set_map.apply_to_set(s) for s in samples]
    mc_mean = minkowski_sample_mean(mapped)
    target = set_map.apply_to_set(selection_expectation(model))
    dirs = direction_grid(mc_mean.dim, n_directions)
    return float(
        np.max(_support_profile(mc_mean, dirs) - _support_profile(target, dirs))
    )


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
