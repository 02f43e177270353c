"""Kernel regression for set-valued responses.

The estimate at a query point is the kernel-weighted Minkowski average of the
observed sets, S_hat(u) = (+)_i (phi_h(x_i - u) / sum_j phi_h(x_j - u)) * S_i,
with compactly supported radial kernels.  Includes the 1-D interval demo
problem used throughout: a piecewise-hyperbolic interval-valued truth observed
through additive uniform translation noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Box,
    ConvexSet,
    _axis_bounds,
    _box_support,
    _jsonl_records,
    _row_reprs,
    _signed_axes,
    interval,
    set_from_dict,
    set_to_json,
    weighted_minkowski_average,
)
from .randomsets import RngSeed

__all__ = [
    "KernelSpec",
    "EPANECHNIKOV",
    "INDICATOR",
    "KERNELS",
    "validate_kernel",
    "kernel_family_eval",
    "default_bandwidth",
    "kernel_weights",
    "NoLocalDataError",
    "LabeledSetSample",
    "SetRegressionDataset",
    "estimate",
    "demo_truth",
    "demo_truth_raw",
    "generate_demo_dataset",
    "consistency_curve",
    "ConsistencyPoint",
    "local_mass_diagnostics",
    "write_dataset_jsonl",
    "read_dataset_jsonl",
]


@dataclass(frozen=True)
class KernelSpec:
    """Radial kernel profile: nonnegative, bounded, even, zero outside [-1,1].

    ``profile`` maps an array of radii t >= 0 to kernel values; it must be
    strictly positive on some [0, eta], eta > 0, and vanish for t >= 1.
    """

    name: str
    profile: callable


def _epanechnikov(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0)


def _indicator(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 1.0, 0.5, 0.0)


EPANECHNIKOV = KernelSpec("epanechnikov", _epanechnikov)
INDICATOR = KernelSpec("indicator", _indicator)
KERNELS = {"epanechnikov": EPANECHNIKOV, "indicator": INDICATOR}


_KERNEL_CHECK_POINTS = 4097


def validate_kernel(spec: KernelSpec) -> None:
    """Check the kernel axioms on a dense grid; raises ValueError on failure.

    Axioms: nonnegative, bounded, zero for t >= 1, strictly positive near 0.
    Evenness holds by construction since only |t| enters.
    """
    t = np.linspace(0.0, 2.0, _KERNEL_CHECK_POINTS)
    vals = spec.profile(t)
    if np.any(vals < 0):
        raise ValueError(f"kernel {spec.name!r} takes negative values")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"kernel {spec.name!r} is unbounded")
    if np.any(vals[t >= 1.0] != 0):
        raise ValueError(f"kernel {spec.name!r} has support outside [-1, 1]")
    near = vals[t <= 0.25]
    if not np.all(near > 0):
        raise ValueError(f"kernel {spec.name!r} is not strictly positive near 0")


def kernel_family_eval(spec: KernelSpec, h: float, v) -> float:
    """Bandwidth-h family member phi_h(v) = h^-d * phi(|v| / h)."""
    if h <= 0:
        raise ValueError("bandwidth h must be positive")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    d = v.shape[-1]
    r = np.linalg.norm(v, axis=-1)
    return float(spec.profile(r / h) / h**d)


def default_bandwidth(n: int, d: int) -> float:
    """Consistency-rate bandwidth n^(-1/(d+4))."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    return float(n) ** (-1.0 / (d + 4))


class NoLocalDataError(ValueError):
    """No sample carries positive kernel weight at the query point."""


@dataclass(frozen=True)
class LabeledSetSample:
    """One regression observation: input point x and observed set s."""

    x: np.ndarray
    s: ConvexSet

    def __post_init__(self):
        object.__setattr__(
            self, "x", np.atleast_1d(np.asarray(self.x, dtype=float))
        )
        if self.x.ndim != 1:
            raise ValueError("sample input x must be a vector")
        if not np.isfinite(self.x).all():
            raise ValueError("sample input x must be finite")


class SetRegressionDataset:
    """Homogeneous collection of (input point, observed set) samples.

    Built from LabeledSetSample objects, or by from_boxes from arrays: (n, d)
    inputs and the (n, q) lower and upper corners of box responses.  An
    array-backed dataset holds no per-sample objects; ``samples`` and
    iteration materialize Box responses on access, and ``estimate`` averages
    the corner arrays directly.  ``inputs`` is read-only, so the stable order
    of its first coordinate and the rows in that order, built once on first
    use, never go stale.
    """

    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    _sorted_first: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __init__(self, samples):
        samples = list(samples)
        if not samples:
            raise ValueError("dataset must contain at least one sample")
        d = samples[0].x.shape[0]
        q = samples[0].s.dim
        for smp in samples:
            if smp.x.shape[0] != d or smp.s.dim != q:
                raise ValueError("inconsistent dimensions across dataset samples")
        self._samples = samples
        self.input_dim = d
        self.set_dim = q
        self.inputs = np.array([smp.x for smp in samples])
        self.inputs.setflags(write=False)

    @classmethod
    def from_boxes(cls, inputs, lower, upper) -> "SetRegressionDataset":
        """Array-backed dataset of box responses [lower_i, upper_i] at x_i."""
        x = np.array(inputs, dtype=float)  # never the caller's array: made read-only below
        lo, hi = (np.asarray(a, dtype=float) for a in (lower, upper))
        if x.ndim != 2 or lo.ndim != 2 or lo.shape != hi.shape or lo.shape[0] != x.shape[0]:
            raise ValueError("need (n, d) inputs and matching (n, q) lower and upper arrays")
        if x.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        if not all(np.all(np.isfinite(a)) for a in (x, lo, hi)):
            raise ValueError("dataset entries must be finite")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")
        ds = cls.__new__(cls)
        ds._samples = None
        ds.inputs, ds.lower, ds.upper = x, lo, hi
        ds.input_dim, ds.set_dim = x.shape[1], lo.shape[1]
        x.setflags(write=False)
        return ds

    def _sorted_first_coordinate(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(stable argsort of inputs[:, 0], that column sorted, the input rows
        in that order), built once; the rows are a read-only copy.

        Two threads may both build it on first use; they build equal arrays
        and the triple is stored in one assignment.
        """
        if self._sorted_first is None:
            order = np.argsort(self.inputs[:, 0], kind="stable")
            rows = self.inputs[order]
            rows.setflags(write=False)
            self._sorted_first = (order, self.inputs[order, 0], rows)
        return self._sorted_first

    @property
    def samples(self) -> list[LabeledSetSample]:
        if self._samples is not None:
            return self._samples
        return [
            LabeledSetSample(x, Box(lo, hi))
            for x, lo, hi in zip(self.inputs, self.lower, self.upper)
        ]

    def __len__(self):
        return self.inputs.shape[0]

    def __iter__(self):
        return iter(self.samples)


def _query(u, d: int) -> np.ndarray:
    """The query point as a float vector; ValueError unless its length is d."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (d,):
        raise ValueError(f"query point has shape {u.shape}, inputs have dimension {d}")
    return u


def kernel_weights(
    spec: KernelSpec, inputs: np.ndarray, u, h: float
) -> np.ndarray:
    """Normalized kernel weights of each input relative to the query point.

    Raises NoLocalDataError when every weight vanishes (the estimator is
    undefined at zero kernel mass; callers may widen h).
    """
    if h <= 0:
        raise ValueError("bandwidth h must be positive")
    u = _query(u, inputs.shape[1])
    r = np.linalg.norm(inputs - u[None, :], axis=1)
    raw = spec.profile(r / h)
    total = raw.sum()
    if total <= 0:
        raise NoLocalDataError(f"no samples within bandwidth {h} of {u}")
    return raw / total


def estimate(
    dataset: SetRegressionDataset, kernel: KernelSpec, u, h: float
) -> ConvexSet:
    """Kernel regression estimate of the set value at the query point.

    The h^-d normalization cancels in the weight ratio, so weights use the
    raw profile.  Zero-weight samples are dropped before averaging.  Box
    responses of an array-backed dataset are averaged as the (k, q) corner
    arrays, which is the arithmetic weighted_minkowski_average applies to
    the kept Box objects.

    The kernel is evaluated only on the window of samples whose first input
    coordinate lies within 2h of u[0], found by bisecting the dataset's
    sorted first coordinate; the window is a slice of the dataset's input
    rows kept in that order.  The KernelSpec contract (the profile vanishes
    for t >= 1) and |x_1 - u_1| <= |x - u| make every weight outside the
    window exactly 0; the factor 2 only keeps rounding from dropping a
    sample the profile weights, and the profile still sets every weight.
    The window's values are scattered into a length-n zero array before
    summing, so the normalizer, and with it the result, has the bits of
    the full scan that kernel_weights makes.  Only the samples with a
    positive profile value go back into dataset order to be weighted.
    """
    if h <= 0:
        raise ValueError("bandwidth h must be positive")
    u = _query(u, dataset.input_dim)
    order, first, rows = dataset._sorted_first_coordinate()
    start = np.searchsorted(first, u[0] - 2.0 * h, side="left")
    stop = np.searchsorted(first, u[0] + 2.0 * h, side="right")
    r = np.linalg.norm(rows[start:stop] - u[None, :], axis=1)
    part = kernel.profile(r / h)
    window = order[start:stop]
    raw = np.zeros(len(dataset))
    raw[window] = part
    total = raw.sum()  # over all n: numpy's pairwise grouping sets the bits
    if total <= 0:
        raise NoLocalDataError(f"no samples within bandwidth {h} of {u}")
    kept = np.sort(window[part > 0])  # dataset order
    wk = raw[kept] / total
    keep = wk > 0  # a tiny value over a large total may round to 0
    kept, wk = kept[keep], wk[keep]
    if dataset.lower is not None:
        return Box(wk @ dataset.lower[kept], wk @ dataset.upper[kept])
    samples = dataset.samples
    return weighted_minkowski_average(wk, [samples[i].s for i in kept])


def local_mass_diagnostics(
    spec: KernelSpec, inputs: np.ndarray, u, h: float
) -> tuple[float, float]:
    """(mean phi_h(x_i - u), mean phi_h(x_i - u) * |x_i - u|) over the sample.

    The first average estimates (integral of phi) * density(u) at interior
    points; the second vanishes asymptotically at the bandwidth rate.
    """
    if h <= 0:
        raise ValueError("bandwidth h must be positive")
    d = inputs.shape[1]
    u = _query(u, d)
    r = np.linalg.norm(inputs - u[None, :], axis=1)
    phi = spec.profile(r / h) / h**d
    return float(phi.mean()), float((phi * r).mean())


# --- 1-D interval demo problem --------------------------------------------

_DEMO_DOMAIN = (-2.0, 2.0)  # the demo truth's inputs, where the demo dataset draws x


def _demo_truth_endpoints(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unclipped truth endpoints for an array of inputs in _DEMO_DOMAIN."""
    if not np.all((u >= _DEMO_DOMAIN[0]) & (u <= _DEMO_DOMAIN[1])):
        raise ValueError("truth is defined on [%g, %g]" % _DEMO_DOMAIN)
    left, right = u < -0.25, u > 0.25
    inv = np.divide(1.0, u, out=np.zeros_like(u), where=left | right)
    return np.where(right, 2.0 - inv, -2.0), np.where(left, -inv, 2.0)


def demo_truth_raw(u: float) -> tuple[float, float]:
    """Unclipped endpoints of the piecewise interval truth on [-2, 2]."""
    lo, hi = _demo_truth_endpoints(np.array([float(u)]))
    return float(lo[0]), float(hi[0])


def demo_truth(u: float) -> ConvexSet:
    """Interval truth with endpoints clipped to [-2, 2].

    The raw left-branch upper endpoint -1/u exceeds 2 on (-1/2, -1/4); the
    clip keeps the function Lipschitz across branch joins and inside the
    observation window.
    """
    lo, hi = demo_truth_raw(u)
    return interval(max(lo, -2.0), min(hi, 2.0))


def generate_demo_dataset(n: int, seed: RngSeed) -> SetRegressionDataset:
    """n samples of the demo problem: x ~ U(-2,2), s = truth(x) + w, w ~ U(-1,1).

    Observed sets are 1-D intervals, pure translates of the truth (so widths
    are noise-free), stored as an array-backed dataset.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = seed.generator()
    xs = rng.uniform(*_DEMO_DOMAIN, size=n)
    ws = rng.uniform(-1.0, 1.0, size=n)
    lo, hi = _demo_truth_endpoints(xs)
    lo = np.maximum(lo, -2.0) + ws
    hi = np.minimum(hi, 2.0) + ws
    return SetRegressionDataset.from_boxes(
        xs.reshape(-1, 1), lo.reshape(-1, 1), hi.reshape(-1, 1)
    )


@dataclass(frozen=True)
class ConsistencyPoint:
    n: int
    median_error: float


def consistency_curve(
    n_values,
    replicates: int,
    u_grid,
    seed: RngSeed,
    kernel: KernelSpec = EPANECHNIKOV,
) -> tuple[list[ConsistencyPoint], list[tuple[int, int, float, float]]]:
    """Median Hausdorff error of the demo-problem estimate per sample size.

    Returns per-n medians pooled over replicates x grid points, plus flat
    (n, replicate, u, error) records.  Replicate r of each n uses the
    derived stream seed.derive(1_000_000 * i + r).
    """
    u_grid = np.asarray(u_grid, dtype=float)
    points = []
    records: list[tuple[int, int, float, float]] = []
    for i, n in enumerate(n_values):
        errs = []
        h = default_bandwidth(n, 1)
        for r in range(replicates):
            dataset = generate_demo_dataset(n, seed.derive(1_000_000 * i + r))
            err = _demo_fit(dataset, kernel, u_grid, h)[4].tolist()
            errs += err
            records += [(n, r, u, e) for u, e in zip(u_grid.tolist(), err)]
        points.append(ConsistencyPoint(n=n, median_error=float(np.median(errs))))
    return points, records


def _demo_fit(dataset: SetRegressionDataset, kernel: KernelSpec, u_grid: np.ndarray, h: float):
    """(truth_lo, truth_hi, est_lo, est_hi, hausdorff) arrays over u_grid for a
    demo dataset, bit for bit those of bounds_of(demo_truth(u)), bounds_of of
    the estimate and their hausdorff at each u.  The endpoints come from the
    support formula of bounds_of, stacked, so a lower endpoint of +0.0 reads
    -0.0 as it does there."""
    t_lo, t_hi = _demo_truth_endpoints(u_grid)
    ests = [estimate(dataset, kernel, u, h) for u in u_grid]
    lower = np.array([np.maximum(t_lo, -2.0), [e.lower[0] for e in ests]])[..., None]
    upper = np.array([np.minimum(t_hi, 2.0), [e.upper[0] for e in ests]])[..., None]
    bounds = _axis_bounds(_box_support(lower, upper, _signed_axes(1)))
    (t_lo, e_lo), (t_hi, e_hi) = (b[..., 0] for b in bounds)
    return t_lo, t_hi, e_lo, e_hi, np.maximum(np.abs(e_lo - t_lo), np.abs(e_hi - t_hi))


# --- dataset files ----------------------------------------------------------


def write_dataset_jsonl(dataset: SetRegressionDataset, path) -> None:
    """One sample per line: {"x": [...], "set": set_to_json(s)}.

    Inputs admit only finite entries, whose json text is float.__repr__, so
    rows are formatted directly; an array-backed dataset fills one box line.
    """
    with open(path, "w") as fh:
        if dataset.lower is not None:
            line = '{"x": [%s], "set": {"type": "box", "lower": [%s], "upper": [%s]}}\n'
            fh.writelines(
                line % row
                for row in zip(
                    *(_row_reprs(a) for a in (dataset.inputs, dataset.lower, dataset.upper))
                )
            )
            return
        fh.writelines(
            '{"x": [%s], "set": %s}\n' % (x, set_to_json(smp.s))
            for x, smp in zip(_row_reprs(dataset.inputs), dataset.samples)
        )


def read_dataset_jsonl(path) -> SetRegressionDataset:
    return SetRegressionDataset([
        LabeledSetSample(np.asarray(x, dtype=float), set_from_dict(s))
        for x, s in _jsonl_records(path, ("x", "set"))
    ])
