"""Statistical primitives used throughout the characterization.

The paper presents almost everything as empirical CDFs, coefficients
of variation, and Spearman rank correlations; these are implemented
here once and reused by every figure module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.streaming import new_sketch
from repro.errors import AnalysisError


@dataclass(frozen=True)
class Ecdf:
    """An empirical CDF: ``values`` sorted ascending, ``probabilities``
    the fraction of samples <= the value."""

    values: np.ndarray
    probabilities: np.ndarray

    @property
    def num_samples(self) -> int:
        return len(self.values)

    def evaluate(self, x: float | np.ndarray) -> float | np.ndarray:
        """P(sample <= x)."""
        out = np.searchsorted(self.values, np.asarray(x), side="right") / max(len(self.values), 1)
        if np.ndim(x) == 0:
            return float(out)
        return out

    def quantile(self, p: float) -> float:
        """Inverse CDF at probability ``p`` (linear interpolation)."""
        if not 0.0 <= p <= 1.0:
            raise AnalysisError(f"probability {p} outside [0, 1]")
        return float(np.quantile(self.values, p))

    def fraction_above(self, threshold: float) -> float:
        """P(sample > threshold)."""
        return 1.0 - float(self.evaluate(threshold))

    def median(self) -> float:
        """``np.median`` of the samples (see :meth:`QuantileSketch.median`)."""
        return float(np.median(self.values))


def ecdf(values) -> Ecdf:
    """Build an :class:`Ecdf`, dropping NaNs."""
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise AnalysisError("cannot build an ECDF from zero finite samples")
    ordered = np.sort(arr)
    probs = np.arange(1, ordered.size + 1) / ordered.size
    return Ecdf(ordered, probs)


def column_ecdf(source, name: str, *, transform=None):
    """The distribution of one column, one fold over ``source.chunks()``.

    Returns a :class:`~repro.frame.QuantileSketch` from
    :func:`~repro.analysis.streaming.new_sketch` — exact on a
    materialized Table, rank-bounded on a chunk stream — whose query
    surface (``values``/``probabilities``/``evaluate``/``quantile``/
    ``median``/``fraction_above``) matches :class:`Ecdf`, so figure
    code consumes either without branching.  ``transform`` is applied
    vectorized per chunk (e.g. seconds to minutes); non-finite samples
    are dropped.
    """
    sketch = new_sketch(source)
    for chunk in source.chunks():
        arr = np.asarray(chunk.column(name), dtype=float)
        if transform is not None:
            arr = transform(arr)
        sketch.update(arr)
    if sketch.num_samples == 0:
        raise AnalysisError("cannot build an ECDF from zero finite samples")
    return sketch


def column_fraction(source, name: str, predicate) -> float:
    """The exact mean of a boolean predicate over one column.

    ``predicate`` maps a float array to a boolean array; the fold
    accumulates integer true/total counts, so the result is exact on
    any chunking.
    """
    true_count = 0
    total = 0
    for chunk in source.chunks():
        hits = np.asarray(predicate(np.asarray(chunk.column(name), dtype=float)))
        true_count += int(hits.sum())
        total += int(hits.size)
    if total == 0:
        raise AnalysisError("cannot take a fraction of zero samples")
    return true_count / total


def coefficient_of_variation(values) -> float:
    """Standard deviation as a fraction of the mean (paper's CoV).

    The paper reports CoV as a percentage; we return a fraction
    (1.26 == "126%").  Zero-mean input has undefined CoV and returns
    NaN rather than raising, since per-user aggregation routinely hits
    all-zero utilization groups.
    """
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return float("nan")
    mean = arr.mean()
    if mean == 0:
        return float("nan")
    return float(arr.std(ddof=0) / abs(mean))


def spearman(x, y) -> tuple[float, float]:
    """Spearman rank correlation and two-sided p-value.

    Implemented directly (rank + Pearson + t-test) so the library has
    no dependency on scipy: the p-value's Student-t tail is
    :func:`_student_t_sf`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise AnalysisError(f"shape mismatch: {x.shape} vs {y.shape}")
    mask = np.isfinite(x) & np.isfinite(y)
    x, y = x[mask], y[mask]
    n = x.size
    if n < 3:
        raise AnalysisError(f"need >= 3 paired samples, got {n}")
    rx = _rank(x)
    ry = _rank(y)
    rho = _pearson(rx, ry)
    if abs(rho) >= 1.0:
        return float(np.sign(rho)), 0.0
    # t-distribution approximation for the p-value
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * _student_t_sf(abs(float(t)), n - 2)
    return float(rho), p


def _student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom.

    For ``t >= 0`` the tail is ``I_x(df/2, 1/2) / 2`` with
    ``x = df / (df + t^2)``, the regularized incomplete beta function.
    """
    if t < 0:
        return 1.0 - _student_t_sf(-t, df)
    if t == 0:
        return 0.5
    t2 = t * t
    x = df / (df + t2)
    # 1 - x computed directly: it is the small side when t is small
    return 0.5 * _regularized_beta(0.5 * df, 0.5, x, t2 / (df + t2))


def _regularized_beta(a: float, b: float, x: float, y: float) -> float:
    """``I_x(a, b)`` for ``0 < x < 1`` with ``y = 1 - x`` passed exactly.

    The continued fraction converges fast for ``x < (a + 1) / (a + b + 2)``;
    above that the symmetry ``I_x(a, b) = 1 - I_y(b, a)`` applies.
    """
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The incomplete-beta continued fraction, by the modified Lentz method."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        m2 = 2 * m
        for numerator in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise AnalysisError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def _rank(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of their positions)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    ranks[order] = np.arange(1, len(values) + 1, dtype=float)
    # average ties
    sorted_vals = values[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            mean_rank = (i + j) / 2.0 + 1.0
            ranks[order[i : j + 1]] = mean_rank
        i = j + 1
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0:
        return 0.0
    return float((xc * yc).sum() / denom)


def quantiles(values, probs=(0.25, 0.5, 0.75)) -> dict[float, float]:
    """Convenience: several quantiles at once, NaNs dropped."""
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise AnalysisError("cannot take quantiles of zero finite samples")
    return {float(p): float(np.quantile(arr, p)) for p in probs}


def gini(values) -> float:
    """Gini coefficient of a non-negative distribution (used for the
    Pareto-principle framing of user activity)."""
    arr = np.sort(np.asarray(values, dtype=float))
    if (arr < 0).any():
        raise AnalysisError("Gini is defined for non-negative values")
    if arr.size == 0 or arr.sum() == 0:
        return 0.0
    n = arr.size
    index = np.arange(1, n + 1)
    return float((2.0 * (index * arr).sum() - (n + 1) * arr.sum()) / (n * arr.sum()))
