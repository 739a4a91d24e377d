"""Inter-rater agreement coefficients and the hypothesis tests used on
annotator ratings: Cohen/Fleiss kappa, Krippendorff alpha (ordinal or
interval metric), Pearson correlation, the Wilcoxon rank-sum test, and
Benjamini-Hochberg FDR control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RatingMatrix


class UndefinedKappaError(ValueError):
    """Chance agreement is 1, leaving kappa undefined."""


class NoPairableValuesError(ValueError):
    """Not enough pairable ratings to form the alpha denominator."""


@dataclass(frozen=True)
class AgreementResult:
    statistic: float

    def __post_init__(self):
        if not -1.0 - 1e-12 <= self.statistic <= 1.0 + 1e-12:
            raise ValueError(f"agreement statistic {self.statistic} outside [-1, 1]")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


def cohen_kappa(a, b) -> AgreementResult:
    """Cohen's kappa between two label sequences.

    kappa = (p_o - p_e) / (1 - p_e) with chance agreement p_e from the
    product of the two raters' marginal label proportions.
    """
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise ValueError("label sequences must have equal length")
    n = len(a)
    if n == 0:
        raise ValueError("label sequences are empty")
    cats = sorted(set(a) | set(b), key=repr)
    index = {c: k for k, c in enumerate(cats)}
    table = np.zeros((len(cats), len(cats)))
    for x, y in zip(a, b):
        table[index[x], index[y]] += 1
    p_o = np.trace(table) / n
    p_e = float(np.sum(table.sum(axis=1) * table.sum(axis=0)) / n**2)
    if p_e >= 1.0:
        raise UndefinedKappaError("chance agreement is 1; kappa undefined")
    return AgreementResult((p_o - p_e) / (1.0 - p_e))


def fleiss_kappa(tallies) -> AgreementResult:
    """Fleiss' kappa from an items x categories tally grid.

    Every item must carry the same number of ratings n >= 2. Per-item
    agreement P_i = (sum_j n_ij^2 - n) / (n(n-1)); chance agreement is the
    squared sum of the overall category proportions.
    """
    t = np.asarray(tallies, dtype=float)
    if t.ndim != 2 or t.shape[0] < 1:
        raise ValueError("tallies must be a 2-D items x categories grid")
    row_sums = t.sum(axis=1)
    n = row_sums[0]
    if n < 2:
        raise ValueError("each item needs at least 2 ratings")
    if not np.all(row_sums == n):
        raise ValueError("unequal ratings per item: every item must have the same count")
    p_i = (np.sum(t * t, axis=1) - n) / (n * (n - 1.0))
    p_bar = float(np.mean(p_i))
    p_j = t.sum(axis=0) / t.sum()
    p_e = float(np.sum(p_j * p_j))
    if p_e >= 1.0:
        raise UndefinedKappaError("chance agreement is 1; kappa undefined")
    return AgreementResult((p_bar - p_e) / (1.0 - p_e))


def krippendorff_alpha(m: RatingMatrix | np.ndarray, metric: str = "ordinal") -> AgreementResult:
    """Krippendorff's alpha via the coincidence-matrix formulation.

    Accepts a RatingMatrix or a raw raters x items array with NaN for
    missing entries. Items rated by fewer than two raters do not
    contribute. metric is "ordinal" (rank distance weighted by coincidence
    marginals) or "interval" (squared value difference).
    """
    if metric not in ("ordinal", "interval"):
        raise ValueError(f"unknown metric {metric!r}")
    values = m.values if isinstance(m, RatingMatrix) else np.asarray(m, dtype=float)
    if values.ndim != 2 or values.shape[0] < 2:
        raise NoPairableValuesError("need at least 2 raters")

    # counts[u, c]: raters who gave unit u the c-th domain value; only
    # units with m_u >= 2 values are pairable.
    finite = np.isfinite(values)
    domain, code = np.unique(values[finite], return_inverse=True)
    counts = np.zeros((values.shape[1], len(domain)))
    np.add.at(counts, (np.nonzero(finite)[1], code), 1.0)
    m_u = counts.sum(axis=1)
    counts, m_u = counts[m_u >= 2], m_u[m_u >= 2]

    # Coincidence matrix (Krippendorff 2011): each unit pairs every value
    # with its m_u - 1 partners at weight 1/(m_u - 1), so it adds m_u in
    # total. Its marginals n_c are the pairable value counts.
    weighted = counts / (m_u - 1.0)[:, None]
    coincidence = weighted.T @ counts - np.diag(weighted.sum(axis=0))
    n_c = counts.sum(axis=0)
    n_total = n_c.sum()
    if n_total <= 1:
        raise NoPairableValuesError("fewer than two pairable values")

    # Ordinal delta(c, k) is the marginal mass from c through k less half
    # of each end: the distance between the values' midranks.
    scale = domain if metric == "interval" else _midranks(n_c)
    delta_sq = (scale[:, None] - scale[None, :]) ** 2

    d_o = float(np.sum(coincidence * delta_sq)) / n_total
    d_e = float(n_c @ delta_sq @ n_c) / (n_total * (n_total - 1.0))
    if d_e == 0.0:
        raise NoPairableValuesError("expected disagreement is zero")
    return AgreementResult(1.0 - d_o / d_e)


def pearson_r(x, y) -> TestResult:
    """Sample Pearson correlation with a t-distribution p-value (n-2 dof)."""
    from scipy.special import stdtr  # imported here so CLI start-up skips scipy

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D and of equal length")
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 observations")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance in x or y")
    r = float(np.dot(dx, dy) / (sx * sy))
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return TestResult(r, min(1.0, p))


def _midranks(ties: np.ndarray) -> np.ndarray:
    """Midrank of each distinct value, from the tie counts of the values in
    ascending order: the mean of the ranks cumsum - c + 1 through cumsum."""
    return np.cumsum(ties) - (ties - 1) / 2.0


def _rank_sum_counts(doubled_ranks, k: int) -> dict:
    """{s: number of k-subsets of `doubled_ranks` whose sum is s}, in Python
    ints. ways[j] counts the j-subsets of the items seen so far by sum; j
    runs downward so each item is used once, and stops where k is out of reach."""
    n = len(doubled_ranks)
    ways = [{0: 1}] + [{} for _ in range(k)]
    for i, r in enumerate(doubled_ranks):
        for j in range(min(i + 1, k), max(0, k - n + i), -1):
            row = ways[j]
            for s, c in ways[j - 1].items():
                row[s + r] = row.get(s + r, 0) + c
    return ways[k]


def wilcoxon_rank_sum(x, y, method: str = "auto") -> TestResult:
    """Two-sided Wilcoxon rank-sum test with midrank tie handling.

    The statistic is the rank sum of x in the pooled sample. p-values are
    exact (the count of n_x-subsets of the pooled midranks at or beyond
    the observed sum) when n_x + n_y <= 12 or method="exact", otherwise a
    normal approximation with tie correction.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be nonempty")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("samples must be finite: a rank test has no answer for NaN or infinite values")
    if method not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown method {method!r}")
    nx, ny = len(x), len(y)
    n = nx + ny
    pooled = np.concatenate([x, y])
    _, value_of, ties = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks = _midranks(ties)[value_of]
    w = float(ranks[:nx].sum())

    if method == "exact" or (method == "auto" and n <= 12):
        # Midranks are multiples of 1/2, so doubled ranks and sums are exact ints.
        counts = _rank_sum_counts([int(2.0 * r) for r in ranks], nx)
        w2 = int(2.0 * w)
        total = sum(counts.values())
        p_low = sum(c for s, c in counts.items() if s <= w2) / total
        p_high = sum(c for s, c in counts.items() if s >= w2) / total
        p = min(1.0, 2.0 * min(p_low, p_high))
    else:
        mean_w = nx * (n + 1) / 2.0
        tie_term = float(np.sum(ties**3 - ties)) / (n * (n - 1.0))
        var_w = nx * ny / 12.0 * ((n + 1.0) - tie_term)
        if var_w <= 0:
            p = 1.0
        else:
            z = (w - mean_w) / math.sqrt(var_w)
            p = math.erfc(abs(z) / math.sqrt(2.0))
    return TestResult(w, min(1.0, p))


def bh_fdr(p_values, q: float) -> np.ndarray:
    """Benjamini-Hochberg step-up rejection mask at FDR level q.

    Rejects every p <= p_(k*) where k* = max{k : p_(k) <= k q / m}.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p-values must be a nonempty 1-D sequence")
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    m = len(p)
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    thresholds = (np.arange(1, m + 1) * q) / m
    passing = np.nonzero(sorted_p <= thresholds)[0]
    mask = np.zeros(m, dtype=bool)
    if passing.size:
        cutoff = sorted_p[passing[-1]]
        mask = p <= cutoff
    return mask
