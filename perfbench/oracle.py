"""Brute-force reference for the reports of ``sicheck check``.

Recomputes the OLS index, the ranks, the leave-one-out quartic smooth, the
pilot bandwidth search and the score, maximin and omnibus statistics from
their defining sums, using numpy only.  Nothing here imports the program,
so a defect in a shared helper cannot hide in both sides of a comparison.
"""

from __future__ import annotations

import math

import numpy as np

UNDERSMOOTH = -2.0 / 15.0
SUP_MARGIN = 3.0
_ROW_BLOCK = 256


def load_csv(path):
    """(x, y) from a CSV with a header row whose last column is ``y``."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1], table[:, -1]


def ols_ranks(x, y):
    """Ranks #{j : t_j <= t_i} / n of the projections on the OLS direction."""
    n = x.shape[0]
    design = np.column_stack([np.ones(n), x])
    coef = np.linalg.solve(design.T @ design, design.T @ y)
    slope = coef[1:] / np.linalg.norm(coef[1:])
    lead = slope[np.abs(slope) > 1e-10][0]
    t = x @ (slope if lead > 0 else -slope)
    ranks = np.empty(n)
    for lo in range(0, n, _ROW_BLOCK):
        ranks[lo:lo + _ROW_BLOCK] = (t[None, :] <= t[lo:lo + _ROW_BLOCK, None]).sum(axis=1)
    return ranks / n


def loo_smooth(values, u, h):
    """sum_{i != j} v_i K((U_j - U_i) / h) / ((n - 1) h) for every j.

    ``values`` may be an (n,) vector or an (n, d) real or complex stack.
    The self term is removed by index, so tied ranks still count.
    """
    n = u.size
    v = np.asarray(values)
    out = np.zeros(v.shape, dtype=v.dtype)
    for lo in range(0, n, _ROW_BLOCK):
        rows = np.arange(lo, min(lo + _ROW_BLOCK, n))
        d = (u[rows, None] - u[None, :]) / h
        k = np.where(np.abs(d) < 1.0, (15.0 / 16.0) * (1.0 - d * d) ** 2, 0.0)
        k[np.arange(rows.size), rows] = 0.0
        if np.iscomplexobj(v):
            out[rows] = k @ v.real + 1j * (k @ v.imag)
        else:
            out[rows] = k @ v
    return out / ((n - 1) * h)


def pilot_grid(n, size=30, lo=0.3, hi=3.0):
    upper = min(hi * n ** -0.2, 1.0)
    lower = min(lo * n ** -0.2, upper)
    return [lower * (upper / lower) ** (k / (size - 1)) for k in range(size)]


def pilot_bandwidth(x, y, u, w):
    """Grid point minimising sum_j (y_j - fit_j)^2 w_j^2; ties go low."""
    grid = pilot_grid(y.size)
    scores = [float(np.sum((y - loo_smooth(y, u, h)) ** 2 * w**2)) for h in grid]
    return grid[int(np.argmin(scores))]


def _interior(u, h, margin):
    keep = (u > margin * h) & (u <= 1.0 - margin * h + 1e-12)
    return keep if keep.sum() >= 5 else np.ones(u.size, dtype=bool)


def _weights(x, names):
    table = {"sumabs": np.abs(x).sum(axis=1), "sumsq": (x**2).sum(axis=1)}
    return np.column_stack([table[name] for name in names])


def score_or_maximin(x, y, u, h, names):
    """(statistic, p-value) of the score test (one weight) or maximin test."""
    eps = y - loo_smooth(y, u, h)
    w = _weights(x, names)
    keep = _interior(u, h, 1.0)
    centered = (w - loo_smooth(w, u, h))[keep]
    e = eps[keep]
    m = int(keep.sum())
    t = centered.T @ e / math.sqrt(m)
    sigma = (centered * (e**2)[:, None]).T @ centered / m
    if len(names) == 1:
        t_bar = float(t[0] / math.sqrt(sigma[0, 0]))
        return t_bar, math.erfc(abs(t_bar) / math.sqrt(2.0))
    stat = float(t @ np.linalg.solve(sigma, t))
    return stat, chisq_sf(stat, len(names))


def chisq_sf(x, df):
    """Upper chi-square tail for even df, in closed form."""
    if df % 2:
        raise ValueError("closed-form chi-square tail needs even degrees of freedom")
    half = x / 2.0
    return math.exp(-half) * sum(half**k / math.factorial(k) for k in range(df // 2))


def omnibus(x, y, u, h, m, seed, bound=3.0, per_axis=7):
    """(statistic, p-value) of the multiplier-bootstrap sup test.

    Replicate r draws its multipliers from numpy's stream (seed, r), the
    program's documented reproducibility contract.
    """
    sd = x.std(axis=0)
    z = (x - x.mean(axis=0)) / np.where(sd > 0, sd, 1.0)
    pos = np.linspace(0.0, bound, per_axis // 2 + 1)[1:]
    axis = np.concatenate([-pos[::-1], [0.0], pos])
    grid = np.stack(np.meshgrid(*([axis] * x.shape[1]), indexing="ij"), -1).reshape(-1, x.shape[1])
    w = np.exp(1j * (z @ grid.T))
    eps = y - loo_smooth(y, u, h)
    keep = _interior(u, h, SUP_MARGIN)
    summands = (w - loo_smooth(w, u, h))[keep] * eps[keep][:, None]
    scale = math.sqrt(int(keep.sum()))
    stat = float(np.abs(summands.sum(axis=0)).max()) / scale
    e = np.stack([np.random.default_rng([seed, r]).standard_normal(summands.shape[0]) for r in range(m)])
    reps = np.abs(e @ summands.real + 1j * (e @ summands.imag)).max(axis=1) / scale
    return stat, (1 + int(np.count_nonzero(reps >= stat))) / (m + 1)


def check_report(csv_path, report, test, m, seed, fixed_h):
    """List of mismatches between a report and the oracle at rel 1e-9."""
    x, y = load_csv(csv_path)
    u = ols_ranks(x, y)
    problems = []
    if fixed_h is None:
        names = ("sumabs",) if test == "score" else ("sumsq",)
        h1 = pilot_bandwidth(x, y, u, _weights(x, names)[:, 0])
        if not math.isclose(report["h1"], h1, rel_tol=1e-9):
            problems.append(f"h1 {report['h1']!r} != oracle {h1!r}")
    h = report["h"]
    if test == "omnibus":
        stat, p = omnibus(x, y, u, h, m, seed)
    else:
        names = ("sumabs",) if test == "score" else ("sumabs", "sumsq")
        stat, p = score_or_maximin(x, y, u, h, names)
    for key, want in (("statistic", stat), ("p_value", p)):
        if not math.isclose(report[key], want, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{key} {report[key]!r} != oracle {want!r}")
    return problems
