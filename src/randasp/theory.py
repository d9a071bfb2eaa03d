"""Closed-form statistics of the linear random-program model.

Quantities, for parameters (n, c1, c2) with p = c1/n, d = c2/n, q = 1 - p:

* alpha: unique root > 1 of alpha*ln(alpha) = c1 (equivalently
  alpha^alpha = e^c1).
* Pr(k): probability that a fixed size-k subset is an answer set,
      q^{(n-k)(n-k-1)} (1 - q^{n-k})^k (1 - d)^{n-k}.
* E[N_k] = C(n, k) Pr(k): expected number of size-k answer sets.
* expected_total = sum_k E[N_k], converging (n -> inf) to
      alpha * e^{(c1-c2)/alpha} / (alpha + c1).
* phi(x): Stirling-form continuous approximation of E[N_k], kept as the
  phi_k column of `size_curves` and, at the peak x0 = (alpha-1)n/alpha, as
  `TheoryParams.phi_x0_direct`.  chi(x) is its Gaussian approximation of
  height phi_x0_direct at x0 and width sigma = sqrt((alpha-1)n)/(alpha + c1).
* consistency_probability: 1 - e^{-gamma * expected_total}, the
  independence-heuristic estimate of P(at least one answer set); gamma = 1
  is the raw estimate, and gamma < 1 is a fixed discount, not a fit: at
  c1 = 3 the consistency ratio observed over 300 trials falls from 0.73
  (n = 100) to 0.43 (n = 1000) while the gamma = 0.5 estimate stays at 0.50.

Everything that mixes huge and tiny factors is evaluated in log space, with
exponentiation deferred to the last step.  log C(n, k) is
lf(n) - lf(k) - lf(n - k) with lf = `_log_factorial`, a port of the Cephes
log-gamma routine `lgam` (S. L. Moshier, Methods and Programs for
Mathematical Functions, 1989) at integer arguments, step for step with
`math.log`.  It must give that routine's bits, not merely close values:
every E[N_k], every expected_total and so every theory column of the CSVs
were recorded with them, and a last-bit change at one k moves those bytes.
The arrays over k take lf from `_log_factorials`, the same steps as numpy
arithmetic over the whole array with one `math.log` per element; the scalar
`_log_factorial` stays as its bit oracle.  Over k = 1..n-1, lf(n - k) is
lf(k) reversed, so a row costs n - 1 logs, not 2(n - 1) Python calls.

log Pr(k) is written once, in the elementwise kernel `_log_kernel`, which
adds it to a log weight: the log binomial for E[N_k], its Stirling
form for phi, 0 for Pr.  It is the only path to per-size values: the arrays
over k = 1..n-1 (`expected_counts`, `size_curves`) and the one scalar
evaluation at x0 in `theory_params`.  `expected_total`, the E[N_k] column of
the dist CSV and the theory-curve CSV all read one array, so a column sums to
the total bit for bit.  The weight is added first, ((w + A1) + A2) + A3:
float addition does not associate, and the pinned bits of expected_total and
of the avg and consistency CSVs are those of this order (w + (A1 + A2 + A3)
moves them).
`expected_count_size_k_exact` is an arbitrary-precision rational cross-check
of `expected_counts` for n <= 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .generate import LinearModelParams
from .programs import require_integer

ALPHA_RESIDUAL_TOL = 1e-12

EXACT_ORACLE_MAX_N = 30

# Largest n of the per-size arrays, which cost about 115 bytes and 20 us per
# atom; past it the n -> infinity limit is within O(1/n) of the total
# (a relative 0.53/n at c1 = 3).
CURVE_MAX_N = 10**6


def _require_model(n: int, c1: float, c2: float) -> LinearModelParams:
    model = LinearModelParams(n, c1, c2)  # the generator's rule for a valid model
    if model.n < 2:
        raise ValueError("n must be at least 2")
    return model


def _require_curve(n: int, c1: float, c2: float) -> None:
    _require_model(n, c1, c2)
    if n > CURVE_MAX_N:  # checked before the n-sized arrays are allocated
        raise ValueError(
            f"per-size curves are limited to n <= {CURVE_MAX_N}, got n={n}; "
            "limit_expected_total(c1, c2) gives the n -> infinity total"
        )


def solve_alpha(c1: float) -> float:
    """Root > 1 of f(a) = a ln a - c1: bisection to 1e-8, then Newton polish."""
    if not (math.isfinite(c1) and c1 > 0):
        raise ValueError(f"alpha is defined only for finite c1 > 0, got c1={c1}")

    def f(a: float) -> float:
        return a * math.log(a) - c1

    lo, hi = 1.0, max(math.e, c1 + 2.0)
    while f(hi) < 0:
        hi *= 2.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent doubles: wider than 1e-8 past 2^26
            break
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    for _ in range(60):
        fa = f(a)
        if abs(fa) <= ALPHA_RESIDUAL_TOL:
            break
        a -= fa / (math.log(a) + 1.0)
    # f(a) is a difference with c1, so its rounding grows with c1
    if abs(f(a)) > ALPHA_RESIDUAL_TOL * max(1.0, c1):
        raise ArithmeticError(f"alpha solver did not converge for c1={c1}")
    return a


# Cephes lgam: log(sqrt(2 pi)) and the Stirling-series coefficients used below x = 1000.
_LS2PI = 0.91893853320467274178
_STIRLING_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _log_factorial(m: int) -> float:
    """log(m!) = lgam(m + 1), in the Cephes routine's steps and order."""
    if m < 12:
        return math.log(math.factorial(m))  # m! is exact in a double
    x = float(m + 1)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        series = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    else:
        series = 0.0
        for a in _STIRLING_A:  # polevl(p, A, 4)
            series = series * p + a
    return q + series / x


# m! for m < 12 is exact in a double, so those 12 values are math.log of it
_SMALL_LOG_FACTORIALS = np.array([math.log(math.factorial(m)) for m in range(12)])


def _log_factorials(m: np.ndarray) -> np.ndarray:
    """`_log_factorial` elementwise over an int64 array, bit for bit.

    The same steps in the same order, as numpy arithmetic (each operation
    rounds as Python's float does), with the branches taken by `np.where`
    and one `math.log` per element, not `np.log`, whose last bit differs.
    """
    x = (m + 1).astype(np.float64)
    log_x = np.fromiter(map(math.log, x.ravel().tolist()), dtype=np.float64, count=x.size).reshape(x.shape)
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    series = 0.0
    for a in _STIRLING_A:  # polevl(p, A, 4)
        series = series * p + a
    short = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    out = np.where(x > 1e8, q, q + np.where(x >= 1000.0, short, series) / x)
    return np.where(m < 12, _SMALL_LOG_FACTORIALS[np.minimum(m, 11)], out)


def _log_binom(n: int, k) -> np.ndarray:
    """log C(n, k) elementwise over integral k; lf(n - k) is lf(k) reversed when k is 1..n-1."""
    k = np.asarray(k).astype(np.int64)
    lf_k = _log_factorials(k)
    full = k.shape == (n - 1,) and np.array_equal(k, np.arange(1, n))
    return _log_factorial(n) - lf_k - (lf_k[::-1] if full else _log_factorials(n - k))


def _log_stirling_binom(n: int, x) -> np.ndarray | float:
    """log C(n, x) with every factorial replaced by Stirling's formula."""
    log_n = math.log(n)
    log_x = np.log(x)
    log_y = np.log(n - x)
    return (
        0.5 * (log_n - math.log(2.0 * math.pi) - log_x - log_y)
        + x * (log_n - log_x)
        + (n - x) * (log_n - log_y)
    )


def _log_kernel(n: int, k, c1: float, c2: float, log_weight=None) -> np.ndarray:
    """log_weight(n, k) + log Pr(k), elementwise over real k in (0, n); -inf if c1 = 0.

    The one place log Pr(k) is written; log_weight None means weight 1.
    """
    k = np.asarray(k, dtype=np.float64)
    p = c1 / n
    if p == 0.0:
        return np.full(k.shape, -np.inf)  # no pure rules, no supported atoms
    log_q = math.log1p(-p)
    log_kappa = np.log(-np.expm1((n - k) * log_q))  # log(1 - q^{n-k}), stable at both ends
    weight = 0.0 if log_weight is None else log_weight(n, k)
    # weight first: the order expected_total's bits were recorded in
    return weight + (n - k) * (n - k - 1) * log_q + k * log_kappa + (n - k) * math.log1p(-c2 / n)


def _curve(n: int, c1: float, c2: float, log_weight=None) -> np.ndarray:
    """exp of the kernel at every size k = 1..n-1."""
    _require_curve(n, c1, c2)
    return np.exp(_log_kernel(n, np.arange(1, n), c1, c2, log_weight))


def expected_count_size_k_exact(n: int, k: int, c1: float, c2: float) -> Fraction:
    """Exact-rational E[N_k] for n <= 30 (cross-check oracle for `expected_counts`)."""
    # Python ints: with a numpy n or k, Fraction powers overflow in int64
    n = _require_model(n, c1, c2).n
    k = require_integer("k", k)  # C(n, k) is taken at integers only
    if not 0 < k < n:
        raise ValueError(f"k must satisfy 0 < k < n, got k={k}, n={n}")
    if n > EXACT_ORACLE_MAX_N:
        raise ValueError(f"exact oracle limited to n <= {EXACT_ORACLE_MAX_N}")
    q = 1 - Fraction(c1) / n
    d = Fraction(c2) / n
    pr = q ** ((n - k) * (n - k - 1)) * (1 - q ** (n - k)) ** k * (1 - d) ** (n - k)
    return math.comb(n, k) * pr


def expected_counts(n: int, c1: float, c2: float) -> np.ndarray:
    """E[N_k] for k = 1..n-1: the one array every E[N_k] column and total reads."""
    return _curve(n, c1, c2, _log_binom)


def size_curves(n: int, c1: float, c2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Pr(k), E[N_k], phi(k)) for k = 1..n-1."""
    return _curve(n, c1, c2), expected_counts(n, c1, c2), _curve(n, c1, c2, _log_stirling_binom)


def expected_total(n: int, c1: float, c2: float) -> float:
    """E[|AS|] = sum_{k=1}^{n-1} E[N_k], the correctly rounded sum (`math.fsum`, so term order is moot)."""
    return math.fsum(expected_counts(n, c1, c2).tolist())


def limit_expected_total(c1: float, c2: float) -> float:
    """n -> infinity limit of expected_total: alpha e^{(c1-c2)/alpha} / (alpha + c1)."""
    alpha = solve_alpha(c1)
    return alpha * math.exp((c1 - c2) / alpha) / (alpha + c1)


@dataclass(frozen=True)
class TheoryParams:
    """All distribution parameters for fixed (n, c1, c2)."""

    n: int
    c1: float
    c2: float
    alpha: float
    x0: float
    sigma: float
    c0: float
    delta: float
    phi_x0_direct: float
    phi_x0_asymptotic: float
    limit_expected_total: float


def theory_params(n: int, c1: float, c2: float) -> TheoryParams:
    """Compute alpha, x0, sigma, c0, delta and both phi(x0) evaluations.

    phi_x0_direct is the kernel of the phi_k column evaluated at the real
    peak x0; phi_x0_asymptotic is the
    closed form alpha e^{(c1-c2)/alpha} / sqrt(2 pi (alpha-1) n), which the
    direct value approaches at rate O(n^{-3/2}).
    """
    model = _require_model(n, c1, c2)
    n, c1, c2 = model.n, model.c1, model.c2
    alpha = solve_alpha(c1)
    if alpha == 1.0:  # sigma, c0 and phi_x0_asymptotic divide by alpha - 1
        raise ValueError(f"alpha - 1 rounds to 0 at c1={c1}; theory parameters need c1 above about 1e-16")
    x0 = (alpha - 1.0) * n / alpha
    sigma = math.sqrt((alpha - 1.0) * n) / (alpha + c1)
    c0 = max(math.sqrt(2.0) * (alpha + c1) / math.sqrt(alpha - 1.0), 1.0 / math.sqrt(c1))
    delta = c0 * math.sqrt(n * math.log(n))
    phi_direct = math.exp(float(_log_kernel(n, x0, c1, c2, _log_stirling_binom)))
    phi_asym = alpha * math.exp((c1 - c2) / alpha) / math.sqrt(2.0 * math.pi * (alpha - 1.0) * n)
    return TheoryParams(
        n=n,
        c1=c1,
        c2=c2,
        alpha=alpha,
        x0=x0,
        sigma=sigma,
        c0=c0,
        delta=delta,
        phi_x0_direct=phi_direct,
        phi_x0_asymptotic=phi_asym,
        limit_expected_total=limit_expected_total(c1, c2),
    )


def chi(x: float, tp: TheoryParams) -> float:
    """Gaussian approximation phi(x0) exp(-(x - x0)^2 / (2 sigma^2))."""
    z = (x - tp.x0) / tp.sigma
    return tp.phi_x0_direct * math.exp(-0.5 * z * z)


def consistency_probability(expected: float, gamma: float = 1.0) -> float:
    """1 - e^{-gamma * expected}; gamma = 1 recovers the raw independence estimate."""
    if not expected >= 0:  # also rejects nan
        raise ValueError(f"expected answer-set count must be non-negative, got {expected}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    return -math.expm1(-gamma * expected)
