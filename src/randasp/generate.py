"""Seeded random generation of negative two-literal programs, linear model L(c1, c2).

Every ordered pure rule `a <- not b` (a != b) is included independently with
probability p = c1/n; every contradiction rule `a <- not a` independently
with probability d = c2/n.  Expected program size is c1*(n-1) + c2.

Randomness contract
-------------------
All draws come from splitmix64, a counter-based 64-bit generator: stream
state advances by the golden-gamma constant and is finalized with the
Stafford mix, so draw i of the stream seeded s is _mix64(s + (i+1)*GAMMA).
Sub-streams are derived with `mix_seed(seed, i)`, so per-trial programs are
independent of scheduling order.  Rule inclusion is sampled by sorted
geometric skips over the rule index space, which realizes exactly the
independent-Bernoulli distribution (equivalently: binomial rule count plus a
uniform distinct subset) in O(expected rules) time.  The pure rules consume
draws 0..m of the trial's stream (one per rule plus the skip that passes the
end), and the contradiction rules continue from draw m+1.  A draw's rules
come back in (head, body) order, each contradiction a <- not a among its
head's pure rules: the order `Program.from_n2_arrays` holds them in.

The skip of a draw is int(min(log(u) / log1p(-prob), total)), where u is
((x >> 11) + 1) * 2^-53, exact in float64, and `log` is the C library's.
The compiled kernel (`_kernel.sample`, `randasp_sample` in `_search.c`)
takes every draw with that walk, so no numpy float operation touches the
bits.  Its reference is `_scalar_skips` in the tests: the walk one draw at
a time in Python, whose `math.log` calls the same libm `log`.  A sweep
trial on the kernel (`_kernel.trial`) draws with the same walk and
resamples as `generate_with_stats` does, up to the same `_MAX_RESAMPLE`.
`_generate_bernoulli` keeps the O(n^2) per-index scan as the distribution
oracle for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .programs import Program, Rule, require_integer, require_real

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MAX_RESAMPLE = 100_000


def _mix64(z: int) -> int:
    """Stafford variant 13 finalizer (the splitmix64 output mix)."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def mix_seed(seed: int, i: int) -> int:
    """Sub-seed for stream i of `seed`; stable across platforms and schedules."""
    seed, i = require_integer("seed", seed), require_integer("i", i)
    return _mix64((seed + (i + 1) * _GAMMA) & _M64)


class SplitMix64:
    """Counter-based splitmix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = require_integer("seed", seed) & _M64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _M64
        return _mix64(self._state)

    def random(self) -> float:
        """Uniform double in (0, 1] (53 significant bits)."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53


@dataclass(frozen=True)
class LinearModelParams:
    """Model parameters (n, c1, c2) with derived per-rule probabilities."""

    n: int
    c1: float
    c2: float

    def __post_init__(self):
        object.__setattr__(self, "n", require_integer("n", self.n))
        object.__setattr__(self, "c1", require_real("c1", self.c1))
        object.__setattr__(self, "c2", require_real("c2", self.c2))
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):  # max(5.0, nan) is 5.0
            raise ValueError(f"c1 and c2 must be finite, got c1={self.c1}, c2={self.c2}")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("c1 and c2 must be non-negative")
        if self.c1 + self.c2 <= 0:
            raise ValueError("c1 + c2 must be positive")
        if not self.n > max(self.c1, self.c2):
            raise ValueError(f"n must exceed max(c1, c2) = {max(self.c1, self.c2)}")

    @property
    def p(self) -> float:
        return self.c1 / self.n

    @property
    def d(self) -> float:
        return self.c2 / self.n

    @property
    def q(self) -> float:
        return 1.0 - self.p


def expected_rule_count(params: LinearModelParams) -> float:
    """n(n-1)p + nd = c1(n-1) + c2."""
    return params.c1 * (params.n - 1) + params.c2


def log_prob_empty(params: LinearModelParams) -> float:
    """log P(a draw has no rule) = n(n-1) log q + n log(1 - d)."""
    n = params.n
    return n * (n - 1) * math.log1p(-params.p) + n * math.log1p(-params.d)


def require_sampleable(params: LinearModelParams) -> None:
    """Reject a model whose draws are so often empty that generation likely fails.

    `generate_with_stats` gives up after _MAX_RESAMPLE empty draws, which
    happens with probability P(empty)^_MAX_RESAMPLE; refuse when that is at
    least 1/2, before any resampling is spent.
    """
    log_fail = _MAX_RESAMPLE * log_prob_empty(params)
    if log_fail >= -math.log(2.0):
        raise ValueError(
            f"n={params.n}, c1={params.c1}, c2={params.c2}: a draw is empty with "
            f"probability {math.exp(log_fail / _MAX_RESAMPLE):.6g}, so "
            f"{_MAX_RESAMPLE} resamples would more likely fail than not"
        )


def _pair_from_index(j: int, n: int) -> tuple[int, int]:
    """Bijection [0, n(n-1)) -> ordered pairs (a, b), a != b, lex by (a, b)."""
    a, r = divmod(j, n - 1)
    return a, r + (r >= a)


def _sample_rules_bernoulli(params: LinearModelParams, stream_seed: int) -> list[Rule]:
    """Per-index Bernoulli scan. O(n^2); distribution oracle for the skip path."""
    rng = SplitMix64(stream_seed)
    n = params.n
    rules = []
    for j in range(n * (n - 1)):
        if rng.random() <= params.p:
            a, b = _pair_from_index(j, n)
            rules.append(Rule(a, (), (b,)))
    for i in range(n):
        if rng.random() <= params.d:
            rules.append(Rule(i, (), (i,)))
    return rules


def generate_with_stats(params: LinearModelParams, seed: int) -> tuple[Program, int]:
    """Generate a nonempty random program; also report the resample count.

    An empty draw is rejected and resampled from the next derived sub-seed
    (attempt a uses sub-seed mix_seed(seed, a)), so the result is distributed
    as the model conditioned on nonemptiness.
    """
    from . import _kernel  # ctypes and the build are loaded on the first draw only

    for attempt in range(_MAX_RESAMPLE):
        heads, bodies = _kernel.sample(mix_seed(seed, attempt), params)
        if heads.size:
            return Program.from_n2_arrays(params.n, heads, bodies), attempt
    raise RuntimeError(f"no nonempty program after {_MAX_RESAMPLE} resamples")


def generate(params: LinearModelParams, seed: int) -> Program:
    """Generate a nonempty random n2 program, deterministic in (params, seed)."""
    return generate_with_stats(params, seed)[0]


def _generate_bernoulli(params: LinearModelParams, seed: int) -> Program:
    """Oracle-path twin of generate(); same distribution, different stream use."""
    for attempt in range(_MAX_RESAMPLE):
        rules = _sample_rules_bernoulli(params, mix_seed(seed, attempt))
        if rules:
            return Program(params.n, rules)
    raise RuntimeError(f"no nonempty program after {_MAX_RESAMPLE} resamples")
