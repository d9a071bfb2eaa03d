"""Shared hypothesis strategies for random programs, the search kernel's cache fixture, the definition of a sweep trial, and a program-identity check."""

import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import strategies as st

from randasp import _kernel
from randasp.generate import LinearModelParams, generate_with_stats, mix_seed
from randasp.programs import Program, Rule
from randasp.solver import enumerate_answer_sets

# At collection, so the kernel is compiled (or loaded from its cache) once,
# before any hypothesis example is timed.  Without a C compiler this raises,
# naming the compiler, and no test runs.
_kernel.load()


def python_chunk(args):
    """What `experiments._count_chunk(args)` returns, by definition: each trial drawn and searched in Python steps.

    Trial t's program comes from `generate_with_stats`, with its resamples,
    and its answer sets, up to `limit`, from `enumerate_answer_sets`; the
    sums are the count, its square, the resamples and the sets' histogram
    by size.
    """
    n, c1, c2, seed, start, end, limit = args
    params, sums = LinearModelParams(n, c1, c2), [0] * (n + 4)
    for t in range(start, end):
        prog, attempts = generate_with_stats(params, mix_seed(seed, t))
        masks = enumerate_answer_sets(prog, limit).masks
        sums[0] += len(masks)
        sums[1] += len(masks) * len(masks)
        sums[2] += attempts
        for m in masks:
            sums[3 + m.bit_count()] += 1
    return tuple(sums)


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """A missing home and cache root, an empty temp dir, and a `_kernel.load` that has not run yet."""
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    _kernel.load.cache_clear()
    yield tmp_path
    _kernel.load.cache_clear()


def assert_n2_arrays_sorted(p: Program) -> None:
    """p's `n2_arrays` strictly increase in (head, body), the order the search kernel reads `bodies` in."""
    heads, bodies = p.n2_arrays
    assert np.all((heads[1:] > heads[:-1]) | ((heads[1:] == heads[:-1]) & (bodies[1:] > bodies[:-1])))


def assert_same_program(a: Program, b: Program) -> None:
    """a and b are one program: equal both ways, one hash and repr, one set and dict key, through pickle too.

    An n2 program's arrays are also checked to be sorted, before and after pickling.
    """
    assert a == b and b == a and not a != b
    assert hash(a) == hash(b) and repr(a) == repr(b)
    assert len({a, b}) == 1 and {a: "a"}[b] == "a"
    for p in (a, b):
        q = pickle.loads(pickle.dumps(p))
        assert type(q) is Program and q == a and a == q and hash(q) == hash(a) and repr(q) == repr(a)
        if p.is_n2:
            assert_n2_arrays_sorted(p)
            assert_n2_arrays_sorted(q)
    if a.is_n2:
        for x, y in zip(a.n2_arrays, b.n2_arrays):
            assert x.dtype == y.dtype == np.int32 and not x.flags.writeable and not y.flags.writeable
            assert np.array_equal(x, y)


@st.composite
def n2_programs(draw, min_n=1, max_n=8):
    """Random negative two-literal programs, the empty program included."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if n == 0:
        return Program(0, [])
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=0,
            max_size=2 * n,
        )
    )
    return Program(n, [Rule(a, (), (b,)) for a, b in pairs])


@st.composite
def negative_programs(draw, min_n=1, max_n=7, max_body=3):
    """Random negative normal programs (neg bodies of size 0..max_body)."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    n_rules = draw(st.integers(min_value=0, max_value=2 * n))
    rules = []
    for _ in range(n_rules):
        head = draw(st.integers(0, n - 1))
        body = draw(st.sets(st.integers(0, n - 1), max_size=min(max_body, n)))
        rules.append(Rule(head, (), tuple(sorted(body))))
    return Program(n, rules)


@st.composite
def positive_programs(draw, min_n=1, max_n=7, max_body=3):
    """Random positive programs for least-model properties."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    n_rules = draw(st.integers(min_value=0, max_value=2 * n))
    rules = []
    for _ in range(n_rules):
        head = draw(st.integers(0, n - 1))
        body = draw(st.sets(st.integers(0, n - 1), max_size=min(max_body, n)))
        rules.append(Rule(head, tuple(sorted(body)), ()))
    return Program(n, rules)


@st.composite
def general_programs(draw, min_n=1, max_n=6, max_body=2):
    """Random normal programs mixing positive and negative body atoms."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    n_rules = draw(st.integers(min_value=0, max_value=2 * n))
    rules = []
    for _ in range(n_rules):
        head = draw(st.integers(0, n - 1))
        body = draw(st.sets(st.integers(0, n - 1), max_size=min(2 * max_body, n)))
        body = sorted(body)
        split = draw(st.integers(0, len(body)))
        rules.append(Rule(head, tuple(body[:split]), tuple(body[split:])))
    return Program(n, rules)
