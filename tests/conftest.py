"""Shared hypothesis strategies for random programs."""

from hypothesis import strategies as st

from randasp.programs import Program, Rule


@st.composite
def n2_programs(draw, min_n=1, max_n=8):
    """Random negative two-literal programs, the empty program included."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
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
