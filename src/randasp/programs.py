"""Propositional normal logic programs and reduct-based answer set semantics.

Atoms are dense integer indices in [0, n).  A rule is

    head <- pos_body[0], ..., not neg_body[0], ...

with all body atoms pairwise distinct.  A program is a set of rules over a
fixed universe size n; an interpretation is a subset of [0, n) held as a
bitmask.  The trusted reference semantics is the definition itself:
`is_answer_set_general(p, s)` is `least_model(reduct(p, s)) == s`, and
`least_model` iterates the immediate-consequence operator T_P from the empty
set until a pass derives nothing new.  The empty program is a program; its
one answer set is the empty set.

A negative two-literal (n2) program, every rule `head <- not body`, has a
second form: its deduplicated, canonically sorted heads and bodies as two
read-only int32 arrays, `Program.n2_arrays`.  Those arrays are canonical
for a generated program (`Program.from_n2_arrays` builds nothing else), and
its `rules` tuple is derived from them only when something reads it: the
searchers and the n2 checker in `solver` read the arrays alone, while
`progio`, `translate`, `reduct` and the reference checkers read `rules`.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import repeat
from typing import Iterable, NamedTuple

import numpy as np


class Rule(NamedTuple):
    """One rule. Bodies are sorted tuples of atom indices (canonical form)."""

    head: int
    pos_body: tuple[int, ...] = ()
    neg_body: tuple[int, ...] = ()

    @property
    def is_n2(self) -> bool:
        """True for the negative two-literal form `a <- not b`."""
        return not self.pos_body and len(self.neg_body) == 1


def require_integer(name: str, value) -> int:
    """The one integer rule: `value` as a Python int; numpy integers pass, a bool, 10.5 or 10.0 raises ValueError.

    Callers keep the returned int: a numpy integer kept as is overflows
    (`1 << np.int64(100)` is 0) and formats like a float in the CSV columns.
    """
    if not isinstance(value, bool):  # operator.index(True) is 1
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> float:
    """The one real-number rule: `value` as a Python float; a bool or a non-number raises ValueError.

    Callers keep the returned float, so an int and a float rate write the same CSV bytes.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _require_universe(n) -> int:
    """A universe size as a Python int; a non-integer or a negative size raises ValueError."""
    n = require_integer("n", n)
    if n < 0:
        raise ValueError("universe size must be non-negative")
    return n


def _require_atom(n: int, a) -> int:
    """An atom as a Python int in [0, n); a bool, a float or an atom outside the universe raises ValueError."""
    a = require_integer("atom", a)
    if not 0 <= a < n:
        raise ValueError(f"atom {a} out of universe [0, {n})")
    return a


def pure_rule(head: int, body: int) -> Rule:
    """`head <- not body` (head == body yields a contradiction rule)."""
    return Rule(head, (), (body,))


N2_MAX_N = (1 << 31) - 1  # n2 arrays are int32, and the sort key h * n + b stays exact in int64


class Program:
    """A finite set of rules over atoms 0..n-1 (set semantics, deduplicated, immutable).

    An n2 program built by `from_n2_arrays` is held as `n2_arrays`: the
    heads and bodies of its rules `head <- not body` as read-only int32
    arrays, deduplicated and sorted into canonical (head, body) order.
    Those arrays are what the searchers and the answer-set checker read;
    `rules`, the canonically sorted tuple of `Rule`s, is derived from them
    on first read.  A program built by `Program(n, rules)` holds its
    canonical `rules`, and derives `n2_arrays` from them on first use.
    Either way `rules` fixes iteration order, equality, hash, repr and
    serialization, so the two constructions of one rule set are
    indistinguishable.  `symbols`, when present, maps atom index -> display
    name for parsed files; it never participates in equality.
    """

    n: int
    symbols: tuple[str, ...] | None

    def __init__(self, n: int, rules: Iterable[Rule] = (), symbols=None):
        n = _require_universe(n)
        atom = partial(_require_atom, n)
        canon = []
        for r in sorted(set(rules)):
            r = Rule(atom(r.head), tuple(map(atom, r.pos_body)), tuple(map(atom, r.neg_body)))
            body = r.pos_body + r.neg_body
            if len(set(body)) != len(body):
                raise ValueError(f"body atoms must be pairwise distinct in {r}")
            if tuple(sorted(r.pos_body)) != r.pos_body or tuple(sorted(r.neg_body)) != r.neg_body:
                raise ValueError(f"rule bodies must be sorted: {r}")
            canon.append(r)
        self.__dict__.update(n=n, rules=tuple(canon), symbols=tuple(symbols) if symbols is not None else None)

    @classmethod
    def from_n2_arrays(cls, n: int, heads, bodies) -> "Program":
        """Program(n, [Rule(h, (), (b,)) for h, b in zip(heads, bodies)]), checked and kept as arrays.

        Every atom is range-checked, then the pairs are sorted by the int64
        key h * n + b and deduplicated, so no per-rule Python code runs and
        no `Rule` is built.  Input whose keys already strictly increase
        (canonical, as every draw of the sampler is) skips the sort and is
        copied as it is.  Either way the program holds fresh arrays, and the
        caller's are neither kept nor frozen.  n must be below 2^31, where
        the key is exact.
        """
        n = _require_universe(n)
        if n > N2_MAX_N:
            raise ValueError(f"n2 arrays hold at most {N2_MAX_N} atoms, got n={n}")
        h, b = np.asarray(heads), np.asarray(bodies)
        if h.ndim != 1 or h.shape != b.shape:
            raise ValueError(f"heads and bodies must be 1-D arrays of one length: {h.shape} vs {b.shape}")
        if h.size:
            for atoms in (h, b):
                if atoms.dtype.kind not in "iu":
                    raise ValueError(f"atoms must be integers, got dtype {atoms.dtype}")
                if not (0 <= atoms.min() and atoms.max() < n):
                    bad = atoms[(atoms < 0) | (atoms >= n)][0]
                    raise ValueError(f"atom {bad} out of universe [0, {n})")
        # every atom is in [0, n), so int64 holds it whatever the input dtype,
        # and a uint64/int64 mix cannot promote the key to float64
        key = h.astype(np.int64) * n + b.astype(np.int64)
        if np.all(key[1:] > key[:-1]):  # sorted, no repeats: canonical already
            arrays = _frozen_int32(h, b)
        else:
            key.sort(kind="stable")
            key = key[np.concatenate(([True], key[1:] != key[:-1]))]
            arrays = _frozen_int32(*np.divmod(key, max(n, 1)))
        self = object.__new__(cls)
        self.__dict__.update(n=n, symbols=None, is_n2=True, n2_arrays=arrays)
        return self

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        """The canonically sorted rules; derived here only for a program built by `from_n2_arrays`."""
        heads, bodies = (a.tolist() for a in self.n2_arrays)
        # tuple.__new__ builds the same Rule(h, (), (b,)) as Rule.__new__, without
        # its Python-level call; zip(bodies) yields the one-atom negative bodies
        return tuple(map(tuple.__new__, repeat(Rule), zip(heads, repeat(()), zip(bodies))))

    @cached_property
    def is_n2(self) -> bool:
        return all(r.is_n2 for r in self.rules)

    @cached_property
    def n2_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(heads, bodies) of the rules `head <- not body` as read-only int32 arrays, in rule order."""
        if not self.is_n2:
            raise ValueError("program is not negative two-literal")
        if self.n > N2_MAX_N:
            raise ValueError(f"n2 arrays hold at most {N2_MAX_N} atoms, got n={self.n}")
        return _frozen_int32([r.head for r in self.rules], [r.neg_body[0] for r in self.rules])

    @property
    def is_positive(self) -> bool:
        return all(not r.neg_body for r in self.rules)

    @property
    def is_negative(self) -> bool:
        return self.is_n2 or all(not r.pos_body for r in self.rules)

    def __len__(self) -> int:
        rules = self.__dict__.get("rules")
        return len(rules) if rules is not None else len(self.n2_arrays[0])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.rules) == (other.n, other.rules)

    def __hash__(self) -> int:
        return hash((self.n, self.rules))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(n={self.n!r}, rules={self.rules!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Program is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: Program is immutable")

    def __reduce__(self):
        if "n2_arrays" in self.__dict__ and self.symbols is None:
            return Program.from_n2_arrays, (self.n, *self.n2_arrays)
        return Program, (self.n, self.rules, self.symbols)

    def atom_name(self, i: int) -> str:
        if self.symbols is not None and i < len(self.symbols):
            return self.symbols[i]
        return f"a{i}"


def _frozen_int32(heads, bodies) -> tuple[np.ndarray, np.ndarray]:
    """heads and bodies copied into fresh read-only int32 arrays (atoms below 2^31)."""
    arrays = np.array(heads, dtype=np.int32), np.array(bodies, dtype=np.int32)
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class AtomSet:
    """A subset of the atom universe [0, n), bitmask representation."""

    n: int
    mask: int

    def __post_init__(self):
        object.__setattr__(self, "n", _require_universe(self.n))
        object.__setattr__(self, "mask", require_integer("mask", self.mask))
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#x} outside universe of size {self.n}")

    @classmethod
    def from_atoms(cls, n: int, atoms: Iterable[int]) -> "AtomSet":
        m = 0
        for a in atoms:
            m |= 1 << _require_atom(n, a)
        return cls(n, m)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.mask >> i) & 1)

    def __repr__(self) -> str:
        return f"AtomSet(n={self.n}, {{{','.join(map(str, self.members))}}})"


def _require_same_universe(p_n: int, s: AtomSet) -> None:
    if s.n != p_n:
        raise ValueError(f"universe-size mismatch: program n={p_n}, set n={s.n}")


def reduct(p: Program, s: AtomSet) -> Program:
    """Delete rules whose negative body meets s, strip negation from the rest."""
    _require_same_universe(p.n, s)
    kept = []
    for r in p.rules:
        if any((s.mask >> c) & 1 for c in r.neg_body):
            continue
        kept.append(Rule(r.head, r.pos_body, ()))
    return Program(p.n, kept)


def least_model(p: Program) -> AtomSet:
    """Least model of a positive program: T_P iterated from the empty set to its fixpoint.

    T_P(I) is the set of heads of the rules whose positive body lies in I.
    """
    if not p.is_positive:
        raise ValueError("least_model requires a positive program")
    model, previous = 0, -1
    while model != previous:
        previous = model
        fired = (r.head for r in p.rules if all(previous >> b & 1 for b in r.pos_body))
        model = reduce(operator.or_, (1 << h for h in fired), 0)
    return AtomSet(p.n, model)


def is_answer_set_general(p: Program, s: AtomSet) -> bool:
    """Reference check: s is an answer set iff s is the least model of the reduct."""
    return least_model(reduct(p, s)) == s
