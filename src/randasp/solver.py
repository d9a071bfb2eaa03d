"""Exact answer-set checking and enumeration for negative two-literal programs.

For a program whose every rule is `a <- not b`, a set S is an answer set
exactly when

  1. no rule has head and body atom both outside S (head = body is allowed,
     so a contradiction rule `a <- not a` forbids a from being outside S), and
  2. every atom of S has a supporting rule `a <- not b` with b outside S.

Equivalently, the complement T = universe \\ S is a kernel of the rule
digraph.  The empty program is a program: with no rules no atom can be
supported, so its one answer set is the empty set.  `is_answer_set_n2`
checks the two conditions directly; `enumerate_answer_sets` is a DPLL-style
backtracker over IN(S)/OUT(T) atom assignments with unit propagation;
`enumerate_brute_force`, the testing oracle, scans all 2^n subsets of a
negative program (no positive body atoms, n at most the fixed `BRUTE_FORCE_CAP`).
Both return an `AnswerSetCollection` of sorted bitmasks.
`_is_n2_answer_set_mask` is the one n2 checker: `is_answer_set_n2` calls it,
and so does the backtracker's leaf handler.  It tests both conditions with a
few numpy operations over the program's `n2_arrays` and a boolean IN-vector of S.

The backtracker branches on support first: while some IN atom has no OUT
supporter yet, it branches on one of that atom's free support candidates,
OUT before IN, and only when every IN atom is supported does it fall back
to a static degree order.  Every IN atom needs some OUT supporter in an
answer set, so this prunes unsupportable IN choices as early as possible.
Backtracking is chronological: after a conflict or a leaf the deepest
decision still OUT is undone and flipped IN.

One tree, two executions.  `_Searcher` is the search in Python, and
`randasp_search` in `_search.c` is a C port of it that keeps its data and
its order of work step for step, so both walk the same tree and reach the
same leaves in the same order (tests compare masks and `_propagate`/`_apply`
call counts).  Both read the program's `n2_arrays` and build no `Rule`, and
both hand their leaves to one contract, `on_leaf(packed) -> stop`: `packed`
holds the leaf's IN atoms as a little-endian bitmask of (n + 7) // 8 bytes,
and True ends the search.  `enumerate_answer_sets` holds the one leaf
handler: it keeps a leaf only if `_is_n2_answer_set_mask` accepts it and
counts only kept leaves toward `limit`, so results do not depend on which
execution ran.

`search_path(n)` says which execution a program over n atoms gets.  The C
port runs wherever module `_kernel` can build and load the library, which
`generate` loads too for its sampler; `_kernel`'s docstring gives the build
and cache-directory policy.  The search quietly runs on `_Searcher`, which
also stays as the oracle of the port, where the kernel cannot load, where
n >= `KERNEL_MAX_N` (2^29, since queue entries are int32 `atom << 2 | value`),
and while `_Searcher._propagate` or `_apply` is wrapped: a wrapper on the
class (a profiler's, a test's, or perfbench's work counter) then sees the
search it wraps.

State is restored from per-decision copies, not unwound, so an undo is O(1)
at O(n) memory per pending decision: about two pointer words per atom in
Python (two lists, plus a set of the unsupported atoms) and about 6 bytes
per atom in C, whose layout `_search.c` gives.  On random programs the depth
stays small: at most 15 over 50 full enumerations at n=200, c1=5, and 20 at
n=1000 and 43 at n=5000 over existence searches (`limit=1`) at c1=3.  But
nothing bounds it below n/2: k disjoint two-cycles `a <- not b`,
`b <- not a` keep k decisions pending; at k=2000 an existence search peaks
at about 155 MB of RSS in Python and about 78 MB with the kernel, 48 MB of
it snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .programs import AtomSet, Program, _require_same_universe, require_integer

BRUTE_FORCE_CAP = 20  # 2^20 subsets, one uint64 array of each size

_UNASSIGNED, _IN, _OUT = 0, 1, 2
_SUPPORTED = -1  # n_free_supp of an atom with an OUT support candidate; real counts are >= 0


@dataclass(frozen=True)
class AnswerSetCollection:
    """Verified answer sets of a program over `n` atoms, as sorted bitmasks."""

    n: int
    masks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.masks)

    @property
    def sets(self) -> tuple[AtomSet, ...]:
        return tuple(AtomSet(self.n, m) for m in self.masks)


def _is_n2_answer_set_mask(heads: np.ndarray, bodies: np.ndarray, inside: np.ndarray) -> bool:
    """The two answer-set conditions for the rules `heads[i] <- not bodies[i]`.

    `inside` is the boolean IN-vector of the candidate set S over all n atoms.
    """
    fired = heads[~inside[bodies]]  # heads of the rules whose body atom is outside S
    if not inside[fired].all():
        return False  # condition 1: some head would be outside S too
    supported = np.zeros_like(inside)
    supported[fired] = True
    return not (inside & ~supported).any()  # condition 2: everything in S is supported


def _unpack(n: int, packed: bytes) -> np.ndarray:
    """The boolean IN-vector of the n-atom set whose little-endian bitmask is `packed`."""
    return np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=n, bitorder="little").view(bool)


def is_answer_set_n2(p: Program, s: AtomSet) -> bool:
    """Structural check of the two answer-set conditions over the program's arrays."""
    _require_same_universe(p.n, s)
    heads, bodies = p.n2_arrays
    return _is_n2_answer_set_mask(heads, bodies, _unpack(p.n, s.mask.to_bytes((p.n + 7) // 8, "little")))


class _Searcher:
    """Backtracking enumeration over IN/OUT atom assignments.

    Propagation rules (sound and conflict-complete for the two conditions):
      OUT(x)  forces IN(y) for every rule neighbor y of x (condition 1) and
              supports every head it feeds;
      IN(a)   consumes a as a support candidate elsewhere; an IN atom whose
              candidates are exhausted is a conflict, with one candidate left
              that candidate is forced OUT, and an unassigned atom that can
              no longer be supported is forced OUT.
    State: `state[a]` is a's value.  `n_free_supp[a]` counts a's unassigned
    bodies until one of them is OUT, and is `_SUPPORTED` (-1, below every
    count) from then on.  `unsupported` holds exactly the IN atoms not
    supported.  After a successful propagation each of them has at least
    two free candidates.  Queue entries are `atom << 2 | value`.
    Branching: a decision takes the unsupported atom with the fewest free
    candidates (lowest index on ties) and branches on its first free
    candidate; with the set empty it takes the first unassigned atom in
    degree order.  A leaf is a full assignment with the set empty.
    Search: `stack` holds (atom, snapshot) for each decision whose IN branch
    is untried, the snapshot being copies of `state`, `n_free_supp` and
    `unsupported` taken before it.  A decision pushes its pair and
    propagates OUT; a conflict or leaf pops pairs, rebinds the fields to the
    snapshot and propagates IN, until one holds or the stack is empty, so
    code must not hold a field across an undo.
    Single-use: one search per instance.
    """

    def __init__(self, p: Program):
        self.p = p
        n = p.n
        self.heads_of: list[list[int]] = [[] for _ in range(n)]  # body atom -> heads
        self.bodies_of: list[list[int]] = [[] for _ in range(n)]  # head -> body atoms
        heads, bodies = p.n2_arrays
        for head, body in zip(heads.tolist(), bodies.tolist()):
            self.heads_of[body].append(head)
            self.bodies_of[head].append(body)
        deg = [len(self.heads_of[x]) + len(self.bodies_of[x]) for x in range(n)]
        self.order = sorted(range(n), key=lambda x: (-deg[x], x))
        self.state = [_UNASSIGNED] * n
        self.n_free_supp = [len(self.bodies_of[a]) for a in range(n)]  # unassigned candidates, or _SUPPORTED
        self.unsupported: set[int] = set()  # IN atoms not supported

    # -- propagation ----------------------------------------------------------

    def _apply(self, queue, val, atom) -> bool:
        state = self.state
        st = state[atom]
        if st != _UNASSIGNED:
            return st == val
        state[atom] = val
        free = self.n_free_supp
        if val == _OUT:
            for a in self.heads_of[atom]:
                if free[a] != _SUPPORTED:
                    free[a] = _SUPPORTED
                    self.unsupported.discard(a)
                st = state[a]
                if st == _UNASSIGNED:
                    queue.append(a << 2 | _IN)
                elif st == _OUT:
                    return False
            for b in self.bodies_of[atom]:
                st = state[b]
                if st == _UNASSIGNED:
                    queue.append(b << 2 | _IN)
                elif st == _OUT:
                    return False
            return True
        bodies_of = self.bodies_of
        for h in self.heads_of[atom]:
            f = free[h]
            if f == _SUPPORTED:
                continue
            f = free[h] = f - 1
            if f > 1:
                continue
            st = state[h]
            if st == _IN:
                if f == 0:
                    return False
                queue.append(next(b for b in bodies_of[h] if state[b] == _UNASSIGNED) << 2 | _OUT)
            elif st == _UNASSIGNED and f == 0:
                queue.append(h << 2 | _OUT)  # h can never be supported
        f = free[atom]
        if f == _SUPPORTED:
            return True
        self.unsupported.add(atom)
        if f == 1:
            queue.append(next(b for b in bodies_of[atom] if state[b] == _UNASSIGNED) << 2 | _OUT)
        return f > 0  # f == 0: no candidate left, a conflict

    def _propagate(self, queue) -> bool:
        while queue:
            entry = queue.pop()
            if not self._apply(queue, entry & 3, entry >> 2):
                return False
        return True

    def _snapshot(self):
        return self.state[:], self.n_free_supp[:], set(self.unsupported)

    def _undo_to(self, snapshot) -> None:
        self.state, self.n_free_supp, self.unsupported = snapshot

    # -- search ----------------------------------------------------------------

    def _decide(self) -> int:
        """The atom to branch on, or -1 at a leaf."""
        state = self.state
        if self.unsupported:
            free = self.n_free_supp
            a = min(self.unsupported, key=lambda x: (free[x], x))
            for b in self.bodies_of[a]:
                if state[b] == _UNASSIGNED:
                    return b
        return next((x for x in self.order if state[x] == _UNASSIGNED), -1)

    def run(self, on_leaf) -> None:
        """Hand each leaf to `on_leaf(packed) -> stop`, as the kernel does, until it returns True."""
        heads, bodies = self.p.n2_arrays
        root = [x << 2 | _OUT for x in range(self.p.n) if self.n_free_supp[x] == 0]  # heads no rule: never in S
        root += [h << 2 | _IN for h in heads[heads == bodies].tolist()]  # self-loop head: never out of S
        ok = self._propagate(root)
        stack: list[tuple[int, tuple]] = []  # (decided atom, state before it): IN untried
        while True:
            if ok:
                atom = self._decide()
                if atom >= 0:
                    stack.append((atom, self._snapshot()))
                    ok = self._propagate([atom << 2 | _OUT])
                    continue
                inside = np.array(self.state, dtype=np.int8) == _IN
                if on_leaf(np.packbits(inside, bitorder="little").tobytes()):
                    return
            if not stack:  # every IN branch tried
                return
            atom, snapshot = stack.pop()
            self._undo_to(snapshot)
            ok = self._propagate([atom << 2 | _IN])


KERNEL_MAX_N = 1 << 29  # the kernel's queue entries are int32 `atom << 2 | value`

# perfbench's `count_work` counts the search's work by wrapping these two
# methods on the class, and the kernel calls neither.  So the kernel runs
# only while both are the functions defined here: under a wrapper (that one,
# a profiler's or a test's) the search runs on `_Searcher` and the wrapper
# sees the tree it wraps, which is the tree the kernel walks.  Once
# `count_work` reads the solver's own counters, this check can go.
_ORACLE_PROPAGATE, _ORACLE_APPLY = _Searcher._propagate, _Searcher._apply


def search_path(n: int) -> str:
    """"kernel" if a program over n atoms is searched by the compiled kernel, else "python"."""
    if n < KERNEL_MAX_N and _Searcher._propagate is _ORACLE_PROPAGATE and _Searcher._apply is _ORACLE_APPLY:
        from . import _kernel  # ctypes and the build are loaded on the first search only

        if _kernel.load() is not None:
            return "kernel"
    return "python"


def enumerate_answer_sets(p: Program, limit: int | None = None) -> AnswerSetCollection:
    """All answer sets of a negative two-literal program (at most `limit` if given).

    The empty program has the one answer set {}, so it yields `(0,)`.  A count
    equal to `limit` does not say whether sets were left out; to tell "exactly
    `limit`" from "more", ask for `limit + 1` and compare.
    """
    if limit is not None:
        limit = require_integer("limit", limit)
        if limit < 1:
            raise ValueError("limit must be positive")
    heads, bodies = p.n2_arrays
    masks: list[int] = []

    def on_leaf(packed: bytes) -> bool:
        if _is_n2_answer_set_mask(heads, bodies, _unpack(p.n, packed)):
            masks.append(int.from_bytes(packed, "little"))
        return limit is not None and len(masks) >= limit

    if search_path(p.n) == "kernel":
        from . import _kernel

        _kernel.search(p.n, heads, bodies, on_leaf)
    else:
        _Searcher(p).run(on_leaf)
    return AnswerSetCollection(p.n, tuple(sorted(masks)))


def enumerate_brute_force(p: Program) -> AnswerSetCollection:
    """Scan all 2^n subsets of a negative program with the reduct definition.

    Authoritative oracle for tests.  The program must be negative (no
    positive body atoms anywhere, which includes every n2 program) and have
    n <= `BRUTE_FORCE_CAP`; anything else raises ValueError.  The reduct of a
    negative program is a set of facts, so its least model is the union of
    surviving rule heads, computed for every subset at once; S is an answer
    set when that union is S.
    """
    if not p.is_negative:
        raise ValueError("brute-force enumeration requires a negative program (no positive body atoms)")
    if p.n > BRUTE_FORCE_CAP:
        raise ValueError(f"universe size {p.n} exceeds brute-force cap {BRUTE_FORCE_CAP}")
    masks = np.arange(1 << p.n, dtype=np.uint64)
    lm = np.zeros(masks.size, dtype=np.uint64)
    for r in p.rules:
        neg = np.uint64(sum(1 << c for c in r.neg_body))
        lm[(masks & neg) == np.uint64(0)] |= np.uint64(1 << r.head)
    return AnswerSetCollection(p.n, tuple(int(m) for m in masks[lm == masks]))
