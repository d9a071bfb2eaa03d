"""Rewrite negative normal programs into equivalent negative two-literal form.

An input rule R: `a <- not c_1, ..., not c_t` (t >= 0) becomes `a <- not e_R`
for a fresh atom e_R, and each positive helper `e_R <- c_i` is immediately
unfolded against the rules defining c_i: it becomes `e_R <- not e_R'` for
every input rule R' with head c_i, and is dropped when c_i heads nothing
(c_i can never hold).  One unfolding pass suffices because fresh atoms never
occur in the helper bodies.  Facts (t = 0) need no helpers: their e_R has no
defining rule, so `a <- not e_R` always fires.

Aux numbering: the output keeps the input's atoms 0..n-1 and appends one
fresh atom per input rule, e_R = n + i for rule i, so its universe is
n + len(rules) and the aux atoms are exactly n .. n + len(rules) - 1.
The output keeps the input's atom names and names e_R `_e<i>`, prefixed
with `_` until the name is unused.
Equivalence is modulo the fresh atoms: answer sets of input and output
correspond one-to-one after deleting them.
"""

from __future__ import annotations

from .programs import Program, Rule
from .solver import enumerate_brute_force


def to_two_literal(p: Program) -> Program:
    """Translate a negative normal program into negative two-literal form.

    The result has p.n + len(p.rules) atoms; aux atom p.n + i belongs to rule i.
    """
    if not p.is_negative:
        raise ValueError(
            "input must be a negative normal program (no positive body atoms); "
            "reducing general normal programs is out of scope"
        )
    n = p.n
    rules_by_head: dict[int, list[int]] = {}
    for i, r in enumerate(p.rules):
        rules_by_head.setdefault(r.head, []).append(i)

    out: set[Rule] = set()
    for i, r in enumerate(p.rules):
        e_i = n + i
        out.add(Rule(r.head, (), (e_i,)))
        for c in r.neg_body:
            # unfold e_i <- c against the definitions of c
            for j in rules_by_head.get(c, ()):
                out.add(Rule(e_i, (), (n + j,)))
    names = [p.atom_name(a) for a in range(n)]
    used = set(names)
    for i in range(len(p.rules)):
        name = f"_e{i}"
        while name in used:
            name = "_" + name
        used.add(name)
        names.append(name)
    return Program(n + len(p.rules), out, symbols=names)


def check_equivalence_modulo_aux(p: Program, p2: Program) -> bool:
    """Answer sets of p and p2 correspond one-to-one after deleting aux atoms.

    The aux atoms are p2's atoms p.n .. p2.n-1, as `to_two_literal` numbers
    them, so p2 must not have fewer atoms than p.  Both directions are
    required: every answer set of p must extend to one of p2, and every
    answer set of p2 must project into AS(p).  The extension must also be
    unique: no two answer sets of p2 may share a projection.  Brute-force on
    both sides, so both programs must be negative and fit under the cap.
    """
    if p2.n < p.n:
        raise ValueError(f"extended universe of {p2.n} atoms is smaller than the original {p.n}")
    as_p2 = enumerate_brute_force(p2).masks
    projected = {m & ((1 << p.n) - 1) for m in as_p2}  # keep atoms 0 .. p.n-1
    return len(projected) == len(as_p2) and projected == set(enumerate_brute_force(p).masks)
