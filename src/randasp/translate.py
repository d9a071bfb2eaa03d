"""Rewrite negative normal programs into equivalent negative two-literal form.

An input rule R: `a <- not c_1, ..., not c_t` (t >= 0) becomes `a <- not e_R`
for a fresh atom e_R, and each positive helper `e_R <- c_i` is immediately
unfolded against the rules defining c_i: it becomes `e_R <- not e_R'` for
every input rule R' with head c_i, and is dropped when c_i heads nothing
(c_i can never hold).  One unfolding pass suffices because fresh atoms never
occur in the helper bodies.  Facts (t = 0) need no helpers: their e_R has no
defining rule, so `a <- not e_R` always fires.

Equivalence is modulo the fresh atoms: answer sets of input and output
correspond one-to-one after deleting the aux atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .programs import Program, Rule
from .solver import enumerate_brute_force


@dataclass(frozen=True)
class TranslationResult:
    """n2 output over n + len(aux) atoms; aux atom index -> source rule."""

    output: Program
    aux: frozenset[int]
    origin_map: dict[int, Rule]


def to_two_literal(p: Program) -> TranslationResult:
    """Translate a negative normal program into negative two-literal form."""
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
    origin: dict[int, Rule] = {}
    for i, r in enumerate(p.rules):
        e_i = n + i
        origin[e_i] = r
        out.add(Rule(r.head, (), (e_i,)))
        for c in r.neg_body:
            # unfold e_i <- c against the definitions of c
            for j in rules_by_head.get(c, ()):
                out.add(Rule(e_i, (), (n + j,)))
    output = Program(n + len(p.rules), out)
    return TranslationResult(
        output=output,
        aux=frozenset(range(n, n + len(p.rules))),
        origin_map=origin,
    )


def check_equivalence_modulo_aux(p: Program, p2: Program, aux) -> bool:
    """Answer sets of p and p2 correspond one-to-one after deleting aux atoms.

    Both directions are required: every answer set of p must extend to one of
    p2, and every answer set of p2 must project into AS(p).  The extension
    must also be unique: no two answer sets of p2 may share a projection.
    Brute-force on both sides, so both universes must fit under the cap.
    """
    aux_mask = 0
    for a in aux:
        if not 0 <= a < p2.n:
            raise ValueError(f"aux atom {a} outside the extended universe [0, {p2.n})")
        aux_mask |= 1 << a
    as_p2 = enumerate_brute_force(p2).masks
    projected = {m & ~aux_mask for m in as_p2}
    return len(projected) == len(as_p2) and projected == set(enumerate_brute_force(p).masks)


def verify_translation(p: Program, result: TranslationResult) -> bool:
    return check_equivalence_modulo_aux(p, result.output, result.aux)
