"""Text format for programs.

Grammar (comments run from `%` to end of line):

    program  := (directive | rule)*
    directive:= "#universe" NUMBER "."
    rule     := atom ":-" bodylist "." | atom "."
    bodylist := bodylit ("," bodylit)*
    bodylit  := "not" atom | atom
    atom     := [a-zA-Z_][a-zA-Z0-9_]*

Atom interning: a name of the canonical form `a<index>` (no leading zeros,
as emitted by format_program) is pinned to that index; all other names are
interned in first-appearance order into the unpinned indices.  The universe
size is max(#universe declaration, highest index used + 1).  This makes
parse(format(p)) == p exact for every program, including ones with isolated
atoms.
"""

from __future__ import annotations

import re

from .programs import Program, Rule

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>      [ \t\r]+          )
    | (?P<comment> %[^\n]*           )
    | (?P<nl>      \n                )
    | (?P<arrow>   :-                )
    | (?P<dot>     \.                )
    | (?P<comma>   ,                 )
    | (?P<directive> \#[A-Za-z_]+    )
    | (?P<number>  [0-9]+            )
    | (?P<name>    [A-Za-z_][A-Za-z0-9_]* )
    """,
    re.VERBOSE,
)

_CANONICAL_NAME_RE = re.compile(r"\Aa(0|[1-9][0-9]*)\Z")


class ParseError(ValueError):
    """Syntax or well-formedness error with source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


def _tokenize(text: str):
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                yield kind, value, line, col
            col += len(value)
        pos = m.end()
    yield "eof", "", line, col


def parse_program(text: str) -> Program:
    """Parse program text; the resulting Program carries the symbol table."""
    tokens = list(_tokenize(text))
    idx = 0

    def peek():
        return tokens[idx]

    def take(kind: str, what: str):
        nonlocal idx
        tok = tokens[idx]
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1]!r}", tok[2], tok[3])
        idx += 1
        return tok

    # First pass over the token list: collect pinned canonical names so
    # later non-canonical names never collide with them.
    pinned: dict[str, int] = {}
    for kind, value, _, _ in tokens:
        if kind == "name" and value != "not":
            m = _CANONICAL_NAME_RE.match(value)
            if m:
                pinned[value] = int(m.group(1))
    taken = set(pinned.values())
    interned: dict[str, int] = {}
    next_free = 0

    def atom_index(name: str) -> int:
        nonlocal next_free
        if name in pinned:
            return pinned[name]
        if name not in interned:
            while next_free in taken:
                next_free += 1
            interned[name] = next_free
            taken.add(next_free)
        return interned[name]

    declared_n = 0
    rules: list[Rule] = []
    while True:
        kind, value, line, col = peek()
        if kind == "eof":
            break
        if kind == "directive":
            if value != "#universe":
                raise ParseError(f"unknown directive {value!r}", line, col)
            idx += 1
            num = take("number", "universe size")
            declared_n = max(declared_n, int(num[1]))
            take("dot", "'.'")
            continue
        head_tok = take("name", "rule head atom")
        if head_tok[1] == "not":
            raise ParseError("'not' cannot be a rule head", head_tok[2], head_tok[3])
        head = atom_index(head_tok[1])
        pos_body: list[int] = []
        neg_body: list[int] = []
        kind, value, line, col = peek()
        if kind == "arrow":
            idx += 1
            while True:
                lit_tok = take("name", "body literal")
                if lit_tok[1] == "not":
                    a_tok = take("name", "atom after 'not'")
                    if a_tok[1] == "not":
                        raise ParseError("'not not' is not allowed", a_tok[2], a_tok[3])
                    neg_body.append(atom_index(a_tok[1]))
                else:
                    pos_body.append(atom_index(lit_tok[1]))
                kind, value, line, col = peek()
                if kind == "comma":
                    idx += 1
                    continue
                break
        take("dot", "'.'")
        body = pos_body + neg_body
        if len(set(body)) != len(body):
            raise ParseError("duplicate body atom in rule", head_tok[2], head_tok[3])
        rules.append(Rule(head, tuple(sorted(pos_body)), tuple(sorted(neg_body))))

    n = max([declared_n] + [i + 1 for i in taken])
    names = [f"a{i}" for i in range(n)]  # a pinned name is already a<i> at index i
    for name, i in interned.items():
        names[i] = name
    return Program(n, rules, symbols=names)


def _format(p: Program, name) -> str:
    lines = [f"#universe {p.n}."]
    for r in p.rules:
        parts = [name(b) for b in r.pos_body]
        parts += [f"not {name(c)}" for c in r.neg_body]
        if parts:
            lines.append(f"{name(r.head)} :- {', '.join(parts)}.")
        else:
            lines.append(f"{name(r.head)}.")
    return "\n".join(lines) + "\n"


def format_program(p: Program) -> str:
    """Canonical text: universe header, then sorted rules, one per line, LF.

    Uses the program's symbol table when parse_program reads the text back
    as the same program with the same names on the same atoms; otherwise
    falls back to canonical `a<i>` names, so parse(format(p)) == p holds
    unconditionally.
    """
    if p.symbols is not None:
        text = _format(p, p.atom_name)
        try:
            q = parse_program(text)
        except ParseError:
            q = None
        # q == p alone would accept names permuted over a symmetric program
        if q == p and _format(q, q.atom_name) == text:
            return text
    return _format(p, lambda i: f"a{i}")
