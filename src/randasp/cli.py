"""Command-line surface: gen, solve, theory, translate, experiment."""

from __future__ import annotations

import argparse
import functools
import sys

from . import csvout
from .experiments import (
    ExperimentConfig,
    run_avg_experiment,
    run_consistency_experiment,
    run_dist_experiment,
)
from .generate import LinearModelParams, expected_rule_count, generate, require_sampleable
from .progio import ParseError, format_program, parse_program
from .programs import AtomSet, is_answer_set_general
from .solver import enumerate_answer_sets, is_answer_set_n2
from .theory import expected_total, theory_params
from .translate import check_equivalence_modulo_aux, to_two_literal


def _u64(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _comma_list(kind, text: str) -> tuple:
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated {kind.__name__} list: {text!r}") from exc


# experiment kind -> (sweep, CSV writer of its result)
_EXPERIMENTS = {
    "avg": (run_avg_experiment, csvout.write_avg_csv),
    "dist": (run_dist_experiment, csvout.write_dist_csv),
    "consistency": (run_consistency_experiment, csvout.write_consistency_csv),
}

_PAPER_SWEEPS = """\
paper sweeps (add --workers to use more cores):
  avg_sweep: mean count over n; bump --trials to 5000 for full scale
    randasp experiment avg --n 50,100,150,200,250,300,350,400,450,500 --c1 5 --c2 0 --trials 1000 --seed 20240901 --out avg_sweep.csv
  c2_sweep: mean count as c2 varies; should track limit_expected_total(c1, c2)
    randasp experiment avg --n 200 --c1 10 --c2 0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20 --trials 1000 --seed 20240903 --out c2_sweep.csv
  consistency_sweep: consistency ratio over n; try --c1 4 --c2 4 for the variant with contradictions
    (at --c1 4 --c2 4 the n=1000 row takes about 14 s at --trials 20, so about 11 min at 1000;
    about 14x that where no C compiler builds the search kernel)
    randasp experiment consistency --n 100,200,300,400,500,600,700,800,900,1000 --c1 3 --c2 0 --trials 1000 --seed 20240904 --out consistency_sweep.csv
  dist_curves: size-distribution curves; try --n 200 --c1 10 --c2 4 for the contradiction-rule variant
    randasp experiment dist --n 50 --c1 5 --c2 0 --trials 1000 --seed 20240902 --out dist_curves.csv
"""


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="randasp",
        description="Random negative two-literal logic programs: generation, solving, theory, experiments.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random program")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--c1", type=float, required=True)
    gen.add_argument("--c2", type=float, required=True)
    gen.add_argument("--seed", type=_u64, required=True)
    gen.add_argument("--out", default=None, help="output file (default: stdout)")
    gen.set_defaults(handler=_cmd_gen)

    solve = sub.add_parser("solve", help="enumerate, count or check answer sets")
    solve.add_argument("--in", dest="infile", required=True)
    mode = solve.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--check", metavar="ATOMS", default=None, help='candidate set, e.g. "a,b,c" (empty string for {})')
    mode.add_argument("--limit", type=int, default=None, help="enumerate at most this many answer sets")
    solve.set_defaults(handler=_cmd_solve)

    theory = sub.add_parser("theory", help="print distribution parameters and expectations")
    theory.add_argument("--n", type=int, required=True)
    theory.add_argument("--c1", type=float, required=True)
    theory.add_argument("--c2", type=float, required=True)
    theory.add_argument("--curve", default=None, help="write per-size curve CSV to this file")
    theory.set_defaults(handler=_cmd_theory)

    translate = sub.add_parser("translate", help="negative normal -> negative two-literal")
    translate.add_argument("--in", dest="infile", required=True)
    translate.add_argument("--out", required=True)
    translate.add_argument("--verify", action="store_true")
    translate.set_defaults(handler=_cmd_translate)

    exp = sub.add_parser(
        "experiment",
        help="batch experiment runs writing CSV",
        epilog=_PAPER_SWEEPS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    exp.add_argument("kind", choices=_EXPERIMENTS)
    exp.add_argument("--n", type=functools.partial(_comma_list, int), required=True, help="comma-separated universe sizes")
    exp.add_argument("--c1", type=functools.partial(_comma_list, float), required=True, help="comma-separated values")
    exp.add_argument("--c2", type=functools.partial(_comma_list, float), required=True, help="comma-separated values")
    exp.add_argument("--trials", type=int, required=True)
    exp.add_argument("--seed", type=_u64, required=True)
    exp.add_argument("--workers", type=int, default=1)
    exp.add_argument("--out", required=True)
    exp.set_defaults(handler=_cmd_experiment)
    return top


def _cmd_gen(args) -> int:
    params = LinearModelParams(args.n, args.c1, args.c2)
    require_sampleable(params)
    text = format_program(generate(params, args.seed))
    if args.out:
        with open(args.out, "w", newline="", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_check_atoms(text: str, program) -> AtomSet:
    by_name = {program.atom_name(i): i for i in range(program.n)}
    atoms = []
    for raw in text.split(","):
        name = raw.strip()
        if not name:
            continue
        if name not in by_name:
            raise ValueError(f"unknown atom {name!r} (universe: {', '.join(sorted(by_name))})")
        atoms.append(by_name[name])
    return AtomSet.from_atoms(program.n, atoms)


def _cmd_solve(args) -> int:
    with open(args.infile, encoding="ascii") as fh:
        program = parse_program(fh.read())
    if args.check is not None:
        s = _parse_check_atoms(args.check, program)
        if program.is_n2:
            print(f"n2: {'true' if is_answer_set_n2(program, s) else 'false'}")
        else:
            print("n2: not-applicable")
        print(f"general: {'true' if is_answer_set_general(program, s) else 'false'}")
        return 0
    if args.count:
        print(enumerate_answer_sets(program).count)
        return 0
    limit = args.limit
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    # one set past the limit tells "exactly limit sets" from "sets left out"
    col = enumerate_answer_sets(program, limit=None if limit is None else limit + 1)
    for s in col.sets[:limit]:
        print(",".join(program.atom_name(i) for i in s.members))
    if limit is not None and col.count > limit:
        print(f"enumeration truncated at {limit} answer sets", file=sys.stderr)
    return 0


def _cmd_theory(args) -> int:
    tp = theory_params(args.n, args.c1, args.c2)
    n, c1, c2 = tp.n, tp.c1, tp.c2
    report = [
        ("alpha", tp.alpha),
        ("x0", tp.x0),
        ("sigma", tp.sigma),
        ("c0", tp.c0),
        ("delta", tp.delta),
        ("phi_x0_direct", tp.phi_x0_direct),
        ("phi_x0_asymptotic", tp.phi_x0_asymptotic),
        ("expected_total", expected_total(n, c1, c2)),
        ("limit_expected_total", tp.limit_expected_total),
        ("expected_rule_count", expected_rule_count(LinearModelParams(n, c1, c2))),
    ]
    for key, value in report:
        print(f"{key}={value!r}")
    if args.curve:
        csvout.write_theory_curve_csv(args.curve, n, c1, c2)
    return 0


def _cmd_translate(args) -> int:
    with open(args.infile, encoding="ascii") as fh:
        program = parse_program(fh.read())
    translated = to_two_literal(program)
    with open(args.out, "w", newline="", encoding="ascii") as fh:
        fh.write(format_program(translated))
    if args.verify:
        ok = check_equivalence_modulo_aux(program, translated)
        print(f"verified: {'true' if ok else 'false'}")
        if not ok:
            return 1
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        n=args.n,
        c1=args.c1,
        c2=args.c2,
        trials=args.trials,
        seed=args.seed,
    )
    run, write = _EXPERIMENTS[args.kind]
    write(args.out, run(cfg, workers=args.workers, progress=True), cfg.seed)
    return 0


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, ParseError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
