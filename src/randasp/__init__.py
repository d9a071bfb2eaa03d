"""Random negative two-literal logic programs under answer set semantics.

Linear-model generation L(c1, c2), exact enumeration via the structural
(kernel) characterization, closed-form expectations and distribution shape,
and a reproducible experiment harness.
"""

from .experiments import (
    AvgResult,
    ConsRow,
    DistResult,
    ExperimentConfig,
    difference_rate,
    run_avg_experiment,
    run_consistency_experiment,
    run_dist_experiment,
)
from .generate import (
    LinearModelParams,
    SplitMix64,
    expected_rule_count,
    generate,
    generate_with_stats,
    mix_seed,
)
from .progio import ParseError, format_program, parse_program
from .programs import (
    AtomSet,
    Program,
    Rule,
    is_answer_set_general,
    least_model,
    pure_rule,
    reduct,
)
from .solver import (
    AnswerSetCollection,
    enumerate_answer_sets,
    enumerate_brute_force,
    is_answer_set_n2,
)
from .theory import (
    TheoryParams,
    chi,
    consistency_probability,
    expected_count_size_k,
    expected_count_size_k_exact,
    expected_total,
    limit_expected_total,
    log_prob_answer_set,
    phi,
    prob_answer_set,
    solve_alpha,
    theory_params,
)
from .translate import check_equivalence_modulo_aux, to_two_literal

__version__ = "0.1.0"

__all__ = [
    "AnswerSetCollection",
    "AtomSet",
    "AvgResult",
    "ConsRow",
    "DistResult",
    "ExperimentConfig",
    "LinearModelParams",
    "ParseError",
    "Program",
    "Rule",
    "SplitMix64",
    "TheoryParams",
    "check_equivalence_modulo_aux",
    "chi",
    "consistency_probability",
    "difference_rate",
    "enumerate_answer_sets",
    "enumerate_brute_force",
    "expected_count_size_k",
    "expected_count_size_k_exact",
    "expected_rule_count",
    "expected_total",
    "format_program",
    "generate",
    "generate_with_stats",
    "is_answer_set_general",
    "is_answer_set_n2",
    "least_model",
    "limit_expected_total",
    "log_prob_answer_set",
    "mix_seed",
    "parse_program",
    "phi",
    "prob_answer_set",
    "pure_rule",
    "reduct",
    "run_avg_experiment",
    "run_consistency_experiment",
    "run_dist_experiment",
    "solve_alpha",
    "theory_params",
    "to_two_literal",
]
