"""seprat: compile 3SAT into priced consumption data and test separability.

The pipeline has three stages: an exact-rational reduction that turns a
3SAT formula into a dataset of priced bundles, a revealed-preference core
that builds the evaluation grid and preference graph, and deciders that
search for an ordering witness of separable rationalizability.
"""

__version__ = "0.1.0"

from .numerics import (  # noqa: F401
    DimensionMismatch,
    RationalFormatError,
    dominates,
    dot,
    format_rational,
    parse_rational,
    rvector,
)
from .cnf import (  # noqa: F401
    Clause,
    CnfFormula,
    DimacsError,
    FormulaError,
    brute_force_sat,
    evaluate,
    parse_dimacs,
    random_formula,
)
from .satcore import (  # noqa: F401
    BudgetExhausted,
    SatInstance,
    SatResult,
    Solver,
    solve,
)
from .reduction import (  # noqa: F401
    BasePoints,
    ClauseGadget,
    ConstructionError,
    Dataset,
    DatasetError,
    GadgetConstants,
    base_points,
    build_clause_gadget,
    compute_epsilon_M,
    dataset_from_json,
    dataset_to_json,
    reduce_formula,
)
from .rpcore import (  # noqa: F401
    Grid,
    GridError,
    GridPoint,
    RevealedGraph,
    build_grid,
    garp_check,
    revealed_relation,
    to_dot,
    topological_order,
)
from .septest import (  # noqa: F401
    GuardExceeded,
    SeparabilityWitness,
    TestVerdict,
    WitnessConstructionError,
    decide,
    decide_bruteforce,
    decide_cegar,
    truth_assignment_to_witness,
    verify_witness,
    witness_from_json,
    witness_to_json,
)
