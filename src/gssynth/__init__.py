"""Synthesis of transformations between graph states via SAT.

The package decides whether a source graph state can be turned into a target
graph state with local complementations, vertex deletions, and designated
edge flips, by encoding bounded reachability into CNF.  Every positive answer
is decoded into an operation sequence and replayed against the plain graph
semantics before being reported.
"""

from .cnf import Assignment, Clause, CnfFormula, Literal, SolveStatus, parse_model, write_dimacs
from .driver import (
    EncodingSoundnessError,
    Limits,
    SynthesisOutcome,
    ThresholdInfo,
    Verdict,
    completeness_threshold,
    synthesize,
    trivially_unreachable,
)
from .encoding import (
    StepLayout,
    TransitionBound,
    clause_bound,
    encode_bmc,
    encode_transition,
    selector_bits,
)
from .generators import (
    NetworkTopology,
    builtin_network_14,
    erdos_renyi,
    ghz_target,
    network_graph,
    random_D,
    read_instance,
    secret_sharing_demo,
    write_instance,
)
from .graphs import (
    Graph,
    Operation,
    SynthesisInstance,
    apply_operation,
    delete_vertex_edges,
    flip_edge,
    isolated_vertices,
    local_complement,
    neighborhood,
    star_graph,
)
from .oracle import ReachabilityResult, StateCapExceeded, reachable_bfs, reachable_set
from .solvers import ExternalSolver, InProcessSolver, SolveResult, SolverBackend, resolve_backend
from .witness import Witness, decode, replay_verify, witness_to_text

__version__ = "0.1.0"
