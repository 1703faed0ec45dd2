"""Reachability driver: thresholds, pre-checks, and the depth search."""

from __future__ import annotations

import random

import gssynth.driver
from gssynth.cnf import CnfFormula, SolveStatus
from gssynth.driver import (
    Limits,
    Verdict,
    completeness_threshold,
    synthesize,
    trivially_unreachable,
)
from gssynth.encoding import SynthesisInstance, StepLayout, encode_bmc
from gssynth.generators import secret_sharing_demo
from gssynth.graphs import Graph, pair_count, star_graph
from gssynth.oracle import reachable_bfs
from gssynth.solvers import InProcessSolver, SolveResult

STAR4 = star_graph(4, 0, (1, 2, 3))
K4 = Graph(4, (1 << pair_count(4)) - 1)


# --- completeness threshold ----------------------------------------------------


def test_threshold_without_isolation_changes():
    info = completeness_threshold(SynthesisInstance(K4, STAR4))
    assert info.lc_bound == 6
    assert info.vd_bound == 0
    assert info.max_transitions == 6
    assert info.sound


def test_threshold_counts_newly_isolated_vertices():
    source = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    target = star_graph(5, 0, (1, 2, 3))  # vertex 4 becomes isolated
    info = completeness_threshold(SynthesisInstance(source, target))
    assert info.lc_bound == 6  # 3*(5-1)/2
    assert info.vd_bound == 1
    assert info.max_transitions == 7


def test_threshold_for_the_demo_instance():
    info = completeness_threshold(secret_sharing_demo())
    assert info.lc_bound == 9  # n=6
    assert info.vd_bound == 2  # both relay vertices end up isolated
    assert info.max_transitions == 11
    assert info.sound


def test_threshold_not_sound_with_designated_pairs():
    inst = SynthesisInstance(Graph(4), Graph(4), ((0, 1),))
    assert not completeness_threshold(inst).sound


# --- trivial pre-check ------------------------------------------------------------


def test_trivially_unreachable_detects_stuck_vertices():
    inst = SynthesisInstance(
        Graph.from_edges(3, [(0, 1)]), Graph.from_edges(3, [(0, 2)])
    )
    assert trivially_unreachable(inst) == 2


def test_trivially_unreachable_passes_ordinary_instances():
    assert trivially_unreachable(SynthesisInstance(K4, STAR4)) is None
    empty = Graph(4)
    assert trivially_unreachable(SynthesisInstance(empty, empty)) is None


# --- synthesize ---------------------------------------------------------------------


def test_synthesize_star_to_complete():
    outcome = synthesize(SynthesisInstance(STAR4, K4), InProcessSolver())
    assert outcome.verdict is Verdict.REACHABLE
    assert outcome.minimal
    assert len(outcome.witness.operations) == 1
    assert outcome.witness.operations[0].kind == "LC"
    assert outcome.witness.operations[0].arg == 0
    assert outcome.probes  # the searched depths are reported
    assert outcome.depth_explored == 7  # cap 6 operations, probed first


def test_synthesize_equal_graphs_gives_an_empty_witness():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    outcome = synthesize(SynthesisInstance(g, g), InProcessSolver())
    assert outcome.verdict is Verdict.REACHABLE
    assert outcome.minimal
    assert outcome.witness.operations == ()
    assert outcome.witness.states == (g,)


def test_synthesize_short_circuits_on_stuck_vertices():
    inst = SynthesisInstance(
        Graph.from_edges(3, [(0, 1)]), Graph.from_edges(3, [(0, 2)])
    )
    outcome = synthesize(inst, InProcessSolver())
    assert outcome.verdict is Verdict.UNREACHABLE
    assert outcome.probes == []  # no solver call needed
    assert "vertex 2" in outcome.reason


def test_synthesize_proves_unreachability_at_the_threshold():
    # two components that can never merge without designated pairs, and no
    # isolated vertex anywhere, so the trivial pre-check cannot fire
    source = Graph.from_edges(4, [(0, 1), (2, 3)])
    target = Graph.from_edges(4, [(0, 2), (1, 3)])
    inst = SynthesisInstance(source, target)
    assert trivially_unreachable(inst) is None
    assert not reachable_bfs(inst).reachable
    outcome = synthesize(inst, InProcessSolver())
    assert outcome.verdict is Verdict.UNREACHABLE
    assert "completeness threshold" in outcome.reason
    assert len(outcome.probes) == 1  # the top probe alone settles it


def test_synthesize_never_claims_unreachable_with_designated_pairs():
    # {02} is outside the small component {empty, {01}} even with EF on (0,1)
    inst = SynthesisInstance(
        Graph(3), Graph.from_edges(3, [(0, 2)]), designated=((0, 1),)
    )
    assert not reachable_bfs(inst).reachable
    outcome = synthesize(inst, InProcessSolver())
    assert outcome.verdict is Verdict.UNKNOWN
    assert "proves nothing" in outcome.reason


def test_synthesize_with_a_shallow_cap_returns_unknown():
    outcome = synthesize(
        SynthesisInstance(STAR4, K4),
        InProcessSolver(),
        Limits(max_operations=0),
    )
    assert outcome.verdict is Verdict.UNKNOWN
    assert "proves nothing" in outcome.reason


def test_synthesize_respects_the_total_budget(monkeypatch):
    encodings = []

    def counting_encode_bmc(*args):
        encodings.append(args)
        return encode_bmc(*args)

    monkeypatch.setattr(gssynth.driver, "encode_bmc", counting_encode_bmc)
    outcome = synthesize(
        SynthesisInstance(STAR4, K4),
        InProcessSolver(),
        Limits(total_seconds=0.0),
    )
    assert outcome.verdict is Verdict.UNKNOWN
    assert outcome.probes == []
    assert "budget" in outcome.reason
    assert encodings == []  # a spent budget is noticed before encoding


def test_synthesize_reports_unknown_when_the_top_probe_times_out():
    outcome = synthesize(
        SynthesisInstance(STAR4, K4),
        InProcessSolver(),
        Limits(solve_seconds=0.0),
    )
    assert outcome.verdict is Verdict.UNKNOWN
    assert outcome.witness is None


class UnknownAtDepth:
    """Delegates to the builtin solver except at one poisoned formula size."""

    name = "stub"

    def __init__(self, poisoned_vars: int) -> None:
        self.poisoned_vars = poisoned_vars
        self.inner = InProcessSolver()

    def solve(self, formula: CnfFormula, timeout=None) -> SolveResult:
        if formula.num_vars == self.poisoned_vars:
            return SolveResult(SolveStatus.UNKNOWN, None, 0.0, "stub timeout")
        return self.inner.solve(formula, timeout)


def test_synthesize_skips_unsolved_depths_and_drops_the_minimality_claim():
    # poison the two-state probe (the true minimal depth for star -> K4):
    # the verdict must survive as Reachable, only `minimal` is forfeited
    two_state_vars = StepLayout(4, 2).total_vars
    outcome = synthesize(
        SynthesisInstance(STAR4, K4), UnknownAtDepth(two_state_vars)
    )
    assert outcome.verdict is Verdict.REACHABLE
    assert not outcome.minimal
    assert "minimality not established" in outcome.reason
    assert outcome.witness is not None
    assert any(p.status is SolveStatus.UNKNOWN for p in outcome.probes)


def test_synthesize_agrees_with_the_oracle_on_random_instances():
    rng = random.Random(5)
    solver = InProcessSolver()
    for _ in range(12):
        n = 4
        source = Graph(n, rng.getrandbits(pair_count(n)))
        target = Graph(n, rng.getrandbits(pair_count(n)))
        designated = ((0, 3),) if rng.random() < 0.5 else ()
        inst = SynthesisInstance(source, target, designated)
        oracle = reachable_bfs(inst)
        # the default depth cap is only a heuristic when pairs are designated,
        # so raise it far enough to cover every shortest path at this size
        limits = Limits(max_operations=10) if designated else Limits()
        if oracle.reachable:
            assert oracle.shortest_length <= 10
        outcome = synthesize(inst, solver, limits)
        if oracle.reachable:
            assert outcome.verdict is Verdict.REACHABLE
            assert len(outcome.witness.operations) == oracle.shortest_length
            assert outcome.minimal
        elif designated:
            assert outcome.verdict is Verdict.UNKNOWN
        else:
            assert outcome.verdict is Verdict.UNREACHABLE
