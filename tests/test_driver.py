"""Reachability driver: thresholds, pre-checks, and the depth search."""

from __future__ import annotations

import itertools
import random

import pytest

import gssynth.driver
from gssynth.cnf import Query, QueryBase, SolveStatus
from gssynth.driver import (
    EncodingSoundnessError,
    Limits,
    Verdict,
    completeness_threshold,
    synthesize,
    trivially_unreachable,
)
from gssynth.encoding import SynthesisInstance, StepLayout, encode_bmc
from gssynth.generators import secret_sharing_demo
from gssynth.graphs import LC, Graph, Operation, pair_count, pairs, star_graph
from gssynth.oracle import reachable_bfs
from gssynth.solvers import InProcessSolver, SolveResult
from gssynth.witness import Witness

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
    assert outcome.probes[0].num_states == 7  # cap 6 operations, probed first


def test_the_first_probe_is_the_top_only_where_its_unsat_is_a_proof():
    # D empty at the threshold: UNSAT at the top depth settles the instance
    outcome = synthesize(SynthesisInstance(STAR4, K4), InProcessSolver())
    assert outcome.probes[0].num_states == 7
    # with designated pairs, UNSAT at the top proves nothing: bisect [1, 9]
    inst = SynthesisInstance(STAR4, K4, designated=((1, 2),))
    outcome = synthesize(inst, InProcessSolver(), Limits(max_operations=8))
    assert outcome.probes[0].num_states == 5
    assert outcome.minimal and len(outcome.witness.operations) == 1
    # a cap below the threshold is no proof either: bisect [1, 4]
    outcome = synthesize(SynthesisInstance(STAR4, K4), InProcessSolver(), Limits(max_operations=3))
    assert outcome.probes[0].num_states == 2
    assert outcome.minimal and len(outcome.witness.operations) == 1


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
    assert outcome.reason == "unsatisfiable up to 3 operations, which proves nothing here"
    # bisection from the midpoint climbs to the top before giving up
    assert [p.num_states for p in outcome.probes] == [2, 3, 4]


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


def test_synthesize_encodes_only_the_top_depth(monkeypatch):
    encodings = []

    def counting_encode_bmc(*args):
        encodings.append(args)
        return encode_bmc(*args)

    monkeypatch.setattr(gssynth.driver, "encode_bmc", counting_encode_bmc)
    inst = SynthesisInstance(STAR4, K4)
    outcome = synthesize(inst, InProcessSolver())
    assert outcome.minimal and len(outcome.witness.operations) == 1
    assert len(outcome.probes) > 1
    assert encodings == [(inst, 7)]  # cap 6 operations, so 7 states
    # every probe is the top formula under its own assumptions
    assert {(p.num_vars, p.num_clauses) for p in outcome.probes} == {
        (StepLayout(4, 7).total_vars, len(encode_bmc(inst, 7)[0].clauses))
    }


def test_synthesize_reports_unknown_when_the_top_probe_times_out():
    outcome = synthesize(
        SynthesisInstance(STAR4, K4),
        InProcessSolver(),
        Limits(solve_seconds=0.0),
    )
    assert outcome.verdict is Verdict.UNKNOWN
    assert outcome.witness is None


@pytest.mark.parametrize(
    "field, value",
    [
        ("solve_seconds", float("nan")),
        ("solve_seconds", -1.0),
        ("total_seconds", float("nan")),
        ("total_seconds", -0.5),
        ("max_operations", -1),
    ],
)
def test_limits_reject_negative_and_nan_values(field, value):
    # zero is a valid limit: the tests above run with each one at 0
    with pytest.raises(ValueError, match=f"{field} must be at least 0"):
        Limits(**{field: value})


class UnknownAtDepth:
    """Delegates to the builtin solver except on one poisoned query.

    Every probe queries the top formula, so a probe is told apart by its
    assumptions, not by its formula's size.
    """

    name = "stub"

    def __init__(self, poisoned_assumptions: tuple) -> None:
        self.poisoned_assumptions = poisoned_assumptions
        self.inner = InProcessSolver()

    def solve(self, formula: Query, timeout=None) -> SolveResult:
        if formula.assumptions == self.poisoned_assumptions:
            return SolveResult(SolveStatus.UNKNOWN, None, 0.0, "stub timeout")
        return self.inner.solve(formula, timeout)


def test_synthesize_skips_unsolved_depths_and_drops_the_minimality_claim():
    # poison the two-state probe (the true minimal depth for star -> K4): its
    # assumptions make transitions 1..5 of the 7-state top formula identities.
    # The verdict must survive as Reachable, only `minimal` is forfeited
    two_states = StepLayout(4, 7).probe_assumptions(2)
    outcome = synthesize(SynthesisInstance(STAR4, K4), UnknownAtDepth(two_states))
    assert outcome.verdict is Verdict.REACHABLE
    assert not outcome.minimal
    assert "minimality not established" in outcome.reason
    assert outcome.witness is not None
    assert any(p.status is SolveStatus.UNKNOWN for p in outcome.probes)
    assert [p.status for p in outcome.probes if p.num_states == 2] == [SolveStatus.UNKNOWN]


def test_a_probe_that_gave_up_below_the_top_is_the_reason_given():
    # bisection over [1, 4] states starts at 2, which gives up; 3 and 4 are UNSAT
    inst = SynthesisInstance(Graph(3), Graph.from_edges(3, [(0, 2)]), designated=((0, 1),))
    outcome = synthesize(inst, UnknownAtDepth(StepLayout(3, 4).probe_assumptions(2)))
    assert [(p.num_states, p.status) for p in outcome.probes] == [
        (2, SolveStatus.UNKNOWN), (3, SolveStatus.UNSAT), (4, SolveStatus.UNSAT)
    ]
    assert outcome.verdict is Verdict.UNKNOWN and outcome.reason == "stub timeout"


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


def test_synthesize_agrees_with_the_oracle_on_every_pair_at_n3():
    # D is empty, one pair, or two pairs in either order: the order numbers
    # the EF selectors, and the pairs decide which vertices VD is offered at
    graphs = [Graph(3, bits) for bits in range(1 << pair_count(3))]
    single = [(pair,) for pair in pairs(3)]
    pair_sets = [(), *single, *itertools.permutations(pairs(3), 2)]
    solver = InProcessSolver()
    cases = 0
    for designated in pair_sets:
        # at n = 3 every shortest sequence, EF steps included, fits in 6
        limits = Limits(max_operations=6) if designated else Limits()
        for source in graphs:
            for target in graphs:
                inst = SynthesisInstance(source, target, designated)
                oracle = reachable_bfs(inst)
                outcome = synthesize(inst, solver, limits)
                cases += 1
                if oracle.reachable:
                    assert oracle.shortest_length <= 6
                    assert outcome.verdict is Verdict.REACHABLE, inst
                    assert len(outcome.witness.operations) == oracle.shortest_length, inst
                    assert outcome.minimal, inst
                elif designated:
                    assert outcome.verdict is Verdict.UNKNOWN, inst
                else:
                    assert outcome.verdict is Verdict.UNREACHABLE, inst
    assert cases == 640


def test_synthesize_agrees_with_the_oracle_on_targets_with_isolated_vertices_at_n4():
    # VD is offered only at vertices isolated in the target or on a designated
    # pair, so the targets here are random graphs on random vertex subsets
    rng = random.Random(17)
    solver = InProcessSolver()
    kinds = set()
    for _ in range(40):
        source = Graph(4, rng.getrandbits(pair_count(4)))
        kept = sorted(rng.sample(range(4), rng.randint(2, 4)))
        edges = [e for e in itertools.combinations(kept, 2) if rng.random() < 0.6]
        target = Graph.from_edges(4, edges)
        designated = tuple(rng.sample(pairs(4), rng.randint(0, 2)))
        inst = SynthesisInstance(source, target, designated)
        oracle = reachable_bfs(inst)
        limits = Limits(max_operations=10) if designated else Limits()
        outcome = synthesize(inst, solver, limits)
        if oracle.reachable:
            assert oracle.shortest_length <= 10
            assert outcome.verdict is Verdict.REACHABLE, inst
            assert len(outcome.witness.operations) == oracle.shortest_length, inst
            assert outcome.minimal, inst
        elif designated:
            assert outcome.verdict is Verdict.UNKNOWN, inst
        else:
            assert outcome.verdict is Verdict.UNREACHABLE, inst
        kinds.add((oracle.reachable, bool(designated)))
    assert len(kinds) == 4


class FakeClock:
    """Stands in for the driver's `time` module; moves only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now


class HookedSolver:
    """The builtin solver, with a hook that sees every timeout first."""

    name = "hooked"

    def __init__(self, hook) -> None:
        self.hook = hook
        self.inner = InProcessSolver()

    def solve(self, formula, timeout=None) -> SolveResult:
        self.hook(timeout)
        return self.inner.solve(formula, timeout)


def test_a_budget_spent_after_the_top_probe_keeps_its_witness(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(gssynth.driver, "time", clock)

    def spend_ten_seconds(timeout):
        clock.now += 10.0

    outcome = synthesize(
        SynthesisInstance(STAR4, K4), HookedSolver(spend_ten_seconds), Limits(total_seconds=5.0)
    )
    assert outcome.verdict is Verdict.REACHABLE
    assert not outcome.minimal
    assert [p.num_states for p in outcome.probes] == [7]
    assert outcome.reason == "model at 7 states; minimality not established (time budget exhausted)"


def test_the_top_probe_slice_excludes_encoding_time(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(gssynth.driver, "time", clock)

    def slow_encode_bmc(*args):
        clock.now += 5.0
        return encode_bmc(*args)

    monkeypatch.setattr(gssynth.driver, "encode_bmc", slow_encode_bmc)
    timeouts = []
    outcome = synthesize(
        SynthesisInstance(STAR4, K4), HookedSolver(timeouts.append), Limits(total_seconds=10.0)
    )
    assert outcome.minimal and len(outcome.witness.operations) == 1
    assert timeouts == [5.0] * len(outcome.probes)


def test_a_witness_longer_than_its_probe_allows_is_refused(monkeypatch):
    # probe assumptions off by one leave transition s-1 free, so a probe at
    # s states can return s operations; that must raise, not repeat the probe
    def off_by_one(layout, num_states):
        identities = range(num_states, layout.num_transitions)
        return tuple(var for t in identities for var in layout.z_vars(t))

    monkeypatch.setattr(StepLayout, "probe_assumptions", off_by_one)
    timeouts = []

    def give_up_on_a_loop(timeout):
        timeouts.append(timeout)
        assert len(timeouts) < 20, "the search keeps repeating a probe"

    with pytest.raises(EncodingSoundnessError, match="operations from a probe at"):
        synthesize(SynthesisInstance(STAR4, K4), HookedSolver(give_up_on_a_loop))


def test_a_model_whose_middle_state_is_wrong_is_refused(monkeypatch):
    # LC 0 twice ends back at the star, but the decoded middle state is not
    # K4: the end check alone would pass it, the claimed-state check does not
    bogus = Witness((Operation(LC, 0), Operation(LC, 0)), (STAR4, Graph(4), STAR4))
    monkeypatch.setattr(gssynth.driver, "decode", lambda assignment, layout: bogus)
    with pytest.raises(EncodingSoundnessError, match="step 0"):
        synthesize(SynthesisInstance(STAR4, STAR4), InProcessSolver())


def test_the_driver_calls_encoder_decoder_and_replay_through_its_globals(monkeypatch):
    # the benchmark's tracer times these three layers by swapping these names
    calls = {}
    for name in ("encode_bmc", "decode", "replay_verify"):
        def counted(*args, _name=name, _original=getattr(gssynth.driver, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(gssynth.driver, name, counted)
    outcome = synthesize(secret_sharing_demo(), InProcessSolver())
    assert outcome.verdict is Verdict.REACHABLE
    assert calls["encode_bmc"] == 1
    assert calls["decode"] == calls["replay_verify"] >= 1


def test_a_probe_under_assumptions_agrees_with_its_own_depth():
    # the top formula under probe_assumptions(s) is SAT exactly when the
    # s-state formula is; probes run in a shuffled order on one base
    rng = random.Random(3)
    solver = InProcessSolver()
    seen = set()
    for n in (3, 4):
        for designated in ((), ((0, 1),), ((0, 2), (1, 2))):
            for _ in range(3):
                source = Graph(n, rng.getrandbits(pair_count(n)))
                target = Graph(n, rng.getrandbits(pair_count(n)))
                inst = SynthesisInstance(source, target, designated)
                top = completeness_threshold(inst).max_transitions + 1
                formula, layout = encode_bmc(inst, top)
                base = QueryBase(formula)
                depths = list(range(1, top + 1))
                rng.shuffle(depths)
                for s in depths:
                    probe = solver.solve(Query(base, layout.probe_assumptions(s)))
                    alone = solver.solve(encode_bmc(inst, s)[0])
                    assert probe.status is alone.status, (inst, s)
                    seen.add(probe.status)
    assert seen == {SolveStatus.SAT, SolveStatus.UNSAT}
