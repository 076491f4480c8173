"""Cycle detection vs the subset oracle, peeling, and the pipeline."""

import random

import pytest

from spectool.cycles import (
    bondy_pancyclicity_check,
    consecutive_even_cycles_check,
    cycle_spectrum,
    erdos_peel,
    has_cycle_of_length,
    theorem7_pipeline,
    validate_cycle,
)
from spectool.errors import HypothesisNotMetError, SearchBudgetExceededError
from spectool.families import (
    complete,
    complete_bipartite,
    cycle,
    gnp,
    path,
    petersen,
    star,
)
from spectool.graph import from_edge_mask, from_edges

from oracles import has_cycle_by_subsets


def test_petersen_cycle_lengths():
    cs = cycle_spectrum(petersen(), 10)
    assert cs.lengths() == [5, 6, 8, 9]
    for l, witness in cs.witnesses.items():
        assert len(witness) == l and validate_cycle(petersen(), witness)


def test_cycle_graph_contains_only_itself():
    assert cycle_spectrum(cycle(6), 6).lengths() == [6]


def test_complete5_pancyclic():
    assert cycle_spectrum(complete(5), 5).lengths() == [3, 4, 5]


def test_k33_even_only():
    assert cycle_spectrum(complete_bipartite(3, 3), 6).lengths() == [4, 6]


def test_forest_has_no_cycles():
    assert cycle_spectrum(path(5), 5).lengths() == []


def test_witnesses_validate_on_random_graphs():
    rng = random.Random(5)
    for _ in range(30):
        g = gnp(9, rng.random(), rng.randrange(1 << 30))
        for l in range(3, 10):
            witness = has_cycle_of_length(g, l)
            if witness is not None:
                assert validate_cycle(g, witness) and len(witness) == l


def test_oracle_agreement_exhaustive_n5():
    for mask in range(1 << 10):
        g = from_edge_mask(5, mask)
        for l in range(3, 6):
            found = has_cycle_of_length(g, l) is not None
            assert found == has_cycle_by_subsets(g, l), (mask, l)


def test_budget_sentinel_is_distinct_from_absence():
    # A length-9 witness needs at least 9 expansions, so budget 5 must trip.
    with pytest.raises(SearchBudgetExceededError):
        has_cycle_of_length(complete(9), 9, budget=5)
    assert has_cycle_of_length(path(9), 3, budget=10 ** 6) is None


def test_even_cycles_exhausted_budget_is_inconclusive():
    # K_5 is above the threshold sqrt(floor(25/4)), and finding its C_4
    # needs more than one node.
    verdict = consecutive_even_cycles_check(complete(5), l_max=4, budget=1)
    assert verdict.status == "inconclusive"
    assert consecutive_even_cycles_check(complete(5), l_max=4).status \
        == "holds"


def test_validate_cycle_rejects_garbage():
    g = cycle(5)
    assert not validate_cycle(g, (0, 1, 2))
    assert not validate_cycle(g, (0, 1, 1, 2))
    assert validate_cycle(g, (0, 1, 2, 3, 4))


class TestPeeling:
    def test_cycle8_survives_k1(self):
        result = erdos_peel(cycle(8), 1)
        assert result.surviving == tuple(range(8))
        assert result.min_degree == 2 and result.trace == ()

    def test_star_collapses(self):
        result = erdos_peel(star(5), 1)
        assert result.surviving == ()
        assert result.min_degree is None
        # Leaves go first (lowest index first), then the center.
        assert [v for v, _ in result.trace] == [1, 2, 3, 0, 4]

    def test_k4_plus_pendant(self):
        g = from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                           (3, 4)])
        result = erdos_peel(g, 2)
        assert result.surviving == (0, 1, 2, 3)
        assert result.min_degree == 3
        assert result.trace == ((4, 1),)

    def test_trace_degrees_at_most_k(self):
        rng = random.Random(11)
        for _ in range(50):
            g = gnp(12, 0.4, rng.randrange(1 << 30))
            for k in (1, 2):
                result = erdos_peel(g, k)
                assert all(d <= k for _, d in result.trace)
                if result.min_degree is not None:
                    assert result.min_degree >= k + 1

    def test_guarantee_when_average_degree_high(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randrange(8, 24)
            k = rng.choice((1, 2, 3))
            g = gnp(n, min(0.95, 3.0 * k / n), rng.randrange(1 << 30))
            if g.m < k * n:
                continue
            result = erdos_peel(g, k)
            assert result.n_prime > 0 and result.min_degree >= k + 1


class TestTheorem7Pipeline:
    def test_k7_certificates(self):
        pipeline = theorem7_pipeline(complete(7))
        assert pipeline.ok
        names = [s.name for s in pipeline.steps]
        assert names == ["threshold", "edge-density", "peel", "even-cycles",
                         "core-pancyclic-bonus"]
        bonus = pipeline.steps[-1]
        assert bonus.details["range"] == [3, 7] and bonus.details["missing"] == []

    def test_k66_plus_edge(self):
        g = from_edges(12, [(u, 6 + v) for u in range(6) for v in range(6)]
                       + [(0, 1)])
        pipeline = theorem7_pipeline(g)
        assert pipeline.ok
        by_name = {s.name: s for s in pipeline.steps}
        assert by_name["even-cycles"].details["range"] == [4, 1]
        assert "core-pancyclic-bonus" not in by_name  # min degree 6 = n'/2

    def test_cycle20_hypothesis_not_met(self):
        with pytest.raises(HypothesisNotMetError):
            theorem7_pipeline(cycle(20))


class TestConsecutiveEvenCycles:
    def test_complete_100(self):
        g = complete(100)
        verdict = consecutive_even_cycles_check(g)
        assert verdict.status == "holds"

    def test_balanced_bipartite_plus_edge_n100(self):
        g = from_edges(100, [(u, 50 + v) for u in range(50) for v in range(50)]
                       + [(0, 1)])
        verdict = consecutive_even_cycles_check(g)
        assert verdict.status == "holds"

    def test_below_threshold_vacuous(self):
        assert consecutive_even_cycles_check(cycle(20)).status == "vacuous"

    def test_small_l_max_vacuous(self):
        assert consecutive_even_cycles_check(complete(10)).status == "vacuous"

    def test_missing_cycle_reports_caveat(self):
        # Force a violated verdict by asking beyond what a triangle offers.
        verdict = consecutive_even_cycles_check(complete(3), l_max=4)
        assert verdict.status == "violated"
        assert "asymptotic" in verdict.counterexample.witness["caveat"]


class TestBondy:
    def test_k5_holds(self):
        assert bondy_pancyclicity_check(complete(5)).status == "holds"

    def test_c6_vacuous(self):
        assert bondy_pancyclicity_check(cycle(6)).status == "vacuous"

    def test_dense_random_samples(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(40):
            g = gnp(8, 0.9, rng.randrange(1 << 30))
            if min(g.degrees()) * 2 > g.n:
                verdict = bondy_pancyclicity_check(g)
                assert verdict.status == "holds"
                checked += 1
        assert checked > 5
