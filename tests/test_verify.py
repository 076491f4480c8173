"""Enumeration, the sweep/fuzz harness, determinism, and replay."""

import contextlib
import multiprocessing
import os
import signal

import numpy as np
import pytest

from spectool import _exhaustive, families, verify
from spectool.bounds import bound_value
from spectool.cycles import bondy_pancyclicity_check
from spectool.errors import (OrderTooLargeError, PreconditionViolatedError,
                             RedrawLimitError, WorkerExitError)
from spectool.families import complete, cycle, gnp, random_regular, star
from spectool.graph import from_edge_mask, is_connected
from spectool.graph6 import to_graph6
from spectool.spectrum import EQ_EPS, eigendecompose
from spectool.verdicts import CounterexampleReport
from spectool.verify import (
    ALL_THEOREMS,
    BOUND_THEOREMS,
    SweepConfig,
    TheoremId,
    _battery,
    _empty_partial,
    _vector_shard,
    canonical_masks,
    check_theorem,
    exhaustive_spectral_audit,
    fuzz,
    labeled_graph_count,
    parse_distribution,
    replay,
    sweep,
)

from oracles import (
    bipartite_by_edge_list,
    fuzz_shard_per_graph,
    gnp_by_edge_list,
    ints_of_words,
    per_graph_payload,
)


class TestEnumeration:
    def test_labeled_counts(self):
        assert labeled_graph_count(3) == 8
        assert labeled_graph_count(4) == 64

    def test_canonical_counts(self):
        # Known isomorphism-class counts for small orders.
        for n, expected in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)):
            assert len(canonical_masks(n)) == expected

    def test_canonical_connected_n4(self):
        connected = [mask for mask in canonical_masks(4)
                     if is_connected(from_edge_mask(4, mask))]
        assert len(connected) == 6
        report = sweep(SweepConfig(n_min=4, n_max=4, connected_only=True,
                                   dedup="canonical",
                                   theorems=(TheoremId.MANTEL,)))
        assert sum(report.totals["mantel"].values()) == 6

    def test_too_large_rejected(self):
        with pytest.raises(OrderTooLargeError):
            SweepConfig(n_max=9).validate()
        with pytest.raises(OrderTooLargeError):
            canonical_masks(8)

    def test_canonical_reps_are_orbit_minima(self):
        # Sum of orbit sizes partitions the labeled space.
        from spectool.verify import _orbit_masks, _perm_edge_table

        table = _perm_edge_table(4)
        total = 0
        for mask in canonical_masks(4):
            orbit = {int(x) for x in _orbit_masks(mask, table)}
            assert min(orbit, key=lambda m: _lex_key(m, 6)) == mask
            total += len(orbit)
        assert total == labeled_graph_count(4)


def _lex_key(mask: int, nbits: int) -> int:
    return sum(((mask >> e) & 1) << (nbits - 1 - e) for e in range(nbits))


class TestCheckTheorem:
    def test_examples(self):
        assert check_theorem(complete(4), TheoremId.MANTEL).status == "holds"
        assert check_theorem(cycle(5), TheoremId.NOSAL).status == "vacuous"
        verdict = check_theorem(star(5), TheoremId.SPECTRAL_MANTEL)
        assert verdict.status == "holds"
        assert verdict.reason == "extremal_complete_bipartite"

    def test_string_ids_accepted(self):
        assert check_theorem(complete(4), "mantel").status == "holds"

    def test_all_theorems_on_sample(self):
        for theorem in ALL_THEOREMS:
            verdict = check_theorem(complete(5), theorem)
            assert verdict.status in ("holds", "vacuous")


def _fresh_tight(g, theorem) -> bool:
    """Tightness recomputed from scratch, the way the census used to."""
    try:
        value = bound_value(g, BOUND_THEOREMS[theorem])
    except PreconditionViolatedError:
        return False
    return abs(value - eigendecompose(g).lambda1) <= EQ_EPS


def _assert_battery_matches_fresh_checks(g):
    partial = _empty_partial(ALL_THEOREMS)
    _battery(g, ALL_THEOREMS, partial)
    expected_counterexamples = []
    for t in ALL_THEOREMS:
        fresh = check_theorem(g, t)
        counts = partial["totals"][t.value]
        assert counts[fresh.status] == 1 and sum(counts.values()) == 1, \
            (to_graph6(g), t, counts, fresh)
        if fresh.counterexample is not None:
            expected_counterexamples.append(fresh.counterexample)
        if t in BOUND_THEOREMS:
            tight = fresh.status == "holds" and _fresh_tight(g, t)
            entries = partial["tight"][BOUND_THEOREMS[t].value]
            assert entries == ([to_graph6(g)] if tight else []), (g, t)
    assert partial["counterexamples"] == expected_counterexamples


class TestSharedFacts:
    """One facts object per graph gives each theorem the verdict and tight
    entry that a fresh ``check_theorem`` call gives."""

    def test_every_labeled_graph_up_to_n5(self):
        for n in range(1, 6):
            for mask in range(labeled_graph_count(n)):
                _assert_battery_matches_fresh_checks(from_edge_mask(n, mask))

    @pytest.mark.parametrize("n,p,count", [(30, 0.5, 25), (12, 0.9, 100)])
    def test_seeded_gnp_samples(self, n, p, count):
        for seed in range(count):
            _assert_battery_matches_fresh_checks(gnp(n, p, seed))

    def test_regular_graphs_are_tight(self):
        # Connected regular graphs meet the Stanley-type bounds with
        # equality, so the tight census is exercised, not just empty.
        g = cycle(7)
        partial = _empty_partial(ALL_THEOREMS)
        _battery(g, ALL_THEOREMS, partial)
        assert partial["tight"]["thm11"] == [to_graph6(g)]
        _assert_battery_matches_fresh_checks(g)

    def test_exhausted_budget_is_inconclusive(self):
        # K_5 is above Bondy's degree threshold, and its cycle search needs
        # more than one node.
        verdict = bondy_pancyclicity_check(complete(5), budget=1)
        assert verdict.status == "inconclusive"
        assert check_theorem(complete(5), TheoremId.LEMMA6_BONDY).status \
            == "holds"

    def test_shard_over_range_equals_shard_over_list(self):
        # The densest 1,200 masks at n = 7 are above Bondy's degree
        # threshold, so the resolver decides lemma6-bondy on them.
        total = labeled_graph_count(7)
        masks = range(total - 1200, total)
        by_range = _vector_shard((7, masks, ALL_THEOREMS, False))
        assert by_range["totals"]["lemma6-bondy"]["holds"] > 0
        for as_array in (list(masks), np.arange(masks.start, masks.stop)):
            assert _vector_shard((7, as_array, ALL_THEOREMS, False)) \
                == by_range


class TestSweep:
    def test_small_sweep_no_violations(self):
        report = sweep(SweepConfig(n_min=1, n_max=4, theorems=ALL_THEOREMS))
        assert report.violated_count() == 0
        assert report.inconclusive_count() == 0
        total = sum(labeled_graph_count(n) for n in range(1, 5))
        for counts in report.totals.values():
            assert sum(counts.values()) == total

    def test_mantel_n4_census(self):
        report = sweep(SweepConfig(n_min=4, n_max=4,
                                   theorems=(TheoremId.MANTEL,)))
        counts = report.totals["mantel"]
        nonvacuous = sum(1 for mask in range(64)
                         if 4 * bin(mask).count("1") > 16)
        assert counts["holds"] == nonvacuous
        assert counts["vacuous"] == 64 - nonvacuous

    def test_hong_tight_census_n5_has_star_and_k5(self):
        from spectool.graph6 import to_graph6

        report = sweep(SweepConfig(n_min=5, n_max=5,
                                   theorems=(TheoremId.HONG,)))
        tight = set(report.tight["hong"])
        assert to_graph6(complete(5)) in tight
        assert to_graph6(star(5)) in tight

    @staticmethod
    def _spy_on_batch_engine(monkeypatch) -> list:
        """The orders the batch engine is called for, as sweeps run."""
        orders = []
        sweep_range = _exhaustive.sweep_range

        def spy(*args):
            orders.append(args[0])
            return sweep_range(*args)

        monkeypatch.setattr(_exhaustive, "sweep_range", spy)
        return orders

    def test_vector_engine_matches_reference(self, monkeypatch):
        # All 15 theorems: totals, tight censuses and counterexamples of the
        # batch engine against the per-graph checkers on every labeled graph.
        orders = self._spy_on_batch_engine(monkeypatch)
        for connected_only in (False, True):
            config = SweepConfig(n_min=1, n_max=5, theorems=ALL_THEOREMS,
                                 connected_only=connected_only, jobs=1)
            orders.clear()
            fast = sweep(config).payload()
            assert set(orders) == {1, 2, 3, 4, 5}
            orders.clear()
            assert per_graph_payload(config) == fast
            assert not orders
            assert fast["tight"]["hong"] and fast["totals"]["lemma6-bondy"][
                "holds"]

    def test_jobs_do_not_change_report(self):
        config1 = SweepConfig(n_min=1, n_max=5, theorems=ALL_THEOREMS, jobs=1)
        config2 = SweepConfig(n_min=1, n_max=5, theorems=ALL_THEOREMS, jobs=3)
        assert sweep(config1).payload()["totals"] \
            == sweep(config2).payload()["totals"]

    def test_one_worker_per_shard_at_most(self, monkeypatch):
        # A spy on the fork context's Process counts the workers each run
        # starts. n <= 6 is 13 shards (8 of them at n = 6), and 300 samples
        # are 3 shards of one stack each; the 13 workers outnumber the
        # cores, and a shard lost or run twice between them would change
        # the payload.
        started = []
        ctx = verify.multiprocessing.get_context("fork")

        class Process(ctx.Process):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(ctx, "Process", Process)
        swept = sweep(SweepConfig(n_max=6, jobs=1000)).payload()
        sizes = [len(started)]
        fuzzed = fuzz("gnp:12,0.5", 300, 7, jobs=64).payload()
        sizes.append(len(started) - sizes[0])
        assert sizes == [13, 3]
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        assert swept == sweep(SweepConfig(n_max=6, jobs=1)).payload()
        assert fuzzed == fuzz("gnp:12,0.5", 300, 7, jobs=1).payload()

    @pytest.mark.parametrize("connected_only", [False, True])
    def test_canonical_sweep_matches_reference(self, connected_only):
        # Canonical masks go through the batch engine and its resolver; the
        # per-graph checkers over the same masks must give the same payload.
        config = SweepConfig(n_min=1, n_max=7, dedup="canonical",
                             connected_only=connected_only,
                             theorems=ALL_THEOREMS)
        fast = sweep(config).payload()
        assert per_graph_payload(config) == fast
        assert sum(fast["totals"]["mantel"].values()) == (
            1 + 1 + 2 + 6 + 21 + 112 + 853 if connected_only
            else 1 + 2 + 4 + 11 + 34 + 156 + 1044)

    def test_canonical_sweep_consistent_with_labeled(self):
        labeled = sweep(SweepConfig(n_min=4, n_max=4,
                                    theorems=(TheoremId.SPECTRAL_MANTEL,)))
        canonical = sweep(SweepConfig(n_min=4, n_max=4, dedup="canonical",
                                      theorems=(TheoremId.SPECTRAL_MANTEL,)))
        assert sum(canonical.totals["spectral-mantel"].values()) == 11
        assert labeled.violated_count() == canonical.violated_count() == 0

    def test_config_validation(self):
        with pytest.raises(OrderTooLargeError):
            sweep(SweepConfig(n_max=9))
        with pytest.raises(OrderTooLargeError):
            sweep(SweepConfig(n_max=8))  # needs long_run
        with pytest.raises(OrderTooLargeError):
            sweep(SweepConfig(n_max=8, dedup="canonical", long_run=True))
        with pytest.raises(ValueError):
            sweep(SweepConfig(n_min=0))

    @pytest.mark.parametrize("dedup", ["labeled", "canonical"])
    def test_config_rejects_repeated_theorems(self, dedup):
        # Each listed id is a column of the totals; a repeat would count
        # every graph twice on the per-graph path.
        for theorems in (("nosal", "nosal"),
                         (TheoremId.NOSAL, "stanley", "nosal")):
            config = SweepConfig(n_min=1, n_max=4, dedup=dedup,
                                 theorems=theorems)
            with pytest.raises(ValueError, match="nosal"):
                config.validate()
            with pytest.raises(ValueError, match="nosal"):
                sweep(config)
        SweepConfig(dedup=dedup, theorems=("nosal", "stanley")).validate()

    @pytest.mark.parametrize("dedup", ["labeled", "canonical"])
    def test_config_rejects_empty_theorem_list(self, dedup):
        # With no theorem the sweep would enumerate every graph and report
        # nothing.
        config = SweepConfig(n_min=1, n_max=5, dedup=dedup, theorems=())
        with pytest.raises(ValueError, match="no theorem"):
            config.validate()
        with pytest.raises(ValueError, match="no theorem"):
            sweep(config)


def _shard_part(shard: int) -> dict:
    return {"shards": [shard]}


def _raise_on_shard_1(shard: int) -> dict:
    if shard == 1:
        raise RedrawLimitError("no simple draw in shard 1")
    return _shard_part(shard)


def _raise_unpicklable_on_shard_1(shard: int) -> dict:
    if shard == 1:
        raise ValueError(lambda: shard)
    return _shard_part(shard)


def _exit_on_shard_1(shard: int) -> dict:
    if shard == 1:
        os._exit(1)
    return _shard_part(shard)


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestShardWorkers:
    """``_run_shards`` with two forked workers over six shards: parts merge
    in shard order, a failing worker fails the call, and no child is left
    running either way."""

    SHARDS = list(range(6))

    def test_parts_merge_in_shard_order(self):
        with _time_limit(60):
            merged = verify._run_shards(_shard_part, self.SHARDS, 2, {})
        assert merged == {"shards": self.SHARDS}
        assert multiprocessing.active_children() == []

    def test_worker_exception_reaches_the_caller(self):
        with _time_limit(60), pytest.raises(
                RedrawLimitError, match="^no simple draw in shard 1$"):
            verify._run_shards(_raise_on_shard_1, self.SHARDS, 2, {})
        assert multiprocessing.active_children() == []

    def test_worker_traceback_is_the_cause(self):
        with _time_limit(60), pytest.raises(RedrawLimitError) as caught:
            verify._run_shards(_raise_on_shard_1, self.SHARDS, 2, {})
        cause = str(caught.value.__cause__)
        assert "Traceback (most recent call last)" in cause
        assert "_raise_on_shard_1" in cause
        assert multiprocessing.active_children() == []

    def test_unpicklable_exception_arrives_as_its_repr(self):
        with _time_limit(60), pytest.raises(
                RuntimeError, match="^ValueError\\(<function"):
            verify._run_shards(_raise_unpicklable_on_shard_1, self.SHARDS, 2,
                               {})
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_an_error_not_a_hang(self):
        with _time_limit(60), pytest.raises(WorkerExitError,
                                            match="exited with code 1 "):
            verify._run_shards(_exit_on_shard_1, self.SHARDS, 2, {})
        assert multiprocessing.active_children() == []


class TestFuzz:
    def test_deterministic_given_seed(self):
        kwargs = dict(count=50, seed=123,
                      theorems=(TheoremId.STANLEY, TheoremId.THM11))
        rep1 = fuzz("gnp:12,0.4", **kwargs)
        rep2 = fuzz("gnp:12,0.4", **kwargs)
        assert rep1.payload() == rep2.payload()
        assert rep1.to_json() == rep2.to_json()

    def test_jobs_do_not_change_report(self):
        rep1 = fuzz("gnp:10,0.5", 40, 7, (TheoremId.HONG,), jobs=1)
        rep2 = fuzz("gnp:10,0.5", 40, 7, (TheoremId.HONG,), jobs=4)
        assert rep1.payload() == rep2.payload()

    def test_distributions(self):
        rep = fuzz("bipartite:4,5,0.6", 30, 3,
                   (TheoremId.LEMMA1_SPECTRUM_SYMMETRY,))
        assert rep.violated_count() == 0
        rep = fuzz("regular:10,3", 30, 3, (TheoremId.THM11,))
        assert rep.violated_count() == 0
        # every connected k-regular sample is tight for thm11
        assert len(rep.tight["thm11"]) > 0

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            fuzz("gnp:5,0.5", 3, 1, jobs=0)

    def test_repeated_theorems_rejected(self):
        for theorems in (("nosal", "nosal"), (TheoremId.NOSAL, "nosal")):
            with pytest.raises(ValueError, match="nosal"):
                fuzz("gnp:8,0.5", 10, 1, theorems)
        report = fuzz("gnp:8,0.5", 10, 1, (TheoremId.NOSAL,))
        assert sum(report.totals["nosal"].values()) == 10

    def test_empty_theorem_list_rejected(self):
        with pytest.raises(ValueError, match="no theorem"):
            fuzz("gnp:10,0.5", 5, 1, theorems=())

    def test_parse_distribution(self):
        assert parse_distribution("gnp:30,0.5") == ("gnp", 30, 0.5)
        assert parse_distribution("bipartite:8,8,0.7") == ("bipartite", 8, 8, 0.7)
        assert parse_distribution("regular:20,3") == ("regular", 20, 3)
        for bad in ("gnp:30,1.5", "gnp:30", "regular:10,11", "nope:1",
                    "regular:9,3", "gnp:0,0.5", "bipartite:0,0,0.5"):
            with pytest.raises(ValueError):
                parse_distribution(bad)


def _per_graph_fuzz(monkeypatch, *args, **kwargs) -> dict:
    """``fuzz(*args, **kwargs).payload()`` with every sample decided by the
    per-graph battery alone."""
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_fuzz_shard", fuzz_shard_per_graph)
        return fuzz(*args, **kwargs).payload()


def _spy_on_battery(monkeypatch) -> list:
    """``(graph6 or edge list, theorem ids)`` for each ``_battery`` call."""
    calls = []
    real = verify._battery

    def spy(g, theorems, partial):
        calls.append((verify.graph_text(g)[1], [t.value for t in theorems]))
        real(g, theorems, partial)

    monkeypatch.setattr(verify, "_battery", spy)
    return calls


class TestFuzzEngine:
    """Fuzz runs decide through the batch engine at every order, with the
    same payload as the per-graph battery on every sample."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dist,count", [
        ("gnp:30,0.5", 300), ("regular:12,3", 300),
        ("bipartite:6,7,0.5", 300), ("gnp:8,0.8", 60), ("gnp:9,0.5", 60),
        ("gnp:64,0.5", 12), ("gnp:65,0.5", 6), ("gnp:20,0.95", 30),
        ("gnp:40,0.99", 12), ("gnp:1,0.5", 4), ("gnp:63,0.3", 12),
        ("bipartite:32,32,0.5", 12), ("bipartite:33,32,0.5", 6),
        ("gnp:90,0.6", 6), ("gnp:129,0.3", 8), ("gnp:200,0.1", 30),
        ("bipartite:50,50,0.5", 12), ("regular:70,3", 12)])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_payload_matches_the_per_graph_battery(self, monkeypatch, dist,
                                                   count, jobs):
        # gnp:8,0.8 reaches the Bondy kernel; from gnp:9 up, Bondy graphs
        # (most of gnp:20,0.95) go to the resolver, and so do the walk
        # theorems at gnp:40,0.99 and from gnp:64,0.5 up, past the int64
        # rule, whose wrapped counts must raise no warning. gnp:63 and
        # bipartite:32,32 name their graphs by edge lists, past graph6's
        # cap; from bipartite:33,32 up the rows take two to four words;
        # gnp:90,0.6 is above Theorem 7's threshold, and gnp:200,0.1 takes
        # three stacks of at most stack_size(200) = 13.
        expected = _per_graph_fuzz(monkeypatch, dist, count, 7, jobs=jobs)
        assert fuzz(dist, count, 7, jobs=jobs).payload() == expected

    def test_shards_are_whole_stacks_at_every_order(self, monkeypatch):
        # gnp:200,0.1 stacks 13 samples, so 100 of them make eight shards,
        # which --jobs can spread, each a whole number of stacks but the
        # last, with the same payload at any job count.
        sizes = []
        real = verify._run_shards

        def spy(worker, shard_args, jobs, merged):
            sizes.extend(hi - lo for _, lo, hi, _, _ in shard_args)
            return real(worker, shard_args, jobs, merged)

        monkeypatch.setattr(verify, "_run_shards", spy)
        payload = fuzz("gnp:200,0.1", 100, 7, jobs=2).payload()
        unit = _exhaustive.stack_size(200)
        assert len(sizes) > 1 and sum(sizes) == 100
        assert all(size % unit == 0 for size in sizes[:-1])
        assert sizes == [13] * 7 + [9]
        assert payload == fuzz("gnp:200,0.1", 100, 7, jobs=1).payload()

    def test_reference_samples_need_no_resolver(self, monkeypatch):
        calls = _spy_on_battery(monkeypatch)
        report = fuzz("gnp:30,0.5", 200, 0)
        assert calls == [] and report.violated_count() == 0

    @pytest.mark.filterwarnings("error")
    def test_resolver_gets_only_what_the_stack_cannot_decide(
            self, monkeypatch):
        # At n = 9 only Bondy graphs go back; past the walk rule only the
        # walk theorems; at n = 65 nothing the stack decides; at n = 90
        # Theorem 7 only for the graphs above its spectral threshold.
        calls = _spy_on_battery(monkeypatch)
        fuzz("gnp:9,0.9", 40, 1)
        assert calls and {tuple(ids) for _, ids in calls} \
            == {("lemma6-bondy",)}
        calls.clear()
        fuzz("gnp:40,0.99", 4, 1, ("walk-inequality", "stanley"))
        assert [ids for _, ids in calls] == [["walk-inequality"]] * 4
        calls.clear()
        fuzz("gnp:65,0.1", 3, 1, ("mantel", "hong"))
        assert calls == []
        fuzz("gnp:65,0.5", 3, 1)
        assert {tuple(ids) for _, ids in calls} \
            == {("walk-inequality", "decomposition-identity")}
        calls.clear()
        dist, count, seed = ("gnp", 90, 0.5), 24, 1
        report = fuzz(dist, count, seed, ("thm7-even-cycles", "mantel"))
        above = [verify.graph_text(g)[1] for g in (
            gnp_by_edge_list(90, 0.5, verify._sample_seed(seed, index))
            for index in range(count))
            if eigendecompose(g).lambda1 > 45 + EQ_EPS]
        assert 0 < len(above) < count
        assert calls == [(text, ["thm7-even-cycles"]) for text in above]
        assert report.totals["thm7-even-cycles"]["vacuous"] \
            == count - len(above)

    @pytest.mark.parametrize("dist", [
        ("gnp", 1, 0.5), ("gnp", 2, 0.5), ("gnp", 8, 0.5), ("gnp", 62, 0.3),
        ("gnp", 63, 0.7), ("gnp", 64, 0.5), ("bipartite", 32, 32, 0.5),
        ("bipartite", 0, 5, 0.5), ("gnp", 65, 0.5), ("gnp", 128, 0.3),
        ("gnp", 129, 0.1), ("bipartite", 64, 1, 0.5),
        ("bipartite", 60, 68, 0.3), ("bipartite", 1, 128, 0.5),
        ("regular", 65, 4), ("regular", 128, 3), ("regular", 129, 2)])
    def test_stack_rows_are_the_sampled_graphs(self, dist):
        # Rows of 1, 2 and 8 vertices pack into one byte of the word; rows
        # of 62 to 64 vertices reach its last bits, and rows of 65, 128 and
        # 129 vertices take two or three words.
        oracle = {"gnp": gnp_by_edge_list, "bipartite": bipartite_by_edge_list,
                  "regular": random_regular}[dist[0]]
        seeds = [verify._sample_seed(3, index) for index in range(40)]
        rows = verify._stack_rows(dist, seeds)
        n = sum(dist[1:-1]) if dist[0] == "bipartite" else dist[1]
        assert rows.dtype == np.uint64
        assert rows.shape == (len(seeds), n, -(-n // 64))
        assert ints_of_words(rows) \
            == [list(oracle(*dist[1:], seed).adj) for seed in seeds]

    @pytest.mark.parametrize("dist,seed,built", [
        ("gnp:30,0.5", 1, 0), ("gnp:64,0.05", 1, 0),
        ("bipartite:10,10,0.5", 1, 0), ("gnp:8,0.5", 1, 2)])
    def test_graphs_are_built_only_for_the_tight_census(self, monkeypatch,
                                                        dist, seed, built):
        # Without resolver graphs, a stack row becomes a Graph once per
        # tight-list entry: gnp:8,0.5 seed 1 has one graph tight for thm11
        # and lemma3.
        made = []
        real = verify.graph_of_rows

        def counted(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "graph_of_rows", counted)
        calls = _spy_on_battery(monkeypatch)
        report = fuzz(dist, 1000, seed)
        assert calls == [] and len(made) == built
        assert sum(map(len, report.tight.values())) == built

    @pytest.mark.parametrize("dist", ["gnp:30,0.5", "bipartite:6,7,0.5",
                                      "gnp:8,0.5"])
    def test_the_random_fallback_gives_the_same_payload(self, monkeypatch,
                                                        dist):
        expected = fuzz(dist, 300, 1).payload()
        monkeypatch.setattr(families, "_words_match_random", lambda: False)
        assert fuzz(dist, 300, 1).payload() == expected

    def test_a_failed_certificate_sends_one_sample_back(self, monkeypatch):
        # Lower lambda_1 of sample 5 in its stack: it fails the trace
        # certificate, goes to the battery for every theorem, and the
        # payload stays as it was.
        dist, seed = "gnp:30,0.5", 7
        expected = fuzz(dist, 40, seed).payload()
        target = gnp_by_edge_list(30, 0.5, verify._sample_seed(seed, 5))
        a = np.zeros((30, 30))
        a[target._arcs] = 1
        eigvalsh = np.linalg.eigvalsh

        def perturbed(x):
            ev = eigvalsh(x)
            if x.shape[1:] == a.shape:
                ev[(x == a).all(axis=(1, 2)), -1] -= 1.0
            return ev

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        calls = _spy_on_battery(monkeypatch)
        assert fuzz(dist, 40, seed).payload() == expected
        assert [(text, sorted(ids)) for text, ids in calls] \
            == [(to_graph6(target), sorted(t.value for t in ALL_THEOREMS))]

    def test_a_lowered_bound_is_overruled_per_graph(self, monkeypatch):
        # Stanley's batch value put 1 below lambda_1 on one sample: an
        # apparent violation, which the per-graph checker finds to hold.
        dist, seed = "regular:12,3", 7
        expected = fuzz(dist, 40, seed).payload()
        target = random_regular(12, 3, verify._sample_seed(seed, 3))
        rows = np.array(target.adj, dtype=np.uint64)[:, None]
        real = _exhaustive._bound_arrays

        def lowered(stats, order):
            values = real(stats, order)
            hit = (stats["rows"] == rows).all(axis=(1, 2))
            values["stanley"][hit] = stats["lam1"][hit] - 1
            return values

        monkeypatch.setattr(_exhaustive, "_bound_arrays", lowered)
        calls = _spy_on_battery(monkeypatch)
        report = fuzz(dist, 40, seed)
        assert calls == [(to_graph6(target), ["stanley"])]
        assert report.payload() == expected
        assert report.totals["stanley"]["violated"] == 0

    @pytest.mark.parametrize("dist", [("gnp", 0, 0.5),
                                      ("bipartite", 0, 0, 0.5),
                                      ("gnp", 5, 1.5), ("regular", 9, 3),
                                      ("gnp", 5)])
    def test_a_bad_tuple_is_rejected_before_sampling(self, monkeypatch,
                                                     dist):
        def never(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(verify, "random_regular", never)
        monkeypatch.setattr(verify, "bernoulli_rows", never)
        with pytest.raises(ValueError, match="bad distribution spec"):
            fuzz(dist, 2, 1)

    def test_a_tuple_and_its_text_give_one_report(self):
        text = fuzz("bipartite:4,5,0.6", 20, 3).payload()
        assert fuzz(("bipartite", 4, 5, 0.6), 20, 3).payload() == text
        assert text["config"]["distribution"] == "bipartite:4,5,0.6"


class TestSpectralAudit:
    def test_jobs_do_not_change_audit(self):
        one = exhaustive_spectral_audit(1, 5, jobs=1)
        assert one.ok() and one.graphs == sum(
            labeled_graph_count(n) for n in range(1, 6))
        assert exhaustive_spectral_audit(1, 5, jobs=2) == one

    @pytest.mark.parametrize("n_min,n_max", [(0, 2), (3, 2), (-1, 1)])
    def test_range_must_be_nonempty_from_one(self, n_min, n_max):
        with pytest.raises(ValueError, match="n_min <= n_max"):
            exhaustive_spectral_audit(n_min, n_max)

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_must_be_positive(self, jobs):
        with pytest.raises(ValueError, match="jobs must be positive"):
            exhaustive_spectral_audit(1, 3, jobs=jobs)


class TestReplay:
    def test_replay_reproduces_violation(self, monkeypatch):
        # No true theorem violates, so fabricate one checker failure and
        # confirm the embedded graph replays to the same verdict.
        report = CounterexampleReport(
            theorem="mantel", graph_format="graph6",
            graph="C~", quantities={})
        verdict = replay(report)
        assert verdict.status == "holds"  # K4 actually satisfies Mantel

        from spectool.cycles import consecutive_even_cycles_check
        from spectool.graph6 import from_graph6

        forced = consecutive_even_cycles_check(from_graph6("Bw"), l_max=4)
        assert forced.status == "violated"
        replayed = replay(forced.counterexample)
        # Default l_max for K3 is ceil(3/28) < 4, so the default checker is
        # vacuous; the report still parses and reruns deterministically.
        assert replayed.status in ("vacuous", "violated")

    def test_replay_edge_list_format(self):
        report = CounterexampleReport(
            theorem="stanley", graph_format="edgelist",
            graph="3 2\n0 1\n1 2", quantities={})
        assert replay(report).status == "holds"
