"""Theorem ids, verdicts and counterexample types shared by the theorem
checkers, the batch engine and the reports."""

from dataclasses import dataclass, field
from enum import StrEnum

from .graph import Graph
from .graph6 import graph_text


class TheoremId(StrEnum):
    """The paper's results, each named once. A member hashes, compares and
    JSON-encodes as its id string, so ``TheoremId.NOSAL`` and ``"nosal"``
    key the same dict entry."""

    MANTEL = "mantel"
    NOSAL = "nosal"
    SPECTRAL_MANTEL = "spectral-mantel"
    STANLEY = "stanley"
    HONG = "hong"
    HSF = "hsf"
    THM11 = "thm11"
    LEMMA3_BOUND = "lemma3"
    WALK_INEQUALITY = "walk-inequality"
    DECOMPOSITION_IDENTITY = "decomposition-identity"
    LEMMA5_PEEL = "lemma5-peel"
    LEMMA6_BONDY = "lemma6-bondy"
    THM7_EVEN_CYCLES = "thm7-even-cycles"
    LEMMA1_SPECTRUM_SYMMETRY = "lemma1-spectrum-symmetry"
    LEMMA2_DIAMETER_DISTINCT = "lemma2-diameter-distinct"


ALL_THEOREMS = tuple(TheoremId)
# The bound theorems, whose tight graphs the sweeps list and the audit counts.
BOUNDS = (TheoremId.STANLEY, TheoremId.HONG, TheoremId.HSF,
          TheoremId.LEMMA3_BOUND, TheoremId.THM11)
# A verdict's possible statuses, in report order.
STATUSES = ("holds", "vacuous", "violated", "inconclusive")


@dataclass(frozen=True)
class CounterexampleReport:
    """A reproducible violation: the graph, the claim, and the numbers.

    ``graph`` is graph6 text up to n = 62 and plain edge-list text beyond
    (``graph_format`` says which). Re-running the named checker on the
    embedded graph must reproduce the violated verdict.
    """

    theorem: str
    graph_format: str
    graph: str
    quantities: dict = field(default_factory=dict)
    witness: dict = field(default_factory=dict)

    @classmethod
    def of_graph(cls, g: Graph, theorem: str, quantities: dict,
                 witness: dict | None = None) -> "CounterexampleReport":
        """The report of a violation of ``theorem`` on g, which is embedded
        as ``graph_text(g)`` gives it."""
        graph_format, graph = graph_text(g)
        return cls(theorem, graph_format, graph, quantities, witness or {})

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "graph_format": self.graph_format,
            "graph": self.graph,
            "quantities": dict(sorted(self.quantities.items())),
            "witness": dict(sorted(self.witness.items())),
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of one theorem check on one graph."""

    status: str  # one of STATUSES
    reason: str = ""
    counterexample: CounterexampleReport | None = None

    @classmethod
    def holds(cls, reason: str = "") -> "Verdict":
        return cls("holds", reason)

    @classmethod
    def vacuous(cls, reason: str = "") -> "Verdict":
        return cls("vacuous", reason)

    @classmethod
    def violated(cls, counterexample: CounterexampleReport) -> "Verdict":
        return cls("violated", "", counterexample)

    @classmethod
    def inconclusive(cls, reason: str = "") -> "Verdict":
        return cls("inconclusive", reason)

    def to_dict(self) -> dict:
        out = {"status": self.status}
        if self.reason:
            out["reason"] = self.reason
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_dict()
        return out
