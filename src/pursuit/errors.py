"""Exception types and the shared check-result record."""

from __future__ import annotations

from dataclasses import dataclass


class PursuitError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(PursuitError):
    """Malformed graph, order, or transcript file."""


class GeneratorContractError(PursuitError):
    """A lazy-graph oracle broke its contract: asymmetric neighbourhoods,
    missing self-adjacency, unbounded neighbour sets, or clashing canonical
    ranks."""


class GraphTooLargeError(PursuitError):
    """A graph would have more vertices than ``MAX_FILE_ORDER``; raised
    before the graph's memory is taken."""

    def __init__(self, limit: int):
        super().__init__(f"more vertices than {limit}, the largest graph file order")


class InvalidOrderError(PursuitError):
    """An order object violates its structural invariants (non-permutation
    sequence, dominator cycle, or a chain that never reaches its terminal)."""


class NontotalRetractionError(PursuitError):
    """A dismantling-flavoured projection was queried at a point where the
    dominator chain never reaches the requested suffix."""

    def __init__(self, cutoff: int, vertex: int):
        self.cutoff = cutoff
        self.vertex = vertex
        super().__init__(
            f"projection onto ranks >= {cutoff} is undefined at vertex {vertex}"
        )


class StrategyError(PursuitError):
    """Base class for strategy and policy failures."""


class StrategyInapplicableError(StrategyError):
    """A move rule has no legal target in the current configuration."""


class StrategyUndefinedError(StrategyError):
    """The prefix recursion bottomed out on a configuration it does not
    cover (unreachable under the standard start)."""


class ScriptError(StrategyError):
    """A scripted robber move is illegal from the current position."""


class TranscriptFaultError(PursuitError):
    """An evaluator was applied to an aborted transcript."""


class EngineInvariantError(PursuitError):
    """A pursuit invariant that should hold by construction failed during play."""


class ProtectiveContradictionError(PursuitError):
    """A timing profile contradicts the protective-strategy requirements
    (horizon too small or the strategy is not protective)."""


def parse_file(path, parse):
    """``parse`` applied to the text of the file at ``path``, read with no
    newline translation (the parsers split at ``"\n"`` only). A
    GraphFormatError it raises, or text that is not UTF-8, comes out as a
    GraphFormatError naming the file: ``{path} line N: ...`` or ``{path}: ...``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return parse(fh.read())
    except (GraphFormatError, UnicodeDecodeError) as err:
        msg = str(err)
        raise GraphFormatError(f"{path}{'' if msg.startswith('line ') else ':'} {msg}") from None


def write_file(path, text: str) -> None:
    """Write ``text`` to the file at ``path`` as UTF-8: the package's one
    text writer."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a verification: `ok` plus the first offending location."""

    ok: bool
    where: object = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok
