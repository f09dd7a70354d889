"""Context-free grammar representation of TADOC compressed data.

A :class:`Grammar` is a list of :class:`Rule` objects.  Rule 0 is the
root and corresponds to ``R0`` in Figure 1 of the paper: the
concatenation of all files with splitter symbols at file boundaries.

Symbol encoding
---------------
Rule bodies are stored as flat lists of integers:

* a non-negative integer is a *terminal* (a word id or splitter id from
  the :class:`~repro.compression.dictionary.Dictionary`);
* a negative integer is a *rule reference*: rule ``r`` is encoded as
  ``-(r + 1)`` (so rule 0 is ``-1``, rule 1 is ``-2``, ...).

The helpers :func:`make_rule_ref`, :func:`is_rule_ref` and
:func:`rule_ref_id` convert between the two views and are used across
the whole library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = ["Rule", "Grammar", "make_rule_ref", "is_rule_ref", "rule_ref_id"]


def make_rule_ref(rule_id: int) -> int:
    """Encode ``rule_id`` as a (negative) symbol value."""
    if rule_id < 0:
        raise ValueError("rule ids are non-negative")
    return -(rule_id + 1)


def is_rule_ref(symbol: int) -> bool:
    """True if the encoded symbol refers to a rule."""
    return symbol < 0


def rule_ref_id(symbol: int) -> int:
    """Decode a rule-reference symbol back to its rule id."""
    if symbol >= 0:
        raise ValueError(f"symbol {symbol} is a terminal, not a rule reference")
    return -symbol - 1


@dataclass
class Rule:
    """A single grammar rule (a DAG node).

    Attributes
    ----------
    rule_id:
        Dense id; rule 0 is the root.
    symbols:
        The rule body using the encoding described in the module
        docstring.
    """

    rule_id: int
    symbols: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.symbols)

    def terminals(self) -> List[int]:
        """Terminal symbols (word/splitter ids) appearing in the body."""
        return [s for s in self.symbols if not is_rule_ref(s)]

    def subrule_ids(self) -> List[int]:
        """Rule ids referenced by the body, in order, with repetitions."""
        return [rule_ref_id(s) for s in self.symbols if is_rule_ref(s)]

    def subrule_frequencies(self) -> Dict[int, int]:
        """Mapping ``subrule id -> number of occurrences in this body``."""
        freqs: Dict[int, int] = {}
        for symbol in self.symbols:
            if is_rule_ref(symbol):
                child = rule_ref_id(symbol)
                freqs[child] = freqs.get(child, 0) + 1
        return freqs

    def terminal_frequencies(self) -> Dict[int, int]:
        """Mapping ``terminal id -> occurrences in this body``."""
        freqs: Dict[int, int] = {}
        for symbol in self.symbols:
            if not is_rule_ref(symbol):
                freqs[symbol] = freqs.get(symbol, 0) + 1
        return freqs


class Grammar:
    """An ordered collection of rules; rule 0 is the root."""

    ROOT_ID = 0

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules: List[Rule] = list(rules)
        if not self.rules:
            raise ValueError("a grammar needs at least a root rule")
        for expected, rule in enumerate(self.rules):
            if rule.rule_id != expected:
                raise ValueError(
                    f"rule ids must be dense and ordered; found {rule.rule_id} at {expected}"
                )
        self._validate_references()

    def _validate_references(self) -> None:
        for rule in self.rules:
            for symbol in rule.symbols:
                if is_rule_ref(symbol):
                    child = rule_ref_id(symbol)
                    if not 0 <= child < len(self.rules):
                        raise ValueError(
                            f"rule {rule.rule_id} references unknown rule {child}"
                        )
                    if child == rule.rule_id:
                        raise ValueError(f"rule {rule.rule_id} references itself")

    # -- container protocol --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __getitem__(self, rule_id: int) -> Rule:
        return self.rules[rule_id]

    @property
    def root(self) -> Rule:
        return self.rules[self.ROOT_ID]

    # -- analysis -------------------------------------------------------------------
    def total_symbols(self) -> int:
        """Total number of symbols across all rule bodies (compressed size)."""
        return sum(len(rule) for rule in self.rules)

    def expansion_lengths(self) -> List[int]:
        """Number of terminals each rule expands to (memoised bottom-up)."""
        lengths = [0] * len(self.rules)
        for rule_id in self._bottom_up_order():
            total = 0
            for symbol in self.rules[rule_id].symbols:
                if is_rule_ref(symbol):
                    total += lengths[rule_ref_id(symbol)]
                else:
                    total += 1
            lengths[rule_id] = total
        return lengths

    def _bottom_up_order(self) -> List[int]:
        """Rule ids ordered so every rule appears after all rules it references.

        Each stack frame keeps an iterator over its rule's body, so the
        walk reads every symbol once: O(:meth:`total_symbols`).
        """
        order: List[int] = []
        state = [0] * len(self.rules)  # 0 unvisited, 1 in progress, 2 done
        for start in range(len(self.rules)):
            if state[start] == 2:
                continue
            stack: List[Tuple[int, Iterator[int]]] = [(start, iter(self.rules[start].symbols))]
            state[start] = 1
            while stack:
                rule_id, body = stack[-1]
                for symbol in body:
                    if is_rule_ref(symbol):
                        child = rule_ref_id(symbol)
                        if state[child] == 0:
                            state[child] = 1
                            stack.append((child, iter(self.rules[child].symbols)))
                            break
                        if state[child] == 1:
                            raise ValueError("grammar contains a cycle")
                else:
                    stack.pop()
                    state[rule_id] = 2
                    order.append(rule_id)
        return order

    def expand_rule(self, rule_id: int) -> List[int]:
        """Fully expand ``rule_id`` into its terminal sequence (iterative DFS)."""
        output: List[int] = []
        stack: List[int] = [make_rule_ref(rule_id)]
        while stack:
            symbol = stack.pop()
            if is_rule_ref(symbol):
                body = self.rules[rule_ref_id(symbol)].symbols
                stack.extend(reversed(body))
            else:
                output.append(symbol)
        return output

    def expand_root(self) -> List[int]:
        """Expand the root rule (the full terminal stream with splitters)."""
        return self.expand_rule(self.ROOT_ID)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grammar):
            return NotImplemented
        return [(r.rule_id, r.symbols) for r in self.rules] == [
            (r.rule_id, r.symbols) for r in other.rules
        ]
