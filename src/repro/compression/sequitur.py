"""Sequitur grammar inference.

TADOC "extends Sequitur as its core algorithm" (paper section II-A).
This module implements the classic online Sequitur algorithm
(Nevill-Manning & Witten) over integer token streams.  The algorithm
maintains two invariants while consuming the input one symbol at a
time:

* **digram uniqueness** — no pair of adjacent symbols appears more than
  once in the grammar; a repeated digram is replaced by a rule, and
* **rule utility** — every rule (other than the start rule) is used at
  least twice; a rule that drops to a single use is inlined again.

The output is converted into the immutable
:class:`~repro.compression.grammar.Grammar` representation used by the
rest of the library (rule 0 = root).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.compression.grammar import Grammar, Rule, make_rule_ref

__all__ = ["SequiturEncoder"]


class _SequiturRule:
    """Internal mutable rule: a circular doubly-linked list with a guard node."""

    __slots__ = ("encoder", "number", "reference_count", "guard")

    def __init__(self, encoder: "SequiturEncoder") -> None:
        self.encoder = encoder
        self.number = encoder._next_rule_number()
        self.reference_count = 0
        self.guard = _SequiturSymbol(encoder, rule=self, is_guard=True)
        self.guard.next = self.guard
        self.guard.prev = self.guard

    def first(self) -> "_SequiturSymbol":
        return self.guard.next

    def last(self) -> "_SequiturSymbol":
        return self.guard.prev

    def append_value(self, terminal: Optional[int] = None, rule: Optional["_SequiturRule"] = None) -> None:
        """Append a fresh symbol to the rule body and run the digram check."""
        symbol = _SequiturSymbol(self.encoder, terminal=terminal, rule=rule)
        self.last().insert_after(symbol)
        self.last().prev.check()


class _SequiturSymbol:
    """A node in a rule body: either a terminal or a reference to a rule."""

    __slots__ = ("encoder", "next", "prev", "terminal", "rule", "is_guard")

    def __init__(
        self,
        encoder: "SequiturEncoder",
        terminal: Optional[int] = None,
        rule: Optional[_SequiturRule] = None,
        is_guard: bool = False,
    ) -> None:
        self.encoder = encoder
        self.next: Optional[_SequiturSymbol] = None
        self.prev: Optional[_SequiturSymbol] = None
        self.terminal = terminal
        self.rule = rule
        self.is_guard = is_guard
        if rule is not None and not is_guard:
            rule.reference_count += 1

    # -- value / digram helpers ------------------------------------------------
    @property
    def is_nonterminal(self) -> bool:
        return self.rule is not None and not self.is_guard

    def value(self) -> Hashable:
        """Hashable symbol value used as a digram-index component."""
        if self.is_nonterminal:
            return ("R", self.rule.number)
        return self.terminal

    def digram_key(self) -> Tuple[Hashable, Hashable]:
        return (self.value(), self.next.value())

    # -- linked-list operations ---------------------------------------------------
    def join(self, right: "_SequiturSymbol") -> None:
        """Link ``self -> right`` and keep the digram index consistent."""
        if self.next is not None:
            self.delete_digram()
            # Triple handling (e.g. "a a a"): re-register the digrams that
            # the unlink may have invalidated, as in the reference code.
            if (
                right.prev is not None
                and right.next is not None
                and not right.is_guard
                and not right.next.is_guard
                and right.value() == right.prev.value()
                and right.value() == right.next.value()
            ):
                self.encoder._digrams[(right.value(), right.next.value())] = right
            if (
                self.prev is not None
                and self.next is not None
                and not self.is_guard
                and not self.prev.is_guard
                and self.value() == self.next.value()
                and self.value() == self.prev.value()
            ):
                self.encoder._digrams[(self.prev.value(), self.value())] = self.prev
        self.next = right
        right.prev = self

    def insert_after(self, symbol: "_SequiturSymbol") -> None:
        symbol.join(self.next)
        self.join(symbol)

    def unlink(self) -> None:
        """Remove this symbol from its rule body."""
        self.prev.join(self.next)
        if not self.is_guard:
            self.delete_digram()
            if self.is_nonterminal:
                self.rule.reference_count -= 1

    def delete_digram(self) -> None:
        """Remove the digram starting at this symbol from the index."""
        if self.is_guard or self.next is None or self.next.is_guard:
            return
        key = self.digram_key()
        if self.encoder._digrams.get(key) is self:
            del self.encoder._digrams[key]

    # -- the Sequitur invariants ---------------------------------------------------
    def check(self) -> bool:
        """Enforce digram uniqueness for the digram starting at ``self``.

        Returns ``True`` whenever the digram was already present in the
        index (including the self-match and overlapping cases), matching
        the reference implementation's semantics, which
        :meth:`substitute` relies on to decide whether the follow-up
        digram still needs checking.
        """
        if self.is_guard or self.next is None or self.next.is_guard:
            return False
        key = self.digram_key()
        match = self.encoder._digrams.get(key)
        if match is None:
            self.encoder._digrams[key] = self
            return False
        if match is not self and match.next is not self:
            self._process_match(match)
        return True

    def _process_match(self, match: "_SequiturSymbol") -> None:
        """Replace both occurrences of a repeated digram by a rule."""
        if match.prev.is_guard and match.next.next.is_guard:
            # The earlier occurrence is exactly an existing rule's body.
            rule = match.prev.rule
            self.substitute(rule)
        else:
            rule = _SequiturRule(self.encoder)
            rule.last().insert_after(match._copy_for_rule())
            rule.last().insert_after(match.next._copy_for_rule())
            match.substitute(rule)
            self.substitute(rule)
            # Register the new rule body's single digram last, as in the
            # reference implementation.
            self.encoder._digrams[rule.first().digram_key()] = rule.first()
        # Rule utility: inline a sub-rule that is now used only once.
        first = rule.first()
        if first.is_nonterminal and first.rule.reference_count == 1:
            first.expand()

    def _copy_for_rule(self) -> "_SequiturSymbol":
        if self.is_nonterminal:
            return _SequiturSymbol(self.encoder, rule=self.rule)
        return _SequiturSymbol(self.encoder, terminal=self.terminal)

    def substitute(self, rule: _SequiturRule) -> None:
        """Replace the digram starting at ``self`` with a reference to ``rule``."""
        prev = self.prev
        prev.next.unlink()
        prev.next.unlink()
        prev.insert_after(_SequiturSymbol(self.encoder, rule=rule))
        if not prev.check():
            prev.next.check()

    def expand(self) -> None:
        """Inline this non-terminal's rule (rule utility enforcement)."""
        left = self.prev
        right = self.next
        body_first = self.rule.first()
        body_last = self.rule.last()
        self.delete_digram()
        left.join(body_first)
        body_last.join(right)
        self.encoder._digrams[(body_last.value(), right.value())] = body_last


class SequiturEncoder:
    """Build a Sequitur grammar from an integer token stream.

    Example
    -------
    >>> grammar = SequiturEncoder().encode([1, 2, 3, 1, 2, 3, 1, 2])
    >>> grammar.expand_root()
    [1, 2, 3, 1, 2, 3, 1, 2]
    """

    def __init__(self) -> None:
        self._digrams: Dict[Tuple[Hashable, Hashable], _SequiturSymbol] = {}
        self._rule_counter = 0
        self._start: Optional[_SequiturRule] = None

    def _next_rule_number(self) -> int:
        number = self._rule_counter
        self._rule_counter += 1
        return number

    # -- public API --------------------------------------------------------------
    def encode(self, tokens: Iterable[int]) -> Grammar:
        """Consume ``tokens`` and return the resulting grammar.

        The encoder is single-use per *stream*: ``encode`` starts the
        stream, so it can only be called once.  Incremental callers use
        :meth:`begin` / :meth:`extend` / :meth:`snapshot` instead and
        may keep extending the same stream after snapshotting.
        """
        self.begin()
        self.extend(tokens)
        return self._build_grammar()

    def begin(self) -> "SequiturEncoder":
        """Start an (initially empty) stream; returns ``self`` for chaining."""
        if self._start is not None:
            raise RuntimeError("SequiturEncoder instances are single-use")
        self._start = _SequiturRule(self)
        return self

    def extend(self, tokens: Iterable[int]) -> None:
        """Append ``tokens`` to the live stream, maintaining both invariants.

        Because Sequitur is an online algorithm, extending a stream
        yields exactly the grammar that encoding the concatenated stream
        in one call would have produced.
        """
        if self._start is None:
            raise RuntimeError("call begin() (or encode()) before extend()")
        for token in tokens:
            if token < 0:
                raise ValueError("input tokens must be non-negative integers")
            self._start.append_value(terminal=int(token))

    def snapshot(self) -> Grammar:
        """An immutable :class:`Grammar` of the stream consumed so far.

        Non-destructive: the encoder stays live and :meth:`extend` may
        keep appending afterwards.
        """
        if self._start is None:
            raise RuntimeError("call begin() (or encode()) before snapshot()")
        return self._build_grammar()

    # -- invariant inspection (used by tests) -----------------------------------------
    def check_digram_uniqueness(self) -> bool:
        """True if no digram occurs twice across all live rule bodies.

        Overlapping occurrences (``a a a`` -> digram ``(a, a)`` at two
        positions sharing the middle symbol) are exempt, exactly as in
        the reference Sequitur implementation, because replacing them
        with a rule would be ambiguous.
        """
        occurrences: Dict[Tuple[Hashable, Hashable], List[Tuple[int, int]]] = {}
        for rule in self._live_rules():
            symbol = rule.first()
            position = 0
            while not symbol.is_guard and not symbol.next.is_guard:
                occurrences.setdefault(symbol.digram_key(), []).append(
                    (rule.number, position)
                )
                symbol = symbol.next
                position += 1
        for places in occurrences.values():
            if len(places) == 1:
                continue
            if len(places) > 2:
                return False
            (rule_a, pos_a), (rule_b, pos_b) = places
            if rule_a != rule_b or abs(pos_a - pos_b) != 1:
                return False
        return True

    def check_rule_utility(self) -> bool:
        """True if every non-start rule is referenced at least twice."""
        return all(rule.reference_count >= 2 for rule in self._live_rules() if rule is not self._start)

    def _live_rules(self) -> List[_SequiturRule]:
        """The rules reachable from the start rule, in discovery (DFS preorder) order.

        A rule that rule utility inlined is unreachable, so the encoder
        keeps no reference to it and the collector frees it.
        """
        assert self._start is not None
        seen = {self._start.number}
        ordered: List[_SequiturRule] = [self._start]
        stack: List[_SequiturRule] = [self._start]
        while stack:
            rule = stack.pop()
            symbol = rule.first()
            while not symbol.is_guard:
                if symbol.is_nonterminal and symbol.rule.number not in seen:
                    seen.add(symbol.rule.number)
                    ordered.append(symbol.rule)
                    stack.append(symbol.rule)
                symbol = symbol.next
        return ordered

    # -- conversion to the immutable Grammar -------------------------------------------
    def _build_grammar(self) -> Grammar:
        # Dense ids follow discovery order, starting at the root.
        ordered = self._live_rules()
        id_of = {rule.number: dense_id for dense_id, rule in enumerate(ordered)}
        rules: List[Rule] = []
        for dense_id, seq_rule in enumerate(ordered):
            body: List[int] = []
            symbol = seq_rule.first()
            while not symbol.is_guard:
                if symbol.is_nonterminal:
                    body.append(make_rule_ref(id_of[symbol.rule.number]))
                else:
                    body.append(int(symbol.terminal))
                symbol = symbol.next
            rules.append(Rule(rule_id=dense_id, symbols=body))
        return Grammar(rules)
