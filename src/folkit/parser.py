"""Precedence-climbing parser for the FOL dialect.

Accepts both the canonical Unicode connectives and ASCII aliases
(forall, exists, ~, &, |, ->, <->, xor) and normalizes to the Unicode AST.
Precedence, tightest first: ¬, ∧, ∨, ⊕, →, ↔.  ∧/∨/⊕/↔ associate left,
→ associates right.  Parentheses become explicit Group nodes so that
printing reproduces the source structure.

One regex scan splits the text into tokens. Each operand is then parsed by
one loop that folds the binary operators after it by strength (Pratt, "Top
down operator precedence", POPL 1973), not by one call per precedence level.
Character positions are worked out only when an error is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .fol import (
    AND,
    BINARY_OPS,
    EXISTS,
    FORALL,
    IFF,
    IMPLIES,
    NOT,
    OR,
    QUANTIFIERS,
    XOR,
    BinaryOp,
    FolRule,
    FormulaNode,
    Group,
    Literal,
    Negation,
    is_variable,
    iter_locations,
)


class FolSyntaxError(Exception):
    """Ungrammatical input; carries the character position of the offense."""

    def __init__(self, message: str, pos: int):
        # both in args, so that pickle and copy rebuild the error from them
        super().__init__(message, pos)
        self.pos = pos

    def __str__(self) -> str:
        message, pos = self.args
        return f"{message} (at position {pos})"


BANNED_SYMBOLS = ("=", "≠", "%", "!")

# Binary operators plus the parentheses of groups and negations, that is the
# inner nodes of the tree, so this also bounds its depth. The parser takes at
# most one frame per operator, so a rule at the bound parses within
# MAX_OPERATORS + 10 frames, the few extra ones being parse's own calls and
# the constructor of the innermost node. The recursive folds fol.node_text,
# fol.tokens and metrics._compile_table, and the compiled truth table when
# called, take one per level. So all stay under Python's default recursion
# limit of 1000 with room for their callers' frames.
MAX_OPERATORS = 100

# Every token text that is not a name, mapped to its canonical symbol. The
# words are keywords only between word boundaries: "forallé" is the name
# "forall", then a bad "é".
_SYMBOLS = {
    "∀": FORALL, "forall": FORALL,
    "∃": EXISTS, "exists": EXISTS,
    "¬": NOT, "~": NOT,
    "∧": AND, "&": AND,
    "∨": OR, "|": OR,
    "⊕": XOR, "xor": XOR,
    "↔": IFF, "<->": IFF,
    "→": IMPLIES, "->": IMPLIES,
    "(": "(", ")": ")", ",": ",",
}
_KEYWORD_RE = re.compile("|".join(rf"\b{s}\b" for s in _SYMBOLS if s.isalpha()))
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# A token is group 1. Any other character is matched outside the group, so
# findall yields "" for it and skips no character.
_TOKEN_RE = re.compile(
    r"\s*(?:("
    + "|".join(re.escape(s) for s in _SYMBOLS if not s.isalpha())
    + f"|{_KEYWORD_RE.pattern}|{_NAME_RE.pattern})|\\S)"
)
# canonical token texts that are no name; "" stands for a bad character and,
# at the bottom of a token stack, for the end of the text
_NOT_NAMES = frozenset(_SYMBOLS.values()) | {""}
_OPENERS = ("(", *BINARY_OPS)

# operator levels, loosest binding first; → is right-associative
_LEVELS = [
    (IFF, "left"),
    (IMPLIES, "right"),
    (XOR, "left"),
    (OR, "left"),
    (AND, "left"),
]
# binding strength of each binary operator (higher binds tighter), the side on
# which an operator nests under itself without parentheses, and the least
# strength of an operator inside its right operand
_STRENGTH = {op: level for level, (op, _) in enumerate(_LEVELS)}
_ASSOC_SIDE = {op: assoc for op, assoc in _LEVELS}
_RIGHT_MIN = {op: level + (assoc == "left") for level, (op, assoc) in enumerate(_LEVELS)}


def _tokenize(text: str) -> list[str]:
    """The canonical token texts as a stack: the last token on top, above ""
    for the end of the text."""
    toks = [_SYMBOLS.get(t, t) for t in _TOKEN_RE.findall(text)]
    # the count of every "(" and binary operator bounds the operators from
    # above; only past the bound are the argument lists taken off it
    if "" in toks or (
        len(toks) > MAX_OPERATORS
        and (bound := sum(map(toks.count, _OPENERS))) > MAX_OPERATORS
        and bound - _argument_lists(toks) > MAX_OPERATORS
    ):
        _check_tokens(text)
    toks.append("")
    toks.reverse()
    return toks


def _argument_lists(toks: list[str]) -> int:
    """The "(" that open a literal's arguments, in tokens free of bad
    characters, by _check_tokens' rule: one right after a name, unless that
    name follows a quantifier."""
    return sum(
        t == "(" and name not in _NOT_NAMES and before not in QUANTIFIERS
        for before, name, t in zip(["", "", *toks], ["", *toks], toks)
    )


def _check_tokens(text: str) -> None:
    """Raise at the first bad character or at the first operator past
    MAX_OPERATORS, whichever comes first.

    The operators are the binary operators and each parenthesis that opens no
    literal's arguments. One right after a name opens them, unless that name
    is a quantified variable.
    """
    operators = 0
    prev = prev2 = (None, False)  # the last two tokens: (canonical text, is a name)
    for m in _TOKEN_RE.finditer(text):
        t, pos = m.group(1), m.start(1)
        if t is None:
            pos = m.end() - 1
            raise FolSyntaxError(f"unexpected character {text[pos]!r}", pos)
        is_name = t not in _SYMBOLS or (t.isalpha() and not _KEYWORD_RE.match(text, pos))
        if not is_name:
            t = _SYMBOLS[t]
        if t in BINARY_OPS or (t == "(" and not (prev[1] and prev2[0] not in QUANTIFIERS)):
            operators += 1
            if operators > MAX_OPERATORS:
                raise FolSyntaxError(f"more than {MAX_OPERATORS} operators and parentheses", pos)
        prev2, prev = prev, (t, is_name)


class _Unexpected(Exception):
    """A parse error (message, n) at the token n places from the bottom of the stack."""


def _shown(tok: str) -> str:
    return repr(tok or "end of input")


def _rule(toks: list[str]) -> FolRule:
    prefix: list[tuple[str, str]] = []
    while toks[-1] in QUANTIFIERS:
        quant = toks.pop()
        var = toks.pop()
        if var in _NOT_NAMES:
            raise _Unexpected(f"expected a variable after quantifier, found {_shown(var)}", len(toks) + 1)
        if not is_variable(var):
            raise _Unexpected(f"quantified name {var!r} is not a variable", len(toks) + 1)
        if any(v == var for _, v in prefix):
            raise _Unexpected(f"variable {var!r} quantified twice", len(toks) + 1)
        prefix.append((quant, var))
    body = _formula(toks, 0)
    if len(toks) > 1:
        raise _Unexpected(f"unexpected {toks[-1]!r} after formula", len(toks))
    return FolRule(tuple(prefix), body)


def _formula(toks: list[str], min_strength: int) -> FormulaNode:
    """Pop one operand and every binary operator of at least min_strength
    that follows it, with its right operand."""
    t = toks.pop()
    if t not in _NOT_NAMES:
        left = _literal(t, False, toks)
    elif t == NOT:
        t = toks.pop()
        if t == "(":
            left = Negation(_formula(toks, 0))
            _close(toks)
        elif t in _NOT_NAMES:
            raise _Unexpected(f"expected a predicate name, found {_shown(t)}", len(toks) + 1)
        else:
            left = _literal(t, True, toks)
    elif t == "(":
        left = Group(_formula(toks, 0))
        _close(toks)
    elif t in QUANTIFIERS:
        raise _Unexpected("quantifiers are only allowed at the beginning", len(toks) + 1)
    else:
        raise _Unexpected(f"expected a formula, found {_shown(t)}", len(toks) + 1)
    while _STRENGTH.get(toks[-1], -1) >= min_strength:
        op = toks.pop()
        left = BinaryOp(op, left, _formula(toks, _RIGHT_MIN[op]))
    return left


def _literal(predicate: str, negated: bool, toks: list[str]) -> Literal:
    """Pop the argument list that follows a predicate name."""
    if toks[-1] != "(":
        raise _Unexpected(
            f"predicate {predicate!r} must be applied to arguments (zero-arity expressions are not allowed)",
            len(toks),
        )
    toks.pop()
    args = []
    while True:
        t = toks.pop()
        if t in _NOT_NAMES:
            raise _Unexpected(f"expected a term, found {_shown(t)}", len(toks) + 1)
        args.append(t)
        t = toks[-1]
        if t != ",":
            _close(toks)
            return Literal(predicate, tuple(args), negated)
        toks.pop()


def _close(toks: list[str]) -> None:
    t = toks.pop()
    if t != ")":
        raise _Unexpected(f"expected ')', found {_shown(t)}", len(toks) + 1)


def parse(text: str) -> FolRule:
    """Parse a FOL string into a rule, or raise FolSyntaxError."""
    for ch in BANNED_SYMBOLS:
        # banned even where the tokenizer could otherwise skip past them
        idx = text.find(ch)
        if idx != -1:
            raise FolSyntaxError(f"banned symbol {ch!r}", idx)
    toks = _tokenize(text)
    n = len(toks)
    try:
        return _rule(toks)
    except _Unexpected as exc:
        message, remaining = exc.args
        starts = [m.start(1) for m in _TOKEN_RE.finditer(text)] + [len(text)]
        raise FolSyntaxError(message, starts[n - remaining]) from None


@dataclass(frozen=True)
class Verdict:
    valid: bool
    reason: str = ""
    rule: FolRule | None = field(default=None, compare=False, repr=False)

    def __bool__(self) -> bool:
        return self.valid


def validate(text: str) -> Verdict:
    """Check a value against the grammar; never raises. A valid verdict
    carries the parsed rule."""
    if not isinstance(text, str):
        return Verdict(False, "not text")
    if not text.strip():
        return Verdict(False, "empty")
    try:
        rule = parse(text)
    except FolSyntaxError as exc:
        return Verdict(False, str(exc))
    return Verdict(True, rule=rule)


def _is_name(name: str) -> bool:
    """A name that _tokenize reads back as one identifier, not a keyword."""
    return _NAME_RE.fullmatch(name) is not None and name not in _SYMBOLS


def _nests_bare(parent: str, child: FormulaNode, side: str) -> bool:
    """A child printed without parentheses parses back under the parent operator."""
    if not isinstance(child, BinaryOp):
        return True
    strength = _STRENGTH.get(child.op, -1)
    return strength > _STRENGTH[parent] or (child.op == parent and _ASSOC_SIDE[parent] == side)


def roundtrip_stable(rule: FolRule) -> bool:
    """True when printing then reparsing reproduces the identical tree.

    Decided on the tree, without printing (Ramsey, "Unparsing expressions
    with prefix and postfix operators", SP&E 1998): the prefix quantifies
    distinct lowercase names; every name is an identifier and no keyword;
    every literal has arguments; every bare BinaryOp child binds tighter than
    its parent, or is the same operator on its associative side; and the rule
    has at most MAX_OPERATORS binary operators, groups and negations, the
    nodes whose symbols _check_tokens counts.
    """
    seen = set()
    for quant, var in rule.prefix:
        if quant not in (FORALL, EXISTS) or not _is_name(var) or not is_variable(var) or var in seen:
            return False
        seen.add(var)
    operators = 0
    for _, node in iter_locations(rule):
        if isinstance(node, Literal):
            if not node.args or not _is_name(node.predicate) or not all(map(_is_name, node.args)):
                return False
            continue
        operators += 1
        if isinstance(node, BinaryOp) and (
            node.op not in _STRENGTH
            or not (_nests_bare(node.op, node.left, "left") and _nests_bare(node.op, node.right, "right"))
        ):
            return False
    return operators <= MAX_OPERATORS
