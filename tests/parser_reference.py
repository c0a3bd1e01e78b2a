"""The recursive-descent parser that folkit.parser replaced, kept as a reference.

A read-only oracle for the differential test in test_parser.py: a scan that
matches one token at a time, then one recursive method per precedence level.
It shares only the AST types, the error class and the size bound with the
package, so any difference in trees, messages or positions shows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from folkit.fol import (
    AND,
    EXISTS,
    FORALL,
    IFF,
    IMPLIES,
    NOT,
    OR,
    XOR,
    BinaryOp,
    FolRule,
    FormulaNode,
    Group,
    Literal,
    Negation,
    is_variable,
)
from folkit.parser import BANNED_SYMBOLS, MAX_OPERATORS, FolSyntaxError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<forall>∀|\bforall\b)
  | (?P<exists>∃|\bexists\b)
  | (?P<not>¬|~)
  | (?P<and>∧|&)
  | (?P<or>∨|\|)
  | (?P<xor>⊕|\bxor\b)
  | (?P<iff>↔|<->)
  | (?P<imp>→|->)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KIND_MAP = {
    "forall": ("QUANT", FORALL),
    "exists": ("QUANT", EXISTS),
    "not": ("NOT", NOT),
    "and": ("OP", AND),
    "or": ("OP", OR),
    "xor": ("OP", XOR),
    "imp": ("OP", IMPLIES),
    "iff": ("OP", IFF),
    "lparen": ("LPAREN", "("),
    "rparen": ("RPAREN", ")"),
    "comma": ("COMMA", ","),
    "ident": ("IDENT", None),
}


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    operators = 0
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            ch = text[pos]
            if ch in BANNED_SYMBOLS:
                raise FolSyntaxError(f"banned symbol {ch!r}", pos)
            raise FolSyntaxError(f"unexpected character {ch!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            name, value = _KIND_MAP[kind]
            # a parenthesis right after a predicate name opens a literal's arguments,
            # not a node; after a quantified variable it opens the body
            opens_args = tokens and tokens[-1].kind == "IDENT" and not (
                len(tokens) > 1 and tokens[-2].kind == "QUANT"
            )
            if name == "OP" or (name == "LPAREN" and not opens_args):
                operators += 1
                if operators > MAX_OPERATORS:
                    raise FolSyntaxError(f"more than {MAX_OPERATORS} operators and parentheses", m.start())
            tokens.append(_Token(name, value if value is not None else m.group(), m.start()))
        pos = m.end()
    tokens.append(_Token("EOF", "", n))
    return tokens


# operator levels, loosest binding first; → is right-associative
_LEVELS = [
    (IFF, "left"),
    (IMPLIES, "right"),
    (XOR, "left"),
    (OR, "left"),
    (AND, "left"),
]


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FolSyntaxError(f"expected {what}, found {tok.value or 'end of input'!r}", tok.pos)
        return self.next()

    def parse_rule(self) -> FolRule:
        prefix: list[tuple[str, str]] = []
        while self.peek().kind == "QUANT":
            quant = self.next().value
            var_tok = self.expect("IDENT", "a variable after quantifier")
            if not is_variable(var_tok.value):
                raise FolSyntaxError(f"quantified name {var_tok.value!r} is not a variable", var_tok.pos)
            if any(v == var_tok.value for _, v in prefix):
                raise FolSyntaxError(f"variable {var_tok.value!r} quantified twice", var_tok.pos)
            prefix.append((quant, var_tok.value))
        body = self.parse_formula(0)
        tok = self.peek()
        if tok.kind != "EOF":
            raise FolSyntaxError(f"unexpected {tok.value!r} after formula", tok.pos)
        return FolRule(tuple(prefix), body)

    def parse_formula(self, level: int) -> FormulaNode:
        if level >= len(_LEVELS):
            return self.parse_unary()
        op, assoc = _LEVELS[level]
        left = self.parse_formula(level + 1)
        while self.peek().kind == "OP" and self.peek().value == op:
            self.next()
            if assoc == "right":
                right = self.parse_formula(level)  # recurse at same level
                return BinaryOp(op, left, right)
            right = self.parse_formula(level + 1)
            left = BinaryOp(op, left, right)
        return left

    def parse_unary(self) -> FormulaNode:
        tok = self.peek()
        if tok.kind == "NOT":
            self.next()
            if self.peek().kind == "LPAREN":
                self.next()
                inner = self.parse_formula(0)
                self.expect("RPAREN", "')'")
                return Negation(inner)
            return self.parse_literal(negated=True)
        if tok.kind == "LPAREN":
            self.next()
            inner = self.parse_formula(0)
            self.expect("RPAREN", "')'")
            return Group(inner)
        if tok.kind == "IDENT":
            return self.parse_literal(negated=False)
        if tok.kind == "QUANT":
            raise FolSyntaxError("quantifiers are only allowed at the beginning", tok.pos)
        raise FolSyntaxError(f"expected a formula, found {tok.value or 'end of input'!r}", tok.pos)

    def parse_literal(self, negated: bool) -> Literal:
        pred = self.expect("IDENT", "a predicate name")
        tok = self.peek()
        if tok.kind != "LPAREN":
            raise FolSyntaxError(
                f"predicate {pred.value!r} must be applied to arguments (zero-arity expressions are not allowed)",
                tok.pos,
            )
        self.next()
        args = [self.expect("IDENT", "a term").value]
        while self.peek().kind == "COMMA":
            self.next()
            args.append(self.expect("IDENT", "a term").value)
        self.expect("RPAREN", "')'")
        return Literal(pred.value, tuple(args), negated)


def parse(text: str) -> FolRule:
    """Parse a FOL string into a rule, or raise FolSyntaxError."""
    for ch in BANNED_SYMBOLS:
        # banned even where the tokenizer could otherwise skip past them
        idx = text.find(ch)
        if idx != -1:
            raise FolSyntaxError(f"banned symbol {ch!r}", idx)
    return _Parser(_tokenize(text)).parse_rule()
