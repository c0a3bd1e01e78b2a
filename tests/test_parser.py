"""Grammar, canonical printing, and tree navigation."""

import copy
import pickle
import sys
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import folkit.parser as parser_module
from folkit.fol import (
    BinaryOp,
    FolRule,
    Group,
    Literal,
    Negation,
    InvalidLocation,
    atoms,
    get_node,
    iter_locations,
    literal_occurrences,
    print_canonical,
    tokens,
)
from folkit.forge import _count_operators
from folkit.metrics import reward, reward_detail
from folkit.parser import MAX_OPERATORS, FolSyntaxError, _is_name, parse, roundtrip_stable, validate
from helpers import replace_node
from parser_reference import parse as reference_parse


def test_simple_literal():
    rule = parse("P(A)")
    assert rule == FolRule((), Literal("P", ("A",)))


def test_quantifier_prefix():
    rule = parse("∀x ∃y Likes(x, y)")
    assert rule.prefix == (("∀", "x"), ("∃", "y"))
    assert rule.body == Literal("Likes", ("x", "y"))


def test_ascii_aliases_normalize():
    rule = parse("forall x (P(x) & Q(x) -> ~R(x))")
    assert print_canonical(rule) == "∀x (P(x) ∧ Q(x) → ¬R(x))"


def test_all_connectives_roundtrip():
    text = "∀x (P(x) ∧ Q(x) ∨ R(x) ⊕ S(x) → T(x) ↔ U(x))"
    assert print_canonical(parse(text)) == text


def test_precedence_and_binds_tighter_than_or():
    rule = parse("P(A) ∨ Q(A) ∧ R(A)")
    assert rule.body.op == "∨"
    assert rule.body.right == BinaryOp("∧", Literal("Q", ("A",)), Literal("R", ("A",)))


def test_implication_is_right_associative():
    rule = parse("P(A) → Q(A) → R(A)")
    assert rule.body.op == "→"
    assert rule.body.left == Literal("P", ("A",))
    assert rule.body.right.op == "→"


def test_conjunction_is_left_associative():
    rule = parse("P(A) ∧ Q(A) ∧ R(A)")
    assert rule.body.left == BinaryOp("∧", Literal("P", ("A",)), Literal("Q", ("A",)))


def test_groups_are_preserved():
    rule = parse("(P(A))")
    assert rule.body == Group(Literal("P", ("A",)))
    assert print_canonical(rule) == "(P(A))"


def test_negated_literal_vs_negated_group():
    assert parse("¬P(A)").body == Literal("P", ("A",), negated=True)
    assert parse("¬(P(A))").body == Negation(Literal("P", ("A",)))


@pytest.mark.parametrize("bad", [
    "y = a ∨ y = b",
    "a ∧ b ∧ c",
    "P(x) = Q(x)",
    "P(x) ≠ Q(x)",
    "50%(x)",
    "P(x)!",
    "",
    "P",
    "P()",
    "∀x P(x) ∧ ∃y Q(y)",  # quantifier not at the beginning
    "∀P Q(P)",  # quantified name is not a variable
    "∀x ∀x P(x)",  # duplicate quantification
    "P(x) ∧",
    "(P(x)",
])
def test_rejected_strings(bad):
    assert not validate(bad)
    with pytest.raises(FolSyntaxError):
        parse(bad)


def test_banned_symbol_position_reported():
    with pytest.raises(FolSyntaxError) as exc:
        parse("P(a) = Q(b)")
    assert exc.value.pos == 5


def test_validate_never_raises():
    assert validate("∀x P(x)").valid
    verdict = validate("∀x (")
    assert not verdict.valid and verdict.reason


def test_validate_strict_predicate_length():
    assert validate("MoonShinesAtNight(A)").valid


def test_free_variables_allowed():
    assert validate("∀x Owns(x, y)")
    assert parse("∀x Owns(x, y)").body == Literal("Owns", ("x", "y"))


def test_atoms_dedup_first_occurrence_order():
    rule = parse("¬P(A) ∨ Q(A) ∧ P(A)")
    assert atoms(rule) == [Literal("P", ("A",)), Literal("Q", ("A",))]
    assert atoms(rule)[1] is literal_occurrences(rule)[1]  # a positive literal is its own atom


def test_tokens_are_tree_leaves():
    rule = parse("∀x (P(x) → ¬Q(x, B))")
    assert tokens(rule) == [
        "∀", "x", "(", "P", "(", "x", ")", "→", "¬", "Q", "(", "x", ",", "B", ")", ")",
    ]


def test_node_navigation():
    rule = parse("(P(A) ∧ Q(B)) → R(C)")
    assert get_node(rule, ("body", 0, 0, 1)) == Literal("Q", ("B",))
    swapped = replace_node(rule, ("body", 1), Literal("S", ("D",)))
    assert print_canonical(swapped) == "(P(A) ∧ Q(B)) → S(D)"
    # original untouched
    assert print_canonical(rule) == "(P(A) ∧ Q(B)) → R(C)"


def test_iter_locations_covers_every_node():
    rule = parse("¬(P(A) ∨ Q(B))")
    locs = dict(iter_locations(rule))
    assert ("body",) in locs
    assert locs[("body", 0, 0)] == Literal("P", ("A",))


def test_roundtrip_stable_on_parsed_rules():
    for text in ["∀x P(x)", "¬(P(A)) ↔ (Q(B) ⊕ R(C))", "∃z (Tall(z) ∧ ¬Short(z))"]:
        assert roundtrip_stable(parse(text))


# ---------------------------------------------------------------------------
# size bound: the parser, the recursive folds fol.node_text, fol.tokens and
# metrics._compile_table, and the compiled truth table stay under the default
# recursion limit


def _nested(n):
    return "(" * n + "P(A)" + ")" * n


def _chain(op, n_ops):
    return f" {op} ".join(f"P{i}(A)" for i in range(n_ops + 1))


@pytest.mark.parametrize("build, offending", [
    (_nested, lambda text: MAX_OPERATORS),  # the first "(" past the bound
    (lambda n: "∀x " + _nested(n), lambda text: 3 + MAX_OPERATORS),  # the body's "(" counts too
    (lambda n: _chain("→", n), lambda text: text.rindex("→")),
    (lambda n: _chain("∧", n), lambda text: text.rindex("∧")),
], ids=["parentheses", "parentheses-after-prefix", "implication-chain", "conjunction-chain"])
def test_operator_bound(build, offending):
    at_bound = build(MAX_OPERATORS)
    assert validate(at_bound)
    assert roundtrip_stable(parse(at_bound))
    assert reward_detail(at_bound, at_bound).bleu == 1.0
    over = build(MAX_OPERATORS + 1)
    assert not validate(over)
    with pytest.raises(FolSyntaxError) as exc:
        parse(over)
    assert exc.value.pos == offending(over)


_DIALECT_TOKENS = [
    "∀x", "∃y", "forall z", "¬", "~", "∧", "&", "∨", "|", "⊕", "xor", "→", "->", "↔", "<->",
    "(", ")", ",", "P", "Q(x)", "R(A, b)", "x", "A", "=", "%", "",
]
_OPS = ["∧", "∨", "⊕", "→", "↔"]

_dialect_text = st.one_of(
    st.lists(st.sampled_from(_DIALECT_TOKENS), max_size=40).map(" ".join),
    st.builds(lambda n, neg: ("¬(" if neg else "(") * n + "P(A)" + ")" * n,
              st.integers(0, 400), st.booleans()),
    st.builds(lambda n, op: f" {op} ".join(["P(A)"] * n), st.integers(1, 1500), st.sampled_from(_OPS)),
)


@given(_dialect_text)
def test_validate_never_raises_and_valid_rules_score(text):
    verdict = validate(text)
    if verdict:
        assert reward(text, text) == 1.0
    else:
        assert verdict.reason


def _depth():
    """The recursion depth of the caller as the interpreter counts it, C calls
    between Python frames included: probed by recursing up to the limit."""
    def down(n):
        try:
            return down(n + 1)
        except RecursionError:
            return n

    return sys.getrecursionlimit() - down(1) - 1


@pytest.mark.parametrize("text", [
    "¬(" * MAX_OPERATORS + "P(A)" + ")" * MAX_OPERATORS,
    _chain("→", MAX_OPERATORS),
], ids=["nested-negations", "implication-chain"])
def test_parse_at_the_bound_within_its_frame_budget(text):
    # the budget of the MAX_OPERATORS comment in folkit/parser.py
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(_depth() + MAX_OPERATORS + 10)
        rule = parse(text)
    finally:
        sys.setrecursionlimit(old)
    assert rule == reference_parse(text)


# ---------------------------------------------------------------------------
# the one-scan, precedence-climbing parser agrees with the recursive-descent
# parser it replaced (tests/parser_reference.py) on trees, messages and positions


def _outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except FolSyntaxError as exc:
        return str(exc), exc.pos


# keywords touching non-ASCII word characters, and non-ASCII names
_WORDY = ["forallé", "xoré", "éxor", "existsé", "éforall", "xor_é", "é", "ℕ", "x²", "xor", "forall", "exists"]
_SPACES = [" ", "\t", "\n", "\xa0", ""]
_ASCII_OPS = ["xor", "->", "<->", "&", "|"]


def _chain_ending(n, op, last, end, sep):
    """n binary operators between literals, the last of them written last, then end."""
    return sep.join(["P(A)"] + [op, "P(A)"] * (n - 1) + [last, end])


_parser_text = st.one_of(
    _dialect_text,
    st.lists(st.tuples(st.sampled_from(_DIALECT_TOKENS + _WORDY), st.sampled_from(_SPACES)), max_size=30).map(
        lambda parts: "".join(tok + space for tok, space in parts)),
    st.builds(_chain_ending, st.integers(MAX_OPERATORS - 1, MAX_OPERATORS + 2), st.sampled_from(_OPS + _ASCII_OPS),
              st.sampled_from(_ASCII_OPS + ["xoré", "éxor"]), st.sampled_from(["P(A)", "P(A)é", "é", "", "(P(A))"]),
              st.sampled_from(_SPACES[:4])),
    st.builds(lambda prefix, n, neg: prefix + ("¬(" if neg else "(") * n + "P(A)" + ")" * n,
              st.sampled_from(["", "∀x ", "forall x ∃y ", "P(A) ∧ "]), st.integers(MAX_OPERATORS - 1, MAX_OPERATORS + 2),
              st.booleans()),
)


@settings(max_examples=400)
@given(_parser_text)
@example(_chain_ending(MAX_OPERATORS, "∧", "xoré", "P(A)", " "))  # "xor" is a name there, so "é" is the error
@example(_chain_ending(MAX_OPERATORS + 1, "∧", "xor", "P(A)", " "))
@example(_chain_ending(MAX_OPERATORS, "∧", "&", "P(A)", "\xa0") + "\t\n")
@example("forallé x P(x)")
@example("P(x) ) é")
@example(_chain("∧", 59))  # 299 tokens and 119 "(" and operators, of which 59 operators
@example(_chain("∧", MAX_OPERATORS))
@example(_chain("∧", MAX_OPERATORS + 1))
@example("∀x (" + _chain("→", MAX_OPERATORS - 1).replace("(A)", "(x, A)") + ")")
@example("∀x (" + _chain("→", MAX_OPERATORS).replace("(A)", "(x, A)") + ")")
def test_parse_matches_reference_parser(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text)


def test_argument_lists_spare_a_valid_long_rule_the_rescan(monkeypatch):
    """Past the cheap bound, an exact count on the tokens decides the rescan."""
    rescans = []
    real_check = parser_module._check_tokens
    monkeypatch.setattr(parser_module, "_check_tokens", lambda text: rescans.append(text) or real_check(text))
    text = _chain("∧", 59)
    assert parse(text) == reference_parse(text)
    assert rescans == []
    with pytest.raises(FolSyntaxError):
        parse(_chain("∧", MAX_OPERATORS + 1))
    assert len(rescans) == 1


def test_syntax_error_pickles_and_copies():
    with pytest.raises(FolSyntaxError) as info:
        parse("P(x) ∧")
    for exc in (FolSyntaxError("x", 3), info.value):
        for clone in (pickle.loads(pickle.dumps(exc)), copy.copy(exc), copy.deepcopy(exc)):
            assert type(clone) is FolSyntaxError
            assert (str(clone), clone.pos) == (str(exc), exc.pos)


# ---------------------------------------------------------------------------
# roundtrip_stable decides on the tree what printing and reparsing would


def _reparses_to_itself(rule):
    """The reference: print, then parse back."""
    try:
        return parse(print_canonical(rule)) == rule
    except FolSyntaxError:
        return False


_GOOD_NAMES = ["P", "Q", "x", "y", "A", "x1", "_a", "Likes", "camelCase", "X", "forallx", "xor_", "Exists"]
_KEYWORDS = ["forall", "exists", "xor"]
_BAD_NAMES = [
    *_KEYWORDS,
    "é", "Père", "x²", "ℕ", "Ωx",  # non-ASCII
    "", "a b", "1x", "x-y", "∀", "P(A)",  # not one identifier
]
_name = st.one_of(st.sampled_from(_GOOD_NAMES), st.sampled_from(_GOOD_NAMES + _BAD_NAMES))
_literal = st.builds(Literal, _name, st.lists(_name, max_size=3).map(tuple), st.booleans())
_formula = st.recursive(
    _literal,
    lambda kids: st.one_of(
        st.builds(Negation, kids),
        st.builds(Group, kids),
        st.builds(BinaryOp, st.sampled_from(_OPS), kids, kids),
    ),
    max_leaves=8,
)
_prefix = st.lists(st.tuples(st.sampled_from(["∀", "∃", "forall"]), _name), max_size=3).map(tuple)


def _bare_nest(parent, child, side, leaf=Literal("P", ("A",))):
    inner = BinaryOp(child, leaf, leaf)
    return BinaryOp(parent, inner, leaf) if side == "left" else BinaryOp(parent, leaf, inner)


def _sized(n, kinds):
    """A body with exactly n operators, groups and negations, wrapped around one literal."""
    node = Literal("P", ("A",))
    for kind in kinds[:n]:
        if kind == "group":
            node = Group(node)
        elif kind == "negation":
            node = Negation(node)
        else:
            node = BinaryOp(kind, node, Literal("Q", ("B",)))
    return node


_bounded = st.builds(
    _sized,
    st.sampled_from([MAX_OPERATORS - 1, MAX_OPERATORS, MAX_OPERATORS + 1]),
    st.lists(st.sampled_from(["group", "negation", "∧"]), min_size=MAX_OPERATORS + 1, max_size=MAX_OPERATORS + 1),
)


def test_roundtrip_stable_on_every_bare_operator_pair():
    for parent, child, side in product(_OPS, _OPS, ("left", "right")):
        rule = FolRule((), _bare_nest(parent, child, side))
        assert roundtrip_stable(rule) == _reparses_to_itself(rule), (parent, child, side)


_rules = st.one_of(
    st.builds(FolRule, _prefix, _formula),
    st.builds(lambda prefix, p, c, side: FolRule(prefix, _bare_nest(p, c, side)),
              _prefix, st.sampled_from(_OPS), st.sampled_from(_OPS), st.sampled_from(["left", "right"])),
    st.builds(FolRule, st.sampled_from([(), (("∀", "x"),)]), _bounded),
)


@settings(max_examples=600)
@given(_rules)
def test_roundtrip_stable_matches_reparse(rule):
    assert roundtrip_stable(rule) == _reparses_to_itself(rule)


@settings(max_examples=300)
@given(st.one_of(
    st.sampled_from(_GOOD_NAMES + _BAD_NAMES),
    st.text(st.sampled_from("aZ_0 x9(),é\tℕ"), max_size=4),
    st.text(max_size=3),
    st.sampled_from(_KEYWORDS).flatmap(lambda k: st.sampled_from([k + "é", "é" + k, k + "_", k + "1", "_" + k])),
))
def test_is_name_is_what_parses_back_as_one_argument(s):
    try:
        one_argument = parse(f"P({s})").body == Literal("P", (s,))
    except FolSyntaxError:
        one_argument = False
    assert _is_name(s) == one_argument


# ---------------------------------------------------------------------------
# the one walk and the one descent agree with the recursive code they replaced


def _ref_iter_locations(rule):
    def walk(node, path):
        yield ("body",) + path, node
        if isinstance(node, (Negation, Group)):
            yield from walk(node.child, path + (0,))
        elif isinstance(node, BinaryOp):
            yield from walk(node.left, path + (0,))
            yield from walk(node.right, path + (1,))

    yield from walk(rule.body, ())


def _ref_literal_occurrences(rule):
    out = []

    def walk(node):
        if isinstance(node, Literal):
            out.append(node)
        elif isinstance(node, (Negation, Group)):
            walk(node.child)
        else:
            walk(node.left)
            walk(node.right)

    walk(rule.body)
    return out


def _ref_count_operators(rule):
    counts = Counter()
    for q, _ in rule.prefix:
        counts[q] += 1

    def walk(node):
        if isinstance(node, Literal):
            if node.negated:
                counts["¬"] += 1
        elif isinstance(node, Negation):
            counts["¬"] += 1
            walk(node.child)
        elif isinstance(node, BinaryOp):
            counts[node.op] += 1
            walk(node.left)
            walk(node.right)
        else:
            walk(node.child)

    walk(rule.body)
    return counts


def _ref_replace_node(rule, loc, new):
    def rebuild(node, path):
        if not path:
            return new
        idx = path[0]
        if isinstance(node, Negation) and idx == 0:
            return Negation(rebuild(node.child, path[1:]))
        if isinstance(node, Group) and idx == 0:
            return Group(rebuild(node.child, path[1:]))
        if isinstance(node, BinaryOp) and idx in (0, 1):
            if idx == 0:
                return BinaryOp(node.op, rebuild(node.left, path[1:]), node.right)
            return BinaryOp(node.op, node.left, rebuild(node.right, path[1:]))
        raise InvalidLocation(f"no child {idx} under {node!r}")

    return FolRule(rule.prefix, rebuild(rule.body, tuple(loc[1:])))


@settings(max_examples=300)
@given(_rules)
def test_walk_and_descent_match_recursive_references(rule):
    walked = list(iter_locations(rule))
    assert walked == list(_ref_iter_locations(rule))
    assert literal_occurrences(rule) == _ref_literal_occurrences(rule)
    assert _count_operators(rule) == _ref_count_operators(rule)
    new = Literal("Z", ("A",))
    for loc, node in walked:
        assert get_node(rule, loc) is node
        assert replace_node(rule, loc, new) == _ref_replace_node(rule, loc, new)


_NAV_RULE = parse("(P(A) ∧ Q(B)) → R(C)")


@pytest.mark.parametrize("loc", [
    ("body", -1), ("body", 2), ("body", 0, 1), ("body", 1, 0), ("body", "0"), ("body", 0, 0, None), ("prefix", 0), (),
], ids=["negative", "past-binary", "past-group", "under-literal", "string", "none", "prefix", "empty"])
@pytest.mark.parametrize("navigate", [
    get_node, lambda rule, loc: replace_node(rule, loc, Literal("Z", ("A",))),
], ids=["get_node", "replace_node"])
def test_invalid_locations_raise(navigate, loc):
    with pytest.raises(InvalidLocation):
        navigate(_NAV_RULE, loc)
