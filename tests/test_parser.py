"""Grammar, canonical printing, and tree navigation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from folkit.fol import (
    Atom,
    BinaryOp,
    FolRule,
    Group,
    Literal,
    Negation,
    atoms,
    free_variables,
    get_node,
    iter_locations,
    print_canonical,
    replace_node,
    tokens,
)
from folkit.metrics import reward, reward_detail
from folkit.parser import MAX_OPERATORS, FolSyntaxError, parse, roundtrip_stable, validate


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
    assert not validate("MoonShinesAtNight(A)", max_predicate_words=3)
    assert validate("EUCountry(A)", max_predicate_words=3).valid


def test_free_variables_allowed_and_reported():
    rule = parse("∀x Owns(x, y)")
    assert free_variables(rule) == ["y"]


def test_atoms_dedup_first_occurrence_order():
    rule = parse("¬P(A) ∨ Q(A) ∧ P(A)")
    assert atoms(rule) == [Atom("P", ("A",)), Atom("Q", ("A",))]


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
# size bound: every recursive walker stays under the default recursion limit


def _nested(n):
    return "(" * n + "P(A)" + ")" * n


def _chain(op, n_ops):
    return f" {op} ".join(f"P{i}(A)" for i in range(n_ops + 1))


@pytest.mark.parametrize("build, offending", [
    (_nested, lambda text: MAX_OPERATORS),  # the first "(" past the bound
    (lambda n: _chain("→", n), lambda text: text.rindex("→")),
    (lambda n: _chain("∧", n), lambda text: text.rindex("∧")),
], ids=["parentheses", "implication-chain", "conjunction-chain"])
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
