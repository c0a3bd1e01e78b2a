"""LE scoring, FOL BLEU, and the mixed reward.

Reference values are computed by brute force in the tests themselves
(truth-table enumeration over all bindings) rather than trusted from the
implementation under test.
"""

import copy
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from folkit.fol import atoms, is_variable
import folkit.metrics
from folkit.metrics import (
    MAX_ATOMS,
    Binding,
    GoldUnparseable,
    LeResult,
    RewardBreakdown,
    RewardConfig,
    TooManyAtoms,
    bind_atoms,
    fol_bleu,
    fol_tokenize,
    le_score,
    _bleu_from_tokens,
    _compile_table,
    levenshtein,
    mix,
    reward,
    reward_detail,
)
from folkit.parser import MAX_OPERATORS, parse
from folkit.perturb import random_rule
from folkit.fol import BinaryOp, FolRule, Group, Literal, Negation, print_canonical

from helpers import describe


# ---------------------------------------------------------------------------
# independent oracle: exhaustive best-binding LE


def _oracle_le(gold_text: str, pred_text: str) -> float:
    """Exhaustive maximum over all one-to-one atom bindings, dummies included."""
    gold, pred = parse(gold_text), parse(pred_text)
    p, q = atoms(gold), atoms(pred)
    arity = max(len(p), len(q))

    def truth(rule, atom_list, assignment):
        def ev(node):
            from folkit.fol import BinaryOp, Group, Literal, Negation

            if isinstance(node, Literal):
                v = assignment[(node.predicate, node.args)]
                return (not v) if node.negated else v
            if isinstance(node, (Negation, Group)):
                inner = ev(node.child)
                return (not inner) if isinstance(node, Negation) else inner
            a, b = ev(node.left), ev(node.right)
            return {
                "∧": a and b, "∨": a or b, "⊕": a != b,
                "→": (not a) or b, "↔": a == b,
            }[node.op]

        return ev(rule.body)

    best = 0.0
    # pad the shorter side with dummy slots and try every permutation
    q_slots = list(range(len(q))) + [None] * max(0, len(p) - len(q))
    for perm in itertools.permutations(q_slots, len(p)):
        if len(q) > len(p) and len(set(s for s in perm if s is not None)) < len([s for s in perm if s is not None]):
            continue
        matched = 0
        unbound_q = [j for j in range(len(q)) if j not in perm]
        for bits in itertools.product([False, True], repeat=arity):
            p_assign = {(a.predicate, a.args): bits[i] for i, a in enumerate(p)}
            q_assign = {}
            for i, slot in enumerate(perm):
                if slot is not None:
                    q_assign[(q[slot].predicate, q[slot].args)] = bits[i]
            for k, j in enumerate(unbound_q):
                q_assign[(q[j].predicate, q[j].args)] = bits[len(p) + k] if len(p) + k < arity else False
            if truth(gold, p, p_assign) == truth(pred, q, q_assign):
                matched += 1
        best = max(best, matched / (1 << arity))
    return best


# ---------------------------------------------------------------------------
# LE


def test_le_country_example_score_and_binding():
    gold = "∀x (Country(x) ∧ InEU(x) → EUCountry(x))"
    pred = "∀y (LocatedInEU(y) → EUCountry(y))"
    res = le_score(gold, pred)
    assert res.score == 0.875
    assert res.rows_matched == 7 and res.rows_total == 8
    described = describe(res.binding, atoms(parse(gold)), atoms(parse(pred)))
    assert described == [
        "Country(x) ↔ DUMMY",
        "InEU(x) ↔ LocatedInEU(y)",
        "EUCountry(x) ↔ EUCountry(y)",
    ]
    assert _oracle_le(gold, pred) == 0.875


def test_le_de_morgan_equivalence():
    assert le_score("¬(P(A) ∧ P(B))", "¬P(A) ∨ ¬P(B)").score == 1.0


def test_le_dummy_padding():
    # P(x) bound to itself, Q(y) dummy-bound: only the row (P=1, Q=0) differs
    assert le_score("∀x P(x)", "∀x ∀y P(x) ∧ Q(y)").score == 0.75


def test_le_identity():
    for text in ["P(A)", "∀x (P(x) → Q(x))", "¬(P(A)) ↔ Q(B) ⊕ R(C)"]:
        assert le_score(text, text).score == 1.0


def test_le_contradiction_scores_zero():
    assert le_score("P(A)", "¬P(A)").score == 0.0


def test_le_ignores_quantifier_prefix():
    assert le_score("∀x P(x)", "∃x P(x)").score == 1.0


def test_le_matches_oracle_on_random_pairs():
    rng = random.Random(11)
    agree = 0
    for _ in range(60):
        a = print_canonical(random_rule(rng, max_literals=3))
        b = print_canonical(random_rule(rng, max_literals=3))
        got = le_score(a, b).score
        want = _oracle_le(a, b)
        assert got <= want + 1e-12
        agree += got == want
    assert agree >= 57  # greedy search may rarely miss the exhaustive optimum


def test_le_too_many_atoms():
    parts = " ∧ ".join(f"P{i}(A)" for i in range(20))
    with pytest.raises(TooManyAtoms):
        le_score(parts, parts, RewardConfig(max_atoms=16))


# ---------------------------------------------------------------------------
# binding search


def test_bind_atoms_prefers_low_edit_distance():
    p = [a for a in atoms(parse("A(x)"))]
    q = [a for a in atoms(parse("B(y) ∧ A(y)"))]
    best = next(bind_atoms(p, q))
    assert best.pairs == ((0, 1), (None, 0))


def test_bind_atoms_identity_first():
    p = atoms(parse("P(A) ∧ Q(B)"))
    best = next(bind_atoms(p, p))
    assert best.pairs == ((0, 0), (1, 1))
    assert best.cost == 0


def test_bind_atoms_respects_search_cap():
    p = atoms(parse(" ∧ ".join(f"P{i}(A)" for i in range(6))))
    assert len(list(bind_atoms(p, p, search_cap=10))) == 10


# the frozen dataclass that Binding was, kept as the reference for its value contract
_DataclassBinding = dataclasses.make_dataclass(
    "Binding", [("pairs", tuple), ("arity", int), ("cost", int, dataclasses.field(default=0))], frozen=True
)

_COPIES = {
    **{f"pickle-{n}": (lambda v, n=n: pickle.loads(pickle.dumps(v, n))) for n in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("copier", _COPIES.values(), ids=_COPIES.keys())
def test_binding_and_results_survive_pickle_and_copy(copier):
    binding = Binding(((0, 1), (1, None), (None, 0)), 3, 4)
    le = LeResult(0.75, binding, 8, 6)
    breakdown = RewardBreakdown(0.8, 0.75, 0.9, binding, ["a note"])
    for value in (binding, le, breakdown):
        twin = copier(value)
        assert type(twin) is type(value)
        assert twin == value
    assert hash(copier(binding)) == hash(binding)
    assert hash(copier(le)) == hash(le)
    assert copier(breakdown).binding == binding


def test_binding_keeps_the_dataclass_value_contract():
    args = (((0, 1), (1, None), (None, 0)), 3, 4)
    binding, reference = Binding(*args), _DataclassBinding(*args)
    assert repr(binding) == repr(reference) == "Binding(pairs=((0, 1), (1, None), (None, 0)), arity=3, cost=4)"
    assert repr(Binding(((0, 0),), 1)) == repr(_DataclassBinding(((0, 0),), 1))
    assert repr(LeResult(1.0, binding, 8, 8)).endswith(f"binding={reference!r}, rows_total=8, rows_matched=8)")
    assert hash(binding) == hash(reference)
    assert binding == Binding(pairs=args[0], arity=3, cost=4)
    assert binding != Binding(args[0], 3, 5)
    assert binding != args and binding != reference
    assert Binding(((0, 0),), 1).cost == 0
    for name in ("pairs", "arity", "cost", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(binding, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(binding, name)
    assert binding == Binding(*args)


_LEAF = Literal("P", ("A", "x"))

# per frozen value class: the fields of the dataclass it was, then two argument
# tuples whose values differ; the second leaves out a defaulted field if any
_VALUE_CLASSES = [
    (Literal, [("predicate", str), ("args", tuple), ("negated", bool, dataclasses.field(default=False))],
     ("P", ("A", "x"), True), ("P", ("A", "x"))),
    (Negation, [("child", object)], (_LEAF,), (Group(_LEAF),)),
    (Group, [("child", object)], (_LEAF,), (Negation(_LEAF),)),
    (BinaryOp, [("op", str), ("left", object), ("right", object)], ("∧", _LEAF, Group(_LEAF)), ("∨", _LEAF, _LEAF)),
    (FolRule, [("prefix", tuple), ("body", object)], ((("∀", "x"),), _LEAF), ((), _LEAF)),
    (Binding, [("pairs", tuple), ("arity", int), ("cost", int, dataclasses.field(default=0))],
     (((0, 1), (1, None)), 2, 4), (((0, 1), (1, None)), 2)),
]


@pytest.mark.parametrize("cls, fields, args, other", _VALUE_CLASSES, ids=[c[0].__name__ for c in _VALUE_CLASSES])
def test_frozen_values_keep_the_dataclass_value_contract(cls, fields, args, other):
    reference = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    value = cls(*args)
    for some in (args, other):
        assert repr(cls(*some)) == repr(reference(*some))
        assert hash(cls(*some)) == hash(reference(*some))
    assert cls.__match_args__ == reference.__match_args__
    assert not hasattr(value, "__dict__")
    assert value == cls(*args) == cls(**dict(zip(cls.__match_args__, args)))
    assert value != cls(*other) and value != reference(*args) and value != args
    for copier in _COPIES.values():
        twin = copier(value)
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
    for name in (*cls.__match_args__, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert value == cls(*args)


def test_levenshtein():
    assert levenshtein("", "abc") == 3
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("same", "same") == 0


# the dynamic programme and the copying recursion that the bit-vector
# distance and the lazy search replaced, kept as references


def _dp_levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _reference_bind_atoms(p: list[Literal], q: list[Literal], search_cap: int) -> list[Binding]:
    def masked(atom):
        args = ["·" if is_variable(a) else a for a in atom.args]
        return f"{atom.predicate}({', '.join(args)})"

    n_p, n_q = len(p), len(q)
    dist = [[_dp_levenshtein(masked(pa), masked(qa)) for qa in q] for pa in p]
    results = []

    def search(i, claimed, dummies_left, acc):
        if len(results) >= search_cap:
            return
        if i == n_p:
            leftover = [(None, j) for j in range(n_q) if j not in claimed]
            cost = sum(dist[pi][qi] for pi, qi in acc if pi is not None and qi is not None)
            results.append(Binding(tuple(acc + leftover), max(n_p, n_q), cost))
            return
        choices = sorted((j for j in range(n_q) if j not in claimed), key=lambda j: dist[i][j])
        if dummies_left > 0:
            choices.append(None)
        for j in choices:
            if len(results) >= search_cap:
                return
            if j is None:
                search(i + 1, claimed, dummies_left - 1, acc + [(i, None)])
            else:
                claimed.add(j)
                search(i + 1, claimed, dummies_left, acc + [(i, j)])
                claimed.discard(j)

    search(0, set(), max(0, n_p - n_q), [])
    return results


# variable markers, brackets, commas and a non-ASCII letter; the length is drawn
# first, so that many strings run past one 64-bit word
_ATOM_TEXT = st.integers(0, 80).flatmap(lambda n: st.text(alphabet="Px·(,)é ", min_size=n, max_size=n))


@settings(max_examples=400, deadline=None)
@given(_ATOM_TEXT, _ATOM_TEXT)
def test_levenshtein_matches_dynamic_programme(a, b):
    assert levenshtein(a, b) == _dp_levenshtein(a, b)


# few names, so that many partners tie on distance
_ATOMS = st.builds(
    Literal,
    st.sampled_from(["P", "Q", "PQ", "Rab", "Rét"]),
    st.lists(st.sampled_from(["x", "y", "A", "B", "Ab"]), min_size=1, max_size=3).map(tuple),
)


@pytest.mark.parametrize("shape", ["more gold atoms", "fewer gold atoms", "equal counts"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_bind_atoms_follows_the_reference_order(shape, data):
    """Dummies (more gold atoms), leftovers (fewer) and plain permutations.

    Up to 7! = 5,040 bindings, so a cap of up to 1000 can stop the search
    midway through the enumeration.
    """
    hi = data.draw(st.integers(1, 7), label="larger count")
    lo = data.draw(st.integers(0, hi - 1), label="smaller count")
    n_p, n_q = {"more gold atoms": (hi, lo), "fewer gold atoms": (lo, hi), "equal counts": (hi, hi)}[shape]
    p = data.draw(st.lists(_ATOMS, min_size=n_p, max_size=n_p, unique=True), label="gold atoms")
    q = data.draw(st.lists(_ATOMS, min_size=n_q, max_size=n_q, unique=True), label="pred atoms")
    k = data.draw(st.integers(1, 1000), label="bindings taken")
    assert list(bind_atoms(p, q, k)) == _reference_bind_atoms(p, q, k)


# ---------------------------------------------------------------------------
# BLEU


def test_fol_tokenize():
    assert fol_tokenize("∀x P(x, B)") == ["∀", "x", "P", "(", "x", ",", "B", ")"]


def test_bleu_identity_is_one():
    text = "∀x (P(x) → Q(x))"
    assert fol_bleu(text, text) == pytest.approx(1.0)


def test_bleu_unparseable_pred_is_zero():
    assert fol_bleu("P(A)", "P(A) =") == 0.0


def test_bleu_partial_overlap_between_zero_and_one():
    score = fol_bleu("∀x (P(x) → Q(x))", "∀x (P(x) → R(x))")
    assert 0.0 < score < 1.0


def test_bleu_brevity_penalty():
    long = "P(A) ∧ Q(B) ∧ R(C)"
    short = "P(A)"
    # the short hypothesis is penalized relative to an equally-precise long one
    assert fol_bleu(long, short) < fol_bleu(short, short)


def test_bleu_hand_computed_unigram_case():
    # ref tokens: P ( A ) ; hyp tokens: P ( B ) -> unigram precision 3/4,
    # bigram 1/3, trigram smoothed 1/3, 4-gram smoothed 1/2, brevity 1.0
    import math

    want = (3 / 4 * 1 / 3 * 1 / 3 * 1 / 2) ** (1 / 4)
    assert fol_bleu("P(A)", "P(B)") == pytest.approx(want)
    assert math.isclose(fol_bleu("P(A)", "P(B)"), want)


def _reference_bleu(ref: list[str], hyp: list[str], max_n: int = 4) -> float:
    """BLEU with each n-gram sliced out of the token list on its own."""
    import math
    from collections import Counter

    if not hyp:
        return 0.0
    log_sum = 0.0
    used = 0
    for n in range(1, min(max_n, len(hyp)) + 1):
        hyp_counts = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
        ref_counts = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        clipped = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        total = len(hyp) - n + 1
        if clipped == 0:
            clipped, total = 1, total + 1
        log_sum += math.log(clipped / total)
        used += 1
    precision = math.exp(log_sum / used)
    brevity = 1.0 if len(hyp) >= len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return brevity * precision


_bleu_tokens = st.lists(st.sampled_from(["P", "(", "x", ")", "∧", "A"]), max_size=14)


@example(ref=[], hyp=["P", "(", "x", ")"])
@example(ref=["P", "(", "x", ")", "∧", "P", "(", "x", ")"], hyp=["P", "(", "x"])
@example(ref=["x", "x", "x", "x", "x"], hyp=["x", "x", "x", "x", "x", "x", "x"])
@given(ref=_bleu_tokens, hyp=_bleu_tokens)
def test_bleu_matches_sliced_ngram_reference(ref, hyp):
    assert _bleu_from_tokens(ref, hyp) == _reference_bleu(ref, hyp)


# ---------------------------------------------------------------------------
# reward


def test_mix_arithmetic():
    assert mix(0.875, 0.5, 0.7) == pytest.approx(0.7625, abs=1e-12)
    assert mix(1.0, 1.0) == 1.0
    assert mix(0.0, 1.0, 0.7) == pytest.approx(0.3)


def test_reward_unparseable_pred_is_zero():
    assert reward("P(A)", "P(A) ∧") == 0.0


def test_reward_gold_unparseable_raises():
    with pytest.raises(GoldUnparseable):
        reward("P(A) =", "P(A)")


def test_reward_detail_combines_components():
    detail = reward_detail("P(A)", "P(A)")
    assert detail.le == 1.0
    assert detail.bleu == pytest.approx(1.0)
    assert detail.reward == pytest.approx(1.0)
    assert detail.binding is not None


def test_reward_too_many_atoms_falls_back_to_bleu_only():
    parts = " ∧ ".join(f"P{i}(A)" for i in range(20))
    detail = reward_detail(parts, parts, RewardConfig(max_atoms=4))
    assert detail.le == 0.0
    assert detail.notes and "LE skipped" in detail.notes[0]
    assert detail.reward == pytest.approx(0.3 * detail.bleu)


def test_reward_config_validation():
    with pytest.raises(ValueError):
        RewardConfig(omega=1.5)
    with pytest.raises(ValueError):
        RewardConfig(max_atoms=0)


# ---------------------------------------------------------------------------
# bit-parallel LE against the per-row loop it replaced


def _reference_le(gold_text: str, pred_text: str, config: RewardConfig = RewardConfig()):
    """The row-at-a-time search: same bindings, one truth-table row per loop turn.

    Returns (score, rows_matched, binding pairs, binding cost).
    """
    from folkit.fol import BinaryOp, Group, Literal, Negation

    def compile_body(node, index):
        if isinstance(node, Literal):
            k = index[(node.predicate, node.args)]
            return (lambda v: not v[k]) if node.negated else (lambda v: v[k])
        if isinstance(node, (Negation, Group)):
            child = compile_body(node.child, index)
            return (lambda v: not child(v)) if isinstance(node, Negation) else child
        assert isinstance(node, BinaryOp)
        left, right = compile_body(node.left, index), compile_body(node.right, index)
        return {
            "∧": lambda v: left(v) and right(v),
            "∨": lambda v: left(v) or right(v),
            "⊕": lambda v: left(v) != right(v),
            "→": lambda v: (not left(v)) or right(v),
            "↔": lambda v: left(v) == right(v),
        }[node.op]

    gold, pred = parse(gold_text), parse(pred_text)
    p, q = atoms(gold), atoms(pred)
    eval_p = compile_body(gold.body, {(a.predicate, a.args): i for i, a in enumerate(p)})
    eval_q = compile_body(pred.body, {(a.predicate, a.args): i for i, a in enumerate(q)})
    arity = max(len(p), len(q))
    rows_total = 1 << arity
    best = None
    for binding in bind_atoms(p, q, config.search_cap):
        matched = 0
        for row in range(rows_total):
            bits = [(row >> k) & 1 == 1 for k in range(arity)]
            p_vals, q_vals = [False] * len(p), [False] * len(q)
            for k, (pi, qi) in enumerate(binding.pairs):
                if pi is not None:
                    p_vals[pi] = bits[k]
                if qi is not None:
                    q_vals[qi] = bits[k]
            matched += eval_p(p_vals) == eval_q(q_vals)
        if best is None or matched > best[1] or (matched == best[1] and binding.cost < best[3]):
            best = (matched / rows_total, matched, binding.pairs, binding.cost)
            if matched == rows_total:
                break
    return best


def _seeded_pair(seed: int, gold_literals: int, pred_literals: int, perturbed: bool) -> tuple[str, str]:
    from folkit.perturb import PerturbConfig, sample_perturbation

    rng = random.Random(seed)
    gold = random_rule(rng, max_literals=gold_literals)
    if perturbed:
        pred, _ = sample_perturbation(gold, PerturbConfig(), rng)
    else:
        pred = random_rule(rng, max_literals=pred_literals)
    return print_canonical(gold), print_canonical(pred)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.integers(1, 7),
    st.booleans(),
    st.sampled_from([1, 2, 50, 1000]),
)
def test_le_matches_per_row_reference(seed, gold_literals, pred_literals, perturbed, search_cap):
    gold, pred = _seeded_pair(seed, gold_literals, pred_literals, perturbed)
    arity = max(len(atoms(parse(gold))), len(atoms(parse(pred))))
    assume(arity <= 7)
    config = RewardConfig(search_cap=search_cap)
    got = le_score(gold, pred, config)
    assert (got.score, got.rows_matched, got.binding.pairs, got.binding.cost) == _reference_le(gold, pred, config)
    assert got.rows_total == 1 << arity


def test_gold_atoms_fill_the_first_slots_of_every_binding():
    # le_score evaluates the gold once because gold atom k is always in slot k
    rng = random.Random(5)
    for _ in range(40):
        p = atoms(random_rule(rng, max_literals=rng.randint(1, 6)))
        q = atoms(random_rule(rng, max_literals=rng.randint(1, 6)))
        bindings = list(bind_atoms(p, q, search_cap=200))
        assert bindings
        for binding in bindings:
            assert [pi for pi, _ in binding.pairs[: len(p)]] == list(range(len(p)))
            assert all(pi is None for pi, _ in binding.pairs[len(p):])


def test_le_large_pairs_under_default_config():
    names = [f"P{i}(A)" for i in range(12)]
    de_morgan = le_score("¬(" + " ∧ ".join(names) + ")", " ∨ ".join("¬" + n for n in names))
    assert de_morgan.score == 1.0 and de_morgan.rows_total == 1 << 12
    identity = " → ".join(f"Q{i}(x)" for i in range(16))
    result = le_score(identity, identity)
    assert result.score == 1.0 and result.rows_matched == 1 << 16
    # no binding matches every row, so all 1000 are scored; all-true and all-false rows agree
    full_search = le_score(" ∧ ".join(names), " ∨ ".join(names))
    assert full_search.rows_matched == 2 and full_search.binding.cost == 0


def test_reward_config_bounds():
    with pytest.raises(ValueError):
        RewardConfig(search_cap=0)
    with pytest.raises(ValueError):
        RewardConfig(max_atoms=MAX_ATOMS + 1)
    assert RewardConfig(max_atoms=MAX_ATOMS).max_atoms == MAX_ATOMS


# ---------------------------------------------------------------------------
# compiled truth tables against the recursive evaluator they replaced


_REFERENCE_OPS = {
    "∧": lambda a, b, full: a & b,
    "∨": lambda a, b, full: a | b,
    "⊕": lambda a, b, full: a ^ b,
    "→": lambda a, b, full: (full ^ a) | b,
    "↔": lambda a, b, full: full ^ a ^ b,
}


def _truth_table(node, value: dict[tuple, int], full: int) -> int:
    """Bit r is the body's truth value in row r; ``value`` maps (predicate, args) to a slot mask."""
    if isinstance(node, Literal):
        mask = value[node.predicate, node.args]
        return full ^ mask if node.negated else mask
    if isinstance(node, (Negation, Group)):
        table = _truth_table(node.child, value, full)
        return full ^ table if isinstance(node, Negation) else table
    left, right = _truth_table(node.left, value, full), _truth_table(node.right, value, full)
    return _REFERENCE_OPS[node.op](left, right, full)


@st.composite
def _body(draw, keys, operators):
    """A body with exactly ``operators`` binary operators, groups and negations."""
    if operators == 0:
        predicate, args = draw(st.sampled_from(keys))
        return Literal(predicate, args, draw(st.booleans()))
    kind = draw(st.sampled_from(["binary", "group", "negation"]))
    if kind == "binary":
        left = draw(st.integers(0, operators - 1))
        return BinaryOp(draw(st.sampled_from(list(_REFERENCE_OPS))),
                        draw(_body(keys, left)), draw(_body(keys, operators - 1 - left)))
    child = draw(_body(keys, operators - 1))
    return Group(child) if kind == "group" else Negation(child)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 5), st.one_of(st.integers(0, 12), st.just(MAX_OPERATORS)))
def test_compiled_table_matches_recursive_evaluation(data, n_atoms, operators):
    keys = [(f"P{k}", ("A",)) for k in range(n_atoms)]
    body = data.draw(_body(keys, operators))
    full = (1 << (1 << n_atoms)) - 1
    masks = data.draw(st.lists(st.integers(0, full), min_size=n_atoms, max_size=n_atoms))
    slots = list(range(n_atoms))
    data.draw(st.randoms()).shuffle(slots)  # atoms need not sit in slot order
    v = [0] * n_atoms
    table = _compile_table(body, {key: slots[k] for k, key in enumerate(keys)}, v, full)
    for k in range(n_atoms):
        v[slots[k]] = masks[k]
    assert table() == _truth_table(body, dict(zip(keys, masks)), full)
    # the compiled body reads the slot list when called, not when compiled
    for k in range(n_atoms):
        v[slots[k]] = full ^ masks[k]
    assert table() == _truth_table(body, {key: full ^ m for key, m in zip(keys, masks)}, full)


# ---------------------------------------------------------------------------
# le_score consumes exactly the bindings it explores, as a counting wrapper
# around metrics.bind_atoms (the benchmark tracer's) sees them


@pytest.fixture
def consumed(monkeypatch):
    """Bindings that each le_score call drew from metrics.bind_atoms, one count per call."""
    real = folkit.metrics.bind_atoms
    counts = []

    def counting(p, q, search_cap=1000):
        counts.append(0)
        for binding in real(p, q, search_cap):
            counts[-1] += 1
            yield binding

    monkeypatch.setattr(folkit.metrics, "bind_atoms", counting)
    return counts


def test_le_score_draws_one_binding_for_an_identical_pair(consumed):
    rule = "∀x (P(x) ∧ Q(x) → R(x) ∨ ¬S(x))"
    assert le_score(rule, rule).score == 1.0
    assert consumed == [1]


def test_le_score_draws_search_cap_bindings_when_none_matches(consumed):
    names = [f"P{i}(A)" for i in range(5)]  # 5! = 120 bindings; each agrees on 2 of 32 rows
    result = le_score(" ∧ ".join(names), " ∨ ".join(names), RewardConfig(search_cap=50))
    assert result.rows_matched == 2
    assert consumed == [50]
