"""Logical-equivalence scoring, FOL BLEU, and the mixed reward.

LE treats the distinct atoms of each rule as boolean inputs to a circuit,
aligns the two input lists with a greedy edit-distance binding (padded with
dummies when the counts differ), and scores the fraction of truth-table
rows on which the two circuits agree, maximized over the bindings explored.

Bindings are generated one at a time in that greedy order, so a search that
meets a binding matching every row stops there and builds no other; the
distances behind the order are computed once per call, by Myers' bit-vector
algorithm (JACM 1999), in which one integer holds a whole column of the edit
distance matrix. The search is one loop over an explicit stack: each depth
keeps a cursor into its partners, a claim marks its partner and adds its
distance to a running cost, backing up releases both, and the last depth
yields its bindings from a plain loop. So a binding is neither passed up
through one generator frame per atom nor re-summed for its cost.

Truth tables are bit strings (Knuth, TAOCP 4A §7.1): slot k of a binding is
one integer whose bit r is (r >> k) & 1, so a body is evaluated over all 2^n
rows at once. Each body is compiled once per call into a tree of closures
whose literals read a list of slot masks: the gold is evaluated once, and each
binding writes its masks into the prediction's list and makes one call.
The masks take n × 2^n bits, so max_atoms may not exceed MAX_ATOMS.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator

from . import rowio
from .fol import (
    AND,
    IFF,
    IMPLIES,
    OR,
    XOR,
    FolRule,
    FormulaNode,
    FrozenSlots,
    Group,
    Literal,
    Negation,
    atoms,
    is_variable,
    slot_setters,
    tokens,
)
from .parser import FolSyntaxError, parse

log = logging.getLogger(__name__)


class TooManyAtoms(Exception):
    """Combined atom count exceeds the truth-table cap."""


class GoldUnparseable(rowio.DataFault):
    """The reference side of a reward computation failed to parse."""


MAX_ATOMS = 20  # highest max_atoms: 2.5 MiB of masks, about 0.3 s for a 1000-binding search


@dataclass(frozen=True)
class RewardConfig:
    omega: float = 0.7  # LE weight in the mixed reward
    max_atoms: int = 16  # truth-table cap: 2^16 rows
    search_cap: int = 1000  # max candidate bindings explored

    def __post_init__(self):
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError("omega must be in [0, 1]")
        if not 1 <= self.max_atoms <= MAX_ATOMS:
            raise ValueError(f"max_atoms must be in [1, {MAX_ATOMS}]")
        if self.search_cap < 1:
            raise ValueError("search_cap must be >= 1")


class Binding(FrozenSlots):
    """One-to-one pairing of atom indices; None marks a dummy partner. ``cost``
    is the summed edit distance of the real pairings, for tie-breaks."""

    __slots__ = ("pairs", "arity", "cost")

    def __init__(self, pairs: tuple[tuple[int | None, int | None], ...], arity: int, cost: int = 0):
        _set_pairs(self, pairs)
        _set_arity(self, arity)
        _set_cost(self, cost)


_set_pairs, _set_arity, _set_cost = slot_setters(Binding)


@dataclass(frozen=True)
class LeResult:
    score: float
    binding: Binding
    rows_total: int
    rows_matched: int


# ---------------------------------------------------------------------------
# edit distance and greedy binding search

_VAR_PLACEHOLDER = "·"


def _masked_text(atom: Literal) -> str:
    # variable names carry no meaning across rules; mask them before comparing
    args = [_VAR_PLACEHOLDER if is_variable(a) else a for a in atom.args]
    return f"{atom.predicate}({', '.join(args)})"


def levenshtein(a: str, b: str) -> int:
    """Edit distance, by Myers' bit-vector algorithm (JACM 1999) in Hyyrö's form.

    Column j of the DP matrix over b (rows) and a (columns) is held as two
    ints: bit i of ``pv`` / ``mv`` is set when D[i+1][j] - D[i][j] is +1 / -1.
    Each character of a advances the column in a few word operations, so the
    distance is D[len(b)][len(a)] = len(a) + popcount(pv) - popcount(mv).
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a  # the shorter string sets the column height
    if not b:
        return len(a)
    mask = (1 << len(b)) - 1
    peq: dict[str, int] = {}  # bit i set where b[i] is the character
    for i, c in enumerate(b):
        peq[c] = peq.get(c, 0) | 1 << i
    pv, mv = mask, 0
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) << 1 | 1  # row 0 of the matrix rises by 1 per column
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return len(a) + pv.bit_count() - mv.bit_count()


def bind_atoms(p: list[Literal], q: list[Literal], search_cap: int = 1000) -> Iterator[Binding]:
    """The first search_cap candidate bindings, greedy-preferred first, built lazily.

    Iterates the first list in order, pairing each atom with its unclaimed
    minimum-edit-distance partner; alternatives (including dummy pairing when
    the first list is longer, tried after every real partner) follow
    depth-first. Partners are sorted by distance once per atom, and a stable
    sort keeps ties in index order, so skipping claimed partners gives the
    order that sorting the unclaimed ones at each step would. The search is
    one loop over an explicit stack (see ``_search``), so a binding is
    yielded from the loop that builds it.
    """
    n_p, n_q = len(p), len(q)
    q_texts = [_masked_text(a) for a in q]
    dist = [[levenshtein(p_text, q_text) for q_text in q_texts] for p_text in map(_masked_text, p)]
    dummy: list[int | None] = [None] if n_p > n_q else []
    order = [sorted(range(n_q), key=row.__getitem__) + dummy for row in dist]
    return islice(_search(dist, order, n_q), search_cap)


def _search(dist: list[list[int]], order: list[list[int | None]], n_q: int) -> Iterator[Binding]:
    """Every binding, depth-first in ``order``, in one loop over an explicit stack.

    ``cursor[i]`` is the next entry of ``order[i]`` to try at depth i. A
    claim at depth i sets ``partner[i]``, marks the partner claimed (or
    spends a dummy), adds its distance to ``cost`` and extends the pairs of
    the depths above into ``above[i + 1]``; coming back up to depth i
    releases the claim. The last depth is a plain loop that yields one
    binding per free partner, each sharing the pair tuples of ``above[last]``.
    """
    n_p = len(order)
    arity = max(n_p, n_q)
    if n_p == 0:
        yield Binding(tuple((None, j) for j in range(n_q)), arity, 0)
        return
    last = n_p - 1
    partner: list[int | None] = [None] * n_p
    claimed = [False] * n_q
    cursor = [0] * n_p
    above: list[tuple] = [()] * n_p
    dummies_left = n_p - n_q  # dummies still to place; only > 0 when p is longer
    cost = 0
    i = 0
    while i >= 0:
        if i == last:
            pairs, row = above[last], dist[last]
            if n_q > n_p:  # every partner is real, and the unclaimed ones are left over
                free = [j for j in range(n_q) if not claimed[j]]
                for j in order[last]:
                    if not claimed[j]:
                        leftover = [(None, k) for k in free if k != j]
                        yield Binding((*pairs, (last, j), *leftover), arity, cost + row[j])
            else:
                for j in order[last]:
                    if j is None:
                        if dummies_left > 0:
                            yield Binding(pairs + ((last, None),), arity, cost)
                    elif not claimed[j]:
                        yield Binding(pairs + ((last, j),), arity, cost + row[j])
            i -= 1
            continue
        options, c = order[i], cursor[i]
        if c:  # back from depth i + 1: release the claim made here
            j = partner[i]
            if j is None:
                dummies_left += 1
            else:
                claimed[j] = False
                cost -= dist[i][j]
        for c in range(c, len(options)):
            j = options[c]
            if j is None:
                if dummies_left <= 0:
                    continue
                dummies_left -= 1
            elif claimed[j]:
                continue
            else:
                claimed[j] = True
                cost += dist[i][j]
            partner[i] = j
            cursor[i] = c + 1
            above[i + 1] = above[i] + ((i, j),)
            i += 1
            cursor[i] = 0
            break
        else:  # depth i is exhausted
            i -= 1


# ---------------------------------------------------------------------------
# truth-table evaluation


def _slot_masks(arity: int) -> list[int]:
    """Bit r of mask k is (r >> k) & 1, for r < 2^arity."""
    masks: list[int] = []
    for k in range(arity):  # double the rows: old slots repeat, slot k is 0 then 1
        rows = 1 << k
        masks = [m | m << rows for m in masks] + [((1 << rows) - 1) << rows]
    return masks


# compiled binary operators: each makes a closure from its operands' closures;
# ``full`` has one set bit per row
_COMPILED_OPS = {
    AND: lambda a, b, full: lambda: a() & b(),
    OR: lambda a, b, full: lambda: a() | b(),
    XOR: lambda a, b, full: lambda: a() ^ b(),
    IMPLIES: lambda a, b, full: lambda: (full ^ a()) | b(),
    IFF: lambda a, b, full: lambda: full ^ a() ^ b(),
}


def _compile_table(node: FormulaNode, slot: dict[tuple, int], v: list[int], full: int) -> Callable[[], int]:
    """A closure whose result has bit r set where the body is true in row r.

    The literal of atom (predicate, args) reads the mask ``v[slot[predicate, args]]``
    when called, so one compiled body serves every binding written into ``v``.
    """
    if isinstance(node, Literal):
        i = slot[node.predicate, node.args]
        return (lambda: full ^ v[i]) if node.negated else (lambda: v[i])
    if isinstance(node, Group):
        return _compile_table(node.child, slot, v, full)
    if isinstance(node, Negation):
        child = _compile_table(node.child, slot, v, full)
        return lambda: full ^ child()
    left, right = _compile_table(node.left, slot, v, full), _compile_table(node.right, slot, v, full)
    return _COMPILED_OPS[node.op](left, right, full)


def le_score(
    gold: FolRule | str, pred: FolRule | str, config: RewardConfig = RewardConfig()
) -> LeResult:
    """Best truth-table overlap ratio over the explored bindings.

    Quantifier prefixes do not enter the computation: the score is a
    propositional comparison of the two bodies over their bound atoms.
    """
    gold = parse(gold) if isinstance(gold, str) else gold
    pred = parse(pred) if isinstance(pred, str) else pred
    p, q = atoms(gold), atoms(pred)
    arity = max(len(p), len(q))
    if arity > config.max_atoms:
        raise TooManyAtoms(f"{arity} atoms exceeds cap of {config.max_atoms}")

    rows_total = 1 << arity
    full = (1 << rows_total) - 1
    masks = _slot_masks(arity)
    # every binding puts gold atom k in slot k, so the gold table is fixed
    gold_table = _compile_table(gold.body, {(a.predicate, a.args): k for k, a in enumerate(p)}, masks, full)()
    value = [0] * len(q)  # value[j]: the mask of the slot that pred atom j is bound to
    pred_table = _compile_table(pred.body, {(a.predicate, a.args): j for j, a in enumerate(q)}, value, full)

    best: LeResult | None = None
    for binding in bind_atoms(p, q, config.search_cap):
        for k, (_, qi) in enumerate(binding.pairs):
            if qi is not None:
                value[qi] = masks[k]
        matched = (full ^ gold_table ^ pred_table()).bit_count()
        if (
            best is None
            or matched > best.rows_matched
            or (matched == best.rows_matched and binding.cost < best.binding.cost)
        ):
            best = LeResult(matched / rows_total, binding, rows_total, matched)
            if matched == rows_total:
                break
    if best is None:
        raise ValueError("no binding explored: search_cap must be >= 1")
    return best


# ---------------------------------------------------------------------------
# FOL BLEU


def fol_tokenize(text: str) -> list[str]:
    """Parse-tree leaves in pre-order; raises FolSyntaxError on bad input."""
    return tokens(parse(text))


_BLEU_MAX_N = 4  # the longest n-gram BLEU counts


def _bleu_from_tokens(ref: list[str], hyp: list[str]) -> float:
    if not hyp:
        return 0.0
    log_sum = 0.0
    used = 0
    for n in range(1, min(_BLEU_MAX_N, len(hyp)) + 1):
        hyp_counts = Counter(zip(*(hyp[i:] for i in range(n))))
        ref_counts = Counter(zip(*(ref[i:] for i in range(n))))
        clipped = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        total = len(hyp) - n + 1
        if clipped == 0:
            # add-one smoothing on zero n-gram counts
            clipped, total = 1, total + 1
        log_sum += math.log(clipped / total)
        used += 1
    precision = math.exp(log_sum / used)
    brevity = 1.0 if len(hyp) >= len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return brevity * precision


def fol_bleu(gold: str, pred: str) -> float:
    """BLEU over FOL tokens; an unparseable prediction scores 0."""
    ref = fol_tokenize(gold)
    try:
        hyp = fol_tokenize(pred)
    except FolSyntaxError:
        return 0.0
    return _bleu_from_tokens(ref, hyp)


# ---------------------------------------------------------------------------
# mixed reward


def mix(le: float, bleu: float, omega: float = 0.7) -> float:
    return omega * le + (1.0 - omega) * bleu


@dataclass
class RewardBreakdown:
    reward: float
    le: float
    bleu: float
    binding: Binding | None = None
    notes: list[str] = field(default_factory=list)


def reward_detail(
    gold: FolRule | str, pred: FolRule | str, config: RewardConfig = RewardConfig()
) -> RewardBreakdown:
    """The reward and its parts; a rule given as text is parsed here."""
    if isinstance(gold, str):
        try:
            gold = parse(gold)
        except FolSyntaxError as exc:
            raise GoldUnparseable(str(exc)) from exc
    if isinstance(pred, str):
        try:
            pred = parse(pred)
        except FolSyntaxError:
            return RewardBreakdown(0.0, 0.0, 0.0, notes=["prediction unparseable"])

    binding = None
    try:
        le_res = le_score(gold, pred, config)
        le = le_res.score
        binding = le_res.binding
        notes = []
    except TooManyAtoms as exc:
        log.warning("LE skipped: %s", exc)
        le, notes = 0.0, [f"LE skipped: {exc}"]
    bleu = _bleu_from_tokens(tokens(gold), tokens(pred))
    return RewardBreakdown(mix(le, bleu, config.omega), le, bleu, binding, notes)


def reward(gold: FolRule | str, pred: FolRule | str, config: RewardConfig = RewardConfig()) -> float:
    """omega * LE + (1 - omega) * BLEU; 0 when the prediction does not parse."""
    return reward_detail(gold, pred, config).reward
