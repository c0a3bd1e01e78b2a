"""Acceptance gate: one test per criterion, one reported line each.

Reference values come from independent oracles (exhaustive binding search,
hand-computed truth tables) or from pinned fixtures, never from the
implementation under test.
"""

import json
import os
import random
import time

from folkit.collect import (
    BREAKDOWN_CLAUSE,
    NgramGate,
    ReplayGenerator,
    accept_pair,
    assemble_prompt,
    run_collection,
)
from folkit.fol import atoms, print_canonical
from folkit.forge import (
    CORR_MARKER,
    FOL_MARKER,
    NO_CHANGES,
    corpus_stats,
    forge_records,
)
from folkit.metrics import le_score, mix, reward_detail
from folkit.parser import parse, validate
from folkit.perturb import (
    PerturbConfig,
    apply_step,
    random_rule,
    sample_perturbation,
)
from folkit.session import run_session

from helpers import ScriptedGenerator, describe
from le_oracle import exhaustive_le

COUNTRY_GOLD = "∀x (Country(x) ∧ InEU(x) → EUCountry(x))"
COUNTRY_PRED = "∀y (LocatedInEU(y) → EUCountry(y))"


def _synthetic_pairs(count, seed=0):
    rng = random.Random(seed)
    return [
        (f"synthetic statement number {i} about something", print_canonical(random_rule(rng)))
        for i in range(count)
    ]


# ---------------------------------------------------------------------------


def test_criterion_01_country_example_le(criterion):
    le_score(COUNTRY_GOLD, COUNTRY_PRED)  # warm-up
    start = time.perf_counter()
    res = le_score(COUNTRY_GOLD, COUNTRY_PRED)
    elapsed_ms = (time.perf_counter() - start) * 1000
    described = describe(res.binding, atoms(parse(COUNTRY_GOLD)), atoms(parse(COUNTRY_PRED)))
    expected_binding = [
        "Country(x) ↔ DUMMY",
        "InEU(x) ↔ LocatedInEU(y)",
        "EUCountry(x) ↔ EUCountry(y)",
    ]
    criterion(
        "1 country-example LE 7/8 with documented binding, <10ms",
        res.score == 0.875 and described == expected_binding and elapsed_ms < 10,
        f"score={res.score} time={elapsed_ms:.2f}ms",
    )


def test_criterion_02_de_morgan_equivalence(criterion):
    score = le_score("¬(P(A) ∧ P(B))", "¬P(A) ∨ ¬P(B)").score
    criterion("2 De Morgan pair scores exactly 1.0", score == 1.0, f"score={score}")


def test_criterion_03_le_identity_suite(criterion):
    rng = random.Random(42)
    failures = 0
    for _ in range(1000):
        rule = print_canonical(random_rule(rng))
        if le_score(rule, rule).score != 1.0:
            failures += 1
    negated = le_score("P(A)", "¬P(A)").score
    criterion(
        "3 identity LE 1.0 on 1000 random rules; negation scores 0.0",
        failures == 0 and negated == 0.0,
        f"failures={failures} negated={negated}",
    )


def test_criterion_04_greedy_vs_exhaustive(criterion):
    rng = random.Random(7)
    matches = 0
    exceeded = 0
    total = 1000
    for _ in range(total):
        a = print_canonical(random_rule(rng, max_literals=4))
        b = print_canonical(random_rule(rng, max_literals=4))
        greedy = le_score(a, b).score
        exact = exhaustive_le(a, b)
        if greedy > exact + 1e-12:
            exceeded += 1
        if abs(greedy - exact) <= 1e-12:
            matches += 1
    country_equal = le_score(COUNTRY_GOLD, COUNTRY_PRED).score == exhaustive_le(
        COUNTRY_GOLD, COUNTRY_PRED
    )
    rate = matches / total
    criterion(
        "4 greedy LE bounded by exhaustive optimum, match rate >= 95%",
        exceeded == 0 and rate >= 0.95 and country_equal,
        f"match rate {rate:.1%}, exceeded={exceeded}",
    )


def test_criterion_05_perturbation_roundtrip(criterion):
    rng = random.Random(13)
    start = time.perf_counter()
    bad = 0
    for i in range(1000):
        rule = random_rule(rng)
        n = (i % 10) + 1
        config = PerturbConfig(n_perturb_choices=(n,), negative_prob=0.0)
        perturbed, steps = sample_perturbation(rule, config, rng)
        if not validate(print_canonical(perturbed)):
            bad += 1
            continue
        cur = perturbed
        for s in steps:
            cur = apply_step(cur, s)
        restored = print_canonical(cur)
        original = print_canonical(rule)
        if restored != original or le_score(original, restored).score != 1.0:
            bad += 1
    elapsed = time.perf_counter() - start
    criterion(
        "5 perturb/restore round-trip on 1000 rules x 1..10 edits, <30s",
        bad == 0 and elapsed < 30,
        f"failures={bad} time={elapsed:.1f}s",
    )


def test_criterion_06_negative_sample_rate(criterion):
    rng = random.Random(99)
    rule = parse("∀x (P(x) → Q(x))")
    config = PerturbConfig()
    unchanged = sum(
        1 for _ in range(10000) if not sample_perturbation(rule, config, rng)[1]
    )
    rate = unchanged / 10000
    criterion(
        "6 unchanged-sample rate in [0.18, 0.22] over 10000 draws",
        0.18 <= rate <= 0.22,
        f"rate={rate:.4f}",
    )


PARSEABLE_FIXTURES = [
    # perturbation-catalog originals and results
    "P(A) ∧ R(B)",
    "R(A) ∧ R(B)",
    "∀x P(x) ∧ P(B)",
    "∀y P(x) ∧ P(B)",
    "∀x P(x) ∧ P(x)",
    "∀x P(x) ∨ P(B)",
    "∀x ∃y P(x) ∧ P(B)",
    "∀x P(x) ∧ P(x, B)",
    "P(A) ∧ P(B) ∧ P(C)",
    "P(A) ∧ ¬(P(B) ∧ P(C))",
    "P(A) ∧ P(B) → R(C)",
    "∀x ∀y P(x) ∧ R(x, y)",
    "∀y P(x) ∧ R(x, y)",
    "∀x ∀y P(x) ∧ R(y)",
    "¬(P(A) ∧ P(B))",
    "P(A) ∧ P(C)",
    # few-shot prompt examples
    "∃x entire(x) ↔ ¬serious(x)",
    "∀x (¬excited(x) ∧ ¬timid(x)) → elderly(Jonathan)",
    "∀x (¬concerned(x) ∨ fresh(x)) → entire(John)",
    "¬blue(Nathalie) → entire(Collier)",
    "∃x (courteous(x) ∧ ¬elderly(x)) ↔ (¬excited(x) ∧ ¬various(x))",
    # worked translation example
    "∀x (Fruit(x) ∧ Mature(x) ∧ ColorChangedToRed(x) → Ripe(x))",
    # parse-tree illustrations
    "∀x (Athlete(x) ∧ WinsGold(x, Olympics) → OlympicChampion(x))",
    "∀x (Doctor(x) → HasMedicalDegree(x))",
]

REJECTED_FIXTURES = [
    "y = a ∨ y = b",
    "a ∧ b ∧ c",
    "P(x) ≠ Q(x)",
    "50%(x)",
    "P(x)!",
]


def test_criterion_07_grammar_fidelity(criterion):
    parse_failures = [t for t in PARSEABLE_FIXTURES if not validate(t)]
    reject_failures = [t for t in REJECTED_FIXTURES if validate(t)]
    criterion(
        "7 documented FOL strings parse; banned shapes rejected",
        not parse_failures and not reject_failures,
        f"parse failures={parse_failures} reject failures={reject_failures}",
    )


MALLS_OPERATOR_COUNTS = {
    "∀": 32865, "∃": 2036, "¬": 4567, "∧": 30143,
    "∨": 6402, "→": 30667, "↔": 3726, "⊕": 2150,
}


def test_criterion_08_corpus_statistics(criterion, criterion_skip):
    path = os.environ.get("MALLS_PATH")
    name = "8 released-corpus statistics match pinned values, <2min"
    if not path or not os.path.exists(path):
        criterion_skip(
            name,
            "set MALLS_PATH to the released 34K-pair corpus file to run this check",
        )
    from folkit.forge import load_pairs

    start = time.perf_counter()
    pairs = load_pairs(path)
    stats = corpus_stats(pairs)
    elapsed = time.perf_counter() - start
    ops_ok = all(stats.operator_counts.get(k) == v for k, v in MALLS_OPERATOR_COUNTS.items())
    criterion(
        name,
        stats.pair_count + stats.unparsed_count == 34000
        and ops_ok
        and abs(stats.fol_avg_literals - 4.6) <= 0.05
        and abs(stats.nl_vocab_size - 22715) <= 0.05 * 22715
        and abs(stats.nl_avg_words - 16.1) <= 0.3
        and elapsed < 120,
        f"pairs={stats.pair_count} ops={stats.operator_counts} time={elapsed:.0f}s",
    )


def test_criterion_09_reward_arithmetic(criterion):
    grid = [
        (0.875, 0.5, 0.7625),
        (1.0, 1.0, 1.0),
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.7),
        (0.0, 1.0, 0.3),
        (0.5, 0.25, 0.425),
        (0.75, 0.125, 0.5625),
    ]
    grid_ok = all(abs(mix(le, bleu, 0.7) - want) <= 1e-12 for le, bleu, want in grid)
    detail = reward_detail(COUNTRY_GOLD, COUNTRY_PRED)
    detail_ok = abs(detail.reward - (0.7 * detail.le + 0.3 * detail.bleu)) <= 1e-12
    criterion(
        "9 reward equals 0.7*LE + 0.3*BLEU on the fixture grid, within 1e-12",
        grid_ok and detail_ok,
        f"grid_ok={grid_ok} detail_ok={detail_ok}",
    )


def _oracle_response(record):
    steps = record.prev_steps + record.target_steps
    lines = "\n".join(d["text"] for d in steps)
    return f"{CORR_MARKER}\n{lines}\n{FOL_MARKER}\n{record.fol_gold}"


DONE_RESPONSE = f"{CORR_MARKER}\n{NO_CHANGES}\n{FOL_MARKER}\nP(A)"


def test_criterion_10_session_protocol(criterion):
    pairs = _synthetic_pairs(50, seed=3)
    records = list(forge_records(pairs, "t3", 100, PerturbConfig(seed=5)))
    bad = 0
    for rec in records:
        if rec.prev_steps or rec.target_steps:
            responses = [_oracle_response(rec), DONE_RESPONSE]
        else:
            responses = [DONE_RESPONSE]
        gen = ScriptedGenerator(responses)
        final, tuples, state = run_session(rec.nl, rec.fol_input, gen, gold=rec.fol_gold)
        if final != rec.fol_gold or tuples[-1].reward != 1.0:
            bad += 1

    forever = f"{CORR_MARKER}\nanother tweak\n{FOL_MARKER}\nQ(A)"
    gen = ScriptedGenerator([forever], cycle_last=True)
    _, tuples, state = run_session("nl", "Q(A)", gen, gold="P(A)")
    cap_ok = state.generation_index == 10 and len(tuples) == 10

    gen = ScriptedGenerator([DONE_RESPONSE])
    _, tuples, state = run_session("nl", "P(A)", gen, gold="P(A)")
    one_shot_ok = state.status == "done_no_changes" and len(tuples) == 1

    criterion(
        "10 oracle sessions reach gold with reward 1.0; cap at 10; no-change stops in 1",
        bad == 0 and cap_ok and one_shot_ok,
        f"failed sessions={bad}/{len(records)} cap_ok={cap_ok} one_shot_ok={one_shot_ok}",
    )


def _collection_fixture(tmp_path, name):
    responses = [
        "--- NL:\nSnow is white in winter.\n---\n--- FOL:\nWhite(Snow)\n---",
        "--- NL:\nLily the cat sleeps all day.\n---\n--- FOL:\nSleeps(Lily)\n---",
        "--- NL:\nEvery zebra has stripes.\n---\n--- FOL:\n∀x (Zebra(x) → HasStripes(x))\n---",
    ]
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in responses) + "\n")
    return path


def test_criterion_11_collector_gate(criterion, tmp_path):
    gate = NgramGate()
    for i in range(500):
        gate.update(f"a zebra statement number {i}")
    bundle = assemble_prompt(gate, _synthetic_pairs(10), random.Random(0))
    clause_ok = bundle.negative_clause is not None and '"zebra"' in bundle.negative_clause
    verdict = accept_pair("Every zebra has stripes.", "∀x (Zebra(x) → HasStripes(x))", gate)
    reject_ok = not verdict.accepted and "zebra" in verdict.reason

    replay = _collection_fixture(tmp_path, "replay.jsonl")
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        result = run_collection(
            ReplayGenerator(replay), 3, out, _synthetic_pairs(10), random.Random(4)
        )
        outputs.append(
            tuple((out / f).read_bytes() for f in ("accepted.jsonl", "rejections.jsonl"))
        )
    reproducible = outputs[0] == outputs[1] and result.accepted > 0

    criterion(
        "11 over-frequent unigram blocked from prompts and pairs; replay run byte-stable",
        clause_ok and reject_ok and reproducible,
        f"clause_ok={clause_ok} reject_ok={reject_ok} reproducible={reproducible}",
    )


def test_criterion_12_forge_scale(criterion):
    pairs = _synthetic_pairs(2000, seed=8)
    start = time.perf_counter()
    sampled = []
    count = 0
    for rec in forge_records(pairs, "t3", 150000, PerturbConfig(seed=12)):
        if count % 150 == 0:
            sampled.append(rec)
        count += 1
    elapsed = time.perf_counter() - start
    replay_failures = sum(1 for rec in sampled if rec.replay() != rec.fol_gold)
    criterion(
        "12 forge 150000 correction records <10min; sampled replays restore gold",
        count == 150000 and replay_failures == 0 and elapsed < 600,
        f"count={count} sampled={len(sampled)} replay failures={replay_failures} time={elapsed:.0f}s",
    )
