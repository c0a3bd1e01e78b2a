"""Collection pipeline: gate, prompts, response parsing, acceptance, loop."""

import http.server
import json
import os
import random
import socket
import subprocess
import sys
import threading
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

import folkit.collect as collect_module
from folkit.cli import main
from folkit.collect import (
    BREAKDOWN_CLAUSE,
    EndpointUnavailable,
    HttpGenerator,
    InsufficientCorpus,
    NgramGate,
    ReplayGenerator,
    accept_pair,
    alignment_score,
    assemble_prompt,
    camel_words,
    has_long_predicate,
    nl_tokens,
    parse_response,
    run_collection,
)
from folkit.endpoint import API_KEY_ENV, MAX_ATTEMPTS

from helpers import ScriptedGenerator

CORPUS = [
    ("All birds can fly.", "∀x (Bird(x) → Flies(x))"),
    ("Rex is a dog.", "Dog(Rex)"),
    ("Some people like cats.", "∃x (Person(x) ∧ Likes(x, Cats))"),
    ("Paris is a city.", "City(Paris)"),
    ("Every city has a mayor.", "∀x (City(x) → HasMayor(x))"),
    ("No fish can walk.", "∀x (Fish(x) → ¬Walks(x))"),
]


# ---------------------------------------------------------------------------
# tokenization


def test_nl_tokens():
    assert nl_tokens("The Moon, shines at night!") == ["the", "moon", "shines", "at", "night"]


def test_camel_words():
    assert camel_words("MoonShinesAtNight") == ["moon", "shines", "at", "night"]
    assert camel_words("EUCountry") == ["eu", "country"]
    assert camel_words("snake_case_name") == ["snake", "case", "name"]


def test_has_long_predicate():
    assert has_long_predicate("MoonShinesAtNight(A)")
    assert not has_long_predicate("EUCountry(A)")
    assert not has_long_predicate("not parseable =")


# ---------------------------------------------------------------------------
# gate


def test_gate_blocks_over_threshold():
    gate = NgramGate(unigram_threshold=3, trigram_threshold=2)
    for _ in range(3):
        gate.update("moon shines at night")
    assert "moon" in gate.blocked()
    assert "moon shines at" in gate.blocked()
    assert gate.find_blocked("I saw a moon") == "moon"
    assert gate.find_blocked("nothing here") is None


def test_gate_serialization_roundtrip():
    gate = NgramGate(unigram_threshold=3)
    gate.update("one two three")
    again = NgramGate.from_dict(gate.to_dict())
    assert again == gate


def _full_scan_blocked(gate):
    """Reference: every n-gram at or over its threshold, found by a full scan."""
    uni = [g for g, c in gate.unigrams.items() if c >= gate.unigram_threshold]
    tri = [g for g, c in gate.trigrams.items() if c >= gate.trigram_threshold]
    return sorted(uni) + sorted(tri)


def _full_scan_find_blocked(gate, nl):
    """Reference: the first blocked unigram of nl, else its first blocked trigram."""
    toks = nl_tokens(nl)
    blocked = set(_full_scan_blocked(gate))
    for t in toks:
        if t in blocked:
            return t
    for i in range(len(toks) - 2):
        tri = " ".join(toks[i : i + 3])
        if tri in blocked:
            return tri
    return None


_GATE_WORDS = ["sun", "Moon", "star", "sky", "7"]
_statements = st.lists(st.sampled_from(_GATE_WORDS), max_size=6).map(" ".join)
_tokens = st.sampled_from(_GATE_WORDS).map(str.lower)
_counts = st.integers(0, 5)


@given(st.integers(0, 4), st.integers(0, 4), st.dictionaries(_tokens, _counts),
       st.dictionaries(st.lists(_tokens, min_size=3, max_size=3).map(" ".join), _counts),
       st.lists(_statements, max_size=10), st.lists(_statements, min_size=1, max_size=4))
def test_gate_reads_match_full_scan(uni_t, tri_t, unigrams, trigrams, updates, probes):
    gates = [NgramGate(uni_t, tri_t), NgramGate.from_dict(
        {"unigram_threshold": uni_t, "trigram_threshold": tri_t, "unigrams": unigrams, "trigrams": trigrams})]
    for step in range(len(updates) + 1):
        if step:
            for gate in gates:
                gate.update(updates[step - 1])
        for gate in gates + [NgramGate.from_dict(g.to_dict()) for g in gates]:
            assert gate.blocked() == _full_scan_blocked(gate)
            for nl in probes + updates:
                assert gate.find_blocked(nl) == _full_scan_find_blocked(gate, nl)


_counted_statements = st.lists(st.sampled_from(_GATE_WORDS + ["sun,", "Moon!"]), max_size=5).map(" ".join)


@given(st.integers(0, 4), st.integers(0, 4), st.lists(_counted_statements, max_size=12),
       st.lists(_counted_statements, min_size=1, max_size=4))
@example(2, 1, ["", "sun", "sun moon", "sun moon star", "Sun, moon star!"], ["a sun moon star"])
def test_gate_from_statements_equals_the_update_fold(uni_t, tri_t, nls, probes):
    folded = NgramGate(uni_t, tri_t)
    for nl in nls:
        folded.update(nl)
    counted = NgramGate.from_statements(iter(nls), unigram_threshold=uni_t, trigram_threshold=tri_t)
    assert counted == folded
    assert list(counted.unigrams) == list(folded.unigrams)
    assert list(counted.trigrams) == list(folded.trigrams)
    assert counted._blocked_unigrams == folded._blocked_unigrams
    assert counted._blocked_trigrams == folded._blocked_trigrams
    assert counted.blocked() == folded.blocked()
    for nl in probes + nls:
        assert counted.find_blocked(nl) == folded.find_blocked(nl)


# ---------------------------------------------------------------------------
# alignment


def test_alignment_score_full_and_partial():
    assert alignment_score("Dog(Rex)", "Rex is a dog.") == 1.0
    score = alignment_score("∀x (Bird(x) → Swims(x))", "All birds can fly.")
    assert score == pytest.approx(1 / 2)  # bird present, swims absent
    assert alignment_score("not parseable =", "anything") == 0.0


def test_alignment_skips_bare_variables():
    assert alignment_score("∀x Likes(x, y)", "someone likes something") == 1.0


# ---------------------------------------------------------------------------
# prompts


def test_assemble_prompt_contains_few_shot_and_clauses():
    rng = random.Random(0)
    gate = NgramGate(unigram_threshold=1)
    gate.update("overused")
    bundle = assemble_prompt(gate, CORPUS, rng, include_breakdown=True)
    user = bundle.user_text()
    assert user.count("--- NL:") == 5
    assert 'such as "overused"' in user
    assert BREAKDOWN_CLAUSE in user
    assert "SHOULD NEVER USE" in bundle.system


def test_assemble_prompt_needs_corpus():
    with pytest.raises(InsufficientCorpus):
        assemble_prompt(NgramGate(), CORPUS[:2], random.Random(0))


# ---------------------------------------------------------------------------
# response parsing


RESPONSE = """\
--- NL:
All cats are animals.
---
--- FOL:
∀x (Cat(x) → Animal(x))
---
### NL: Paris is beautiful.
### FOL: Beautiful(Paris)
"""


def test_parse_response_both_marker_styles():
    pairs, rejects = parse_response(RESPONSE)
    assert pairs == [
        ("All cats are animals.", "∀x (Cat(x) → Animal(x))"),
        ("Paris is beautiful.", "Beautiful(Paris)"),
    ]
    assert rejects == []


def test_parse_response_reports_orphans():
    pairs, rejects = parse_response("--- NL:\nlonely statement\n---")
    assert pairs == []
    assert rejects and rejects[0]["reason"] == "NL without FOL"


# ---------------------------------------------------------------------------
# acceptance


def test_accept_pair_order_of_checks():
    gate = NgramGate(unigram_threshold=1)
    gate.update("banned")
    assert not accept_pair("fine words", "broken =", gate).accepted
    v = accept_pair("a banned word", "Word(A)", gate)
    assert not v.accepted and v.reason.startswith("blocked-ngram")
    v = accept_pair("totally unrelated", "∀x (Octopus(x) → Tentacled(x))", gate)
    assert not v.accepted and v.reason.startswith("alignment")
    assert accept_pair("Rex is a dog.", "Dog(Rex)", gate).accepted


# ---------------------------------------------------------------------------
# generators


def test_scripted_generator_records_calls():
    gen = ScriptedGenerator(["a", "b"])
    assert gen.generate("sys", "user") == "a"
    assert gen.generate("sys", "user2") == "b"
    with pytest.raises(EndpointUnavailable):
        gen.generate("sys", "user3")
    assert [u for _, u in gen.calls] == ["user", "user2", "user3"]


def test_replay_generator(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text('"first"\n{"response": "second"}\n', encoding="utf-8")
    gen = ReplayGenerator(path)
    assert gen.generate("s", "u") == "first"
    assert gen.generate("s", "u") == "second"
    with pytest.raises(EndpointUnavailable):
        gen.generate("s", "u")


_COMPLETION = json.dumps({"choices": [{"message": {"content": "hello"}}]}).encode()


class _StubHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the next scripted status, or (status, body); a
    bare 200 carries a completion, any other bare status ``{}``. Records the
    Authorization header of each request."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests += 1
        self.server.auth.append(self.headers.get("Authorization"))
        status = self.server.statuses.pop(0)
        status, body = status if isinstance(status, tuple) else (status, _COMPLETION if status == 200 else b"{}")
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextmanager
def _stub_endpoint(monkeypatch, statuses):
    """A chat-completions stub on 127.0.0.1; yields (server, base URL)."""
    monkeypatch.setenv("no_proxy", "*")  # never route the stub through a proxy
    server = http.server.HTTPServer(("127.0.0.1", 0), _StubHandler)
    server.statuses, server.requests, server.auth = list(statuses), 0, []
    # shutdown() waits for the serve loop's next poll, 0.5 s by default
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}/v1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_generator_retries_server_errors(monkeypatch):
    with _stub_endpoint(monkeypatch, [503, 200]) as (server, url):
        assert HttpGenerator(url, backoff=0).generate("s", "u") == "hello"
    assert server.requests == 2


def test_http_generator_fails_fast_on_client_errors(monkeypatch):
    with _stub_endpoint(monkeypatch, [400, 200]) as (server, url):
        with pytest.raises(EndpointUnavailable):
            HttpGenerator(url, backoff=0).generate("s", "u")
    assert server.requests == 1


@pytest.mark.parametrize("statuses, requests, message", [
    ([503] * MAX_ATTEMPTS, MAX_ATTEMPTS, "HTTP Error 503"),  # retryable, until the last attempt
    ([(200, b"{}"), 200], 1, "malformed response body"),  # fatal at once
], ids=["server-errors", "malformed-body"])
def test_http_generator_gives_up(monkeypatch, statuses, requests, message):
    with _stub_endpoint(monkeypatch, statuses) as (server, url):
        with pytest.raises(EndpointUnavailable, match=message):
            HttpGenerator(url, backoff=0).generate("s", "u")
    assert server.requests == requests


def test_http_generator_retries_a_refused_connection(monkeypatch):
    with socket.socket() as sock:  # a port that was just free, and is closed again
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    monkeypatch.setenv("no_proxy", "*")
    real, calls = urllib.request.urlopen, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(urllib.request, "urlopen", counting)
    with pytest.raises(EndpointUnavailable, match="refused"):
        HttpGenerator(f"http://127.0.0.1:{port}/v1", backoff=0).generate("s", "u")
    assert len(calls) == MAX_ATTEMPTS


@pytest.mark.parametrize("key", ["sk-test", None])
def test_http_generator_sends_the_api_key_from_the_environment(monkeypatch, key):
    if key is None:
        monkeypatch.delenv(API_KEY_ENV, raising=False)
    else:
        monkeypatch.setenv(API_KEY_ENV, key)
    with _stub_endpoint(monkeypatch, [200]) as (server, url):
        assert HttpGenerator(url, backoff=0).generate("s", "u") == "hello"
    assert server.auth == [None if key is None else f"Bearer {key}"]


def test_collect_endpoint_client_error_exits_4(monkeypatch, tmp_path):
    bootstrap = tmp_path / "pairs.jsonl"
    bootstrap.write_text("".join(json.dumps({"nl": nl, "fol": fol}) + "\n" for nl, fol in CORPUS), encoding="utf-8")
    with _stub_endpoint(monkeypatch, [400]) as (server, url):
        result = CliRunner().invoke(main, ["collect", "--target", "1", "--endpoint", url,
                                           "--bootstrap", str(bootstrap), "--out-dir", str(tmp_path / "run")])
    assert result.exit_code == 4, result.output
    assert server.requests == 1


# ---------------------------------------------------------------------------
# collection loop


def _response_for(nl, fol):
    return f"--- NL:\n{nl}\n---\n--- FOL:\n{fol}\n---"


def test_run_collection_reaches_target(tmp_path):
    responses = [
        _response_for("Lily is a cat.", "Cat(Lily)"),
        _response_for("All dogs bark.", "∀x (Dog(x) → Barks(x))"),
        _response_for("broken output", "nonsense ="),
        _response_for("Snow is white.", "White(Snow)"),
    ]
    gen = ScriptedGenerator(responses)
    result = run_collection(gen, 3, tmp_path / "run", CORPUS, random.Random(0))
    assert result.accepted == 3
    assert result.rejected == 1
    assert result.stopped == "target"
    accepted = [
        json.loads(l) for l in (tmp_path / "run" / "accepted.jsonl").read_text().splitlines()
    ]
    assert [a["fol"] for a in accepted] == ["Cat(Lily)", "∀x (Dog(x) → Barks(x))", "White(Snow)"]
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["accepted.jsonl", "rejections.jsonl"]


def test_run_collection_resumes(tmp_path):
    out = tmp_path / "run"
    gen1 = ScriptedGenerator([_response_for("Lily is a cat.", "Cat(Lily)")])
    run_collection(gen1, 1, out, CORPUS, random.Random(0))
    gen2 = ScriptedGenerator([_response_for("Snow is white.", "White(Snow)")])
    result = run_collection(gen2, 2, out, CORPUS, random.Random(0))
    assert result.accepted == 2
    lines = (out / "accepted.jsonl").read_text().splitlines()
    assert len(lines) == 2


def test_run_collection_stops_on_exhausted_replay(tmp_path):
    gen = ScriptedGenerator([])
    result = run_collection(gen, 5, tmp_path / "run", CORPUS, random.Random(0))
    assert result.stopped == "replay-exhausted"
    assert result.accepted == 0


def test_run_collection_budget(tmp_path):
    gen = ScriptedGenerator([_response_for("x", "nonsense =")], cycle_last=True)
    result = run_collection(
        gen, 5, tmp_path / "run", CORPUS, random.Random(0), max_calls=4
    )
    assert result.stopped == "budget"
    assert result.calls == 4


def test_long_predicate_triggers_breakdown_clause(tmp_path):
    responses = [
        _response_for("The moon shines at night.", "MoonShinesAtNight(Moon)"),
        _response_for("Snow is white.", "White(Snow)"),
    ]
    gen = ScriptedGenerator(responses)
    run_collection(gen, 2, tmp_path / "run", CORPUS, random.Random(0))
    assert BREAKDOWN_CLAUSE not in gen.calls[0][1]
    assert BREAKDOWN_CLAUSE in gen.calls[1][1]


def _seed_accepted(out, nls):
    out.mkdir()
    rows = "".join(json.dumps({"nl": nl, "fol": "Seen(A)"}) + "\n" for nl in nls)
    (out / "accepted.jsonl").write_text(rows, encoding="utf-8")


def test_resume_rebuilds_gate_from_accepted_rows(tmp_path):
    """The out-dir of a run that exited 4 holds accepted.jsonl and no gate.json."""
    out = tmp_path / "run"
    _seed_accepted(out, [f"A zebra was seen on day {i}." for i in range(500)])
    gen = ScriptedGenerator([_response_for("Every zebra has stripes.", "∀x (Zebra(x) → HasStripes(x))")])
    result = run_collection(gen, 501, out, CORPUS, random.Random(0))
    assert (result.accepted, result.stopped) == (500, "replay-exhausted")
    rejections = [json.loads(l) for l in (out / "rejections.jsonl").read_text().splitlines()]
    assert [r["reason"] for r in rejections] == ["blocked-ngram: zebra"]
    user = gen.calls[0][1]
    assert "DO NOT involve" in user and '"zebra"' in user


def test_resume_counts_each_prior_row_once(tmp_path, monkeypatch):
    """The gate is rebuilt by one count: no update per prior row, one tokenization each."""
    updates, tokenized = [], []
    real_update, real_tokens = NgramGate.update, collect_module.nl_tokens
    monkeypatch.setattr(NgramGate, "update", lambda gate, nl: updates.append(nl) or real_update(gate, nl))
    monkeypatch.setattr(collect_module, "nl_tokens", lambda text: tokenized.append(text) or real_tokens(text))
    prior = [f"A zebra was seen on day {i}." for i in range(300)]
    out = tmp_path / "run"
    _seed_accepted(out, prior)
    result = run_collection(ScriptedGenerator([]), 301, out, CORPUS, random.Random(0))
    assert (result.accepted, result.stopped) == (300, "replay-exhausted")
    assert updates == []
    assert tokenized == prior


class _DownAfter(ScriptedGenerator):
    """A scripted generator whose endpoint goes down after k calls."""

    def __init__(self, responses, k):
        super().__init__(responses)
        self.k = k

    def generate(self, system, user):
        if self.index >= self.k:
            raise EndpointUnavailable("endpoint down")
        return super().generate(system, user)


# one block per response; the prior rows leave "zebra" and "cats chase mice" one short of blocked
_RESUME_PRIOR = [f"Zebra {i} grazes." for i in range(499)] + [f"Cats chase mice {i}." for i in range(249)]
_RESUME_RESPONSES = [
    _response_for("A zebra has stripes.", "∀x (Zebra(x) → HasStripes(x))"),
    _response_for("Cats chase mice at dusk.", "∀x (Cat(x) → Chase(x, Mice))"),
    _response_for("Every zebra runs.", "∀x (Zebra(x) → Runs(x))"),
    _response_for("Cats chase mice daily.", "∀x (Cat(x) → Chase(x, Mice))"),
    _response_for("Birds sing.", "Sing(Birds) ="),
    "--- NL:\nlonely statement\n---",
    _response_for("Owls hunt at night.", "∀x (Owl(x) → Hunts(x))"),
    _response_for("Totally unrelated.", "∀x (Octopus(x) → Tentacled(x))"),
]


def _resume_outputs(out):
    return tuple((out / f).read_bytes() for f in ("accepted.jsonl", "rejections.jsonl"))


def test_interrupted_run_resumes_to_the_uninterrupted_state(tmp_path):
    target = len(_RESUME_PRIOR) + 10
    whole = tmp_path / "whole"
    _seed_accepted(whole, _RESUME_PRIOR)
    result = run_collection(ScriptedGenerator(_RESUME_RESPONSES), target, whole, CORPUS, random.Random(0))
    assert result.stopped == "replay-exhausted"
    rejections = [json.loads(l) for l in (whole / "rejections.jsonl").read_text().splitlines()]
    assert [r["reason"].split(":")[0] for r in rejections] == [
        "blocked-ngram", "blocked-ngram", "syntax", "NL without FOL", "alignment"]
    assert [r["reason"] for r in rejections[:2]] == ["blocked-ngram: zebra", "blocked-ngram: cats chase mice"]
    expected = _resume_outputs(whole)

    for k in range(len(_RESUME_RESPONSES) + 1):
        out = tmp_path / f"down-after-{k}"
        _seed_accepted(out, _RESUME_PRIOR)
        with pytest.raises(EndpointUnavailable):
            run_collection(_DownAfter(_RESUME_RESPONSES, k), target, out, CORPUS, random.Random(0))
        run_collection(ScriptedGenerator(_RESUME_RESPONSES[k:]), target, out, CORPUS, random.Random(1))
        assert _resume_outputs(out) == expected, f"endpoint down after {k} calls"


# the child runs a collection whose generator kills the process at call k
_KILLED_RUN = """
import json, os, random, sys
from folkit.collect import run_collection
from helpers import ScriptedGenerator

out, k, responses, corpus = json.loads(sys.argv[1])

class KilledAt(ScriptedGenerator):
    def generate(self, system, user):
        if self.index == k:
            os._exit(17)
        return super().generate(system, user)

run_collection(KilledAt(responses), 1000, out, [tuple(p) for p in corpus], random.Random(0))
"""


def test_killed_run_keeps_every_judged_row(tmp_path):
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])  # folkit and the helpers
    for k in range(1, len(_RESUME_RESPONSES) + 1):
        judged = tmp_path / f"judged-{k}"
        run_collection(ScriptedGenerator(_RESUME_RESPONSES[:k]), 1000, judged, CORPUS, random.Random(0))
        killed = tmp_path / f"killed-{k}"
        arg = json.dumps([str(killed), k, _RESUME_RESPONSES, CORPUS])
        proc = subprocess.run([sys.executable, "-c", _KILLED_RUN, arg], capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 17, proc.stderr.decode()
        assert _resume_outputs(killed) == _resume_outputs(judged), f"killed at call {k}"
