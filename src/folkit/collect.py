"""NL-FOL pair collection pipeline: n-gram frequency gating, prompt assembly,
generator invocation, response parsing, and acceptance filtering.

The generator behind the pipeline is abstracted to a text-in/text-out
interface with two implementations: a chat-completions-style HTTP client and
a deterministic replay reader, so collection runs are fully testable offline.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from . import rowio
from .fol import camel_words, literal_occurrences
from .parser import FolSyntaxError, parse, validate

log = logging.getLogger(__name__)


class EndpointUnavailable(Exception):
    pass


class ReplayExhausted(EndpointUnavailable):
    """A replayed or scripted generator has no responses left."""


class InsufficientCorpus(Exception):
    pass


# ---------------------------------------------------------------------------
# tokenization helpers

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def nl_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


LONG_PREDICATE_WORDS = 4  # ColorChangedToRed is long; EUCountry is not


def has_long_predicate(fol: str) -> bool:
    try:
        rule = parse(fol)
    except FolSyntaxError:
        return False
    return any(len(camel_words(l.predicate)) >= LONG_PREDICATE_WORDS for l in literal_occurrences(rule))


# ---------------------------------------------------------------------------
# n-gram gate


def _ngrams(nl: str) -> tuple[list[str], list[str]]:
    """The unigrams and the trigrams of an NL statement, in order."""
    toks = nl_tokens(nl)
    return toks, [" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)]


@dataclass
class NgramGate:
    """Frequency counter over accepted NL statements.

    N-grams at or over their threshold are blocked from future generations.
    Counts grow only through ``update``, which keeps the blocked sets current.
    """

    unigram_threshold: int = 500
    trigram_threshold: int = 250
    unigrams: Counter = field(default_factory=Counter)
    trigrams: Counter = field(default_factory=Counter)
    _blocked_unigrams: set = field(init=False, repr=False, compare=False)
    _blocked_trigrams: set = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._blocked_unigrams = {g for g, c in self.unigrams.items() if c >= self.unigram_threshold}
        self._blocked_trigrams = {g for g, c in self.trigrams.items() if c >= self.trigram_threshold}

    def update(self, nl: str) -> None:
        toks, tris = _ngrams(nl)
        self.unigrams.update(toks)
        self.trigrams.update(tris)
        self._blocked_unigrams.update(g for g in toks if self.unigrams[g] >= self.unigram_threshold)
        self._blocked_trigrams.update(g for g in tris if self.trigrams[g] >= self.trigram_threshold)

    def blocked(self) -> list[str]:
        return sorted(self._blocked_unigrams) + sorted(self._blocked_trigrams)

    def find_blocked(self, nl: str) -> str | None:
        """The first blocked unigram of ``nl``, else its first blocked trigram."""
        toks, tris = _ngrams(nl)
        hits = [g for g in toks if g in self._blocked_unigrams] + [g for g in tris if g in self._blocked_trigrams]
        return hits[0] if hits else None

    def to_dict(self) -> dict:
        return {
            "unigram_threshold": self.unigram_threshold,
            "trigram_threshold": self.trigram_threshold,
            "unigrams": dict(self.unigrams),
            "trigrams": dict(self.trigrams),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NgramGate":
        return cls(
            unigram_threshold=d.get("unigram_threshold", 500),
            trigram_threshold=d.get("trigram_threshold", 250),
            unigrams=Counter(d.get("unigrams", {})),
            trigrams=Counter(d.get("trigrams", {})),
        )


# ---------------------------------------------------------------------------
# alignment check


def _stem(word: str) -> str:
    """Crude suffix stripping, just enough to match singular/plural and
    simple verb inflections."""
    for suffix in ("ing", "ies", "es", "ed", "s"):
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            return word[: -len(suffix)]
    return word


def alignment_score(fol: str, nl: str) -> float:
    """Fraction of the FOL's term words (CamelCase-split, lowercased,
    stem-matched) present in the NL token set."""
    try:
        rule = parse(fol)
    except FolSyntaxError:
        return 0.0
    words: set[str] = set()
    for lit in literal_occurrences(rule):
        words.update(camel_words(lit.predicate))
        for arg in lit.args:
            if not (len(arg) <= 2 and arg.islower()):  # skip bare variables
                words.update(camel_words(arg))
    if not words:
        return 1.0
    present = {_stem(t) for t in nl_tokens(nl)}
    return sum(1 for w in words if _stem(w) in present) / len(words)


# ---------------------------------------------------------------------------
# prompt assembly

SYSTEM_PROMPT = """\
I want to create a dataset for translating natural language (NL) statements into first-order logic (FOL) rules. \
You will help me to create a diverse set of NL-FOL pairs.

For natural language (NL) generation, you should:
    1. Come up with a statement stating either complex or simple real-world commonsense facts
    2. The statements are meaningful, and diverse from each other

For FOL rule generation:
    1. You SHOULD USE the following logical operators: ⊕ (either or), ∨ (disjunction), ∧ (conjunction), → (implication), ∀ (universal), ∃ (existential), ¬ (negation), ↔ (equivalence)
    2. You *SHOULD NEVER USE* the following symbols for FOL: "!", "≠", "%", "="
    3. The literals in FOL SHOULD ALWAYS have predicate and entities, e.g., "Rounded(x, y)" or "City(guilin)"; expressions such as "y = a ∨ y = b" or "a ∧ b ∧ c" are NOT ALLOWED
    4. The FOL rule SHOULD ACCURATELY reflect the meaning of the NL statement
    5. You SHOULD ALWAYS put quantifiers and variables at the beginning of the FOL
    6. You SHOULD generate FOL rules with either: (1) no variables; (2) one variable "x"; (3) two variables "x", "y"; or (4) three variables "x", "y" and "z"

Generation Format: you SHOULD ALWAYS generate the NL and FOL pairs in the following format
\"\"\"
--- NL:
{your generated NL}
---
--- FOL:
{your generated FOL}
---
\"\"\"
"""

NEGATIVE_CLAUSE_TEMPLATE = (
    'They DO NOT involve concepts and terms (and the synonyms) such as {items}'
)
SHAPE_CLAUSE_TEMPLATE = (
    "They are {complexity} statements involving {var_clause}"
)
DIVERSITY_CLAUSE = (
    "The statement involves diverse logical operators such as logical negation, "
    "logical xor and disjunction"
)
BREAKDOWN_CLAUSE = (
    '[IMPORTANT] AVOID making long predicate names like "MoonShinesAtNight","SunShinesDuringDay"'
)

FEW_SHOT_COUNT = 5


@dataclass
class PromptBundle:
    system: str
    few_shot: list[tuple[str, str]]
    shape_clause: str
    negative_clause: str | None = None
    breakdown_clause: str | None = None

    def user_text(self) -> str:
        parts = []
        for nl, fol in self.few_shot:
            parts.append(f"--- NL:\n{nl}\n---\n--- FOL:\n{fol}\n---")
        parts.append("Now generate a new batch of NL-FOL pairs in the same format.")
        parts.append(self.shape_clause)
        if self.negative_clause:
            parts.append(self.negative_clause)
        if self.breakdown_clause:
            parts.append(self.breakdown_clause)
        return "\n\n".join(parts)


def assemble_prompt(
    gate: NgramGate,
    corpus: list[tuple[str, str]],
    rng,
    include_breakdown: bool = False,
) -> PromptBundle:
    """Build the next generation prompt from the current corpus and gate."""
    if len(corpus) < FEW_SHOT_COUNT:
        raise InsufficientCorpus(f"need at least {FEW_SHOT_COUNT} pairs, have {len(corpus)}")
    few_shot = rng.sample(corpus, FEW_SHOT_COUNT)

    n_vars = rng.choice([0, 1, 2, 3])
    var_clause = "no logical variables" if n_vars == 0 else f"at least {n_vars} logical variables"
    shape = SHAPE_CLAUSE_TEMPLATE.format(
        complexity=rng.choice(["complex", "simple"]), var_clause=var_clause
    )
    if rng.random() < 0.5:
        shape = f"{shape}\n{DIVERSITY_CLAUSE}"

    blocked = gate.blocked()
    negative = None
    if blocked:
        items = ",".join(f'"{g}"' for g in blocked)
        negative = NEGATIVE_CLAUSE_TEMPLATE.format(items=items)

    return PromptBundle(
        system=SYSTEM_PROMPT,
        few_shot=few_shot,
        shape_clause=shape,
        negative_clause=negative,
        breakdown_clause=BREAKDOWN_CLAUSE if include_breakdown else None,
    )


# ---------------------------------------------------------------------------
# response parsing

_MARKER_RE = re.compile(r"^\s*(?:---+|###)\s*(NL|FOL)\s*:\s*(.*)$", re.IGNORECASE)
_BARE_DELIM_RE = re.compile(r"^\s*---+\s*$")


def parse_response(text: str) -> tuple[list[tuple[str, str]], list[dict]]:
    """Extract (NL, FOL) pairs from generator output.

    Both "--- NL:" and "### NL:" marker styles are accepted.  Malformed
    blocks (an NL without a following FOL, or vice versa) are dropped and
    reported with a reason.
    """
    pairs: list[tuple[str, str]] = []
    rejects: list[dict] = []
    current_nl: str | None = None
    section: str | None = None
    buf: list[str] = []

    def flush():
        nonlocal current_nl, section, buf
        body = "\n".join(buf).strip()
        if section == "NL":
            if current_nl is not None:
                rejects.append({"text": current_nl, "reason": "NL without FOL"})
            current_nl = body
        elif section == "FOL":
            if current_nl is None:
                rejects.append({"text": body, "reason": "FOL without NL"})
            else:
                pairs.append((current_nl, body))
                current_nl = None
        section, buf = None, []

    for line in text.splitlines():
        m = _MARKER_RE.match(line)
        if m:
            flush()
            section = m.group(1).upper()
            if m.group(2).strip():
                buf.append(m.group(2).strip())
            continue
        if _BARE_DELIM_RE.match(line):
            if section:
                flush()
            continue
        if section is not None:
            buf.append(line)
    flush()
    if current_nl is not None:
        rejects.append({"text": current_nl, "reason": "NL without FOL"})
    return pairs, rejects


# ---------------------------------------------------------------------------
# acceptance


@dataclass
class Verdict:
    accepted: bool
    reason: str = ""


def accept_pair(
    nl: str, fol: str, gate: NgramGate, align_threshold: float = 0.5
) -> Verdict:
    """Accept iff the FOL validates, the NL carries no blocked n-gram, and the
    FOL terms align with the NL."""
    verdict = validate(fol)
    if not verdict:
        return Verdict(False, f"syntax: {verdict.reason}")
    blocked = gate.find_blocked(nl)
    if blocked is not None:
        return Verdict(False, f"blocked-ngram: {blocked}")
    score = alignment_score(fol, nl)
    if score < align_threshold:
        return Verdict(False, f"alignment: {score:.3f} < {align_threshold}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# generators


class Generator(Protocol):
    def generate(self, system: str, user: str) -> str: ...


class ReplayGenerator:
    """Deterministic generator reading canned responses from a JSONL file.

    Each line is either a JSON string or an object with a "response" key.
    Raises ReplayExhausted when the replay is exhausted.
    """

    def __init__(self, path: str | Path):
        self.responses: list[str] = []
        for n, text in rowio.lines(path):
            if not text.strip():
                continue
            value = rowio.loads(path, n, text)
            if not isinstance(value, str):
                value = rowio.check(path, n, value, ("response",))["response"]
            self.responses.append(value)
        self.index = 0

    def remaining(self) -> int:
        return len(self.responses) - self.index

    def generate(self, system: str, user: str) -> str:
        if self.index >= len(self.responses):
            raise ReplayExhausted("replay file exhausted")
        resp = self.responses[self.index]
        self.index += 1
        return resp


class ScriptedGenerator:
    """In-memory scripted generator for tests and dry runs."""

    def __init__(self, responses: list[str], cycle_last: bool = False):
        self.responses = list(responses)
        self.cycle_last = cycle_last
        self.index = 0
        self.calls: list[tuple[str, str]] = []

    def generate(self, system: str, user: str) -> str:
        self.calls.append((system, user))
        if self.index >= len(self.responses):
            if self.cycle_last and self.responses:
                return self.responses[-1]
            raise ReplayExhausted("script exhausted")
        resp = self.responses[self.index]
        self.index += 1
        return resp


class HttpGenerator:
    """Chat-completions-style HTTP client; the API key comes from the
    environment, never from flags or files.

    Timeouts, connection errors, 429 and 5xx are retried (RFC 9110 §15);
    any other error status or a malformed body raises EndpointUnavailable
    at once.
    """

    def __init__(
        self,
        base_url: str,
        model: str = "gpt-4",
        api_key_env: str = "FOLKIT_API_KEY",
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 2.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = os.environ.get(api_key_env, "")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff

    def generate(self, system: str, user: str) -> str:
        # imported here: urllib.request adds about 30 ms to every start-up,
        # and replay runs never use it
        import http.client
        import urllib.error
        import urllib.request

        url = f"{self.base_url}/chat/completions"
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(url, json.dumps(payload).encode("utf-8"), headers, method="POST")
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    body = resp.read()
                break
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code != 429 and exc.code < 500:
                    raise EndpointUnavailable(f"{url}: HTTP {exc.code}") from exc
                last_error = exc
            except OSError as exc:  # timeouts and connection errors, URLError included
                last_error = exc
            except http.client.HTTPException as exc:
                raise EndpointUnavailable(f"{url}: bad HTTP response: {exc!r}") from exc
            if attempt < self.max_retries - 1:
                time.sleep(self.backoff * (attempt + 1))
        else:
            raise EndpointUnavailable(f"{url}: {last_error}")
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError):
            content = None
        if not isinstance(content, str):
            raise EndpointUnavailable(f"{url}: malformed response body")
        return content


# ---------------------------------------------------------------------------
# collection loop


@dataclass
class CollectionResult:
    accepted: int
    rejected: int
    calls: int
    stopped: str  # "target" | "budget" | "replay-exhausted"


def run_collection(
    generator: Generator,
    target: int,
    out_dir: str | Path,
    bootstrap: list[tuple[str, str]],
    rng,
    align_threshold: float = 0.5,
    max_calls: int | None = None,
) -> CollectionResult:
    """Loop assemble → generate → parse → accept until the target count.

    Pairs go to accepted.jsonl and rejections to rejections.jsonl under
    out_dir as they are judged. accepted.jsonl is the whole state: a rerun
    resumes from it, folding ``NgramGate.update`` over its rows for the gate.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    accepted_path = out_dir / "accepted.jsonl"
    rejected_path = out_dir / "rejections.jsonl"

    gate = NgramGate()
    accepted: list[tuple[str, str]] = []
    if accepted_path.exists():
        for _, row in rowio.jsonl(accepted_path, ("nl", "fol")):
            gate.update(row["nl"])
            accepted.append((row["nl"], row["fol"]))

    corpus = list(bootstrap) + accepted
    if max_calls is None:
        max_calls = max(1, target) * 10
    calls = 0
    rejected_count = 0
    include_breakdown = False
    stopped = "target"

    # line-buffered, so a row reaches the file as soon as it is judged and a
    # killed run loses no pair it already paid for
    with open(accepted_path, "a", encoding="utf-8", buffering=1) as acc_fh, open(
        rejected_path, "a", encoding="utf-8", buffering=1
    ) as rej_fh:
        while len(accepted) < target:
            if calls >= max_calls:
                stopped = "budget"
                break
            bundle = assemble_prompt(gate, corpus, rng, include_breakdown)
            try:
                response = generator.generate(bundle.system, bundle.user_text())
            except ReplayExhausted:
                stopped = "replay-exhausted"
                break
            calls += 1
            candidates, malformed = parse_response(response)
            for rej in malformed:
                rowio.write(rej_fh, rej)
                rejected_count += 1
            include_breakdown = any(has_long_predicate(fol) for _, fol in candidates)
            for nl, fol in candidates:
                if len(accepted) >= target:
                    break
                verdict = accept_pair(nl, fol, gate, align_threshold)
                if verdict.accepted:
                    gate.update(nl)
                    accepted.append((nl, fol))
                    corpus.append((nl, fol))
                    rowio.write(acc_fh, {"nl": nl, "fol": fol})
                else:
                    rowio.write(rej_fh, {"nl": nl, "fol": fol, "reason": verdict.reason})
                    rejected_count += 1

    return CollectionResult(len(accepted), rejected_count, calls, stopped)
