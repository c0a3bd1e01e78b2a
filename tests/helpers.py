"""Test-only helpers that the package itself never runs.

A scripted generator, which answers from an in-memory list, and a readable
rendering of an LE binding.
"""

from folkit.endpoint import ReplayExhausted


class ScriptedGenerator:
    """In-memory scripted generator: answers from a list, and records each call."""

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


def describe(binding, p, q) -> list[str]:
    """One ``left ↔ right`` line per pair of ``binding`` over the atom lists ``p`` and ``q``."""
    out = []
    for pi, qi in binding.pairs:
        left = p[pi].canonical_text if pi is not None else "DUMMY"
        right = q[qi].canonical_text if qi is not None else "DUMMY"
        out.append(f"{left} ↔ {right}")
    return out
