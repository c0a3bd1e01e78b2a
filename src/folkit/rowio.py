"""Input and output rows: every data file folkit reads goes through here, and
write_rows writes every row file but the ones collect appends to.

Files are UTF-8 and are read line by line with 1-based line numbers. JSON is
decoded per line, and a row must be an object whose named fields hold text.
Every malformed input raises InputError, whose message starts with
``path:line:`` (``path:[i]:`` for an element of a JSON array). Locations are
formatted only when an error is shown, so reading stays a plain stream.

The two base classes below let the CLI sort every command's failures into
exit codes without importing the modules that raise them.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator


class DataFault(Exception):
    """A failure of the input data, whichever command meets it (CLI exit 3)."""


class EndpointFault(Exception):
    """A generator endpoint that cannot serve (CLI exit 4)."""


class InputError(DataFault):
    """A malformed input file; ``str()`` starts with the location."""

    def __init__(self, path, where, message: str):
        super().__init__(path, where, message)

    def __str__(self) -> str:
        path, where, message = self.args
        return f"{path}:{where}: {message}"


def lines(path) -> Iterator[tuple[int, str]]:
    """(line number, text without its line break) for each line of a file."""
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, 1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(path, n, f"not UTF-8: {exc.reason} at byte {exc.start} of the line") from None
            yield n, text.rstrip("\r\n")


def loads(path, line: int, text: str):
    """Decode one JSON value that starts on ``line`` of ``path``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(path, line + exc.lineno - 1, f"bad JSON: {exc.msg} (column {exc.colno})") from None


def check(path, where, value, fields: tuple[str, ...] = (), fold_case: bool = False) -> dict:
    """``value`` if it is a JSON object whose named fields hold text.

    With ``fold_case`` the keys are lowercased first, so ``FOL`` reads as ``fol``.
    """
    if not isinstance(value, dict):
        raise InputError(path, where, f"expected a JSON object, found {type(value).__name__}")
    if fold_case:
        value = {k.lower(): v for k, v in value.items()}
    for name in fields:
        if not isinstance(value.get(name), str):
            raise InputError(path, where, f"field {name!r} is {'not text' if name in value else 'missing'}")
    return value


def row(path, line: int, text: str, fields: tuple[str, ...] = (), fold_case: bool = False) -> dict:
    """One JSON-object row read from ``line`` of ``path``."""
    return check(path, line, loads(path, line, text), fields, fold_case)


def jsonl(path, fields: tuple[str, ...] = ()) -> Iterator[tuple[int, dict]]:
    """(line number, row) for each non-blank line of a JSONL file."""
    for n, text in lines(path):
        if text.strip():
            yield n, row(path, n, text, fields)


def load_pairs(path) -> list[tuple[str, str]]:
    """(NL, FOL) pairs from a JSONL file or a file holding one JSON array;
    keys nl/fol in any case."""
    fields = ("nl", "fol")
    pairs = []
    numbered = lines(path)
    for n, text in numbered:
        if not text.strip():
            continue
        if text.lstrip().startswith("["):  # the rest of the file is one array
            whole = "\n".join([text] + [rest for _, rest in numbered])
            values = (check(path, f"[{i}]", value, fields, True) for i, value in enumerate(loads(path, n, whole)))
        else:
            values = (row(path, n, text, fields, True),)
        pairs.extend((value["nl"], value["fol"]) for value in values)
    return pairs


def write(fh: IO[str], value: dict) -> None:
    """Append one row to a JSONL stream."""
    fh.write(json.dumps(value, ensure_ascii=False) + "\n")


def write_rows(path, rows: Iterable[dict]) -> int:
    """Write the rows to a new JSONL file at ``path``; returns how many."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for value in rows:
            write(fh, value)
            n += 1
    return n
