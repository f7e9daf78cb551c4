"""The text codec behind every optrf file, plus atomic writes.

Every optrf file is line based: ``#`` header lines of ``key=value`` tokens,
then rows of whitespace- or comma-separated fields.  Floats are written with
``fmt``, so format -> parse -> format gives the same bytes.  Parsers read
through ``lines``, ``parse_header`` and ``parse_row``, so any malformed input
is a ConfigError that names its line; numbers must be finite.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

from .errors import ConfigError


def fmt(x) -> str:
    """Shortest text that reads back as the same float."""
    return repr(float(x))


def number(tok: str, kind=float):
    """``tok`` as an int or a float; ConfigError unless it is a finite one."""
    try:
        v = kind(tok)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"expected {what}, got {tok!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {tok!r}")
    return v


def number_list(text: str, sep: str = ",") -> list:
    """The ``sep``-separated floats of ``text``; blank entries are skipped."""
    return [number(t) for t in text.split(sep) if t.strip()]


@contextmanager
def located(where: str):
    """Re-raise a ConfigError from the block with ``where`` in front."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def lines(text: str, least: int = 1) -> list[tuple[int, str]]:
    """The non-blank lines of ``text`` as (1-based line number, line);
    ConfigError when there are fewer than ``least``."""
    out = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(out) < least:
        raise ConfigError(f"expected at least {least} non-blank lines, "
                          f"got {len(out)}")
    return out


def _read(tok: str, kind):
    return number(tok, kind) if kind in (int, float) else kind(tok)


def parse_header(line: tuple[int, str], tag: str, spec: dict) -> dict:
    """The values of a ``# <tag> key=value ...`` header line.

    ``spec`` maps every key the line must hold, each exactly once, to the
    kind its value is read as: ``int``, ``float``, ``str`` or a function
    that raises ConfigError.  ``tag`` may be empty.
    """
    no, text = line
    toks = text[1:].split()
    pairs = [tok.partition("=") for tok in toks[1 if tag else 0:]]
    keys = sorted(key for key, eq, _ in pairs if eq)
    with located(f"line {no}"):
        if not text.startswith("#") or (tag and toks[:1] != [tag]) \
                or len(keys) != len(pairs) or keys != sorted(spec):
            raise ConfigError(f"expected '#{' ' + tag if tag else ''}' and "
                              f"{', '.join(spec)} once each, got {text!r}")
        out = {}
        for key, _, value in pairs:
            with located(key):
                out[key] = _read(value, spec[key])
    return out


def parse_row(line: tuple[int, str], count: int, kind=float,
              sep: str | None = None) -> list:
    """The ``count`` fields of a data row, each read as ``kind``, or as the
    matching entry when ``kind`` is a list."""
    no, text = line
    toks = text.split(sep)
    with located(f"line {no}"):
        if len(toks) != count:
            raise ConfigError(f"expected {count} fields, got {len(toks)}")
        kinds = kind if isinstance(kind, list) else [kind] * count
        return [_read(t, k) for t, k in zip(toks, kinds)]


def load(path, parse):
    """``parse`` applied to the text of ``path``, with the path in front of
    any ConfigError; text that is not UTF-8 is a ConfigError too."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh, located(path):
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text ({exc.reason})") from None
        return parse(text)


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory,
    replacing any file there whole.

    The rename is atomic on POSIX, so a crashed run never leaves a partial
    file behind.  Whether an existing file may be replaced is the caller's
    decision.  The temp file is created with mode 0o666, so the file gets
    what ``open()`` gives a new file, 0o666 less the umask; the random name
    and ``O_EXCL`` keep it from taking over a file that is already there.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_is_new(path, header: str) -> bool:
    """Whether ``path`` does not exist yet; ConfigError when it exists and
    its first line is not ``header``, so a row never lands in a file of
    another kind or schema."""
    path = os.fspath(path)
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return True
    with fh, located(path):
        try:
            first = fh.readline()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text ({exc.reason})") from None
        if first.rstrip("\r\n") != header:
            raise ConfigError(f"first line is not the header {header!r}; "
                              f"refusing to append")
    return False


def append_csv_row(path, header: str, row: str) -> None:
    """Append one CSV row, writing the header first when the file is new;
    an existing file must start with ``header`` (see ``csv_is_new``)."""
    path = os.fspath(path)
    new = csv_is_new(path, header)
    with open(path, "a", encoding="utf-8") as fh:
        if new:
            fh.write(header + "\n")
        fh.write(row + "\n")
