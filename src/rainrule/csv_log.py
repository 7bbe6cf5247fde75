"""The canonical CSV ball log, one delivery per row under :data:`CSV_HEADER`:
its reader :func:`read_log` and its writer :func:`export_csv`.  The log holds
no date, teams or venue, so its matches read as dated 1900-01-01 with blank teams.
"""

from __future__ import annotations

from collections.abc import Iterable
from datetime import date
from functools import cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ball_log import (
    LEGAL_BY_CODE, ExtrasKind, InningsRecord, MatchFormat, MatchRecord, RowError, decode,
)
from .errors import DataError, ParseError, UnsupportedFormatError

__all__ = ["CSV_HEADER", "read_log", "export_csv"]

CSV_HEADER = (
    "match_id,format,innings,over,ball_in_over,legal,"
    "batter_runs,extras_runs,extras_kind,wicket"
)

# placeholder metadata for CSV ball logs, which carry none
_CSV_EPOCH = date(1900, 1, 1)
_CSV_BOOL = {True: "true", False: "false"}
_FORMATS = tuple(MatchFormat)
_KIND_NAMES = tuple(kind.value for kind in ExtrasKind)


def _parse_bool(token: str) -> bool:
    t = token.strip().lower()
    if t in ("true", "1"):
        return True
    if t in ("false", "0"):
        return False
    raise ValueError(f"bad boolean {token!r}")


# each converted field and its converter, in reading order: the first that refuses is the error
_READ_ORDER = (
    (1, lambda token: _FORMATS.index(MatchFormat.from_string(token))),
    (2, int), (3, int), (4, int), (6, int), (7, int),
    (8, lambda token: ExtrasKind(token.strip()).code), (9, _parse_bool), (5, _parse_bool),
)

_CSV_HEAD = (CSV_HEADER + "\n").encode()
# ``str.splitlines`` ends a line at each of these as well as at "\n"
_OTHER_LINE_BREAKS = tuple(c.encode() for c in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
_MAX_DIGITS = 18  # every number of up to 18 digits fits int64
_MAX_TOKEN = 7  # bytes of a token; an eighth holds its length in its key
_COMMA, _NEWLINE, _ZERO = (ord(c) for c in ",\n0")
_LINE = np.array([_COMMA] * 9 + [_NEWLINE], np.uint8)  # the separators of a line
_I64 = np.iinfo(np.int64)
# _LOW_BYTES[k] keeps the k lowest bytes of a little-endian word, _HIGH_BYTES[k] the k highest
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_HIGH_BYTES = _LOW_BYTES[::-1] ^ _LOW_BYTES[-1]


def read_log(data: bytes | str) -> list[MatchRecord]:
    """The matches of a CSV ball log, in the order their match ids first appear.

    The log is read a column at a time, as it would be row by row: numpy parses
    integers by digit arithmetic and converts each distinct token once, and any
    other cell goes through the same converter on its own.  A :class:`ParseError`
    names the first fault: bytes that are not UTF-8, the header, the first bad
    line, then the first innings, match by match, that breaks a delivery rule
    (at its line) or an innings rule.
    """
    decode(data)  # a log that is not UTF-8 is refused at its first bad byte, before all else
    # a str keeps any lone surrogate through its bytes
    raw = data if isinstance(data, bytes) else data.encode("utf-8", "surrogatepass")
    sep, lines, error = _separators(raw), range(2, len(raw) + 2), None  # row r is at lines[r]
    if sep is None:  # other line breaks, blank lines, no final newline or a short line
        raw, lines, error = _rows(decode(data))
        sep = _separators(raw)
    buf = np.frombuffer(raw, np.uint8)

    def field(k):  # (begin, end) of field k of each row, past the header
        return sep[9 + k:-1:10] + 1, sep[10 + k::10]

    def fail(message, r):
        return ParseError(message, position=f"line {lines[r]}")

    def cells(r):
        return _text(raw[sep[9 + 10 * r] + 1:sep[19 + 10 * r]]).split(",")

    n = sep.size // 10 - 1  # rows
    if n:
        columns, bad = {}, []  # field -> its values; the first bad row of each column
        for k, convert in _READ_ORDER:
            parse = _integers if convert is int else _tokens
            columns[k], refused = parse(buf, *field(k), convert)
            bad += refused[:1]
        index, fmt, kind, wicket = columns[2], columns[1], columns[8], columns[9]
        # the one field no column holds: legality follows from the kind
        bad += np.flatnonzero((columns[5] == 1) != LEGAL_BY_CODE[kind])[:1].tolist()
        if bad:  # the rows end at the first bad one
            n = min(bad)
            row = cells(n)
            try:
                for k, convert in _READ_ORDER:
                    convert(row[k])
                raise ValueError("legal flag inconsistent with extras kind")
            except (UnsupportedFormatError, ValueError) as e:
                error = fail(f"bad delivery row: {e}", n)
    if not n:
        if error:
            raise error
        return []

    # an innings is the runs of rows under one match id and innings index
    begin, end = (position[:n] for position in field(0))
    new_run = _changes(buf, begin, end) | (index[1:n] != index[:n - 1])
    firsts = np.append(0, np.flatnonzero(new_run) + 1)
    # match id -> (format, innings index -> its runs), in order of first appearance
    by_match: dict[str, tuple[int, dict[int, list[slice]]]] = {}
    run_formats = []  # the format of each run's match
    for a, b, at, to, idx, code in zip(
        firsts.tolist(), np.append(firsts[1:], n).tolist(), begin[firsts].tolist(),
        end[firsts].tolist(), index[firsts].tolist(), fmt[firsts].tolist(),
    ):
        match_code, by_index = by_match.setdefault(_text(raw[at:to]), (code, {}))
        run_formats.append(match_code)
        by_index.setdefault(idx, []).append(slice(a, b))
    run_formats = np.repeat(np.int8(run_formats), np.diff(firsts, append=n))
    conflicts = np.flatnonzero(fmt[:n] != run_formats)
    if conflicts.size:
        raise fail(f"conflicting formats for match {cells(conflicts[0])[0]!r}", conflicts[0])
    if error:
        raise error

    records = []
    for mid, (code, by_index) in by_match.items():
        innings = []
        for idx, runs in by_index.items():
            rows = runs[0] if len(runs) == 1 else np.r_[tuple(runs)]
            try:
                innings.append(InningsRecord(
                    idx, "", *(columns[k][rows] for k in (3, 4, 6, 7)), kind[rows], wicket[rows]
                ))
            except RowError as e:
                raise fail(f"bad delivery row: {e}", np.arange(n)[rows][e.row]) from e
            except ValueError as e:
                idx = int(cells(np.arange(n)[rows][0])[2])  # as written, past int64 too
                raise ParseError(f"bad innings {idx} of match {mid!r}: {e}") from e
        innings.sort(key=lambda inn: inn.innings_index)
        records.append(MatchRecord(mid, _FORMATS[code], _CSV_EPOCH, ("", ""), "", innings))
    return records


def _separators(raw: bytes) -> np.ndarray | None:
    """The position of every comma and newline, found 256 KiB at a time, of a log
    that is the header, then lines of 10 fields, each ended by one newline; else ``None``."""
    if not raw.startswith(_CSV_HEAD) or any(c in raw for c in _OTHER_LINE_BREAKS):
        return None
    buf = np.frombuffer(raw, np.uint8)
    dtype = np.int32 if buf.size <= np.iinfo(np.int32).max else np.int64
    step = 1 << 18
    sep = np.concatenate([
        (np.flatnonzero((buf[i:i + step] == _COMMA) | (buf[i:i + step] == _NEWLINE)) + i)
        .astype(dtype)
        for i in range(0, buf.size, step)
    ])
    if sep.size % 10 or sep[-1] != buf.size - 1 or (buf[sep].reshape(-1, 10) != _LINE).any():
        return None
    return sep


def _rows(text: str) -> tuple[bytes, list[int], ParseError | None]:
    """The header and each line that is not blank, up to the first of other than 10
    fields, one per line; the line number of each row; and that first line's error."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ParseError("CSV header does not match the canonical ball log", position="line 1")
    rows, numbers, error = [CSV_HEADER], [], None
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.count(",") != 9:
            found = line.count(",") + 1
            error = ParseError(f"expected 10 fields, found {found}", position=f"line {number}")
            break
        rows.append(line)
        numbers.append(number)
    return ("\n".join(rows) + "\n").encode("utf-8", "surrogatepass"), numbers, error


def _text(field) -> str:
    return bytes(field).decode("utf-8", "surrogatepass")


def _integers(buf: np.ndarray, begin: np.ndarray, end: np.ndarray, convert):
    """``convert`` (``int``) of each field, pinned to int64, and the fields it refuses:
    1 to 18 ASCII digits by digit arithmetic, any other, such as " 3" or "1_0", on its own."""
    width = end - begin
    digits = (width >= 1) & (width <= _MAX_DIGITS)
    value = np.zeros(width.size, np.int64)
    for j in range(min(int(width.max()), _MAX_DIGITS)):  # the digit worth 10**j, where there is one
        digit = buf[end - 1 - j].astype(np.int64) - _ZERO
        inside = j < width
        digits &= ~inside | ((digit >= 0) & (digit <= 9))
        value += np.where(inside, digit, 0) * 10**j
    odd = np.flatnonzero(~digits)
    numbers = [_code(convert, buf[b:e], None) for b, e in zip(begin[odd], end[odd])]
    value[odd] = [min(max(number or 0, _I64.min), _I64.max) for number in numbers]
    return value, [r for r, number in zip(odd.tolist(), numbers) if number is None]


def _tokens(buf: np.ndarray, begin: np.ndarray, end: np.ndarray, convert):
    """``convert`` of each field as an int8, -1 where it refuses, and those fields:
    called once per distinct token of up to 7 bytes, and on each longer field."""
    width = (end - begin).astype(np.uint64)
    long = np.flatnonzero(width > _MAX_TOKEN)
    width[long] = 0  # a longer token keys as the empty one, which every converter refuses
    # a token's key: the word that ends with it, its width in the byte below it
    key = _words(buf)[end - 8] & _HIGH_BYTES[width] | width
    ordered = np.sort(key)
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    tokens = [k.to_bytes(8, "little")[8 - (k & 0xFF):] for k in distinct.tolist()]
    codes = np.array([_code(convert, t) for t in tokens], np.int8)
    value = codes[np.searchsorted(distinct, key)]
    value[long] = [_code(convert, buf[b:e]) for b, e in zip(begin[long], end[long])]
    return value, np.flatnonzero(value < 0).tolist()


def _code(convert, token, refused=-1):
    """``convert`` of the text of ``token`` as an int, or ``refused`` if it refuses."""
    try:
        return int(convert(_text(token)))
    except (UnsupportedFormatError, ValueError):
        return refused


def _changes(buf: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Whether each field but the first differs, byte for byte, from the one before."""
    width = end - begin
    changed = width[1:] != width[:-1]
    # fields of equal width, compared a word at a time
    words, width = _words(buf), width[1:]
    for j in range(0, int(width.max(initial=0)), 8):
        here, there = (words[np.minimum(at + j, buf.size - 8)] for at in (begin[1:], begin[:-1]))
        changed |= (here ^ there) & _LOW_BYTES[np.clip(width - j, 0, 8)] != 0
    return changed


def _words(buf: np.ndarray) -> np.ndarray:
    """The eight bytes from each offset of ``buf`` as one little-endian word."""
    return sliding_window_view(buf, 8).view("<u8")[:, 0]


def export_csv(matches: Iterable[MatchRecord], destination: str | Path) -> int:
    """Write matches as the canonical CSV ball log; returns the row count.

    Every match id is checked before the file is opened, so a refused id writes
    nothing; each innings is then written at once, each distinct row tail (the
    fields after the innings index) formatted once."""

    @cache
    def tail(o, b, ok, r, x, k, w) -> str:
        return f"{o},{b},{_CSV_BOOL[ok]},{r},{x},{_KIND_NAMES[k]},{_CSV_BOOL[w]}\n"

    matches = list(matches)
    for mid in (match.match_id for match in matches):
        # a comma or a line break would split on reading; a lone surrogate has no UTF-8
        if ("," in mid or "".join(mid.splitlines()) != mid
                or mid.encode(errors="ignore").decode() != mid):
            raise DataError(f"match id {mid!r} cannot be written to a CSV ball log")
    rows = 0
    with open(destination, "w", encoding="utf-8", newline="\n") as out:
        out.write(CSV_HEADER + "\n")
        for match in matches:
            for inn in match.innings:
                head = f"{match.match_id},{match.format.value},{inn.innings_index},"
                columns = (inn.over, inn.ball_in_over, inn.legal, inn.batter_runs,
                           inn.extras_runs, inn.kind, inn.wicket)
                out.write("".join(head + tail(*row) for row in zip(*(c.tolist() for c in columns))))
                rows += inn.over.size
    return rows
