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
    LEGAL_BY_CODE, ExtrasKind, MatchFormat, MatchRecord, RowError, checked_innings, decode,
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
# ``str.splitlines`` ends a line at each of these as well as at "\n": ASCII ones, then others
_ASCII_BREAKS = tuple(c.encode() for c in "\r\v\f\x1c\x1d\x1e")
_OTHER_BREAKS = tuple(c.encode() for c in "\x85\u2028\u2029")
_BLOCK = 1 << 17  # bytes of whole lines parsed at once; one block's work is held at a time
_MAX_DIGITS = 18  # every number of up to 18 digits fits int64
_MAX_TOKEN = 7  # bytes of a token; an eighth holds its length in its key
_COMMA, _NEWLINE, _ZERO = (ord(c) for c in ",\n0")
_LINE = np.array([_COMMA] * 9 + [_NEWLINE], np.uint8)  # the separators of a line
_I64 = np.iinfo(np.int64)
# _LOW_BYTES[k] keeps the k lowest bytes of a little-endian word, _HIGH_BYTES[k] the k highest
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_HIGH_BYTES = _LOW_BYTES[::-1] ^ _LOW_BYTES[-1]
# the record column each field fills, in InningsRecord's order
_RECORD_FIELDS = (3, 4, 6, 7, 8, 9)


def read_log(data: bytes | str) -> list[MatchRecord]:
    """The matches of a CSV ball log, in the order their match ids first appear.

    The log is read a column at a time, as it would be row by row: numpy parses
    integers by digit arithmetic and converts each distinct token once, and any
    other cell goes through the same converter on its own.  It is parsed
    :data:`_BLOCK` bytes of whole lines at a time into the records' own columns,
    so it holds the log, the records and one block's work at once.  A
    :class:`ParseError` names the first fault: bytes that are not UTF-8, the
    header, the first bad line, then the first innings, match by match, that
    breaks a delivery rule (at its line) or an innings rule.
    """
    # a str keeps any lone surrogate through its bytes
    raw = data if isinstance(data, bytes) else data.encode("utf-8", "surrogatepass")
    breaks = _ASCII_BREAKS  # all an ASCII log can hold, and an ASCII log is UTF-8
    if not raw.isascii():  # a log that is not UTF-8 is refused at its first bad byte, first
        decode(data)
        breaks += _OTHER_BREAKS
    columns, runs, formats = _read_blocks(raw, breaks)

    # an innings is the runs of rows under one match id and innings index
    by_match = {mid: {} for mid in formats}
    n = columns[0].size
    for (a, mid, idx), b in zip(runs, [run[0] for run in runs[1:]] + [n]):
        by_match[mid].setdefault(idx, []).append(range(a, b))
    innings = [(mid, idx, pieces) for mid, by_index in by_match.items()
               for idx, pieces in by_index.items()]
    pieces = [piece for *_, split in innings for piece in split]
    rows = None  # each table row's log row, where the innings are not in the log's order
    if any(piece.stop != after.start for piece, after in zip(pieces, pieces[1:])):
        rows = np.concatenate([np.arange(piece.start, piece.stop) for piece in pieces])
        columns = [column[rows] for column in columns]
        for column in columns:  # frozen, as the records are views of it
            column.setflags(write=False)
    starts = np.cumsum([0] + [sum(map(len, split)) for *_, split in innings])[:-1]
    built = checked_innings([(idx, "") for _, idx, _ in innings], columns, starts)
    for (mid, idx, _), inn in zip(innings, built):
        if isinstance(inn, RowError):
            line = _line(raw, inn.row if rows is None else int(rows[inn.row]))
            raise ParseError(f"bad delivery row: {inn}", position=f"line {line}") from inn
        if isinstance(inn, ValueError):
            raise ParseError(f"bad innings {idx} of match {mid!r}: {inn}") from inn
    records, built = [], iter(built)
    for mid, by_index in by_match.items():
        match = sorted((next(built) for _ in by_index), key=lambda inn: inn.innings_index)
        records.append(MatchRecord(mid, _FORMATS[formats[mid]], _CSV_EPOCH, ("", ""), "", match))
    return records


def _read_blocks(raw: bytes, breaks: tuple[bytes, ...]):
    """The record columns of a log's rows, read a block of whole lines at a time; its runs
    of rows under one match id and innings index, each as (first row, match id, innings
    index as written); and each match id's format code, in order of first appearance.  A
    block of lines of 10 fields, each ended by one newline, is parsed where it lies; any
    other, and a first block not starting with the exact header line, is laid out by
    :func:`_rows` first.  Raises at the first bad row or conflicting format."""
    buf = np.frombuffer(raw, np.uint8)
    n = raw.count(b"\n")  # the rows at most, unless lines end at other breaks too
    columns = [np.empty(n, np.int64) for _ in _RECORD_FIELDS[:-1]] + [np.empty(n, bool)]
    runs, formats, r = [], {}, 0  # r: the rows read

    def fail(message, row):
        return ParseError(message, position=f"line {_line(raw, row)}")

    def read(buf, at, to):  # buf[at:to]'s lines into the columns, or False if not of the layout
        nonlocal r, columns
        sep = _separators(buf, at, to)
        if sep is None:
            return False

        def field(k):  # (begin, end) of field k of each row of the block
            return sep[k:-1:10] + 1, sep[k + 1::10]

        def cells(i):
            return _text(buf[sep[10 * i] + 1:sep[10 * i + 10]]).split(",")

        values, bad = {}, []  # field -> its values in the block; the first bad row of each
        for k, convert in _READ_ORDER:
            parse = _integers if convert is int else _tokens
            values[k], refused = parse(buf, *field(k), convert)
            bad += refused[:1]
        # the one field no column holds: legality follows from the kind
        bad += np.flatnonzero((values[5] == 1) != LEGAL_BY_CODE[values[8]])[:1].tolist()
        stop = min(bad, default=sep.size // 10)  # the rows end at the first bad one

        # a row starts a run where its match id or innings index differs from the row
        # before's; the block's first row, where they differ from the last run's
        begin, end = (position[:stop] for position in field(0))
        index, fmt = values[2][:stop], values[1][:stop]
        new_run = np.append(True, _changes(buf, begin, end) | (index[1:] != index[:-1]))[:stop]
        # the format of each row's match: the run the block goes on with, then each new one
        codes = [formats[runs[-1][1]] if runs else -1]
        for first in np.flatnonzero(new_run).tolist():
            mid, _, idx = cells(first)[:3]
            if first or not runs or runs[-1][1:] != (mid, int(idx)):
                codes.append(formats.setdefault(mid, int(fmt[first])))
                runs.append((r + first, mid, int(idx)))
            else:  # the block goes on with the last run
                new_run[0] = False
        conflicts = np.flatnonzero(fmt != np.int8(codes)[np.cumsum(new_run)])
        if conflicts.size:
            c = int(conflicts[0])
            raise fail(f"conflicting formats for match {cells(c)[0]!r}", r + c)
        if bad:
            row = cells(stop)
            try:
                for k, convert in _READ_ORDER:
                    convert(row[k])
                raise ValueError("legal flag inconsistent with extras kind")
            except (UnsupportedFormatError, ValueError) as e:
                raise fail(f"bad delivery row: {e}", r + stop) from e
        if r + stop > columns[0].size:  # more rows than newlines, so other breaks
            columns = [np.resize(c, max(r + stop, 2 * c.size)) for c in columns]
        for column, k in zip(columns, _RECORD_FIELDS):
            column[r:r + stop] = values[k]
        r += stop
        return True

    at = len(_CSV_HEAD) if raw.startswith(_CSV_HEAD) else 0
    while at < len(raw) or not at:  # a first block that holds the header goes through _rows
        to = raw.find(b"\n", at + _BLOCK - 1) + 1 or len(raw)
        if not at or any(raw.find(c, at, to) >= 0 for c in breaks) or not read(buf, at, to):
            laid, fields = _rows(_text(raw[at:to]), header=not at)
            read(np.frombuffer(laid, np.uint8), len(_CSV_HEAD), len(laid))
            if fields:
                raise fail(f"expected 10 fields, found {fields}", r)
        at = to
    for column in columns:  # frozen whole, so nothing can write a record's slice of it
        column.setflags(write=False)
    return [column[:r] for column in columns], runs, formats


def _separators(buf: np.ndarray, at: int, to: int) -> np.ndarray | None:
    """``at - 1``, then the position of every comma and newline of ``buf[at:to]``, if
    those bytes are lines of 10 fields, each ended by one newline; else ``None``."""
    block = buf[at:to]
    sep = np.flatnonzero((block == _COMMA) | (block == _NEWLINE))
    if (not sep.size or sep.size % 10 or sep[-1] != block.size - 1
            or (block[sep].reshape(-1, 10) != _LINE).any()):
        return None
    return np.append(at - 1, sep + at)


def _rows(text: str, header: bool) -> tuple[bytes, int | None]:
    """The header, then each line of ``text`` that is not blank, up to the first of other
    than 10 fields, one per line (so every field has 8 bytes before its end); and that
    first line's field count.  If ``header``, the first line is checked as the header."""
    lines = text.splitlines()
    if header and (not lines or lines[0].strip() != CSV_HEADER):
        raise ParseError("CSV header does not match the canonical ball log", position="line 1")
    rows, fields = [CSV_HEADER], None
    for line in lines[header:]:
        if not line.strip():
            continue
        if line.count(",") != 9:
            fields = line.count(",") + 1
            break
        rows.append(line)
    return ("\n".join(rows) + "\n").encode("utf-8", "surrogatepass"), fields


def _line(raw: bytes, row: int) -> int:
    """The line number of row ``row`` of a log, or of the line after its last row: its
    non-blank line after the header, counted as ``str.splitlines`` counts lines."""
    lines = _text(raw).splitlines()
    return [number for number, line in enumerate(lines[1:], start=2) if line.strip()][row]


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
