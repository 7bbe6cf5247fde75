"""The record cache of :func:`rainrule.ball_log.load_corpus`: what it read of each data
file of a directory, kept in ``.rainrule-cache`` beside the files, so an unchanged
file is decoded once.

Each entry is keyed by the file's name, byte length and CRC-32, and the whole cache
by the source of this module, :mod:`rainrule.ball_log`, :mod:`rainrule.cricsheet`,
:mod:`rainrule.csv_log`, :mod:`rainrule.errors` and :mod:`rainrule.fits` (the records'
base) and by the Python and numpy releases, so a change to a reader, the records or
the error texts invalidates every entry.  The cached innings are one table, checked
once by :func:`rainrule.ball_log.checked_innings` when the cache is read, and the
records of an entry that matches are views of it, built without the file's reader.
The cache is safe to delete, counts as empty when it is missing, unreadable or
damaged, and is not written where it cannot be.  :class:`RecordCache` is its only
reader and writer, and ``load_corpus`` its only user.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from pathlib import Path

import numpy as np

from .ball_log import _COLUMNS, MatchFormat, MatchRecord, _outcome, checked_innings, parse_date

__all__ = ["CACHE_NAME", "RecordCache"]

CACHE_NAME = ".rainrule-cache"
_MAGIC = b"rrcache2"
# what a crafted cache can raise while its entries are rebuilt
_DAMAGE = (AttributeError, LookupError, TypeError, ValueError)


def _cache_key() -> int:
    """CRC-32 of what decides a file's outcome: the source of the readers, the records,
    the error texts and this cache, and the Python and numpy releases."""
    crc = zlib.crc32(f"{sys.version} {np.__version__}".encode())
    for name in ("record_cache.py", "ball_log.py", "cricsheet.py", "csv_log.py", "errors.py",
                 "fits.py"):
        crc = zlib.crc32(Path(__file__).with_name(name).read_bytes(), crc)
    return crc


class RecordCache:
    """The outcome of each ``.json`` or ``.csv`` file ``load_corpus`` reads in
    ``directory``: its matches and warnings, or the text of the error it failed with.

    The cache file holds ``_MAGIC``; the table of every cached innings' deliveries, one
    innings after another: each of the five int64 columns whole, little-endian, then
    the wicket bytes, padded to 8; the header, JSON: the key, the table's row count and
    each file's [length, CRC-32, entry], whose innings give their first row; the
    header's length (8 bytes); and last the CRC-32 of everything before it.
    """

    def __init__(self, directory: Path):
        self.path = directory / CACHE_NAME
        self.key: int | None = None
        self.kept: dict = {}  # name -> (length, crc, outcome) read back
        self.outcomes: dict = {}  # name -> (length, crc, outcome) of this load
        self.changed = False
        try:
            self.key = _cache_key()
            buf = np.fromfile(self.path, np.uint8)
        except OSError:
            return
        buf.setflags(write=False)  # so each record keeps its slice rather than a copy
        if (buf.size < 20 or buf[:8].tobytes() != _MAGIC
                or zlib.crc32(buf[:-4]) != int.from_bytes(buf[-4:], "little")):
            return
        end = buf.size - 12 - int.from_bytes(buf[-12:-4], "little")
        try:
            header = json.loads(buf[end:-12].tobytes())
            if header["key"] == self.key:
                self._read(header["files"], header["rows"], buf[8:end])
        except _DAMAGE:
            self.kept = {}

    def _read(self, files: dict, n: int, table: np.ndarray) -> None:
        """Keep the outcome of each file whose innings keep every rule, the table's rules
        checked once for every file; any other damage leaves none kept."""
        if type(n) is not int or table.size != 41 * n + -n % 8:
            raise ValueError("the table is not the header's")
        ints = table[:40 * n].view("<i8")
        columns = [ints[k * n:(k + 1) * n] for k in range(5)] + [table[40 * n:41 * n].view(bool)]
        innings = [inn for _, _, entry in files.values() if not isinstance(entry, str)
                   for match in entry[1] for inn in match[-1]]
        firsts = [first for _, _, first in innings]
        if firsts != sorted(firsts) or not all(type(f) is int and 0 <= f <= n for f in firsts):
            raise ValueError("innings outside the table")
        heads = [(index, team) for index, team, _ in innings]
        built = iter(checked_innings(heads, columns, np.array(firsts, np.int64)))
        for name, (length, crc, entry) in files.items():
            if not isinstance(entry, str):
                warns, matches = entry
                innings = [[next(built) for _ in match[-1]] for match in matches]
                if any(isinstance(inn, ValueError) for match in innings for inn in match):
                    continue  # its file is read again
                entry = [MatchRecord(match_id, MatchFormat(format), parse_date(day), teams,
                                     venue, match)
                         for (match_id, format, day, teams, venue, _), match
                         in zip(matches, innings)], list(warns)
            self.kept[name] = (length, crc, entry)

    def outcome(self, path: Path, raw: bytes, cricsheet: bool):
        """The outcome of a data file, JSON if ``cricsheet``, else a CSV ball log: from its
        entry when that matches its length and CRC-32, else parsed."""
        length, crc = len(raw), zlib.crc32(raw)
        kept = self.kept.get(path.name)
        if kept and kept[:2] == (length, crc):
            outcome = kept[2]
        else:
            self.changed = True
            outcome = _outcome(raw, cricsheet, path)
        self.outcomes[path.name] = (length, crc, outcome)
        return outcome

    def save(self) -> None:
        """Rewrite the cache file whole, a column at a time, when this load parsed a file
        or met fewer files than it holds; a place it cannot be written keeps none."""
        if self.key is None or not (self.changed or self.kept.keys() != self.outcomes.keys()):
            return
        temporary = self.path.with_name(f"{CACHE_NAME}.{os.getpid()}")
        checksum = 0

        def write(data) -> None:
            nonlocal checksum
            checksum = zlib.crc32(data, checksum)
            out.write(data)

        innings, entries, n = [], {}, 0
        for name, (length, crc, outcome) in self.outcomes.items():
            if not isinstance(outcome, str):
                matches, outcome = outcome[0], [outcome[1], []]  # [warnings, matches]
                for match in matches:
                    heads = []
                    for inn in match.innings:
                        heads.append([inn.innings_index, inn.batting_team, n])
                        innings.append(inn)
                        n += inn.kind.size
                    outcome[1].append([match.match_id, match.format.value, match.date.isoformat(),
                                       match.teams, match.venue, heads])
            entries[name] = [length, crc, outcome]
        header = json.dumps({"key": self.key, "rows": n, "files": entries}).encode()
        try:
            with open(temporary, "wb") as out:
                write(_MAGIC)
                for column in _COLUMNS:  # in record order, the int64 ones first
                    dtype = bool if column == "wicket" else "<i8"
                    for inn in innings:
                        write(np.ascontiguousarray(getattr(inn, column), dtype))
                write(bytes(-n % 8))
                write(header + len(header).to_bytes(8, "little"))
                out.write(checksum.to_bytes(4, "little"))
            os.replace(temporary, self.path)
        except OSError:
            try:
                temporary.unlink(missing_ok=True)
            except OSError:
                pass
