"""The record cache of :func:`rainrule.ball_log.load_corpus`: what it read of each
``.json`` file of a directory, kept in ``.rainrule-cache`` beside the files, so an
unchanged file is decoded once.

Each entry is keyed by the file's name, byte length and CRC-32, and the whole cache
by the source of this module, :mod:`rainrule.ball_log`, :mod:`rainrule.cricsheet`
and :mod:`rainrule.errors` and by the Python and numpy releases, so a change to the
JSON reader, the record rules or the error texts invalidates every entry.  An entry
that matches is rebuilt through the record checks, without the JSON reader.  The
cache is safe to delete, counts as empty when it is missing, unreadable or damaged,
and is not written where it cannot be.  :class:`RecordCache` is its only reader and
writer, and ``load_corpus`` its only user.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from pathlib import Path

import numpy as np

from .ball_log import _COLUMNS, InningsRecord, MatchFormat, MatchRecord, _outcome, parse_date

__all__ = ["CACHE_NAME", "RecordCache"]

CACHE_NAME = ".rainrule-cache"
_MAGIC = b"rrcache1"
# what a crafted cache can raise while its entries are rebuilt, rules included
_DAMAGE = (AttributeError, LookupError, TypeError, ValueError)


def _cache_key() -> int:
    """CRC-32 of what decides a file's outcome: the source of the JSON reader, the
    record rules, the error texts and this cache, and the Python and numpy releases."""
    crc = zlib.crc32(f"{sys.version} {np.__version__}".encode())
    for name in ("record_cache.py", "ball_log.py", "cricsheet.py", "errors.py"):
        crc = zlib.crc32(Path(__file__).with_name(name).read_bytes(), crc)
    return crc


class RecordCache:
    """The outcome of each ``.json`` file ``load_corpus`` reads in ``directory``:
    its match and warnings, or the text of the error it failed with.

    The cache file holds ``_MAGIC``; each innings' five int64 columns, little-endian,
    and its wicket bytes padded to 8; the header, JSON: the key and each file's
    [length, CRC-32, entry], whose innings give their columns' offset; the header's
    length (8 bytes); and last the CRC-32 of everything before it.
    """

    def __init__(self, directory: Path):
        self.path = directory / CACHE_NAME
        self.key: int | None = None
        self.kept: dict = {}  # name -> [length, crc, entry] read back
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
                self.kept, self.columns = dict(header["files"]), buf[:end]
        except _DAMAGE:
            pass

    def outcome(self, path: Path, raw: bytes):
        """The outcome of a ``.json`` file: from its entry when that matches its
        length and CRC-32, else parsed."""
        length, crc = len(raw), zlib.crc32(raw)
        entry = self.kept.get(path.name, ())
        try:
            outcome = self._rebuild(entry[2]) if entry[:2] == [length, crc] else None
        except _DAMAGE:
            outcome = None
        if outcome is None:
            self.changed = True
            outcome = _outcome(raw, True, path)
        self.outcomes[path.name] = (length, crc, outcome)
        return outcome

    def _rebuild(self, entry):
        """The outcome an entry holds, its records checked as the reader checks them."""
        if isinstance(entry, str):
            return entry
        warns, match_id, format, day, teams, venue, innings = entry
        records = []
        for index, team, rows, at in innings:
            block = self.columns[at:at + 41 * rows]
            if block.size != 41 * rows:
                raise ValueError("innings columns outside the cache")
            ints = block[:40 * rows].view("<i8")
            columns = (ints[k * rows:(k + 1) * rows] for k in range(5))
            wicket = block[40 * rows:].view(bool)
            records.append(InningsRecord(index, team, *columns, wicket))
        match = MatchRecord(match_id, MatchFormat(format), parse_date(day), teams, venue, records)
        return [match], list(warns)

    def save(self) -> None:
        """Rewrite the cache file whole, an innings at a time, when this load parsed
        a file or met fewer files than it holds; a place it cannot be written keeps
        none."""
        if self.key is None or not (self.changed or self.kept.keys() != self.outcomes.keys()):
            return
        temporary = self.path.with_name(f"{CACHE_NAME}.{os.getpid()}")
        checksum = 0

        def write(data) -> None:
            nonlocal checksum
            checksum = zlib.crc32(data, checksum)
            out.write(data)

        entries = {}
        try:
            with open(temporary, "wb") as out:
                write(_MAGIC)
                for name, (length, crc, outcome) in self.outcomes.items():
                    if not isinstance(outcome, str):
                        ((match,), warns), innings = outcome, []
                        for inn in match.innings:
                            rows = inn.kind.size
                            innings.append([inn.innings_index, inn.batting_team, rows, out.tell()])
                            for column in _COLUMNS[:5]:  # the int64 ones, in record order
                                write(np.ascontiguousarray(getattr(inn, column), "<i8"))
                            write(np.ascontiguousarray(inn.wicket))
                            write(bytes(-rows % 8))
                        outcome = [warns, match.match_id, match.format.value,
                                   match.date.isoformat(), match.teams, match.venue, innings]
                    entries[name] = [length, crc, outcome]
                header = json.dumps({"key": self.key, "files": entries}).encode()
                write(header + len(header).to_bytes(8, "little"))
                out.write(checksum.to_bytes(4, "little"))
            os.replace(temporary, self.path)
        except OSError:
            try:
                temporary.unlink(missing_ok=True)
            except OSError:
                pass
