"""Append-only sweep persistence.

One JSON object per completed point in a .jsonl file; the CSV is a
derived view with a fixed column order.  Resume works by key: a point is
identified by (config hash, size label, G) and never recomputed once a
record for it exists.
"""
from __future__ import annotations

import csv
import json
import os

CSV_COLUMNS = ("size", "G_over_gamma", "parity", "entropy", "n_per_site",
               "method", "M", "residual", "converged")


def point_key(config_hash, size_label, g):
    return (config_hash, str(size_label), round(float(g), 12))


class SweepStore:
    """JSONL-backed record store for sweep points."""

    def __init__(self, path):
        self.path = path
        self._records = []
        self._keys = set()
        self.last_sweep = None   # run_sweep drops its point counts here
        self._cut = None         # the next append first cuts a torn tail here
        if os.path.exists(path):
            records, self._cut = _load_jsonl(path)
            for rec in records:
                self._remember(rec)

    def _remember(self, rec):
        self._records.append(rec)
        # failed points never count as done, so a resumed sweep retries
        # them; analysis takes the latest record per (size, G) anyway
        if rec.get("method") != "failed":
            self._keys.add(self._key_of(rec))

    @staticmethod
    def _key_of(rec):
        return point_key(rec["config_hash"], rec["size"],
                         rec["G_over_gamma"])

    def __len__(self):
        return len(self._records)

    def has_point(self, config_hash, size_label, g):
        return point_key(config_hash, size_label, g) in self._keys

    def append(self, rec):
        """Persist one point record (flushed before it counts as stored)."""
        for col in CSV_COLUMNS:
            if col not in rec:
                raise ValueError("record missing field '%s'" % col)
        if "config_hash" not in rec:
            raise ValueError("record missing field 'config_hash'")
        os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                    exist_ok=True)
        line = (json.dumps(rec, sort_keys=True) + "\n").encode()
        with open(self.path, "a+b") as fh:
            if self._cut is not None:
                fh.truncate(self._cut)
                self._cut = None
            size = fh.seek(0, os.SEEK_END)
            if size:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":    # start on a fresh line
                    line = b"\n" + line
            fh.write(line)
            fh.flush()
        self._remember(rec)

    def to_csv(self):
        """Write the derived CSV view next to the store; returns its path."""
        path = os.path.splitext(self.path)[0] + ".csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_COLUMNS)
            for rec in self._records:
                w.writerow([rec[c] for c in CSV_COLUMNS])
        return path


def read_rows(path):
    """Rows from a store file, JSONL or CSV, as dicts."""
    path = os.fspath(path)
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    return _load_jsonl(path)[0]


def _load_jsonl(path):
    """Records of a JSONL store, and the byte offset of a torn tail or None.

    A last line that has no trailing newline and does not parse is the
    remnant of an append cut short by a kill: it is dropped, so its point
    is recomputed on resume.  A line that does not parse anywhere else is
    corruption and raises.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    tail = lines.pop()          # empty when the file ends with a newline
    records = [json.loads(line) for line in lines if line.strip()]
    if tail.strip():
        try:
            records.append(json.loads(tail))
        except ValueError:      # JSONDecodeError or a cut UTF-8 sequence
            return records, len(data) - len(tail)
    return records, None
