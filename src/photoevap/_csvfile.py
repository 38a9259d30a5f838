"""The one reader behind every input CSV: angular data, spectra, sigma_inv tables."""

from __future__ import annotations

import csv

from .errors import DataFormatError


def read_csv(path, required, convert, build, optional=()):
    """Read the UTF-8 CSV at ``path`` and return ``build`` of its converted rows.

    The header must hold every ``required`` column (``optional`` ones only
    appear in the message); ``convert`` maps each row dict to a value and
    a ``TypeError`` or ``ValueError`` from it names the line.  Any
    ``ValueError`` or CSV syntax error while reading, converting or
    building (undecodable bytes and the builder's own checks included)
    becomes one :class:`DataFormatError` that starts with ``path``.
    """
    try:
        # "utf-8-sig" also drops the byte-order mark that spreadsheet exports put first
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or not set(required) <= set(reader.fieldnames):
                columns = ", ".join(required) + "".join(f"[, {name}]" for name in optional)
                raise DataFormatError(f"expected columns {columns}")
            rows = []
            for row in reader:
                try:
                    rows.append(convert(row))
                except (TypeError, ValueError) as exc:
                    raise DataFormatError(f"bad row on line {reader.line_num}: {exc}") from exc
        if not rows:
            raise DataFormatError("no data rows")
        return build(rows)
    except (ValueError, csv.Error) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
