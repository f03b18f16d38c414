"""The file and value rules the toolkit's readers and writers share.

Every reader decodes UTF-8 through `_decode_utf8` and names the file, and
its line where there is one, in each error. The JSON readers refuse a
repeated key and check decoded values against `_JSON_TYPES`; the recording and
table readers walk CSV records with `_csv_records` (tables through `_csv_rows`)
and the CSV writers write through `_write_csv`; the JSON writers all go through
`_write_json`, which writes numpy arrays and scalars as lists and numbers.
Every container that holds channel labels builds them with `_labels`.
"""

from __future__ import annotations

import csv
import io
import json
import math


def _check_positive(name: str, value) -> None:
    """The rule for a rate, a length, a step, a tolerance or a threshold: finite and > 0."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite positive number, got {value}")


def _is_label(text) -> bool:
    """A channel, band or subject label: non-empty and without edge whitespace."""
    return bool(text) and text == text.strip()


def _labels(values) -> tuple[str, ...]:
    """Channel labels as a tuple: each a str that passes `_is_label`, none repeated.

    The error names the first column, counted from 1, that breaks the rule.
    """
    labels = tuple(values)
    seen = set()
    for column, label in enumerate(labels, start=1):
        if not isinstance(label, str):
            raise ValueError(f"column {column} has channel label {label!r}, "
                             "which is not a string")
        if not label:
            raise ValueError(f"column {column} has an empty channel label")
        if label != label.strip():
            raise ValueError(f"column {column} has channel label {label!r} "
                             "with edge whitespace")
        if label in seen:
            raise ValueError(f"column {column} repeats channel label {label!r}")
        seen.add(label)
    return labels


def _decode_utf8(path, data: bytes) -> str:
    """The text of a file's bytes; a byte that is not UTF-8 raises, naming path:line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def _read_text(path) -> str:
    """A whole file read as UTF-8 text, with `_decode_utf8`'s errors."""
    with open(path, "rb") as fh:
        return _decode_utf8(path, fh.read())


def _unique_keys(pairs) -> dict:
    """A decoded JSON object, refusing a key it repeats (json keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {json.dumps(key)} is repeated")
        obj[key] = value
    return obj


def _read_json(path, what: str, build):
    """``build(payload)`` for the JSON object a UTF-8 file holds.

    Every ValueError names the file: malformed JSON by path:line, and the rest,
    from a document that is not an object or repeats a key at any depth to a
    value the built object refuses, by path. JSON nested too deeply to decode
    or check is one of them.
    """
    text = _read_text(path)
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
        if type(payload) is not dict:
            raise ValueError(f"{what} must be a JSON object")
        return build(payload)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: {what} JSON is nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_json(path, payload) -> None:
    """Write a payload as indented UTF-8 JSON ending in a newline; numpy arrays
    and scalars are written as the lists and numbers of their ``tolist()``.

    A NaN or infinite number, which standard JSON cannot hold, raises
    ValueError before the file is opened.
    """
    text = json.dumps(payload, indent=2, allow_nan=False, default=lambda value: value.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _csv_records(path, lines):
    """``("path:line", cells)`` of a CSV stream's header and each later non-blank
    record, by its last physical line; a `csv` error or a width unlike the header's raises."""
    reader = csv.reader(lines)
    header = None
    try:
        for cells in reader:
            where = f"{path}:{reader.line_num}"
            if header is None:
                header = cells
            elif not cells:
                continue
            elif len(cells) != len(header):
                raise ValueError(f"{where}: expected {len(header)} values, got {len(cells)}")
            yield where, cells
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _csv_rows(path, required: set):
    """Yield ``("path:line", row)`` per record of a UTF-8 CSV table whose header
    holds the ``required`` columns; a row maps each column to its cell."""
    records = _csv_records(path, io.StringIO(_read_text(path), newline=""))
    where, header = next(records, (path, []))
    if not required.issubset(header):
        raise ValueError(f"{path}: expected columns {sorted(required)}")
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:  # a row's dict would keep its last cell for the name
        raise ValueError(f"{where}: column {repeated[0]!r} is repeated")
    for where, cells in records:
        yield where, dict(zip(header, cells))


def _write_csv(path, header, rows) -> None:
    """Write a UTF-8 CSV table; `csv` writes a float cell as its repr, which
    `float` reads back exactly, and None as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _is_number(value) -> bool:
    # the decoder also yields NaN, Infinity and integers beyond float range;
    # type() rather than isinstance() because JSON true/false decode as bool
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _is_str(value) -> bool:
    return type(value) is str


def _is_pair(value, item_ok) -> bool:
    return type(value) is list and len(value) == 2 and all(map(item_ok, value))


def _array_shape(value):
    """Shape of nested lists of finite numbers, or None unless they form an array."""
    if _is_number(value):
        return ()
    if type(value) is not list:
        return None
    shapes = {_array_shape(v) for v in value}
    if None in shapes or len(shapes) > 1:
        return None
    return (len(value), *shapes.pop()) if shapes else (0,)


# the kinds of value the toolkit's JSON files hold, named as the annotations
# of the fields they load into -> (check on the decoded value, what it wants)
_JSON_TYPES = {
    "float": (_is_number, "a finite number"),
    "int": (lambda v: type(v) is int, "an integer"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "str": (_is_str, "a string"),
    "labels": (lambda v: type(v) is list and all(map(_is_str, v)), "a list of strings"),
    "array": (lambda v: type(v) is list and _array_shape(v) is not None,
              "equally long nested lists of finite numbers"),
    "tuple": (lambda v: type(v) is list and all(_is_pair(p, _is_str) for p in v),
              "a list of [source, target] string pairs"),
    "dict": (lambda v: type(v) is dict
             and all(_is_pair(edges, _is_number) for edges in v.values()),
             "an object mapping names to [low, high] numbers"),
}


def _field_value(value, annotation: str, where: str):
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return None
    check, wanted = _JSON_TYPES[kind]
    if not check(value):
        wanted += " or null" if optional else ""
        raise ValueError(f"{where} must be {wanted}, got {json.dumps(value)}")
    return float(value) if kind == "float" else value


def _json_fields(payload: dict, kinds: dict, required, what: str) -> dict:
    """The checked values of a decoded JSON object, by key.

    ``kinds`` maps every allowed key to its kind (``"<kind> | None"`` also
    allows null); unknown keys, a missing required key and a value of the
    wrong kind are rejected, and the error names the key.
    """
    unknown = set(payload) - set(kinds)
    if unknown:
        raise ValueError(f"unknown {what} keys {sorted(unknown)}")
    for key in required:
        if key not in payload:
            raise ValueError(f"{key} is required")
    return {key: _field_value(value, kinds[key], key) for key, value in payload.items()}
