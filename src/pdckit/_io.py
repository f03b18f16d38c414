"""The file and value rules the toolkit's readers and writers share.

Every reader decodes UTF-8, less one leading BOM, through `_decode_utf8` and
names the file, and its line where there is one, in each error. Each JSON file
holds one dataclass through one map of its key paths, in file order, to the
fields they hold: its writer's payload is `_json_payload`, and its reader
(`_read_json`, refusing a repeated key) builds the object with `_from_json`,
where a value's kind is its field's annotation (`_JSON_TYPES`) and a key is
required when its field has no default. The JSON writers all go through
`_write_json`, which writes numpy arrays and scalars as lists and numbers. The
recording and table readers walk CSV records with `_csv_records` (tables
through `_csv_rows`), each text cell is read by its column's kind
(`_number_cell`, `_label_cell`), and the CSV writers write through `_write_csv`.
Every container builds its channel labels with `_labels`, every label check goes
through `_is_label`, and every number check goes through `_is_finite_real`
(`_check_positive` when > 0, `_check_alpha` in (0, 1)) or `_is_count`; a container
derived from checked values that meet its rule is built by `_unchecked`.
"""

from __future__ import annotations

import codecs
import csv
import dataclasses
import io
import json
import math
import numbers

# what a channel, band or subject label must be; '->' separates the two labels of a pair
_LABEL_RULE = "a non-empty string without edge whitespace or '->'"


def _is_real(value) -> bool:
    """A real number, numpy's real scalars included, that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """A finite real number (`_is_real`); an int beyond float range is not finite."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def _check_positive(name: str, value) -> None:
    """The rule for a rate, a length, a step, a tolerance or a threshold: finite and > 0."""
    if not (_is_finite_real(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value}")


def _is_count(value, least: int) -> bool:
    """An int, numpy's ints included and a bool not, of at least ``least``."""
    return (type(value) is int or (isinstance(value, numbers.Integral)
                                   and not isinstance(value, bool))) and value >= least


def _check_count(name: str, value, least: int = 1) -> None:
    """The rule for an order or a count: `_is_count`."""
    if not _is_count(value, least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")


def _check_alpha(alpha) -> None:
    """The rule for a significance level: a finite real number (`_is_finite_real`) in (0, 1)."""
    if not (_is_finite_real(alpha) and 0 < alpha < 1):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _is_label(text) -> bool:
    """A channel, band or subject label: `_LABEL_RULE`."""
    return isinstance(text, str) and text != "" and text == text.strip() and "->" not in text


def _number_cell(where: str, column: str, text: str) -> float:
    """A CSV cell that `float` reads as a finite number; ``where`` is "path:line"."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{where}: {column} must be a finite number, got {text!r}")
    return value


def _label_cell(where: str, column: str, text: str) -> str:
    """A CSV cell that is a label (`_is_label`)."""
    if not _is_label(text):
        raise ValueError(f"{where}: {column} must be {_LABEL_RULE}, got {text!r}")
    return text


def _labels(values) -> tuple[str, ...]:
    """Channel labels as a tuple, not a str's letters: each passes `_is_label`, none repeated;
    an error names the first column, counted from 1, that breaks the rule."""
    if isinstance(values, str):
        raise ValueError(f"channel labels must be a sequence of labels, got {values!r}")
    labels, seen = tuple(values), set()
    for column, label in enumerate(labels, start=1):
        if not _is_label(label):
            raise ValueError(f"column {column} has channel label {label!r}, which is not "
                             f"{_LABEL_RULE}")
        if label in seen:
            raise ValueError(f"column {column} repeats channel label {label!r}")
        seen.add(label)
    return labels


def _unchecked(cls, fields: dict):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given, views
    included, without its `__post_init__`: the caller has checked the class's rule."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def _decode_utf8(path, data: bytes) -> str:
    """The text of a file's bytes, less a leading BOM; a byte that is not UTF-8 raises,
    naming path:line (not "utf-8-sig", whose error offset skips the BOM)."""
    data = data.removeprefix(codecs.BOM_UTF8)
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


def _read_json(path, cls, keys: dict, what: str):
    """The ``cls`` instance (`_from_json`) of the JSON object a UTF-8 file holds.

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
        return _from_json(cls, payload, keys, what)
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


def _csv_rows(path, columns: dict):
    """Yield ``("path:line", row)`` per record of a UTF-8 CSV table whose header
    holds the columns of ``columns``, a map column -> ``read(where, column, text)``;
    a row maps those columns, in that order, to their cells as read."""
    records = _csv_records(path, io.StringIO(_read_text(path), newline=""))
    where, header = next(records, (path, []))
    if not set(columns).issubset(header):
        raise ValueError(f"{path}: expected columns {sorted(columns)}")
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:  # a column's cell would be ambiguous
        raise ValueError(f"{where}: column {repeated[0]!r} is repeated")
    readers = [(column, header.index(column), read) for column, read in columns.items()]
    for where, cells in records:
        yield where, {column: read(where, column, cells[i]) for column, i, read in readers}


def _write_csv(path, header, rows) -> None:
    """Write a UTF-8 CSV table; `csv` writes a float cell as its repr, which
    `float` reads back exactly, and None as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _array_shape(value):
    """Shape of nested lists of finite numbers, or None unless they form an array."""
    if _is_finite_real(value):
        return ()
    if type(value) is not list:
        return None
    shapes = {_array_shape(v) for v in value}
    if None in shapes or len(shapes) > 1:
        return None
    return (len(value), *shapes.pop()) if shapes else (0,)


# the kinds of value the toolkit's JSON files hold, keyed by the annotation text of
# the fields they load into, less a "| None" that also allows null -> (check on the
# decoded value, what it wants)
_JSON_TYPES = {
    "float": (_is_finite_real, "a finite number"),
    "int": (lambda v: type(v) is int, "an integer"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "str": (lambda v: type(v) is str, "a string"),
    "tuple[str, ...]": (lambda v: type(v) is list, "a list"),  # `_labels` checks the labels
    "np.ndarray": (lambda v: type(v) is list and _array_shape(v) is not None,
                   "equally long nested lists of finite numbers"),
    "tuple": (lambda v: type(v) is list and all(type(p) is list for p in v),
              "a list of [source, target] lists"),
    "dict": (lambda v: type(v) is dict and all(_array_shape(e) == (2,) for e in v.values()),
             "an object mapping names to [low, high] numbers"),
}


def _json_payload(obj, keys: dict) -> dict:
    """The JSON object of a dataclass instance: ``keys`` maps each key path, in
    file order, to the field it holds; ``group.key`` sits in the nested object ``group``."""
    payload = {}
    for path, name in keys.items():
        group, _, key = path.rpartition(".")
        (payload.setdefault(group, {}) if group else payload)[key] = getattr(obj, name)
    return payload


def _from_json(cls, payload: dict, keys: dict, what: str):
    """The ``cls`` instance a decoded JSON object holds, by the ``keys`` of `_json_payload`.

    A value must have the kind of its field's annotation (`_JSON_TYPES`; ``| None``
    also allows null), a key whose field has no default is required, and unknown
    keys are refused at every level; each error names the key path.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    groups = {path.partition(".")[0] for path in keys if "." in path}
    flat = {}
    for key, value in payload.items():
        if key in groups:
            if not isinstance(value, dict):
                raise ValueError(f"{key} must be a JSON object")
            flat.update((f"{key}.{inner}", v) for inner, v in value.items())
        else:
            flat[key] = value
    # a dotted path names a key inside its group, never one at the top level
    unknown = set(flat) - set(keys) | {key for key in payload if "." in key}
    if unknown:
        raise ValueError(f"unknown {what} keys {sorted(unknown)}")
    for path, name in keys.items():
        field = fields[name]
        if path not in flat and field.default is field.default_factory is dataclasses.MISSING:
            raise ValueError(f"{path} is required")
    values = {}
    for path, value in flat.items():
        kind, _, optional = fields[keys[path]].type.partition(" | ")
        check, wanted = _JSON_TYPES[kind]
        if not (value is None and optional or check(value)):
            wanted += " or null" if optional else ""
            raise ValueError(f"{path} must be {wanted}, got {json.dumps(value)}")
        values[keys[path]] = float(value) if kind == "float" and value is not None else value
    return cls(**values)
