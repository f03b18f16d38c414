"""The one cell rule of the four text readers: the spectrum CSV, the band-value
table of `pdckit compare`, the recording CSV and the markers file.

Every cell is read by its column's kind, a finite number, a label or a
source->target pair, and a bad cell is refused as
``path:line: <column> must be ..., got '<cell>'``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdckit import (
    FrequencyGrid,
    PdcSpectrum,
    Recording,
    read_markers_csv,
    read_recording_csv,
    read_spectrum_csv,
    write_recording_csv,
    write_spectrum_csv,
)
from pdckit.cli import _read_band_values_csv

# labels and numbers whose CSV cells are never quoted, so a file's cells are
# its lines split at commas
LABEL = st.text("abcdefgh", min_size=1, max_size=3)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# the kind of a column -> (cells that break it, what its message says the cell must be)
KINDS = {
    "number": (st.one_of(st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400",
                                          "-1e400", "1x", "0x10", "1.5.2"]),
                         st.text("xyzq", min_size=1, max_size=4)),
               "must be a finite number"),
    "label": (st.one_of(st.just(""), st.builds(lambda label, pad, before: (
                  pad + label if before else label + pad),
                  LABEL, st.sampled_from([" ", "\t", "  "]), st.booleans())),
              "must be a non-empty label without edge whitespace"),
    "pair": (st.sampled_from(["a->b->c", "a->", "->b", "ab", "", " a->b", "a->b ", "a ->b"]),
             "must look like 'src->tgt' with two non-empty labels without edge whitespace"),
}


def _spectrum(draw, path):
    names = draw(st.lists(LABEL, min_size=1, max_size=3, unique=True))
    freqs = sorted(draw(st.lists(finite(0.0, 100.0), min_size=1, max_size=3, unique=True)))
    m = len(names)
    values = np.array(draw(st.lists(finite(0.0, 1.0), min_size=len(freqs) * m * m,
                                    max_size=len(freqs) * m * m))).reshape(len(freqs), m, m)
    write_spectrum_csv(PdcSpectrum(values, FrequencyGrid(np.array(freqs), 200.0), tuple(names)),
                       path)
    columns = [("freq_hz", "number"), ("source", "label"), ("target", "label"),
               ("pdc", "number")]
    cells = [(line, columns) for line in range(2, len(freqs) * m * m + 2)]
    return (tuple(names), np.array(freqs).tobytes(), values.tobytes()), cells


def _read_spectrum(path):
    spectrum = read_spectrum_csv(path)
    return (spectrum.channel_labels, spectrum.grid.freqs_hz.tobytes(),
            spectrum.values.tobytes())


def _band_table(draw, path):
    keys = itertools.product(draw(st.lists(st.tuples(LABEL, LABEL), min_size=1, max_size=2,
                                           unique=True)),
                             draw(st.lists(LABEL, min_size=1, max_size=2, unique=True)))
    subjects = draw(st.lists(LABEL, min_size=1, max_size=3, unique=True))
    table = {key: {subject: draw(finite(-1e6, 1e6)) for subject in subjects} for key in keys}
    rows = [f"{source}->{target},{band},{subject},{value!r}"
            for ((source, target), band), per_subject in table.items()
            for subject, value in per_subject.items()]
    path.write_text("pair,band,subject,value\n" + "".join(row + "\n" for row in rows))
    columns = [("pair", "pair"), ("band", "label"), ("subject", "label"), ("value", "number")]
    return _hex(table), [(line, columns) for line in range(2, len(rows) + 2)]


def _hex(table):
    """A band table with each value as its float.hex, so that -0.0 and 0.0 differ."""
    return {key: {subject: value.hex() for subject, value in per_subject.items()}
            for key, per_subject in table.items()}


def _recording(draw, path):
    names = draw(st.lists(LABEL, min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 4))
    samples = np.array(draw(st.lists(finite(-1e12, 1e12), min_size=n * len(names),
                                     max_size=n * len(names)))).reshape(n, len(names))
    write_recording_csv(Recording(samples, 250.0, tuple(names)), path)
    columns = [(name, "number") for name in names]
    return (tuple(names), samples.tobytes()), [(line, columns) for line in range(2, n + 2)]


def _read_recording(path):
    recording = read_recording_csv(path, sampling_rate_hz=250.0)
    return recording.channel_labels, recording.samples.tobytes()


def _markers(draw, path):
    starts = draw(st.lists(finite(0.0, 1e6), min_size=1, max_size=4))
    path.write_text("".join(f"{start!r}\n" for start in starts))
    columns = [("epoch start (ms)", "number")]
    return [start.hex() for start in starts], [(line, columns)
                                               for line in range(1, len(starts) + 1)]


# reader -> (write a valid file and give back its values and its cells, read the file)
READERS = {
    "spectrum": (_spectrum, _read_spectrum),
    "band table": (_band_table, lambda path: _hex(_read_band_values_csv(path))),
    "recording": (_recording, _read_recording),
    "markers": (_markers, lambda path: [start.hex() for start in read_markers_csv(path)]),
}

_FILES = itertools.count()


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_text_reader_refuses_a_bad_cell_naming_its_line_and_column(tmp_path, reader,
                                                                        data):
    write, read = READERS[reader]
    # a new file per example: truncating an existing one is slow on some file systems
    path = tmp_path / f"input{next(_FILES)}.csv"
    values, cells = write(data.draw, path)
    if not data.draw(st.booleans(), label="bad cell"):
        assert read(path) == values  # bit for bit
        return
    line, columns = data.draw(st.sampled_from(cells), label="line")
    index = data.draw(st.integers(0, len(columns) - 1), label="cell")
    column, kind = columns[index]
    bad_cells, must = KINDS[kind]
    bad = data.draw(bad_cells, label="bad")
    lines = path.read_text().splitlines()
    row = lines[line - 1].split(",")
    row[index] = bad
    lines[line - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == f"{path}:{line}: {column} {must}, got {bad!r}"
