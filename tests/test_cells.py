"""The one cell rule of the four text readers: the spectrum CSV, the band-value
table of `pdckit compare`, the recording CSV and the markers file.

Every cell is read by its column's kind, a finite number, a label or a
source->target pair, and a bad cell is refused as
``path:line: <column> must be ..., got '<cell>'``. Every text reader, the JSON
ones included, reads a file that starts with a UTF-8 BOM as the same file
without it.
"""

import codecs
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pdckit._io
from pdckit import (
    FrequencyGrid,
    PdcSpectrum,
    PipelineConfig,
    read_config_json,
    read_generator_spec_json,
    read_markers_csv,
    read_model_json,
    read_recording_csv,
    read_spectrum_csv,
    write_config_json,
    write_generator_spec_json,
    write_model_json,
    write_recording_csv,
    write_spectrum_csv,
)
from pdckit.cli import _read_band_values_csv

from conftest import (COUPLED, build_spec, finite, fresh_path, random_stable_var, recordings,
                      spectra)

# labels and numbers whose CSV cells are never quoted, so a file's cells are
# its lines split at commas
LABEL = st.text("abcdefgh", min_size=1, max_size=3)


# the kind of a column -> (listed cells that break it, more such cells for the
# property to draw, what its message says the cell must be); the table test
# checks each listed cell in every column of its kind
KINDS = {
    "number": (["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "1x", "0x10", "1.5.2"],
               st.text("xyzq", min_size=1, max_size=4),
               "must be a finite number"),
    "label": (["", " a", "a\t", "ab  "],
              st.builds(lambda label, pad, before: pad + label if before else label + pad,
                        LABEL, st.sampled_from([" ", "\t", "  "]), st.booleans()),
              "must be a non-empty string without edge whitespace or '->'"),
    "pair": (["a->b->c", "a->", "->b", "ab", "", " a->b", "a->b ", "a ->b", "a->a"],
             st.nothing(),
             "must look like 'src->tgt' with two different labels, each a non-empty string "
             "without edge whitespace or '->'"),
}

SPECTRUM_COLUMNS = [("freq_hz", "number"), ("source", "label"), ("target", "label"),
                    ("pdc", "number")]
BAND_TABLE_COLUMNS = [("pair", "pair"), ("band", "label"), ("subject", "label"),
                      ("value", "number")]
MARKERS_COLUMNS = [("epoch start (ms)", "number")]


def _spectrum(draw, path):
    spectrum = draw(spectra(LABEL, rates=st.just(200.0)))
    write_spectrum_csv(spectrum, path)
    cells = [(line, SPECTRUM_COLUMNS) for line in range(2, spectrum.values.size + 2)]
    return _spectrum_bits(spectrum), cells


def _read_spectrum(path):
    return _spectrum_bits(read_spectrum_csv(path, 200.0))


def _spectrum_bits(spectrum):
    return spectrum.channel_labels, spectrum.grid.freqs_hz.tobytes(), spectrum.values.tobytes()


def _band_table(draw, path):
    pairs = st.tuples(LABEL, LABEL).filter(lambda pair: pair[0] != pair[1])  # no self-pair
    keys = itertools.product(draw(st.lists(pairs, min_size=1, max_size=2, unique=True)),
                             draw(st.lists(LABEL, min_size=1, max_size=2, unique=True)))
    subjects = draw(st.lists(LABEL, min_size=1, max_size=3, unique=True))
    table = {key: {subject: draw(finite(-1e6, 1e6)) for subject in subjects} for key in keys}
    rows = [f"{source}->{target},{band},{subject},{value!r}"
            for ((source, target), band), per_subject in table.items()
            for subject, value in per_subject.items()]
    path.write_text("pair,band,subject,value\n" + "".join(row + "\n" for row in rows))
    return _hex(table), [(line, BAND_TABLE_COLUMNS) for line in range(2, len(rows) + 2)]


def _hex(table):
    """A band table with each value as its float.hex, so that -0.0 and 0.0 differ."""
    return {key: {subject: value.hex() for subject, value in per_subject.items()}
            for key, per_subject in table.items()}


def _recording(draw, path):
    recording = draw(recordings(LABEL))
    write_recording_csv(recording, path)
    columns = [(name, "number") for name in recording.channel_labels]
    cells = [(line, columns) for line in range(2, recording.n_samples + 2)]
    return (recording.channel_labels, recording.samples.tobytes()), cells


def _read_recording(path):
    recording = read_recording_csv(path, sampling_rate_hz=250.0)
    return recording.channel_labels, recording.samples.tobytes()


def _markers(draw, path):
    starts = draw(st.lists(finite(0.0, 1e6), min_size=1, max_size=4))
    path.write_text("".join(f"{start!r}\n" for start in starts))
    return [start.hex() for start in starts], [(line, MARKERS_COLUMNS)
                                               for line in range(1, len(starts) + 1)]


# reader -> (write a valid file and give back its values and its cells, read the file)
READERS = {
    "spectrum": (_spectrum, _read_spectrum),
    "band table": (_band_table, lambda path: _hex(_read_band_values_csv(path))),
    "recording": (_recording, _read_recording),
    "markers": (_markers, lambda path: [start.hex() for start in read_markers_csv(path)]),
}

@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_text_reader_refuses_a_bad_cell_naming_its_line_and_column(tmp_path, reader,
                                                                        data):
    write, read = READERS[reader]
    path = fresh_path(tmp_path, "input.csv")
    values, cells = write(data.draw, path)
    if not data.draw(st.booleans(), label="bad cell"):
        assert read(path) == values  # bit for bit
        return
    line, columns = data.draw(st.sampled_from(cells), label="line")
    index = data.draw(st.integers(0, len(columns) - 1), label="cell")
    column, kind = columns[index]
    listed, more, must = KINDS[kind]
    bad = data.draw(st.one_of(st.sampled_from(listed), more), label="bad")
    lines = path.read_text().splitlines()
    row = lines[line - 1].split(",")
    row[index] = bad
    lines[line - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == f"{path}:{line}: {column} {must}, got {bad!r}"


def _arrays(obj, *names):
    return tuple(np.asarray(getattr(obj, name)).tobytes() for name in names)


def _read_model(path):
    model = read_model_json(path)
    return (model.order_p, model.channel_labels, model.n_samples_used,
            *_arrays(model, "coeff_matrices", "residual_covariance"))


def _read_spec(path):
    spec = read_generator_spec_json(path)
    return (spec.channel_labels, spec.seed, spec.n_samples, spec.burn_in, spec.sampling_rate_hz,
            *_arrays(spec, "coeff_matrices", "innovation_covariance"))


# reader -> (write a small valid file, read it to values that compare with ==)
BOM_READERS = {
    "recording": (lambda path: path.write_text("F3,F4\n1.5,-2\n3e-3,4\n"), _read_recording),
    # a `1_0` cell, which np.loadtxt refuses, sends the file to the row loop
    "recording, row loop": (lambda path: path.write_text("F3,F4\n1_0,-2\n3e-3,4\n"),
                            _read_recording),
    "markers": (lambda path: path.write_text("0\n900\n1800.5\n"), read_markers_csv),
    "spectrum": (lambda path: write_spectrum_csv(PdcSpectrum(
                     np.array([[[1.0, 0.25], [0.0, 0.75]]]),
                     FrequencyGrid(np.array([4.0]), 250.0), ("F3", "F4")), path),
                 _read_spectrum),
    "band table": (lambda path: path.write_text("pair,band,subject,value\n"
                                                "F3->F4,alpha,s1,0.5\nF4->F3,alpha,s1,-1\n"),
                   _read_band_values_csv),
    "config": (lambda path: write_config_json(PipelineConfig(
                   250.0, channel_pairs=(("F3", "F4"),)), path),
               read_config_json),
    "model": (lambda path: write_model_json(random_stable_var(np.random.default_rng(1), 2, 2),
                                            path),
              _read_model),
    "generator spec": (lambda path: write_generator_spec_json(
                           build_spec(COUPLED, 5, 7, channel_labels=("F3", "F4")), path),
                       _read_spec),
}


@pytest.mark.parametrize("reader", BOM_READERS)
def test_every_text_reader_reads_a_file_with_a_bom_as_the_file_without(tmp_path, reader):
    write, read = BOM_READERS[reader]
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    write(plain)
    bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    assert read(bom) == read(plain)


@pytest.mark.parametrize("reader", BOM_READERS)
def test_every_text_reader_decodes_its_file_once_through_the_shared_decoder(tmp_path,
                                                                            monkeypatch, reader):
    write, read = BOM_READERS[reader]
    path = tmp_path / "file.txt"
    write(path)
    decode, decoded = pdckit._io._decode_utf8, []

    def counted(where, data):
        decoded.append(where)
        return decode(where, data)

    monkeypatch.setattr(pdckit._io, "_decode_utf8", counted)
    read(path)
    assert decoded == [path]


@pytest.mark.parametrize("reader, body", [
    ("recording", b"F3,F4\n1,2\n3,\xff\n"),
    # \r\n, \r and \n line ends in one file, each one line
    ("recording", b"F3,F4\r\n1,2\r\xff,4\n"),
    ("markers", b"0\n900\n\xff\n"),
    ("band table", b"pair,band,subject,value\nF3->F4,alpha,s1,0.5\n\xff\n"),
    ("config", b'{"sampling_rate_hz":\n 250.0,\n "\xff": 1}'),
])
def test_a_bad_byte_after_a_bom_is_named_on_its_own_line(tmp_path, reader, body):
    path = tmp_path / "bad.txt"
    path.write_bytes(codecs.BOM_UTF8 + body)
    with pytest.raises(ValueError) as info:
        BOM_READERS[reader][1](path)
    assert str(info.value) == f"{path}:3: not UTF-8 text (invalid start byte)"


# files the cell property never writes -> the message after `path:`
@pytest.mark.parametrize("reader, text, message", [
    # a blank line before the bad row still counts as a line
    ("recording", "a,b\n1,2\n\n3,-Infinity\n4,5\n",
     "4: b must be a finite number, got '-Infinity'"),
    # header labels are stripped, then refused when empty or repeated
    *(("recording", f"{header}\n1,2,3\n", f"1: column {column} has channel label '', which is "
                                          "not a non-empty string without edge whitespace or '->'")
      for header, column in [("F3,,T5", 2), ("F3, ,T5", 2), (",F3", 1)]),
    ("recording", "F3,T5, F3\n1,2,3\n", "1: column 3 repeats channel label 'F3'"),
    # pairs of two empty labels, padded after the arrow, or with spaces around two arrows
    *(("band table", f"pair,band,subject,value\n{pair},alpha,s1,0.5\n",
       f"2: pair {KINDS['pair'][-1]}, got {pair!r}") for pair in ["->", "f-> t", " a -> b->c "]),
], ids=["blank-line", "empty-label", "blank-label", "empty-first-label", "repeat-once-stripped",
        "empty-pair", "pair-padded-after-arrow", "pair-of-three"])
def test_a_file_the_cell_property_never_writes_is_refused_naming_its_line(tmp_path, reader, text,
                                                                         message):
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        READERS[reader][1](path)
    assert str(info.value) == f"{path}:{message}"


# reader -> the columns of its small valid file in BOM_READERS
FIXED_COLUMNS = {
    "spectrum": SPECTRUM_COLUMNS,
    "band table": BAND_TABLE_COLUMNS,
    "recording": [("F3", "number"), ("F4", "number")],
    "markers": MARKERS_COLUMNS,
}


# the property draws a listed cell for a given reader and column only now and
# then, so a fault in one cell value may pass it; this table checks each one
@pytest.mark.parametrize("reader, kind, bad", [
    (reader, kind, bad) for reader, columns in FIXED_COLUMNS.items()
    for kind in dict.fromkeys(kind for _, kind in columns) for bad in KINDS[kind][0]])
def test_each_listed_bad_cell_is_refused_in_every_column_of_its_kind(tmp_path, reader, kind, bad):
    write, read = BOM_READERS[reader]
    path = tmp_path / "input.csv"
    write(path)
    lines = path.read_text().splitlines()
    for index, (column, column_kind) in enumerate(FIXED_COLUMNS[reader]):
        if column_kind != kind:
            continue
        row = lines[-1].split(",")
        row[index] = bad
        path.write_text("\n".join([*lines[:-1], ",".join(row)]) + "\n")
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == f"{path}:{len(lines)}: {column} {KINDS[kind][-1]}, got {bad!r}"
