"""Report emission pinned byte for byte.

The JSON writer must produce exactly ``json.dumps(value, indent=2,
default=_json_native)``, the vector lines exactly ``format_components``
per row, and every ``--output`` file the canonical ``json.dump(indent=2)``
text of its own content.  Write failures exit 2 with an ``error:`` line.
"""

import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qszegedy import cli, commands
from qszegedy.cli import main
from qszegedy.commands import (
    _json_chunks,
    _json_native,
    _row_labels,
    _vector_texts,
    _write_json,
)
from qszegedy.instances import (
    bundled_names,
    instance_from_dict,
    load_bundled,
    parse_graph_spec,
    random_instance_dict,
)
from qszegedy.qmatrix import QMatrix
from qszegedy.quaternion import format_components
from qszegedy.szegedy import (
    SpectrumClass,
    VertexUnitarity,
    full_spectrum,
    vector_components,
)

SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16,
                  1e-5, 0.1, -1e300, 1.7976931348623157e308]

floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
ints = st.integers() | st.integers(-(2**80), 2**80)
texts = st.text() | st.sampled_from(['"', '\\"', "a\"b'c\\d", "\x00\x1f\x7f",
                                     "tab\there\nnewline", "é中\U0001f600"])
numpy_scalars = (
    floats.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
scalars = floats | ints | st.booleans() | st.none() | texts | numpy_scalars


def float_tables():
    """Flat float lists and lists of equal-length float rows, the shape
    of report lists such as ``psi_u_spectrum``."""
    return st.integers(0, 4).flatmap(
        lambda width: st.lists(
            floats if width == 0 else st.lists(floats, min_size=width,
                                               max_size=width),
            min_size=1, max_size=20,
        )
    )


def near_tables():
    """Float lists with ints or numpy scalars among the floats, and
    ragged rows."""
    return (
        st.lists(st.lists(floats | ints, min_size=2, max_size=2), min_size=1)
        | st.lists(st.lists(floats, max_size=3), min_size=2)
        | st.lists(floats | ints | numpy_scalars, min_size=1)
    )


def trees():
    leaves = scalars | float_tables() | near_tables()
    return st.recursive(
        leaves,
        lambda children: (
            st.lists(children, max_size=5)
            | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(texts, children, max_size=5)
            | st.dictionaries(st.integers() | st.booleans(), children,
                              max_size=3)
        ),
        max_leaves=30,
    )


def reference(value) -> str:
    return json.dumps(value, indent=2, default=_json_native)


@settings(max_examples=400, deadline=None)
@given(trees())
@example({"vector": [[0.5, -0.0, math.nan, math.inf]], "mu": None})
@example([[], {}, [[]], {"": []}, [{}]])
@example([True, 1, False, 0, 1.0, 2**70, None])
@example([[np.float64(0.1), 0.5], [np.float32(0.1), 1.0]])
@example([[1.0, True], [1.0, 2]])
def test_writer_matches_stdlib_encoder(value):
    assert "".join(_json_chunks(value)) == reference(value)


def test_writer_walks_long_float_lists():
    # Long float lists and lists of float rows, every special value
    # included, go through the item walk.
    rng = np.random.default_rng(3)
    flat = (rng.standard_normal(4 * 1300) * 10.0 ** rng.integers(
        -300, 300, 4 * 1300)).tolist()
    flat[7:7 + len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    rows = [flat[i:i + 4] for i in range(0, len(flat), 4)]
    value = {"rows": rows, "flat": flat, "nested": [{"vector": rows}]}
    assert "".join(_json_chunks(value)) == reference(value)


def test_write_json_streams_and_closes(tmp_path):
    value = {"a": [[1.5, -2.0]] * 600, "b": "é"}
    path = tmp_path / "out.json"
    handle = open(path, "w", encoding="utf-8")
    _write_json(value, handle, str(path))
    assert handle.closed
    assert path.read_bytes() == (reference(value) + "\n").encode("ascii")


components = st.floats() | st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e-300,
     1e300, 9.9999995e-5, 0.99999995, 1.2345678])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.sampled_from([4, 12]),  # vertexwise and arcwise on K4
    data=st.data(),
)
def test_vector_lines_match_format_components(rows, data):
    graph = parse_graph_spec("K4")
    entries = np.array(
        data.draw(st.lists(st.lists(components, min_size=4, max_size=4),
                           min_size=rows, max_size=rows)),
        dtype=float,
    )
    a = np.empty((rows, 1), dtype=complex)
    b = np.empty((rows, 1), dtype=complex)
    a.real, a.imag = entries[:, :1], entries[:, 1:2]
    b.real, b.imag = entries[:, 2:3], -entries[:, 3:]
    vec = QMatrix(a, b)
    vertices, arcs = _row_labels(graph)
    labels = arcs if rows == 12 else vertices
    expected = [
        f"   {label}: {format_components(*entry)}"
        for label, entry in zip(labels, vec.components()[:, 0].tolist())
    ]
    assert _vector_lines(labels, vec, indent="   ") == expected


def _vector_lines(labels, vec: QMatrix, indent: str = "    ") -> list[str]:
    """The lines ``_vector_texts`` prints for the single vector ``vec``."""
    text, = _vector_texts(labels, vector_components([vec]), indent)
    return text.split("\n")


def _vector(entries) -> QMatrix:
    """The column whose rows have the quaternion components ``entries``."""
    entries = np.asarray(entries, dtype=float)
    a = np.empty((len(entries), 1), dtype=complex)
    b = np.empty((len(entries), 1), dtype=complex)
    a.real, a.imag = entries[:, :1], entries[:, 1:2]
    b.real, b.imag = entries[:, 2:3], -entries[:, 3:]
    return QMatrix(a, b)


#: Values for the non-zero components of a row: a negative first term,
#: NaN and infinity of both signs, and extreme exponents.
MASK_VALUES = [
    (-1.5, 2.0, -3.25e-9, 7.0),
    (math.nan, -math.nan, math.inf, -math.inf),
    (-math.inf, math.nan, -1e300, 5e-324),
    (-math.nan, -2.0, math.inf, -0.5),
]


@pytest.mark.parametrize("kind", ["vertices", "arcs"])
def test_vector_lines_cover_every_zero_mask(kind):
    # Every zero mask (bit c set when component c is non-zero), with the
    # zero components 0.0 or -0.0, against format_components row by row.
    vertices, arcs = _row_labels(parse_graph_spec("K12"))  # 12 and 132 rows
    labels = vertices if kind == "vertices" else arcs
    rows = [
        [value if mask >> c & 1 else zero for c, value in enumerate(values)]
        for mask in range(16)
        for values in MASK_VALUES
        for zero in (0.0, -0.0)
    ]
    masks = {sum(1 << c for c, x in enumerate(row) if x != 0.0)
             for row in rows}
    assert masks == set(range(16))
    for start in range(0, len(rows), len(labels)):
        vec = _vector((rows[start:] + rows)[:len(labels)])
        expected = [
            f"  {label}: {format_components(*entry)}"
            for label, entry in zip(labels, vec.components()[:, 0].tolist())
        ]
        assert _vector_lines(labels, vec, indent="  ") == expected
    assert _vector_lines(["1->1"], _vector([[-0.0, 0.0, -0.0, 0.0]])) == [
        "    1->1: 0"
    ]


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    path = tmp_path_factory.mktemp("emission") / "k5.json"
    path.write_text(json.dumps(random_instance_dict("K5+loops", 11)),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [
    *(
        (command, instance, *flags)
        for instance in ("k3_loops", "c5", "{generated}")
        for command, *flags in (
            ("spectrum", "--oracle", "--eigenvectors"),
            ("lift", "--all"),
            ("verify",),
        )
    ),
    ("verify", "--random", "K4", "--count", "2", "--seed", "5"),
    ("examples",),
    ("generate", "k4"),
    ("generate", "K6+loops", "--seed", "7"),
], ids=" ".join)
def test_cli_output_is_canonical_json(argv, generated, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([arg.replace("{generated}", generated) for arg in argv]
                + ["--output", str(out)])
    capsys.readouterr()
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("name", bundled_names())
def test_generate_bytes_unchanged(name, capsys):
    assert main(["generate", name]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(load_bundled(name).to_dict(), indent=2) + "\n"


def test_generate_family_bytes_unchanged(tmp_path, capsys):
    expected = json.dumps(random_instance_dict("K6+loops", 7), indent=2)
    assert main(["generate", "K6+loops", "--seed", "7"]) == 0
    assert capsys.readouterr().out == expected + "\n"
    out = tmp_path / "k6.json"
    assert main(["generate", "K6+loops", "--seed", "7",
                 "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected + "\n"


needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs /dev/full"
)


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ("spectrum", "k4"),
    ("generate", "K3", "--seed", "1"),
])
def test_write_failure_exits_2(argv, capsys):
    code = main(list(argv) + ["--output", "/dev/full"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: cannot write /dev/full: No space left on device\n"
    )


class _FullStdout:
    """A standard output on a full device: every write fails."""

    def _fail(self, *args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    write = writelines = flush = _fail


@pytest.mark.parametrize("argv", [
    ("spectrum", "k4"),
    ("spectrum", "k4", "--eigenvectors"),
    ("generate", "K3", "--seed", "1"),
])
def test_stdout_write_failure_exits_2(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main(list(argv))
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"
    )


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ("spectrum", "k4"),
    ("generate", "K3", "--seed", "1"),
])
def test_full_stdout_exits_2_without_traceback(argv):
    # A real process, so a failed flush at interpreter shutdown would show.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "qszegedy.cli", *argv], stdout=full,
            stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    assert done.returncode == 2
    assert done.stderr == (
        "error: cannot write <stdout>: No space left on device\n"
    )


@pytest.mark.parametrize("report", [
    {"classes": [SpectrumClass(1j, 2, ("lift",))]},
    {"class": SpectrumClass(1j, 2, ("lift",))},
    {"rows": [[0.5, 1.0], SpectrumClass(0.5, 1.0, ())]},
    [VertexUnitarity(0, 1.0, 0.0, True)],
    SpectrumClass(1j, 2, ("lift",)),
])
def test_records_in_a_report_are_refused(report):
    # A record is a tuple subclass: it must not be written as an array.
    with pytest.raises(TypeError, match="cannot serialize"):
        "".join(_json_chunks(report))


# ---------------------------------------------------------------- stacks


def _texts_by_row(labels, stack, indent):
    """``format_components`` row by row: what ``_vector_texts`` must give."""
    return [
        "\n".join(f"{indent}{label}: {format_components(*entry)}"
                  for label, entry in zip(labels, vector))
        for vector in stack.tolist()
    ]


#: One row: the zero mask (bit c set when component c is non-zero), the
#: non-zero candidates, and the zero used elsewhere.
masked_rows = st.tuples(
    st.integers(0, 15),
    st.lists(components, min_size=4, max_size=4),
    st.sampled_from([0.0, -0.0]),
)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["vertices", "arcs", "wide"]), data=st.data())
def test_stacked_texts_match_format_components(kind, data):
    vertices, arcs = _row_labels(parse_graph_spec("K4"))  # 4 and 12 rows
    # "wide" vectors have so many rows that a block holds one of them.
    labels = {"vertices": vertices, "arcs": arcs,
              "wide": [f"r{r}" for r in range(commands._TEXT_ROWS // 2 + 1)]}[kind]
    per_block = max(1, commands._TEXT_ROWS // len(labels))
    # Few vectors, or two or three blocks with one vector in the last.
    count = data.draw(st.integers(1, 4)
                      | st.sampled_from([per_block + 1, 2 * per_block + 1]),
                      label="vectors")
    # Long stacks repeat a drawn run of 48 rows.
    size = min(count * len(labels), 48)
    rows = data.draw(st.lists(masked_rows, min_size=size, max_size=size))
    stack = np.resize(np.array([
        [value if mask >> c & 1 else zero for c, value in enumerate(values)]
        for mask, values, zero in rows
    ], dtype=float), (count, len(labels), 4))
    assert _vector_texts(labels, stack, "  ") == _texts_by_row(labels, stack,
                                                               "  ")


@pytest.mark.parametrize("kind", ["vertices", "arcs"])
def test_stacked_texts_cover_every_zero_mask(kind):
    # One stack holding every zero mask with NaN and infinity of both
    # signs and zeros of both signs, cut into vectors of the label count.
    vertices, arcs = _row_labels(parse_graph_spec("K12"))  # 12 and 132 rows
    labels = vertices if kind == "vertices" else arcs
    rows = [
        [value if mask >> c & 1 else zero for c, value in enumerate(values)]
        for mask in range(16)
        for values in MASK_VALUES
        for zero in (0.0, -0.0)
    ]
    count = -(-len(rows) // len(labels))
    stack = np.array((rows * 2)[:count * len(labels)]).reshape(
        count, len(labels), 4)
    texts = _vector_texts(labels, stack, "    ")
    assert texts == _texts_by_row(labels, stack, "    ")
    assert len(texts) == count
    assert _vector_texts(labels, np.empty((0, 0, 4))) == []


def test_vector_components_stack_columns_bit_for_bit():
    rng = np.random.default_rng(5)
    columns = []
    for _ in range(3):
        a = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
        b = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
        a[0, 0], b[1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
        columns.append(QMatrix(a, b))
    stack = vector_components(columns)
    assert stack.shape == (3, 6, 4)
    for vector, column in zip(stack, columns):
        assert repr(vector.tolist()) == repr(column.components()[:, 0].tolist())


# ------------------------------------------------------------ JSON paths


SPOILERS = ["float64", "int", "bool", "ragged"]


@settings(max_examples=300, deadline=None)
@given(table=float_tables(), spoiler=st.sampled_from(SPOILERS),
       data=st.data())
@example(table=[[0.5, 1.0]], spoiler="bool", data=None)
@example(table=[0.5, 1.0], spoiler="ragged", data=None)
def test_writer_matches_stdlib_on_near_tables(table, spoiler, data):
    # A float table with one cell or row spoiled, so that it only nearly
    # qualifies for the table path.
    def draw(strategy, default):
        return default if data is None else data.draw(strategy)

    table = [list(row) if isinstance(row, list) else row for row in table]
    r = draw(st.integers(0, len(table) - 1), len(table) - 1)
    rows = isinstance(table[r], list)
    c = draw(st.integers(0, len(table[r]) - 1), 0) if rows else None
    cell = table[r][c] if rows else table[r]
    if spoiler == "ragged":
        if not rows:
            spoiled = [cell]
        elif draw(st.booleans(), True):
            spoiled = table[r] + [cell]
        else:
            spoiled = table[r][:-1]
        table[r] = spoiled
    else:
        spoiled = {
            "float64": np.float64(cell),
            "int": draw(st.integers(-(2**70), 2**70), 3),
            "bool": draw(st.booleans(), True),
        }[spoiler]
        if rows:
            table[r][c] = spoiled
        else:
            table[r] = spoiled
    for value in (table, {"vector": table}, [{"mu": None, "v": table}]):
        assert "".join(_json_chunks(value)) == reference(value)


@pytest.mark.parametrize("spoiled", [np.float64(0.5), 7, True, [0.5]])
def test_writer_spoiled_block_of_a_long_table(spoiled):
    # One entry of another type in a 1,300-item list, of rows or flat:
    # the layout matches the stdlib's around it.
    rows = [[float(i), -0.5 * i] for i in range(1300)]
    flat = [float(i) for i in range(1300)]
    rows[700][1] = spoiled
    flat[700] = spoiled
    for value in (rows, flat, {"rows": rows, "flat": flat}):
        assert "".join(_json_chunks(value)) == reference(value)


float_arrays = st.integers(0, 3).flatmap(
    lambda width: st.lists(
        st.lists(floats, min_size=width, max_size=width) if width
        else floats,
        min_size=1, max_size=20,
    ).map(lambda rows: np.array(rows, dtype=float))
)


@settings(max_examples=300, deadline=None)
@given(array=float_arrays, layout=st.sampled_from(
    ["plain", "transposed", "strided", "big-endian", "float32", "int"]
))
@example(array=np.zeros((0, 4)), layout="plain")
@example(array=np.zeros((3, 0)), layout="plain")
@example(array=np.array(SPECIAL_FLOATS * 100).reshape(-1, 2), layout="plain")
def test_writer_matches_stdlib_on_float_arrays(array, layout):
    # A float64 array is a table by its dtype; every other array is
    # written as the nested lists that tolist gives.
    with np.errstate(all="ignore"):  # float32 overflows to inf
        array = {
            "plain": array,
            "transposed": array.T,
            "strided": array[::2],
            "big-endian": array.astype(">f8"),
            "float32": array.astype(np.float32),
            "int": np.nan_to_num(array).clip(-1e6, 1e6).astype(np.int64),
        }[layout]
    for value in (array, {"vector": array, "mu": None}, [array, array]):
        assert "".join(_json_chunks(value)) == reference(value)


def test_array_tables_write_the_bytes_of_list_tables():
    # The CLI hands spectrum.to_dict the stacked components, so each
    # vector entry is a float array; the text is that of the lists.
    instance = instance_from_dict(random_instance_dict("K4+loops", 3))
    spectrum = full_spectrum(instance.graph, instance.weights,
                             want_eigenvectors=True)
    stack = vector_components([item.vector for item in spectrum.eigenvectors])
    arrays = spectrum.to_dict(stack)
    assert type(arrays["eigenvectors"][0]["vector"]) is np.ndarray
    assert "".join(_json_chunks(arrays)) == json.dumps(spectrum.to_dict(),
                                                       indent=2)


keys = st.text() | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "tab\there\nnewline", "é中\U0001f600",
     "\ud800", "\u2028"]
)
scalar_leaves = (
    st.integers(2**63, 2**100)
    | st.integers(-(2**100), -(2**63) - 1)
    | st.sampled_from([2**63 - 1, -(2**63), 2**64, 0, -0.0])
    | numpy_scalars
    | st.sampled_from([np.uint64(2**64 - 1), np.int8(-128), np.float16(0.1),
                       np.float32(math.nan), np.bool_(False)])
    | floats | texts | keys | st.booleans() | st.none()
)


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    scalar_leaves,
    lambda children: (st.dictionaries(keys, children, max_size=4)
                      | st.lists(children, max_size=4)),
    max_leaves=12,
))
@example({"\ud800\"é": 2**64, "": np.int64(-1), "k": np.float32(0.1)})
@example(np.float64(-0.0))
@example([np.bool_(True), True, np.uint64(2**64 - 1)])
def test_writer_matches_stdlib_on_scalars(value):
    assert "".join(_json_chunks(value)) == reference(value)


# ------------------------------------------------- memory and determinism


def test_report_writer_peak_memory_stays_small(tmp_path, monkeypatch, capsys):
    # The report is streamed: writing a K12 eigenvector report (about
    # 2.5 MB) must not hold anything near the whole text at once.
    instance = tmp_path / "k12.json"
    instance.write_text(json.dumps(random_instance_dict("K12", 1)),
                        encoding="utf-8")
    write, peaks = commands._write_json, []

    def traced(value, handle, path):
        tracemalloc.start()
        try:
            write(value, handle, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(commands, "_write_json", traced)
    out = tmp_path / "report.json"
    assert main(["spectrum", str(instance), "--oracle", "--eigenvectors",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    size = out.stat().st_size
    assert size > 2_000_000
    assert peaks[0] < 0.10 * size


def test_repeated_eigenvector_jobs_give_the_same_bytes(generated, tmp_path):
    # At a fixed BLAS thread count a job's stdout and JSON are byte for
    # byte the same on every run.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    runs = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        done = subprocess.run(
            [sys.executable, "-m", "qszegedy.cli", "spectrum", generated,
             "--oracle", "--eigenvectors", "--output", str(out)],
            capture_output=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        runs.append((done.stdout, out.read_bytes()))
    assert runs[0] == runs[1]
    assert b"eigenvectors (25):" in runs[0][0]
