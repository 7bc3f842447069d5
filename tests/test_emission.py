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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qszegedy import cli
from qszegedy.cli import (
    _json_chunks,
    _json_native,
    _row_labels,
    _vector_lines,
    _write_json,
    main,
)
from qszegedy.graph import Arc
from qszegedy.instances import (
    bundled_names,
    load_bundled,
    parse_graph_spec,
    random_instance_dict,
)
from qszegedy.qmatrix import QMatrix
from qszegedy.quaternion import format_components
from qszegedy.szegedy import SpectrumClass

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
    """Flat float lists and lists of equal-length float rows: the
    writer's template path."""
    return st.integers(0, 4).flatmap(
        lambda width: st.lists(
            floats if width == 0 else st.lists(floats, min_size=width,
                                               max_size=width),
            min_size=1, max_size=20,
        )
    )


def near_tables():
    """Rows that only nearly qualify: ints among floats, ragged rows."""
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


def test_writer_template_path_spans_blocks():
    # Tables longer than one block of rows, with every special value.
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
    [Arc(0, 1, 0)],
    SpectrumClass(1j, 2, ("lift",)),
])
def test_records_in_a_report_are_refused(report):
    # A record is a tuple subclass: it must not be written as an array.
    with pytest.raises(TypeError, match="cannot serialize"):
        "".join(_json_chunks(report))
