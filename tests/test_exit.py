"""How a CLI process ends.

``python -m qszegedy.cli`` and the ``qszegedy`` script enter through
``cli.run``, which freezes the garbage-collected heap at exit so that
interpreter finalization does not walk it.  A job's output, exit code
and error text are those of an in-process ``cli.main``, whichever way
it ends; ``cli.main`` itself leaves the collector as it found it.
"""

import gc
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import qszegedy
from qszegedy import cli
from qszegedy.qmatrix import QMatrix

SRC = Path(qszegedy.__file__).parents[1]
K4 = SRC / "qszegedy" / "instances" / "k4.json"


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _subprocess(argv, cwd):
    done = subprocess.run(
        [sys.executable, "-m", "qszegedy.cli", *argv], capture_output=True,
        text=True, env=_env(), cwd=cwd, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def _in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse: --version, usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def non_unitary(tmp_path_factory) -> Path:
    """k4 with one weight doubled, so its vertex fails unitarity."""
    data = json.loads(K4.read_text(encoding="utf-8"))
    first = next(iter(data["weights"]))
    data["weights"][first] = [2 * x for x in data["weights"][first]]
    path = tmp_path_factory.mktemp("instances") / "k4_doubled.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["spectrum", "k4", "--oracle", "--eigenvectors"], 0),
        (["spectrum", "{non_unitary}"], 1),
        (["spectrum", "/nonexistent/instance.json"], 2),
        (["spectrum", "k4", "--no-such-flag"], 2),
        (["--version"], 0),
    ],
    ids=["eigenvectors", "non-unitary", "missing-file", "unknown-flag",
         "version"],
)
def test_process_matches_in_process_main(argv, expected, non_unitary,
                                         tmp_path, capsys):
    argv = [arg.format(non_unitary=non_unitary) for arg in argv]
    reports = {}
    for side in ("process", "main"):
        out = tmp_path / f"{side}.json"
        full = argv + ["--output", str(out)] if argv[0] == "spectrum" else argv
        if side == "process":
            reports[side] = _subprocess(full, tmp_path)
        else:
            reports[side] = _in_process(full, capsys)
        reports[side] += (out.read_bytes() if out.exists() else None,)
    assert reports["process"][0] == expected
    assert reports["process"] == reports["main"]


@pytest.fixture(scope="module")
def clamped(tmp_path_factory) -> Path:
    """k4 with arc 0->1's weight scaled by sqrt(1 + 8e-11): one base
    eigenvalue lands just above 2, inside the clamp window."""
    data = json.loads(K4.read_text(encoding="utf-8"))
    scale = math.sqrt(1 + 8e-11)
    data["weights"]["0->1"] = [scale * x for x in data["weights"]["0->1"]]
    path = tmp_path_factory.mktemp("instances") / "k4_over.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_a_library_warning_prints_one_line_without_its_source(
        clamped, tmp_path, capsys):
    # In a process: in-process, pytest records the warning instead of
    # printing it.
    argv = ["spectrum", str(clamped), "--oracle"]
    code, out, err = _subprocess(argv, tmp_path)
    assert code == 0
    assert re.fullmatch(r"warning: clamping base eigenvalue 2\.0+\d+ to "
                        r"the interval \[-2, 2\]\n", err)
    # Callers that record warnings still get them, and main restores
    # the format it found.
    formatwarning = warnings.formatwarning
    with pytest.warns(UserWarning, match="clamping base eigenvalue"):
        assert _in_process(argv, capsys) == (0, out, "")
    assert warnings.formatwarning is formatwarning


@pytest.fixture(scope="module")
def k10(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("instances") / "k10.json"
    code = cli.main(["generate", "K10", "--seed", "1", "--output", str(path)])
    assert code == 0
    return path


def _lift_all(k10, *extra) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "qszegedy.cli", "lift", str(k10), "--all",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    )


def test_a_report_larger_than_a_pipe_buffer_arrives_whole(k10, tmp_path):
    report = tmp_path / "lift.json"
    with _lift_all(k10, "--output", str(report)) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert len(out) > 65536
    assert out.decode().splitlines()[-1] == "result: PASS"
    assert json.loads(report.read_text(encoding="utf-8"))["passed"] is True


def test_a_reader_that_closes_early_gets_the_write_error(k10):
    with _lift_all(k10) as proc:
        assert proc.stdout.readline().startswith(b"qszegedy ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    assert err == b"error: cannot write <stdout>: Broken pipe\n"


#: numpy's message for an m' x n complex part of C2000's arc matrices.
_NO_ROOM = ("Unable to allocate 122. MiB for an array with shape (4000, 2000) "
            "and data type complex128")


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "k4"], _NO_ROOM),
    (["lift", "c5", "--all"], ""),
], ids=["spectrum", "lift-bare-error"])
def test_running_out_of_memory_is_one_error_line(argv, message, monkeypatch,
                                                 capsys):
    # The arc matrices' scatter is the first allocation of a walk's size.
    def no_room(cls, rows, cols):
        raise MemoryError(message)

    monkeypatch.setattr(QMatrix, "zeros", classmethod(no_room))
    detail = f": {message}" if message else ""
    assert _in_process(argv, capsys) == (
        1, "", f"error: out of memory in {argv[0]}{detail}\n"
    )


def test_a_process_out_of_memory_exits_one_with_one_line(tmp_path):
    # Generated C2000's arc matrices K and L (4000 x 2000, 244 MiB each)
    # do not fit in 500 MiB of address space; python with numpy takes
    # about 105 MiB of it (Python 3.11, numpy 2.4, one BLAS thread).  The
    # limit applies to the child only.
    path = tmp_path / "c2000.json"
    assert cli.main(["generate", "C2000", "--seed", "1",
                     "--output", str(path)]) == 0
    limit = 500 * 2**20

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run(
        [sys.executable, "-m", "qszegedy.cli", "spectrum", str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(_env(), OPENBLAS_NUM_THREADS="1"),
        preexec_fn=limit_address_space,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert "Traceback" not in done.stderr
    assert re.fullmatch(r"error: out of memory in spectrum: Unable to "
                        r"allocate .+\n", done.stderr)


def test_in_process_main_leaves_the_collector_alone(capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(["spectrum", "k4"]) == 0
    with pytest.raises(SystemExit):
        cli.main(["--version"])
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled() is enabled


def test_the_entry_point_freezes_the_heap_at_exit():
    # atexit runs its handlers last in, first out: the freeze that
    # cli.run registers runs before this checker.
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['qszegedy', '--version']\n"
        "runpy.run_module('qszegedy.cli', run_name='__main__')\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"qszegedy {qszegedy.__version__}", "frozen: True"
    ]

