"""Spawn one CLI job at a time and measure it.

Each job is timed from spawn to exit; its maximum resident set size comes
from ``wait4``.  A job that runs past its timeout is killed.  The child is
first waited for without being reaped, so the timeout can never signal a
recycled process id.

Linux folds the resident size a process had before ``exec`` into its
max-RSS, so a job forked from the benchmark, which holds numpy and the
reference matrices, would report the benchmark's size.  Jobs are therefore
spawned by a small launcher process, this file run as a script, which
imports nothing but the standard library and takes one JSON request per
line on stdin.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Far above the slowest job of any workload (about 2 s).
JOB_TIMEOUT_S = 120.0


@dataclass
class JobRun:
    label: str
    wall_s: float
    exit_code: int
    max_rss_kb: int
    timed_out: bool
    problems: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.exit_code == 0 and not self.timed_out and not self.problems

    @property
    def wrong(self) -> bool:
        """Exited 0, so claimed success, but the output check failed."""
        return self.exit_code == 0 and not self.timed_out and bool(self.problems)


def spawn(label: str, argv: list[str], env: dict, stderr_path: Path,
          timeout: float = JOB_TIMEOUT_S) -> JobRun:
    """Run ``argv`` to completion; stdout is discarded, stderr kept."""
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                stderr=stderr, env=env)
        lock = threading.Lock()
        state = {"exited": False, "timed_out": False}

        def kill():
            with lock:
                if not state["exited"]:
                    state["timed_out"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["exited"] = True
        except BaseException:
            kill()  # interrupted: do not leave the job running
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return JobRun(label, wall, proc.returncode, usage.ru_maxrss,
                  state["timed_out"])


class Launcher:
    """A launcher process; ``with Launcher(env) as launch: launch(...)``.

    Jobs inherit ``env``.
    """

    def __init__(self, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, label: str, argv: list[str], stderr_path: Path) -> JobRun:
        request = {"label": label, "argv": argv, "stderr": str(stderr_path)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        return JobRun(**json.loads(reply))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def _serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        run = spawn(request["label"], request["argv"], dict(os.environ),
                    Path(request["stderr"]))
        sys.stdout.write(json.dumps(asdict(run)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
