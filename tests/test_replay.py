"""The benchmark's traced replay runs against this checkout.

``perfbench/tracing.py`` replays each job kind as a sequence of direct
library calls: positional signatures such as
``quaternionic_identity(graph, a, b, samples, tol)`` and
``sylvester_det_property(a, b, alpha)``, and names such as
``Graph.inverse_index`` and ``ops.K``, ``ops.L`` and ``ops.q``.  One job
of each kind, on bundled instances, fails here when the library drops
or reshapes one of them.
"""

import sys
from pathlib import Path

import pytest

import qszegedy

ROOT = Path(qszegedy.__file__).parents[2]
sys.path.append(str(ROOT / "perfbench"))

import tracing  # noqa: E402  (found through the path entry above)
from workloads import Job  # noqa: E402

JOBS = [
    Job("spectrum k4 --oracle --eigenvectors", "spectrum",
        ("spectrum", "k4", "--oracle", "--eigenvectors"), "k4",
        oracle=True, eigenvectors=True),
    Job("lift c5 --all", "lift", ("lift", "c5", "--all"), "c5"),
    Job("verify k3_loops", "verify", ("verify", "k3_loops"), "k3_loops"),
    Job("verify c5", "verify", ("verify", "c5"), "c5"),
    Job("verify --random P3 --count 2", "verify-random",
        ("verify", "--random", "P3", "--count", "2", "--seed", "1"),
        count=2),
    Job("examples", "examples", ("examples",)),
]


@pytest.fixture(scope="module")
def lib():
    return tracing.load_library(ROOT / "src")


@pytest.mark.parametrize("job", JOBS, ids=[
    "spectrum", "lift", "verify-k3_loops", "verify-c5", "verify-random",
    "examples",
])
def test_replay_runs_each_job_kind(lib, job):
    # The second argument is the instance path, unused for bundled
    # instances, and the first seed of a verify-random job.
    tracing.Replay(lib, tracing.Tracer(False)).run(job, 1)
