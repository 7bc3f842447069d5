"""Shared pytest configuration.

Hypothesis runs derandomised and without an example database, so the
suite gives the same result on every run.  Its remaining storage (a
cache of constants scraped from the package source, filled during
collection) goes to the system temporary directory, so no
``.hypothesis/`` directory is written into the checkout.
"""

import os
import tempfile

from hypothesis import settings

os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY",
    os.path.join(tempfile.gettempdir(), "qszegedy-hypothesis"),
)
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
