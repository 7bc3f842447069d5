"""Command-line interface: spectrum, verify, lift, examples, generate.

This module is the front: the argument parser, ``main`` and ``run``.
It imports neither numpy nor the library, so ``--version``, ``-h``/
``--help``, ``<command> --help`` and usage errors exit before numpy
loads.  Once the arguments parse, ``main`` imports ``qszegedy.commands``
(and numpy and the library with it) and runs the command there.

Exit codes: 0 all checks passed, 1 a check failed or a numerical
contract broke, 2 invalid input (file, flags, or domain errors).
"""

import argparse
import atexit
import gc
import sys
import warnings

from . import __version__
from ._hashes import hashlib_needs_no_openssl
from .errors import QWalkError, ValidationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qszegedy",
        description=(
            "Quaternionic Szegedy walks: spectra, eigenvector lifts, and "
            "determinant identity checks."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"qszegedy {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="comparison tolerance (default: 1e-8)")
        p.add_argument("--output", default=None,
                       help="also write the structured JSON report here")

    p = sub.add_parser("spectrum", help="full right spectrum of an instance")
    p.add_argument("instance", help="instance file path or bundled name")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against direct diagonalization of psi(U)")
    p.add_argument("--eigenvectors", action="store_true",
                   help="attach lifted and directly extracted eigenvectors")
    p.add_argument("--force", action="store_true",
                   help="report non-unitary instances via the direct path")
    add_common(p)

    p = sub.add_parser("verify", help="structure and identity battery")
    p.add_argument("instance", nargs="?", default=None,
                   help="instance file path or bundled name")
    p.add_argument("--random", default=None, metavar="SPEC",
                   help="verify random weightings of a graph family "
                        "(K<n>, P<n>, C<n>, star<k>, +loop/+loops)")
    p.add_argument("--seed", type=int, help="first --random seed (default: 0)")
    p.add_argument("--count", type=int,
                   help="number of --random weightings (default: 1)")
    p.add_argument("--samples", type=int, default=8,
                   help="sample points on |t| = 1/4 (plus t = 0)")
    add_common(p)

    p = sub.add_parser("lift", help="eigenvectors of the walk via lifting")
    p.add_argument("instance", help="instance file path or bundled name")
    p.add_argument("--mu", type=float, default=None,
                   help="base eigenvalue of the doubly weighted matrix")
    p.add_argument("--all", action="store_true",
                   help="lift every base eigenvalue and extract lambda=+-1")
    add_common(p)

    p = sub.add_parser("examples", help="run the bundled worked examples")
    p.add_argument("--output", default=None,
                   help="also write the structured JSON report here")

    p = sub.add_parser("generate", help="emit an instance file")
    p.add_argument("spec", help="bundled name or graph family spec")
    p.add_argument("--seed", type=int, default=None,
                   help="random weights with this seed (bundled names "
                        "default to their shipped weights)")
    p.add_argument("--output", default=None, help="write here instead of stdout")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Imported only now, so that argparse's own exits (--version, --help,
    # usage errors) never load numpy.
    from numpy.linalg import LinAlgError

    from . import commands

    saved, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return getattr(commands, f"cmd_{args.command}")(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QWalkError, LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = saved


def _format_warning(message, *_location) -> str:
    """``warnings.formatwarning`` while a command runs: a warning prints
    as one ``warning: <message>`` line, without the file path and source
    line of Python's format, so stderr does not depend on where the
    package is installed.  Filters, ``-W`` and recording still apply."""
    return f"warning: {message}\n"


def run() -> int:
    """Entry point of the ``qszegedy`` command and ``python -m qszegedy.cli``:
    :func:`main` in a process that exits when it returns.

    It first registers ``gc.freeze`` with atexit, so the garbage
    collections of interpreter finalization skip the objects still
    alive, about 22,000 after numpy and this package are imported (see
    "Start-up and exit" in the README).  CPython runs atexit handlers
    before those collections on every way out: a return, ``SystemExit``
    from argparse (``--version``, ``-h``, usage errors) and an uncaught
    exception, whose traceback and exit code are unchanged.  Unlike
    ``os._exit``, this still flushes buffered output.

    It then marks OpenSSL's ``_hashlib`` unavailable in ``sys.modules``,
    when CPython's builtin hash modules are all present (SHA-256 among
    them, which instance digests use).  ``numpy.random`` imports
    ``secrets``, and with it ``hmac`` and ``hashlib``; these then take
    their builtin fallbacks instead of loading libcrypto, about 3.4 MB
    of resident memory.  Seeded Generator streams never hash, so no
    output changes.  An interpreter without those modules keeps OpenSSL.

    ``main`` itself does neither, for in-process callers.
    """
    atexit.register(gc.freeze)
    if hashlib_needs_no_openssl():
        sys.modules.setdefault("_hashlib", None)
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
