"""The commands of the ``qszegedy`` CLI: spectrum, verify, lift, examples,
generate, and the text and JSON writers they share.

``qszegedy.cli`` imports this module, and numpy and the library with it,
only after the arguments parse; ``cmd_<command>(args)`` runs a parsed
command and returns its exit code.  It never imports ``qszegedy.cli``:
under ``python -m qszegedy.cli`` the front runs as ``__main__``, and an
import would load it a second time.  Reports go to stdout as
human-readable text; ``--output`` additionally writes the structured
JSON form.  Reports are deterministic (no timestamps) and identify the
instance by name and content hash, so repeated runs on the same input
are byte-identical.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from contextlib import contextmanager, nullcontext
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import ValidationError
from .graph import Graph
from .instances import (
    Instance,
    bundled_names,
    bundled_spec,
    load_bundled,
    parse_graph_spec,
    random_instance_dict,
    resolve_instance,
)
from .qmatrix import (
    QMatrix,
    h_rank,
    minimal_polynomial,
    qvec,
    right_eigenvalues,
    right_eigenvector,
    root_subspaces,
)
from .quaternion import I as QI
from .quaternion import J as QJ
from .quaternion import K as QK
from .quaternion import Quaternion, format_components
from .szegedy import (
    SpectrumClass,
    build_walk,
    check_unitary_condition,
    full_spectrum,
    group_mus,
    lift_eigenvector,
    lift_groups,
    random_instance,
    spectral_map,
    vector_components,
)

DEFAULT_TOL = 1e-8
#: Loose matching window for user-supplied --mu values (CLI inputs are
#: usually typed with a handful of digits).
MU_MATCH_TOL = 5e-3


def _fmt(value: float) -> str:
    # Walk quantities live on an O(1) scale; hide pure rounding noise.
    if abs(value) <= 1e-12:
        value = 0.0
    return f"{value:.12g}"


def _fmt_c(z: complex) -> str:
    snap = 1e-12 * max(1.0, abs(z))
    return format_components(
        0.0 if abs(z.real) <= snap else z.real,
        0.0 if abs(z.imag) <= snap else z.imag,
        0.0,
        0.0,
    )


def _resolve_tol(args) -> float:
    """``--tol``, or ``DEFAULT_TOL`` when the flag is absent."""
    tol = getattr(args, "tol", None)
    if tol is None:
        return DEFAULT_TOL
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(
            f"--tol must be a finite number >= 0, got {tol!r}"
        )
    return tol


def _header(command: str, tol: float, instance: Instance | None = None,
            seeds=()) -> tuple[dict, list[str]]:
    report = {
        "tool": "qszegedy",
        "version": __version__,
        "command": command,
        "tolerance": tol,
        "seeds": list(seeds),
    }
    lines = [f"qszegedy {__version__} :: {command}"]
    if instance is not None:
        report["instance"] = {"name": instance.name, "sha256": instance.sha256}
        lines.append(f"instance: {instance.name} (sha256 {instance.sha256[:12]})")
    if seeds:
        lines.append("seeds: " + ", ".join(str(s) for s in seeds))
    lines.append(f"tolerance: {tol:g}")
    return report, lines


def _json_native(value):
    # Reports may carry numpy scalars from residual arithmetic, and the
    # float arrays of eigenvector tables.
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


@contextmanager
def _writing(path: str):
    """Report an OSError on ``path`` as invalid input (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(
            f"cannot write {path}: {exc.strerror or exc}"
        ) from None


def _open_output(path: str):
    with _writing(path):
        return open(path, "w", encoding="utf-8")


def _check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise ValidationError(
            f"--seed must be a non-negative integer, got {seed}"
        )


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    """``json.dumps`` of a float: its repr, with JSON's names for NaN and
    the infinities."""
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


#: ``json.dumps`` of a leaf, by exact type, from the primitives the json
#: module itself uses: its C string encoder and ``repr``.  A leaf of
#: another type, such as a numpy scalar, goes through ``_json_native``.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _value: "null",
}
#: Exact types written as JSON arrays.  A tuple subclass such as a
#: record is not one: like every type outside ``_JSON_TYPES`` it goes
#: through ``_json_native``, which rejects it.
_JSON_ARRAYS = (list, tuple)
_JSON_TYPES = frozenset(_SCALAR_TEXT).union(_JSON_ARRAYS, (dict,))


@functools.lru_cache(maxsize=64)
def _table_template(indent: str, width: int, rows: int) -> str:
    """``%`` template of ``rows`` table rows at ``indent``: one ``%r`` per
    float, each row an array of ``width`` of them (width 0: bare)."""
    row = "%r"
    if width:
        cells = ",\n".join([indent + "  %r"] * width)
        row = f"[\n{cells}\n{indent}]"
    return (",\n" + indent).join([row] * rows)


def _json_chunks(value, indent: str = ""):
    """Yield ``json.dumps(value, indent=2, default=_json_native)`` in
    pieces, for ``value`` nested at ``indent``.

    Dicts with string keys and non-empty lists and tuples are walked
    here, by exact type, item by item.  A non-empty 1-D or 2-D float64
    array is a table, by its dtype, written by one fill of a cached
    template.  Keys and leaves of ``_SCALAR_TEXT``'s types are written by
    its primitives; empty containers and dicts with other keys go to
    the stdlib encoder, re-indented (JSON text holds no raw newline);
    any other type through ``_json_native`` first.
    """
    inner = indent + "  "
    kind = type(value)
    if (kind is np.ndarray and value.dtype == float and value.ndim in (1, 2)
            and value.size):
        width = value.shape[1] if value.ndim == 2 else 0
        text = (_table_template(inner, width, len(value))
                % tuple(value.ravel().tolist()))
        if "n" in text:  # repr gives nan, inf and -inf
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        yield f"[\n{inner}{text}\n{indent}]"
    elif kind in _JSON_ARRAYS and value:
        opener = "[\n"
        for item in value:
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is not None:
                yield f"{opener}{inner}{scalar(item)}"
            else:
                yield opener + inner
                yield from _json_chunks(item, inner)
            opener = ",\n"
        yield "\n" + indent + "]"
    elif kind is dict and value and all(
        map(isinstance, value, itertools.repeat(str))
    ):
        opener = "{\n"
        for key, item in value.items():
            scalar = _SCALAR_TEXT.get(type(item))
            key = encode_basestring_ascii(key)
            if scalar is not None:
                yield f"{opener}{inner}{key}: {scalar(item)}"
            else:
                yield f"{opener}{inner}{key}: "
                yield from _json_chunks(item, inner)
            opener = ",\n"
        yield "\n" + indent + "}"
    elif kind not in _JSON_TYPES:
        yield from _json_chunks(_json_native(value), indent)
    elif kind in _SCALAR_TEXT:
        yield _SCALAR_TEXT[kind](value)
    else:
        text = json.dumps(value, indent=2, default=_json_native)
        yield text.replace("\n", "\n" + indent)


def _write_json(value, handle, path: str) -> None:
    """Stream ``value`` to ``handle`` as ``json.dump(indent=2)`` plus a
    newline, then close it.  An OSError on the way is reported as
    ``cannot write PATH`` (exit 2)."""
    with _writing(path):
        handle.writelines(_json_chunks(value))
        handle.write("\n")
        handle.close()  # inside, so a failed final flush is reported too


@contextmanager
def _writing_stdout():
    """Yield ``sys.stdout`` and flush it on the way out; an OSError on the
    way is reported as ``cannot write <stdout>`` (exit 2)."""
    with _writing("<stdout>"):
        yield sys.stdout
        sys.stdout.flush()


def _emit(report: dict, lines: list[str], output: str | None) -> int:
    # The file opens first, so an unwritable path prints no report.
    with _open_output(output) if output else nullcontext() as handle:
        with _writing_stdout() as stdout:
            for line in lines:  # a vector's rows are one item
                stdout.write(line + "\n")
        if handle:
            _write_json(report, handle, output)
    return 0 if report.get("passed", False) else 1


def _unitarity_lines(unitarity) -> list[str]:
    lines = [
        f"unitarity condition (tol {unitarity.tol:g}): "
        + ("PASS" if unitarity.passed else "FAIL")
    ]
    for row in unitarity.vertices:
        mark = "ok" if row.ok else "FAIL"
        lines.append(
            f"  vertex {row.vertex + 1}: sum {_fmt(row.total)} "
            f"(deviation {row.deviation:.3g}) {mark}"
        )
    if not unitarity.passed:
        failing = ", ".join(str(v + 1) for v in unitarity.failing_vertices())
        lines.append(f"  offending vertices: {failing}")
    return lines


def _graph_line(graph: Graph) -> str:
    return (
        f"graph: {graph.n} vertices, {graph.m0} edges, {graph.m1} loops, "
        f"{graph.m_prime} arcs"
    )


def _row_labels(graph: Graph) -> tuple[list[str], list[str]]:
    """Labels of printed vector rows: vertices (``v1``) for the rows of a
    base vector, arcs (``1->2``) for the rows of a walk vector."""
    arcs = [
        f"{origin + 1}->{terminus + 1}"
        for origin, terminus in zip(graph.origin.tolist(),
                                    graph.terminus.tolist())
    ]
    return [f"v{r + 1}" for r in range(graph.n)], arcs


def _row_piece(mask: int) -> str:
    """``format_components`` as a ``%`` template of the components that
    ``mask`` marks non-zero (bit c for component c): the first term
    signed only when negative, the others always, and "0" for none."""
    units = [unit for bit, unit in enumerate(("", "i", "j", "k"))
             if mask >> bit & 1]
    return "".join(
        ("%+.6g" if position else "%.6g") + unit
        for position, unit in enumerate(units)
    ) or "0"


#: Row templates by zero mask, the 16 cases of ``format_components``.
_ROW_PIECES = np.array([_row_piece(mask) for mask in range(16)], dtype=object)
#: Rows of vector text formatted per block: the Python floats of one
#: block's non-zero components are all that exist at once.
_TEXT_ROWS = 4096


def _vector_texts(labels: list[str], components: np.ndarray,
                  indent: str = "    ") -> list[str]:
    """The printed rows of each vector of a stack of ``components`` (as
    ``szegedy.vector_components`` gives them): one ``label: entry`` line
    per row, entries as ``format_components`` writes them, the lines of
    one vector joined by newlines.

    The stack is taken in blocks of whole vectors, at most
    ``_TEXT_ROWS`` rows each (one vector when a vector has more), so
    only one block's non-zero components exist as Python floats at once.
    Each row's template is keyed by its zero mask, from a
    ``label x mask`` table of the labelled ``_ROW_PIECES``, and each
    vector is then one ``%`` (``%+g`` writes a NaN of either sign as
    ``+nan``, as ``format_components`` does)."""
    if not len(components):
        return []
    prefixes = np.array(
        [f"{indent}{label}: ".replace("%", "%%") for label in labels],
        dtype=object,
    )
    table = prefixes[:, None] + _ROW_PIECES
    rows = np.arange(len(labels))
    step = max(1, _TEXT_ROWS // len(labels))
    texts = []
    for start in range(0, len(components), step):
        block = components[start:start + step]
        present = block != 0.0
        templates = table[rows, present @ np.array([1, 2, 4, 8])]
        values = block[present].tolist()
        ends = np.cumsum(present.sum(axis=(1, 2))).tolist()
        texts += [
            "\n".join(lines) % tuple(values[begin:end])
            for lines, begin, end in zip(templates.tolist(), [0] + ends, ends)
        ]
    return texts


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(args) -> int:
    tol = _resolve_tol(args)
    instance = resolve_instance(args.instance)
    seeds = [instance.seed] if instance.seed is not None else []
    report, lines = _header("spectrum", tol, instance, seeds)
    unitarity = check_unitary_condition(instance.graph, instance.weights)
    report["unitarity"] = unitarity.to_dict()
    lines.append(_graph_line(instance.graph))
    lines.extend(_unitarity_lines(unitarity))

    if not unitarity.passed and not args.force:
        lines.append("result: FAIL (weights are not unitary; rerun with "
                      "--force for a direct-diagonalization report)")
        report["passed"] = False
        return _emit(report, lines, args.output)

    if unitarity.passed:
        spectrum = full_spectrum(
            instance.graph,
            instance.weights,
            want_oracle=args.oracle,
            want_eigenvectors=args.eigenvectors,
            tol=tol,
        )
        components = texts = None
        if spectrum.eigenvectors is not None:
            components = vector_components(
                [item.vector for item in spectrum.eigenvectors]
            )
            texts = _vector_texts(_row_labels(instance.graph)[1], components)
        if args.output:  # the JSON form is built only to be written
            report["spectrum"] = spectrum.to_dict(components)
        lines.append(f"tree case: {spectrum.tree_case}")
        lines.append(
            f"base spectrum of the doubly weighted matrix "
            f"({len(spectrum.mu_spectrum)} values):"
        )
        for value, count in group_mus(spectrum.mu_spectrum):
            lines.append(f"  {_fmt(value)} x{count}")
        lines.append(
            f"right spectrum ({len(spectrum.classes)} conjugacy classes, "
            "quaternionic multiplicities):"
        )
        for cls in spectrum.classes:
            sources = ",".join(cls.sources)
            lines.append(
                f"  {_fmt_c(cls.rep):<24} multiplicity {cls.multiplicity}"
                f"  [{sources}]"
            )
        passed = True
        if spectrum.oracle is not None:
            diff = "empty" if spectrum.oracle.matched else "NONEMPTY"
            lines.append(
                "oracle comparison against direct diagonalization of psi(U): "
                f"{len(spectrum.psi_u_spectrum)} eigenvalues, diff {diff} "
                f"(max pair distance {spectrum.oracle.max_distance:.3g})"
            )
            passed = passed and spectrum.oracle.matched
        if spectrum.eigenvectors is not None:
            lines.append(f"eigenvectors ({len(spectrum.eigenvectors)}):")
            for item, text in zip(spectrum.eigenvectors, texts):
                mu_note = "" if item.mu is None else f" from mu {_fmt(item.mu)}"
                lines.append(
                    f"  lambda {_fmt_c(item.lam)} [{item.origin}]{mu_note} "
                    f"residual {item.residual:.3g}"
                )
                lines.append(text)
                passed = passed and item.residual <= tol
    else:
        # --force on a non-unitary instance: direct path only.
        ops = build_walk(instance.graph, instance.weights)
        classes = right_eigenvalues(ops.U)
        report["spectrum"] = {
            "tree_case": "direct-only",
            "classes": [
                SpectrumClass(cls.rep, mult, ("direct",)).to_dict()
                for cls, mult in classes
            ],
        }
        lines.append("tree case: direct-only (spectral mapping skipped; "
                      "the unitarity condition fails)")
        lines.append("right spectrum via direct diagonalization:")
        for cls, mult in classes:
            lines.append(f"  {_fmt_c(cls.rep):<24} multiplicity {mult}")
        passed = False

    report["passed"] = bool(passed)
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    return _emit(report, lines, args.output)


# -------------------------------------------------------------------- lift


def cmd_lift(args) -> int:
    tol = _resolve_tol(args)
    if args.mu is None and not args.all:
        raise ValidationError("lift needs --mu VALUE or --all")
    if args.mu is not None and args.all:
        raise ValidationError("--mu and --all are mutually exclusive")
    if args.mu is not None and not math.isfinite(args.mu):
        raise ValidationError(f"--mu must be a finite number, got {args.mu!r}")
    instance = resolve_instance(args.instance)
    report, lines = _header("lift", tol, instance)
    check_unitary_condition(instance.graph, instance.weights).require()
    ops = build_walk(instance.graph, instance.weights)
    distinct = group_mus(ops.mu_spectrum)

    if args.all:
        targets = [value for value, _count in distinct]
        boundary = (1.0, -1.0)
    else:
        requested = float(args.mu)
        nearest = min(distinct, key=lambda item: abs(item[0] - requested))[0]
        if abs(nearest - requested) > MU_MATCH_TOL * max(1.0, abs(requested)):
            available = ", ".join(_fmt(v) for v, _ in distinct)
            raise ValidationError(
                f"no base eigenvalue near {requested}; available: {available}"
            )
        targets = [nearest]
        boundary = ()

    passed = True
    entries = []
    counts = dict(distinct)
    vertices, arcs = _row_labels(instance.graph)
    groups = lift_groups(ops, targets, boundary)
    items = [item for group in groups for item in group.vectors]
    components = vector_components([item.vector for item in items])
    texts = iter(_vector_texts(arcs, components))
    base_texts = iter(_vector_texts(vertices, vector_components(
        [item.base for item in items if item.origin == "lift"]
    )))
    tables = iter(components)  # each vector's JSON table
    for group in groups:
        mu = group.mu
        if mu is None:
            lines.append(
                f"lambda = {_fmt(group.lam.real)} eigenvectors (direct "
                f"extraction, {len(group.vectors)} found):"
            )
        else:
            lines.append(
                f"base eigenvalue mu = {_fmt(mu)} (psi multiplicity "
                f"{counts[mu]}), lambda = {_fmt_c(group.lam)}"
            )
        for index, item in enumerate(group.vectors):
            rel = item.relative_residual
            passed = passed and rel <= tol
            if item.origin == "lift":
                lines.append(f"  base eigenvector {index // 2 + 1}:")
                lines.append(next(base_texts))
            label = f"vector {index + 1}" if mu is None else item.origin
            lines.append(f"  {label} (relative residual {rel:.3g}):")
            lines.append(next(texts))
            entries.append({
                "mu": mu, "lambda": [item.lam.real, item.lam.imag],
                "origin": item.origin, "residual": rel, "vector": next(tables),
            })
        if group.independent is not None:
            passed = passed and group.independent
            verdict = ("H-linearly independent" if group.independent
                       else "DEPENDENT")
            lines.append(f"  independence: the {len(group.vectors)} lifted "
                         f"vectors are {verdict}")

    report["eigenvectors"] = entries
    report["passed"] = bool(passed)
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    return _emit(report, lines, args.output)


# ------------------------------------------------------------------ verify


def _verify_lines(result) -> list[str]:
    """The text form of one ``zeta.VerifyReport``."""
    lines = _unitarity_lines(result.unitarity)
    lines.append("structure identities:")
    for check in result.structure.checks:
        mark = "ok" if check.ok else "FAIL"
        lines.append(
            f"  {check.name:<14} residual {check.residual:.3g} "
            f"(tol {check.tol:g}) {mark}"
        )
    points = len(result.identities[0].samples)
    lines.append(f"determinant identities ({points} sample points):")
    for check in result.identities:
        mark = "ok" if check.passed else "FAIL"
        lines.append(
            f"  {check.name:<16} max rel error {check.max_rel_error:.3g} {mark}"
        )
    if "ihara/second-weighted" in result.skipped:
        lines.append("  ihara/second-weighted skipped: "
                     + result.skipped["ihara/second-weighted"])
    syl = result.sylvester
    lines.append(
        f"  {'sylvester':<16} max rel error {syl.max_rel_error:.3g} "
        f"({len(syl.samples)} alpha samples) {'ok' if syl.passed else 'FAIL'}"
    )
    if "eigenspaces" in result.skipped:
        lines.append(f"eigenspaces skipped: {result.skipped['eigenspaces']}")
    else:
        lines.append(
            "eigenspaces (birth + inherited = multiplicity): "
            + ", ".join(
                f"{count.lam:+g}: {count.birth} + {count.inherited} = "
                f"{count.multiplicity}"
                for count in result.eigenspaces
            )
            + (" ok" if all(c.ok for c in result.eigenspaces) else " FAIL")
        )
    return lines


def cmd_verify(args) -> int:
    tol = _resolve_tol(args)
    if args.instance is None and args.random is None:
        raise ValidationError("verify needs an INSTANCE or --random SPEC")
    if args.instance is not None and args.random is not None:
        raise ValidationError("give either an INSTANCE or --random, not both")
    _check_seed(args.seed)
    for flag, value in (("--count", args.count), ("--samples", args.samples)):
        if value < 1:
            raise ValidationError(f"{flag} must be at least 1, got {value}")
    # Only verify checks the zeta identities: other commands skip the import.
    from .zeta import verify_walk

    if args.instance is not None:
        instance = resolve_instance(args.instance)
        graph = instance.graph
        w_seed = instance.seed
        if w_seed is None:
            w_seed = int(instance.sha256[:8], 16)
        report, lines = _header("verify", tol, instance, seeds=[w_seed])
        runs = [(w_seed, instance.weights)]
    else:
        graph = parse_graph_spec(args.random)
        seeds = [args.seed + i for i in range(args.count)]
        report, lines = _header("verify", tol, seeds=seeds)
        report["random"] = {"spec": args.random, "count": args.count}
        lines.append(f"random weightings of {args.random}: {args.count} "
                      f"instance(s) from seed {args.seed}")
        report["runs"] = []
        runs = ((seed, random_instance(graph, seed)) for seed in seeds)
    lines.append(_graph_line(graph))
    passed = True
    for seed, weights in runs:
        result = verify_walk(graph, weights, tol=tol, samples=args.samples,
                             seed=seed)
        if args.instance is not None:
            report.update(result.to_dict())
        else:
            report["runs"].append({"seed": seed, **result.to_dict()})
            lines.append(f"--- seed {seed} ---")
        lines.extend(_verify_lines(result))
        passed = passed and result.passed

    report["passed"] = bool(passed)
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    return _emit(report, lines, args.output)


# ---------------------------------------------------------------- examples


def _golden_suite(tol: float):
    """Worked examples with frozen expected values.

    Returns (description, ok, detail) triples; every mismatch carries the
    observed value so failures are diagnosable from the output alone.
    """
    sq2 = math.sqrt(2.0)
    sq5 = math.sqrt(5.0)
    checks: list[tuple[str, bool, str]] = []

    def add(description: str, ok: bool, detail: str = ""):
        checks.append((description, bool(ok), detail))

    def classes(description: str, got, want, sep: str = "; "):
        # (value, multiplicity) pairs against ``want``, in order.
        add(description, len(got) == len(want) and all(
            abs(value - target) <= tol and count == expected
            for (value, count), (target, expected) in zip(got, want)
        ), "got " + sep.join(f"{value:.6g} x{count}" for value, count in got))

    def factors(description: str, got, want):
        # Minimal-polynomial factors, each of exponent 1, against ``want``.
        add(description, len(got) == len(want) and all(
            f.exponent == 1 and np.allclose(f.coefficients, coeffs, atol=tol)
            for f, coeffs in zip(got, want)
        ), f"got {[f.coefficients for f in got]}")

    def span(description: str, vector: QMatrix, golden: list):
        # ``vector`` spans the same right H-line as the known ``golden``.
        add(description, h_rank(QMatrix.hstack([vector, qvec(golden)])) == 1)

    # Quaternion algebra.
    add("i*j = k and j*i = -k",
        (QI * QJ - QK).is_zero() and (QJ * QI + QK).is_zero())
    x = Quaternion(1.0, 2.0, -3.0, 0.5)
    add("x * x^-1 = 1", abs(x * x.inverse() - Quaternion(1.0)) <= 1e-15)

    # Example A: diag(1, k).
    m1 = QMatrix.diag([Quaternion(1.0), QK])
    classes("diag(1,k): classes {class of i, class of 1}",
            [(c.rep, m) for c, m in right_eigenvalues(m1)],
            [(1j, 1), (1.0, 1)])
    factors("diag(1,k): minimal polynomial (y^2+1)(y-1)",
            minimal_polynomial(m1).factors, [(1.0, 0.0, 1.0), (1.0, -1.0)])
    span("diag(1,k): eigenvector for i proportional to (0, 1-j)",
         right_eigenvector(m1, 1j), [Quaternion(), Quaternion(1, 0, -1, 0)])

    # Example B: [[0, i], [j, 0]].
    m2 = QMatrix.from_rows([[Quaternion(), QI], [QJ, Quaternion()]])
    classes("[[0,i],[j,0]]: classes {(+-1+i)/sqrt2}",
            [(c.rep, m) for c, m in right_eigenvalues(m2)],
            [(complex(-1.0, 1.0) / sq2, 1), (complex(1.0, 1.0) / sq2, 1)])
    factors("[[0,i],[j,0]]: minimal polynomial (y^2+sqrt2 y+1)(y^2-sqrt2 y+1)",
            minimal_polynomial(m2).factors,
            [(1.0, sq2, 1.0), (1.0, -sq2, 1.0)])
    span("[[0,i],[j,0]]: eigenvector for (1+i)/sqrt2 matches the known span",
         right_eigenvector(m2, complex(1.0, 1.0) / sq2),
         [Quaternion(1, 0, -1, 0),
          Quaternion(1 / sq2, -1 / sq2, 1 / sq2, 1 / sq2)])

    # Example C: the complete triangle with loops at every vertex.
    instance = load_bundled("k3_loops")
    graph, weights = instance.graph, instance.weights
    ops = build_walk(graph, weights)
    w_golden = QMatrix.from_real(
        np.full((3, 3), -2.0 / 3.0) + np.diag([4.0 / 3.0] * 3)
    )
    add("k3_loops: doubly weighted matrix has 2/3 diagonal, -2/3 off",
        (ops.W - w_golden).max_entry_norm() <= tol)
    spot = [
        (0, 1, Quaternion(-1.0 / 3.0)),
        (0, 4, Quaternion(0, 0, -2.0 / 3.0, 0)),
        (0, 6, Quaternion(0, 2.0 / 3.0, 0, 0)),
        (1, 3, Quaternion(0, 0, 0, 2.0 / 3.0)),
        (8, 2, Quaternion(0, 0, 2.0 / 3.0, 0)),
        (8, 8, Quaternion(-1.0 / 3.0)),
    ]
    ok = all(abs(ops.U.entry(r, c) - val) <= tol for r, c, val in spot)
    add("k3_loops: transition matrix spot entries", ok)

    spectrum = full_spectrum(graph, weights, want_oracle=True, tol=tol)
    classes("k3_loops: base spectrum {-2/3 x2, 4/3 x4}",
            group_mus(spectrum.mu_spectrum),
            [(-2.0 / 3.0, 2), (4.0 / 3.0, 4)], sep=", ")
    classes("k3_loops: classes {-1 x3, (-1+2sqrt2 i)/3 x2, (2+sqrt5 i)/3 x4}",
            [(c.rep, c.multiplicity) for c in spectrum.classes],
            [(complex(-1.0), 3), (complex(-1.0 / 3.0, 2.0 * sq2 / 3.0), 2),
             (complex(2.0 / 3.0, sq5 / 3.0), 4)])
    add("k3_loops: theorem spectrum matches direct diagonalization",
        spectrum.oracle is not None and spectrum.oracle.matched,
        f"max distance {spectrum.oracle.max_distance:.3g}")

    subspaces = root_subspaces(ops.U)
    factors("k3_loops: minimal polynomial (y+1)(y^2+2/3 y+1)(y^2-4/3 y+1)",
            [s.factor for s in subspaces],
            [(1.0, 1.0), (1.0, 2.0 / 3.0, 1.0), (1.0, -4.0 / 3.0, 1.0)])
    dims = [s.dimension for s in subspaces]
    add("k3_loops: root subspace dimensions (3, 2, 4) summing to 9",
        dims == [3, 2, 4], f"got {dims}")

    lam_p, _ = spectral_map(-2.0 / 3.0)
    span("k3_loops: lift of (1,1,1) at mu=-2/3 is proportional to the "
         "known eigenvector",
         lift_eigenvector(ops, qvec([1.0, 1.0, 1.0]), lam_p),
         [Quaternion(sq2, 1), Quaternion(-sq2, -1),
          Quaternion(0, 0, 1, sq2), Quaternion(0, 0, -1, -sq2),
          Quaternion(0, 0, -sq2, 1), Quaternion(0, 0, sq2, -1),
          Quaternion(2, sq2), Quaternion(2, sq2), Quaternion(2, sq2)])

    direct_goldens = [
        qvec([QI, QI, Quaternion(), Quaternion(), Quaternion(), Quaternion(),
              Quaternion(-1.0), Quaternion(1.0), Quaternion()]),
        qvec([QJ, QJ, -QI, -QI, Quaternion(1.0), Quaternion(1.0),
              Quaternion(), Quaternion(), Quaternion()]),
        qvec([QI, QI, QJ, QJ, Quaternion(), Quaternion(),
              Quaternion(-1.0), Quaternion(), Quaternion(1.0)]),
    ]
    ok = all(
        (ops.U @ g - g.right_scalar(-1.0)).fro_norm() <= tol * g.fro_norm()
        for g in direct_goldens
    ) and h_rank(QMatrix.hstack(direct_goldens)) == 3
    add("k3_loops: three independent eigenvectors at lambda=-1", ok)

    return checks


def cmd_examples(args) -> int:
    tol = 1e-9
    report, lines = _header("examples", tol)
    checks = _golden_suite(tol)
    passed = all(ok for _desc, ok, _detail in checks)
    report["checks"] = [
        {"description": desc, "ok": ok, "detail": detail}
        for desc, ok, detail in checks
    ]
    for desc, ok, detail in checks:
        mark = "ok " if ok else "FAIL"
        suffix = f"  ({detail})" if detail and not ok else ""
        lines.append(f"  {mark} {desc}{suffix}")
    report["passed"] = passed
    lines.append(f"result: {'PASS' if passed else 'FAIL'} "
                 f"({sum(1 for _d, ok, _x in checks if ok)}/{len(checks)})")
    return _emit(report, lines, args.output)


# ---------------------------------------------------------------- generate


def cmd_generate(args) -> int:
    _check_seed(args.seed)
    if args.spec in bundled_names():
        if args.seed is None:
            payload = load_bundled(args.spec).to_dict()
        else:
            payload = random_instance_dict(bundled_spec(args.spec), args.seed)
    else:
        parse_graph_spec(args.spec)  # reject malformed specs first
        if args.seed is None:
            raise ValidationError(
                "family specs need --seed so the weights are reproducible"
            )
        payload = random_instance_dict(args.spec, args.seed)
    if args.output:
        with _open_output(args.output) as handle:
            _write_json(payload, handle, args.output)
    else:
        with _writing_stdout() as stdout:
            stdout.writelines(_json_chunks(payload))
            stdout.write("\n")
    return 0
