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
from .quaternion import format_components
from .szegedy import (
    build_walk,
    check_unitary_condition,
    direct_spectrum,
    full_spectrum,
    group_mus,
    lift_groups,
    nearest_mu,
    random_instance,
    vector_components,
)

DEFAULT_TOL = 1e-8


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
#: module itself uses: its C string encoder and ``repr``.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _value: "null",
}


@functools.lru_cache(maxsize=64)
def _table_template(indent: str, width: int, rows: int) -> str:
    """``%`` template of ``rows`` table rows at ``indent``: one ``%r`` per
    float, each row an array of ``width`` of them."""
    cells = ",\n".join([indent + "  %r"] * width)
    return (",\n" + indent).join([f"[\n{cells}\n{indent}]"] * rows)


def _json_chunks(value, indent: str = ""):
    """Yield ``json.dumps(value, indent=2)`` in pieces, for ``value``
    nested at ``indent``.

    A report holds only what is written here: dicts with string keys
    and lists, walked by exact type item by item; ``_SCALAR_TEXT``'s
    leaves, written by its primitives; and non-empty 2-D float64 arrays,
    tables written by one fill of a cached template, with ``tolist``'s
    bytes.  Anything else, a numpy scalar, a tuple or a record among
    them, raises TypeError (a non-string key does so in
    ``encode_basestring_ascii``).
    """
    inner = indent + "  "
    kind = type(value)
    if (kind is np.ndarray and value.dtype == float and value.ndim == 2
            and value.size):
        text = (_table_template(inner, value.shape[1], len(value))
                % tuple(value.ravel().tolist()))
        if "n" in text:  # repr gives nan, inf and -inf
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        yield f"[\n{inner}{text}\n{indent}]"
    elif kind is list and value:
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
    elif kind is dict and value:
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
    elif kind in _SCALAR_TEXT:
        yield _SCALAR_TEXT[kind](value)
    elif kind is list or kind is dict:
        yield "[]" if kind is list else "{}"
    else:
        raise TypeError(f"cannot serialize {kind.__name__} in a report")


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


def _emit(report: dict, lines, output: str | None) -> int:
    """Write ``lines`` (any iterable of text) to stdout, one newline
    after each, then ``report`` to ``output``; return the exit code."""
    # The file opens first, so an unwritable path prints no report, and
    # a vector's text is formatted only once its line is due.
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
_TEXT_ROWS = 512


def _vector_texts(labels: list[str], components: np.ndarray):
    """Yield the printed rows of each vector of a stack of ``components``
    (as ``szegedy.vector_components`` gives them): one ``label: entry``
    line per row, indented four spaces, entries as ``format_components``
    writes them, the lines of one vector joined by newlines.

    The stack is taken in blocks of whole vectors, at most
    ``_TEXT_ROWS`` rows each (one vector when a vector has more), as the
    texts are consumed, so only one block's non-zero components exist
    as Python floats at once.
    Each row's template is keyed by its zero mask, from a
    ``label x mask`` table of the labelled ``_ROW_PIECES``, and each
    vector is then one ``%`` (``%+g`` writes a NaN of either sign as
    ``+nan``, as ``format_components`` does)."""
    if not len(components):
        return
    prefixes = np.array(
        [f"    {label}: ".replace("%", "%%") for label in labels],
        dtype=object,
    )
    table = prefixes[:, None] + _ROW_PIECES
    rows = np.arange(len(labels))
    step = max(1, _TEXT_ROWS // len(labels))
    for start in range(0, len(components), step):
        block = components[start:start + step]
        present = block != 0.0
        templates = table[rows, present @ np.array([1, 2, 4, 8])]
        values = block[present].tolist()
        ends = np.cumsum(present.sum(axis=(1, 2))).tolist()
        for lines, begin, end in zip(templates.tolist(), [0] + ends, ends):
            yield "\n".join(lines) % tuple(values[begin:end])


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

    vector_lines = ()
    if unitarity.passed:
        spectrum = full_spectrum(
            instance.graph,
            instance.weights,
            want_oracle=args.oracle,
            want_eigenvectors=args.eigenvectors,
            tol=tol,
        )
        components = None
        if spectrum.eigenvectors is not None:
            components = vector_components(
                [item.vector for item in spectrum.eigenvectors]
            )
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
            texts = _vector_texts(_row_labels(instance.graph)[1], components)
            vector_lines = _spectrum_vector_lines(spectrum.eigenvectors, texts)
            passed = passed and all(item.residual <= tol
                                    for item in spectrum.eigenvectors)
    else:
        # --force on a non-unitary instance: direct path only.
        classes = direct_spectrum(instance.graph, instance.weights)
        report["spectrum"] = {"tree_case": "direct-only",
                              "classes": [cls.to_dict() for cls in classes]}
        lines.append("tree case: direct-only (spectral mapping skipped; "
                      "the unitarity condition fails)")
        lines.append("right spectrum via direct diagonalization:")
        for rep, mult, _sources in classes:
            lines.append(f"  {_fmt_c(rep):<24} multiplicity {mult}")
        passed = False

    report["passed"] = bool(passed)
    result = f"result: {'PASS' if passed else 'FAIL'}"
    return _emit(report, itertools.chain(lines, vector_lines, [result]),
                 args.output)


def _spectrum_vector_lines(items, texts):
    """Yield each eigenvector's heading line, then its text."""
    for item, text in zip(items, texts):
        mu_note = "" if item.mu is None else f" from mu {_fmt(item.mu)}"
        yield (f"  lambda {_fmt_c(item.lam)} [{item.origin}]{mu_note} "
               f"residual {item.residual:.3g}")
        yield text


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
        nearest = nearest_mu(distinct, args.mu)
        if nearest is None:
            available = ", ".join(_fmt(v) for v, _ in distinct)
            raise ValidationError(
                f"no base eigenvalue near {args.mu}; available: {available}"
            )
        targets = [nearest]
        boundary = ()

    groups = lift_groups(ops, targets, boundary)
    items = [item for group in groups for item in group.vectors]
    components = vector_components([item.vector for item in items])
    rels = [item.relative_residual for item in items]
    report["eigenvectors"] = [
        {"mu": item.mu, "lambda": [item.lam.real, item.lam.imag],
         "origin": item.origin, "residual": rel, "vector": table}
        for item, rel, table in zip(items, rels, components)
    ]
    passed = all(rel <= tol for rel in rels) and all(
        group.independent for group in groups if group.independent is not None
    )
    report["passed"] = bool(passed)
    result = f"result: {'PASS' if passed else 'FAIL'}"
    vector_lines = _lift_vector_lines(instance.graph, groups, dict(distinct),
                                      components, rels)
    return _emit(report, itertools.chain(lines, vector_lines, [result]),
                 args.output)


def _lift_vector_lines(graph, groups, counts, components, rels):
    """Yield each group's heading, the base and walk text of its vectors
    (walk components and relative residuals in ``components`` and
    ``rels``), and its independence verdict."""
    vertices, arcs = _row_labels(graph)
    texts = _vector_texts(arcs, components)
    base_texts = _vector_texts(vertices, vector_components(
        [item.base for group in groups for item in group.vectors
         if item.origin == "lift"]
    ))
    rels = iter(rels)
    for group in groups:
        mu = group.mu
        if mu is None:
            yield (f"lambda = {_fmt(group.lam.real)} eigenvectors (direct "
                   f"extraction, {len(group.vectors)} found):")
        else:
            yield (f"base eigenvalue mu = {_fmt(mu)} (psi multiplicity "
                   f"{counts[mu]}), lambda = {_fmt_c(group.lam)}")
        for index, item in enumerate(group.vectors):
            if item.origin == "lift":
                yield f"  base eigenvector {index // 2 + 1}:"
                yield next(base_texts)
            label = f"vector {index + 1}" if mu is None else item.origin
            yield f"  {label} (relative residual {next(rels):.3g}):"
            yield next(texts)
        if group.independent is not None:
            verdict = ("H-linearly independent" if group.independent
                       else "DEPENDENT")
            yield (f"  independence: the {len(group.vectors)} lifted "
                   f"vectors are {verdict}")


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
    for flag, value in (("--seed", args.seed), ("--count", args.count)):
        if args.instance is not None and value is not None:
            raise ValidationError(f"{flag} goes with --random only")
    first = args.seed or 0
    count = 1 if args.count is None else args.count
    _check_seed(first)
    for flag, value in (("--count", count), ("--samples", args.samples)):
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
        seeds = [first + i for i in range(count)]
        report, lines = _header("verify", tol, seeds=seeds)
        report["random"] = {"spec": args.random, "count": count}
        lines.append(f"random weightings of {args.random}: {count} "
                      f"instance(s) from seed {first}")
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


def cmd_examples(args) -> int:
    # Only examples runs the worked examples: other commands skip the import.
    from .examples import EXAMPLES_TOL, run_examples

    report, lines = _header("examples", EXAMPLES_TOL)
    checks = run_examples()
    passed = all(check.ok for check in checks)
    report["checks"] = [check._asdict() for check in checks]
    for desc, ok, detail in checks:
        mark = "ok " if ok else "FAIL"
        suffix = f"  ({detail})" if detail and not ok else ""
        lines.append(f"  {mark} {desc}{suffix}")
    report["passed"] = passed
    lines.append(f"result: {'PASS' if passed else 'FAIL'} "
                 f"({sum(check.ok for check in checks)}/{len(checks)})")
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
