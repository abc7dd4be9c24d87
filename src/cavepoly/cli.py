"""JSON document formats and the command-line surface.

An instance document carries exactly one of ``{"points": [[0, 3], [1, 2],
[2, 1]]}`` and ``{"rank": {"p": 2, "cage": [2, 3], "values": {"[]": 0,
"[1]": 2, ...}}}``, subsets keyed as sorted 1-based index lists.  A
polynomial document lists its terms in canonical order, which is
authoritative, and the canonical string.  ``_COMMANDS`` maps each command
to a handler ``(args, stdin) -> (output, status)``; ``_emit`` writes a
document.  Exit status: 0 success or equality, 1 inequality or a
cave-check false, 2 input or usage error, 3 internal error (a library
fault: one ``internal error: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import fields
from itertools import chain, repeat

from . import algorithms, genverify
from .core import (
    MAX_GROUND_SET,
    Polymatroid,
    mask_to_subset,
    points_from_rank,
    rank_from_points,
    validate_rank_function,
)
from .errors import (
    CavepolyError,
    DimensionMismatch,
    EmptyInput,
    InternalInvariantFailure,
    ParseError,
)
from .geometry import independence_points, is_cave, truncate
from .polyalg import (
    BinomialBasisPoly,
    MultiPoly,
    RationalPoly,
    canonical_order,
    canonical_string,
    expand_binomial,
)

EXIT_OK = 0
EXIT_UNEQUAL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _unique_keys(pairs):
    """Refuses a JSON object naming a key twice, whose last value would win."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError("key %s appears twice in one JSON object" % json.dumps(key))
            seen.add(key)
    return obj


def _load_document(text):
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("input is not UTF-8: %s" % exc)
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ParseError("invalid JSON: %s" % exc)
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    return doc


def _parse_point_list(raw):
    if not isinstance(raw, list) or not raw:
        raise ParseError('"points" must be a nonempty list of integer vectors')
    # One test over every coordinate; the loop names the first offender.
    if not ({*map(type, raw)} == {list} and {*map(type, chain.from_iterable(raw))} <= {int}
            and min(chain.from_iterable(raw), default=0) >= 0):
        for k, vec in enumerate(raw):
            if not isinstance(vec, list) or not all(isinstance(c, int) and not isinstance(c, bool) for c in vec):
                raise ParseError("points[%d] is not an integer vector" % k)
            if any(c < 0 for c in vec):
                raise ParseError("points[%d] has a negative coordinate" % k)
    points = list(map(tuple, raw))
    lengths = {len(q) for q in points}
    if len(lengths) != 1:
        raise ParseError("points have mixed lengths %s" % sorted(lengths))
    return points


def _parse_subset_key(key, p) -> int:
    """The bit mask of a subset key spelled other than compactly, e.g. "[1, 2]"."""
    try:
        subset = json.loads(key)
    except (json.JSONDecodeError, RecursionError):
        raise ParseError("bad subset key %r, expected e.g. \"[1,2]\"" % key)
    if not isinstance(subset, list) or not all(type(i) is int for i in subset):
        raise ParseError("bad subset key %r, expected a list of indices" % key)
    if subset != sorted(set(subset)) or any(not 1 <= i <= p for i in subset):
        raise ParseError("subset key %r is not a sorted set of indices in 1..%d" % (key, p))
    return sum(1 << i - 1 for i in subset)


def _subset_spellings(p) -> list:
    """The compact spelling "[1,2]" of each subset of 1..p, in mask order:
    the spellings without i, then each of them with ",i" appended, so entry
    m spells mask m.  One string concatenation per subset, O(p 2^p)
    characters, built per call."""
    spellings = ["["]
    for i in range(1, p + 1):
        tail = ",%d" % i
        spellings += ["[%d" % i] + [t + tail for t in spellings[1:]]
    return [t + "]" for t in spellings]


def _read_rank_values(raw_values, p) -> list:
    """The ranks of a "values" object in mask order.  An object of 2^p
    compactly spelled keys with integer ranks is read in one pass: every
    spelling is found, so its keys are exactly the 2^p subsets.  Any other
    object is read key by key, which names the first offending key or value."""
    spellings = _subset_spellings(p)
    values = list(map(raw_values.get, spellings))
    if len(raw_values) == len(spellings) and {*map(type, values)} <= {int}:
        return values
    masks, values = dict(zip(spellings, range(1 << p))), [None] * (1 << p)
    for key, val in raw_values.items():
        mask = masks.get(key)
        if mask is None:
            mask = _parse_subset_key(key, p)
        if values[mask] is not None:
            raise ParseError("subset key %r repeats a subset named by an earlier key" % key)
        if type(val) is not int:
            raise ParseError("rank of %s is not an integer" % key)
        values[mask] = val
    if None in values:
        raise ParseError("rank map missing subsets, e.g. %s" % (mask_to_subset(values.index(None)),))
    return values


def parse_instance(text) -> Polymatroid:
    """Parse and validate an instance document (bytes or str of UTF-8 JSON).
    A JSON boolean is never read as an integer."""
    doc = _load_document(text)
    has_points = "points" in doc
    has_rank = "rank" in doc
    if has_points == has_rank:
        raise ParseError('instance must carry exactly one of "points" or "rank"')
    if has_points:
        try:
            return Polymatroid(_parse_point_list(doc["points"]))
        except (EmptyInput, DimensionMismatch, ValueError) as exc:
            raise ParseError(str(exc))
    rank_doc = doc["rank"]
    if not isinstance(rank_doc, dict):
        raise ParseError('"rank" must be an object with "p", "cage" and "values"')
    for field in ("p", "cage", "values"):
        if field not in rank_doc:
            raise ParseError('"rank" is missing "%s"' % field)
    p = rank_doc["p"]
    if type(p) is not int or p < 1:
        raise ParseError('"p" must be a positive integer')
    if p > MAX_GROUND_SET:
        raise ParseError("ground sets larger than %d are not supported" % MAX_GROUND_SET)
    cage = rank_doc["cage"]
    if not isinstance(cage, list) or len(cage) != p or not all(type(c) is int for c in cage):
        raise ParseError('"cage" must be a list of %d integers' % p)
    raw_values = rank_doc["values"]
    if not isinstance(raw_values, dict):
        raise ParseError('"values" must map subset keys to integers')
    return points_from_rank(validate_rank_function(p, _read_rank_values(raw_values, p), cage))


def serialize_instance(P: Polymatroid) -> dict:
    """Point-form instance document; parses back to an equal polymatroid."""
    return {"points": [list(q) for q in P]}


def rank_document(P: Polymatroid) -> dict:
    """Rank-form instance document, subsets by size, then lex, spelled compactly."""
    rk = rank_from_points(P)
    spellings = _subset_spellings(rk.p)
    masks = sorted(range(1 << rk.p), key=lambda m: (m.bit_count(), mask_to_subset(m)))
    return {"rank": {"p": rk.p, "cage": list(rk.cage), "values": {spellings[m]: rk.values[m] for m in masks}}}


def polynomial_document(q, **extra) -> dict:
    """Term list in canonical order plus the canonical rendering, both read
    from the stored integers in one ``canonical_order``; an expanded term's
    "n/d" is its numerator over the denominator, reduced."""
    if isinstance(q, RationalPoly):
        basis, stored, d = "expanded", q.numerators, q.denominator
    elif isinstance(q, MultiPoly):
        basis, stored = "monomial", q.terms
    elif isinstance(q, BinomialBasisPoly):
        basis, stored = "binomial", q.terms
        extra.setdefault("shift", q.shift)
    else:
        raise TypeError("cannot serialize %r" % type(q).__name__)
    order = canonical_order(stored)
    coefficients = map(stored.__getitem__, order)
    if basis == "expanded":
        fractions = {v: "%d/%d" % (v // g, d // g) for v in {*stored.values()} for g in (math.gcd(v, d),)}
        coefficients = map(fractions.__getitem__, coefficients)
    doc = {"basis": basis, "p": q.p, **extra}
    doc["terms"] = [{"exponents": list(e), "coefficient": c} for e, c in zip(order, coefficients)]
    doc["canonical"] = canonical_string(q, order)
    return doc


_encode_string = json.encoder.encode_basestring_ascii
_encoder = json.JSONEncoder(indent=2)  # json.dumps(indent=2)'s settings


def _vector_texts(items, inner):
    """The texts of ``items`` at the indentation ``inner`` when they are all
    vectors (nonempty lists of exact ints), one ``%d`` format per length;
    else None."""
    if not ({*map(type, items)} == {list} and all(items) and {*map(type, chain.from_iterable(items))} == {int}):
        return None
    deeper = inner + "  "
    formats = {n: "[" + deeper + ("," + deeper).join(["%d"] * n) + inner + "]" for n in {*map(len, items)}}
    return map(str.__mod__, map(formats.__getitem__, map(len, items)), map(tuple, items))


def _uniform_items(items, inner):
    """The texts of a list's items under the uniform-list rule, or None
    when the rule does not cover the list: vectors, or dicts that share one
    nonempty sequence of str keys, each column all exact ints, all strs or
    all vectors, rendered column by column and then one format per record."""
    texts = _vector_texts(items, inner)
    if texts is not None or {*map(type, items)} != {dict}:
        return texts
    keys = tuple(items[0])
    if not keys or {*map(type, keys)} != {str} or {*map(tuple, items)} != {keys}:
        return None
    field = inner + "  "
    formats, columns = [], []
    for key, column in zip(keys, zip(*map(dict.values, items))):
        kinds = {*map(type, column)}
        if kinds == {int}:
            formats.append("%d")
        elif kinds == {str}:
            formats.append("%s")
            column = map(_encode_string, column)
        elif (column := _vector_texts(column, field)) is not None:
            formats.append("%s")
        else:
            return None
        formats[-1] = field + _encode_string(key).replace("%", "%%") + ": " + formats[-1]
        columns.append(column)
    return map(("{" + ",".join(formats) + inner + "}").__mod__, zip(*columns))


def _json_parts(value, parts, newline):
    """Append to ``parts`` the text ``json.dumps(value, indent=2)`` gives
    ``value``; ``newline`` is a line break and the indentation of ``value``.
    The writer's rule: strs, exact ints and nonempty dicts whose keys are
    all ``str`` are written here, the dicts key by key; a list that
    ``_uniform_items`` renders takes one part per item after its separator
    part, with no call per item; every other value is one part, the text
    of ``_encoder`` with its line breaks indented (its strings escape
    theirs)."""
    inner = newline + "  "
    if isinstance(value, str):
        parts.append(_encode_string(value))
    elif type(value) is int:
        parts.append(int.__repr__(value))
    elif isinstance(value, dict) and {*map(type, value)} == {str}:
        separator = "{" + inner
        for key, item in value.items():
            parts.append(separator + _encode_string(key) + ": ")
            _json_parts(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, list) and (items := _uniform_items(value, inner)) is not None:
        parts += chain.from_iterable(zip(chain(["[" + inner], repeat("," + inner)), items))
        parts.append(newline + "]")
    else:
        parts.append(_encoder.encode(value).replace("\n", newline))


_EMIT_CHUNK = 4096


def _emit(doc, out):
    """Write ``doc`` as ``json.dump(doc, indent=2)`` does, then a newline,
    whose ``indent`` would make ``json`` use its pure-Python encoder on the
    whole document: ``_json_parts``'s parts joined and written in chunks of
    at most ``_EMIT_CHUNK``, so a uniform list's text is never held whole."""
    parts = []
    _json_parts(doc, parts, "\n")
    parts.append("\n")
    for start in range(0, len(parts), _EMIT_CHUNK):
        out.write("".join(parts[start:start + _EMIT_CHUNK]))


def _read_source(path, stdin):
    if path in (None, "-"):
        data = stdin.read()
        return data if isinstance(data, (str, bytes)) else str(data)
    with open(path, "rb") as handle:
        return handle.read()


def _int_vector(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers, got %r" % text)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ``ParseError``, so that ``run_command``
    reports it on the stderr it was given; ``--help`` still exits 0."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavepoly",
        description="Exact polymatroid invariants: cave, stalactite, box and Mobius polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_command(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", nargs="?", default=None, help="instance JSON file ('-' or absent: stdin)")
        return cmd

    instance_command("validate", "parse an instance and report its shape")
    instance_command("points", "emit the base points")
    instance_command("independence", "emit the independence-region lattice points")
    instance_command("cave", "emit the cave polynomial")
    stal = instance_command("stal", "emit the stalactite polynomial")
    stal.add_argument("--order", type=_int_vector, default=None, help="coordinate priority permutation, e.g. 2,1")
    instance_command("box", "emit the box polynomial")
    mob = instance_command("mobius", "emit the Mobius polynomial")
    mob.add_argument("--table", action="store_true", help="include the Mobius value of every independence point")
    snap = instance_command("snapper", "emit the Snapper polynomial (binomial basis)")
    snap.add_argument("--expand", action="store_true", help="expand to the rational monomial form")
    snap.add_argument("--eval", type=_int_vector, default=None, dest="eval_at", metavar="T1,...,TP",
                      help="print the exact value at an integer vector instead")
    instance_command("equal", "compute all four polynomials and compare")
    trunc = instance_command("truncate", "emit the truncation at a point")
    trunc.add_argument("--at", type=_int_vector, required=True, help="truncation point, e.g. 1,1")
    cave_chk = instance_command("is-cave", "check the three cave conditions on a raw point set")
    cave_chk.add_argument("--order", type=_int_vector, default=None, help="lex order for the union condition")

    def generator_options(cmd, max_rank, max_cage_entry):
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--p", type=int, default=3)
        cmd.add_argument("--strategy", choices=genverify.STRATEGIES, default="submodular-rejection")
        cmd.add_argument("--max-rank", type=int, default=max_rank)
        cmd.add_argument("--max-cage-entry", type=int, default=max_cage_entry)

    generator_options(sub.add_parser("random", help="emit a random instance"), 5, 4)
    ver = sub.add_parser("verify", help="generate instances and verify the theorem suite")
    ver.add_argument("--count", type=int, default=25)
    generator_options(ver, 4, 3)
    return parser


def _on_instance(build):
    """The handler of a command that reads an instance P and exits 0 with ``build(P, args)``."""
    return lambda args, stdin: (build(parse_instance(_read_source(args.file, stdin)), args), EXIT_OK)


def _stal_document(P, args):
    order = algorithms.LexOrder(args.order) if args.order else algorithms.LexOrder.identity(P.p)
    return polynomial_document(algorithms.stalactite_polynomial(P, order), order=list(order.permutation))


def _mobius_document(P, args):
    doc = polynomial_document(algorithms.mobius_polynomial(P))
    if args.table:
        table = algorithms.mobius_table(P)
        doc["table"] = [{"point": list(n), "value": table[n]} for n in canonical_order(table.values)]
    return doc


def _snapper_output(P, args):
    snapper = algorithms.snapper_from_cave(P)
    target = expand_binomial(snapper) if args.expand else snapper
    if args.eval_at is not None:
        return "%s\n" % target.evaluate(args.eval_at)
    return polynomial_document(target)


def _equal(args, stdin):
    P = parse_instance(_read_source(args.file, stdin))
    cave = algorithms.cave_polynomial(P)
    others = {
        "stalactite": algorithms.stalactite_polynomial(P),
        "box": algorithms.box_polynomial(P),
        "mobius": algorithms.mobius_polynomial(P),
    }
    unequal = sorted(name for name, q in others.items() if q != cave)
    if not unequal:
        return "EQUAL\n", EXIT_OK
    lines = ["UNEQUAL", "cave: %s" % canonical_string(cave)]
    lines += ["%s: %s" % (name, canonical_string(others[name])) for name in unequal]
    return "\n".join(lines) + "\n", EXIT_UNEQUAL


def _is_cave(args, stdin):
    doc = _load_document(_read_source(args.file, stdin))
    if "points" not in doc:
        raise ParseError('is-cave expects a raw {"points": [...]} document')
    points = _parse_point_list(doc["points"])
    report = is_cave(points, algorithms.LexOrder(args.order) if args.order else None)
    return ({"is_cave": report.ok, "failed_condition": report.failed_condition, "witness": report.witness,
             "order": list(report.order)}, EXIT_OK if report.ok else EXIT_UNEQUAL)


def _config(args) -> genverify.GeneratorConfig:
    return genverify.GeneratorConfig(**{f.name: getattr(args, f.name) for f in fields(genverify.GeneratorConfig)})


def _verify(args, stdin):
    report = genverify.verify_campaign(_config(args), args.count)
    return report.to_document(), EXIT_OK if report.passed else EXIT_UNEQUAL


_COMMANDS = {
    "validate": _on_instance(lambda P, args: {"valid": True, **genverify.instance_descriptor(P)}),
    "points": _on_instance(lambda P, args: serialize_instance(P)),
    "independence": _on_instance(lambda P, args: {"points": [list(q) for q in independence_points(P)]}),
    "cave": _on_instance(lambda P, args: polynomial_document(algorithms.cave_polynomial(P))),
    "stal": _on_instance(_stal_document),
    "box": _on_instance(lambda P, args: polynomial_document(algorithms.box_polynomial(P))),
    "mobius": _on_instance(_mobius_document),
    "snapper": _on_instance(_snapper_output),
    "equal": _equal,
    "truncate": _on_instance(lambda P, args: serialize_instance(truncate(P, args.at))),
    "is-cave": _is_cave,
    "random": lambda args, stdin: (serialize_instance(genverify.random_polymatroid(_config(args))), EXIT_OK),
    "verify": _verify,
}


def run_command(argv, stdin=None, stdout=None, stderr=None) -> int:
    """Dispatch one CLI invocation; returns the exit status."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        try:
            with contextlib.redirect_stdout(stdout):  # --help prints to sys.stdout
                args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # usage errors raise ParseError instead
            return EXIT_INPUT if exc.code else EXIT_OK
        output, status = _COMMANDS[args.command](args, stdin)
        if isinstance(output, str):
            stdout.write(output)
        else:
            _emit(output, stdout)
        return status
    except InternalInvariantFailure as exc:
        stderr.write("internal error: %s\n" % exc)
        return EXIT_INTERNAL
    except (CavepolyError, ValueError, OSError) as exc:
        stderr.write("error: %s\n" % exc)
        return EXIT_INPUT
    except Exception as exc:  # any other escape is a library fault, never a verdict
        stderr.write("internal error: %r\n" % (exc,))
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
