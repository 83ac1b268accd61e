"""Command-line driver: polynomial tables, tower inspection, lemma
verification, suite aggregation, and brute-force oracles.

Exit codes: 0 pass, 1 fail, 2 undetermined/not-stabilized, 64 usage or
configuration error, 70 internal error, 141 stdout closed by its reader.
A verdict's code is its report's status (``STATUS_EXIT``): the verifiers
decide UNDETERMINED themselves and raise nothing for it.  ``main`` is the
one place that maps any other outcome to its exit code, and returns it,
the same way for every command: a usage error (argparse's too) is 64,
``NotStabilized`` from ``tower-info`` or ``oracle`` is 2, and any other
exception that escapes a command is a crash, 70, never a mathematical
FAIL; each is one line of stderr.  A reader that closes stdout before
the command has written it all (``wittlab tower-info ... | head -1``) is
no fault of the program: the command ends with 141, 128 + SIGPIPE as a
shell reports a writer that signal ends, and writes nothing to stderr.
A fixed seed makes every run byte-reproducible; the aggregate suite
report carries no timing so that repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time
from pathlib import Path

from . import cohomlab, localfield, wittcore

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDETERMINED = 2
EXIT_CONFIG = 64
EXIT_CRASH = 70
EXIT_PIPE = 141  # 128 + SIGPIPE

# the named towers: one JSON description per name, the file stem
TOWER_DIR = Path(__file__).resolve().parent / "towers"
# the default suite's towers, named so that a new file leaves it unchanged
DEFAULT_TOWERS = ("q2_i", "q2_sqrt2", "q2_sqrt_minus2", "q3_ramified")

LEMMA_IDS = tuple(cohomlab.VERIFIERS)


class _Exit(Exception):
    """A command's outcome other than a verdict: an exit code and the
    one-line message ``main`` writes after the command's name."""

    def __init__(self, code: int, line: str):
        super().__init__(line)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _Exit(EXIT_CONFIG, f"{self.prog}: error: {message}")


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to the file ``path``; an unwritable path is a usage error."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _Exit(EXIT_CONFIG, f"cannot write {path}: {exc.strerror or _crash_line(exc)}") from None


def _write_json(path: str | None, obj: dict) -> None:
    blob = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        _write_text(path, blob)
    else:
        sys.stdout.write(blob)


@contextlib.contextmanager
def _malformed(context: str = ""):
    """Malformed input: a ValueError or OSError in the block is a usage error."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise _Exit(EXIT_CONFIG, f"{context}{exc}") from None


def _crash_line(exc: Exception) -> str:
    """The exception type and the first line of its message."""
    lines = str(exc).splitlines()
    return f"{type(exc).__name__}: {lines[0]}" if lines else type(exc).__name__


# a verdict's exit code; a suite's status is its worst cell's, the largest code
STATUS_EXIT = {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL, "UNDETERMINED": EXIT_UNDETERMINED}


def cmd_polys(args) -> int:
    try:
        with _malformed():
            tables = wittcore.dump_tables(args.p, args.n)
            wittcore.ctx_for(args.p, args.n).verify_ghost_identities()
    except (wittcore.IntegralityViolation, wittcore.DegreeAuditFailure) as exc:
        raise _Exit(EXIT_FAIL, str(exc)) from None
    _write_json(args.out, tables)
    print(f"content hash: {tables['content_hash']}")
    if tables["pfold"]:
        pf = wittcore.pfold_decomposition(args.p, args.n)
        print(f"sign convention: {pf.sign_convention}")
        for l in range(1, args.n + 1):
            deg = pf.carry_polys[l - 1].min_monomial_degree()
            line = f"level {l}: carry min degree {deg}"
            if l >= 2:
                line += f", residual min degree {pf.residual_for_level(l).min_monomial_degree()}"
            print(line)
    print("degree audits: PASS")
    return EXIT_PASS


def _tower(ref, context: str = "", **overrides) -> localfield.ExtensionTower:
    """The tower of a name in ``TOWER_DIR``, a description file or an inline
    description object, with ``N`` (``--precision``: "auto" or an integer
    string) or ``seed`` replaced by ``overrides``.  A description that
    cannot be read or built is a usage error, its line led by ``context``."""
    if overrides.get("N", "auto") != "auto":
        try:
            overrides["N"] = int(overrides["N"])
        except ValueError:
            raise _Exit(
                EXIT_CONFIG, f'--precision must be "auto" or an integer, got {overrides["N"]!r}'
            ) from None
    with _malformed(context):
        if isinstance(ref, dict):
            return localfield.tower_from_obj(ref, **overrides)
        named = sorted(path.stem for path in TOWER_DIR.glob("*.json"))
        if ref in named:
            ref = str(TOWER_DIR / f"{ref}.json")
        elif not Path(ref).is_file():
            raise ValueError(
                f"{ref!r} is neither a named tower nor a file; named towers: {', '.join(named)}"
            )
        return localfield.load_tower(ref, **overrides)


def _args_overrides(args) -> dict:
    """``--precision`` and ``--seed``, where the command has them and they
    are given."""
    overrides = {"N": args.precision} if args.precision else {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return overrides


def _run(lemma: str, tower, tower_name: str | None = None, **kwargs):
    """``lemma``'s report on ``tower``, whose status is the verdict.  A Witt
    length out of range is a usage error, refused before anything is
    drawn; any other exception is a crash whose line names the lemma,
    and ``tower_name`` where given (a suite cell)."""
    where = lemma if tower_name is None else f"{lemma} on {tower_name}"
    try:
        return cohomlab.VERIFIERS[lemma](tower, **kwargs)
    except cohomlab.WittLengthOutOfRange as exc:
        raise _Exit(EXIT_CONFIG, str(exc) if tower_name is None else f"{where}: {exc}") from None
    except Exception as exc:
        raise _Exit(EXIT_CRASH, f"{where} crashed: {_crash_line(exc)}") from None


def cmd_tower_info(args) -> int:
    tower = _tower(args.tower, **_args_overrides(args))
    info = {
        "tower_hash": tower.tower_hash,
        "p": tower.p,
        "N": tower.N,
        "N_internal": tower.N_int,
        "e_K": tower.e_K,
        "e_L": tower.e_L,
        "ramification_break": tower.s,
        "val_cap": tower.val_cap,
        "strict_break_regime": tower.strict_break_regime(),
        "stable_witt_length": cohomlab.stable_witt_length(tower.s, tower.p),
        "h1_order_level1": cohomlab.h1_order_level1(tower),
    }
    if args.json or args.out:
        _write_json(args.out, info)
    if not args.json:
        for key, value in info.items():
            print(f"{key}: {value}")
    return EXIT_PASS


def cmd_verify(args) -> int:
    if args.lemma not in cohomlab.VERIFIERS:
        raise _Exit(
            EXIT_CONFIG, f"unknown lemma id {args.lemma!r}; known: {', '.join(LEMMA_IDS)}"
        )
    if args.samples < 1:
        raise _Exit(EXIT_CONFIG, f"--samples must be at least 1, got {args.samples}")
    tower = _tower(args.tower, **_args_overrides(args))
    t0 = time.perf_counter()
    report = _run(args.lemma, tower, samples=args.samples, seed=args.seed, n=args.n)
    report.runtime_ms = int((time.perf_counter() - t0) * 1000)
    _write_json(args.out, report.to_obj())
    extra = f" sign={report.sign_convention}" if report.sign_convention else ""
    if "M" in report.params:  # main, and its n where it runs at another length
        extra += "".join(f" {k}={report.params[k]}" for k in ("M", "n") if k in report.params)
    print(
        f"{args.lemma} on {args.tower}: {report.status} "
        f"({len(report.failures)} failures, {report.runtime_ms} ms){extra}"
    )
    return STATUS_EXIT[report.status]


def _default_manifest() -> dict:
    return {
        "towers": list(DEFAULT_TOWERS),
        "lemmas": list(LEMMA_IDS),
        "samples": 200,
        "seed": 2026,
    }


def cmd_suite(args) -> int:
    manifest = default = _default_manifest()
    if args.manifest:
        with _malformed("cannot read manifest: "):
            manifest = localfield.read_json(args.manifest)
    with _malformed():  # a manifest's keys are the default one's
        localfield.check_keys(manifest, "manifest", tuple(default))
    towers, lemmas = (manifest.get(key) or [] for key in ("towers", "lemmas"))
    if not towers or not lemmas:
        raise _Exit(EXIT_CONFIG, "manifest must list towers and lemmas")
    if not isinstance(towers, list) or not isinstance(lemmas, list):
        raise _Exit(EXIT_CONFIG, "manifest towers and lemmas must be JSON arrays")
    for tower_ref in towers:
        # a name or path, or an inline description; anything else (a
        # number would be opened as a file descriptor) is refused here
        if not isinstance(tower_ref, (dict, str)):
            raise _Exit(
                EXIT_CONFIG,
                f"a manifest tower must be a name, a path or an object, "
                f"got {json.dumps(tower_ref)}",
            )
        # the name heads a column of the printed table and a CSV field
        name = tower_ref.get("name", "") if isinstance(tower_ref, dict) else Path(tower_ref).stem
        if not isinstance(name, str):
            raise _Exit(
                EXIT_CONFIG, f"an inline tower name must be a string, got {json.dumps(name)}"
            )
        if not name.isprintable():
            raise _Exit(
                EXIT_CONFIG, f"a manifest tower name must be printable, got {json.dumps(name)}"
            )
        if not name and isinstance(tower_ref, dict) and "name" in tower_ref:
            raise _Exit(EXIT_CONFIG, "an inline tower name must not be empty")
    for i, lemma in enumerate(lemmas):
        if not isinstance(lemma, str) or lemma not in cohomlab.VERIFIERS:
            raise _Exit(EXIT_CONFIG, f"unknown lemma id {lemma!r}")
        # the table has one row per lemma
        if lemma in lemmas[:i]:
            raise _Exit(EXIT_CONFIG, f"manifest lists lemma {lemma!r} twice")
    samples, seed = (manifest.get(key, default[key]) for key in ("samples", "seed"))
    for key, value in (("samples", samples), ("seed", seed)):
        if type(value) is not int:
            raise _Exit(EXIT_CONFIG, f"manifest {key} must be an integer, got {value!r}")
    if samples < 1:
        raise _Exit(EXIT_CONFIG, f"manifest samples must be at least 1, got {samples}")

    built = {}  # tower name -> tower, in manifest order
    for tower_ref in towers:
        # every tower takes the manifest's seed, so one description has one
        # tower_hash in a manifest; an inline name is the suite's, not the tower's
        inline = isinstance(tower_ref, dict)
        context = "cannot build inline tower: " if inline else f"cannot load tower {tower_ref!r}: "
        ref = {k: v for k, v in tower_ref.items() if k != "name"} if inline else tower_ref
        tower = _tower(ref, context, seed=seed)
        tower_name = tower_ref.get("name", tower.tower_hash[:12]) if inline else Path(tower_ref).stem
        # the table has one column per name
        if tower_name in built:
            raise _Exit(EXIT_CONFIG, f"manifest lists two towers named {tower_name!r}")
        built[tower_name] = tower

    cells = []
    summary = {}  # (tower, lemma) -> status, failures, least margin ("" without margins)
    for tower_name, tower in built.items():
        for lemma in lemmas:
            report = _run(lemma, tower, tower_name, samples=samples, seed=seed)
            cell = {
                "tower": tower_name,
                "tower_hash": tower.tower_hash,
                "lemma": lemma,
                "status": report.status,
                "samples": samples,
                "seed": seed,
                "failures": len(report.failures),
                "margins": report.margins,
                "sign_convention": report.sign_convention,
            }
            cells.append(cell)
            summary[tower_name, lemma] = (
                report.status, cell["failures"], min(report.margins.values(), default="")
            )
    worst = max((c["status"] for c in cells), key=STATUS_EXIT.__getitem__)
    aggregate = {
        "config": {"samples": samples, "seed": seed, "lemmas": lemmas},
        "cells": cells,
        "status": worst,
    }
    _write_json(args.out, aggregate)
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("tower", "lemma", "status", "samples", "failures", "worst_margin"))
        writer.writerows(
            (tower_name, lemma, status, samples, failures, margin)
            for (tower_name, lemma), (status, failures, margin) in summary.items()
        )
        _write_text(args.csv, buf.getvalue())

    # a column is as wide as its head and its cells, at least 14, and its
    # head starts two places left of its cells
    names = sorted(built)
    text = {
        key: status if margin == "" else f"{status} m={margin}"
        for key, (status, _, margin) in summary.items()
    }
    widths = [max(14, len(name), *(len(text[name, lemma]) for lemma in lemmas)) for name in names]
    width = max(len(l) for l in lemmas) + 2
    print("".ljust(width) + "  ".join(n.ljust(w) for n, w in zip(names, widths)))
    for lemma in lemmas:
        row = (text[name, lemma].ljust(w) for name, w in zip(names, widths))
        print("  ".join([lemma.ljust(width), *row]).rstrip())
    print(f"suite status: {worst}")
    return STATUS_EXIT[worst]


def cmd_oracle(args) -> int:
    tower = _tower(args.tower, **_args_overrides(args))
    with _malformed():
        cohomlab.check_enumeration_domain(tower, max(cohomlab.ENUMERATION_DIGITS))
    # one enumeration of O_L per digit count, shared by both oracles
    enumerations = {
        digits: cohomlab.enumerate_maps(tower, digits)
        for digits in cohomlab.ENUMERATION_DIGITS
    }
    ok = True
    if args.what in ("h1", "all"):
        # OrderMismatch (a crash, 70) unless the three exact counts agree
        fast = cohomlab.h1_order_level1(tower)
        counts = " ".join(f"{k}={v}" for k, v in cohomlab.level1_counts(tower).items())
        slow = cohomlab.h1_order_enumeration_stable(tower, enumerations)
        match = fast == slow
        ok &= match
        print(f"h1 order: {counts} enumeration={slow} match={match}")
    if args.what in ("linsolve", "all"):
        results = {
            digits: cohomlab.linsolve_matches_enumeration(tower, digits, maps)
            for digits, maps in enumerations.items()
        }
        for digits, result in results.items():
            for key, value in sorted(result.items()):
                ok &= value
                print(f"linsolve vs enumeration (digits={digits}) {key}: {value}")
    print(f"oracle status: {'PASS' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="wittlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_polys = sub.add_parser("polys", help="generate and audit polynomial tables")
    p_polys.add_argument("--p", type=int, required=True)
    p_polys.add_argument("--n", type=int, required=True)
    p_polys.add_argument("--out", default=None)
    p_polys.set_defaults(fn=cmd_polys)

    p_info = sub.add_parser("tower-info", help="build a tower and print its data")
    p_info.add_argument("--tower", required=True, help="path or named tower")
    p_info.add_argument("--precision", default=None, help='"auto" or an integer')
    p_info.add_argument("--seed", type=int, default=None)
    p_info.add_argument("--json", action="store_true")
    p_info.add_argument("--out", default=None)
    p_info.set_defaults(fn=cmd_tower_info)

    p_verify = sub.add_parser("verify", help="run one lemma verifier")
    p_verify.add_argument("--lemma", required=True)
    p_verify.add_argument("--tower", required=True)
    default = _default_manifest()
    p_verify.add_argument("--samples", type=int, default=default["samples"])
    p_verify.add_argument("--seed", type=int, default=default["seed"])
    p_verify.add_argument("--n", type=int, default=None, help=(
        "Witt length, covered by the tower's precision and at least 1 (main: M; step_bounds, "
        "carry_identity: 2; residual_invariant: 3); default main M, step_bounds 4, "
        "fixed_points 3, carry_identity 4 at p=2, 3 at p=3 and 2 above, residual_invariant "
        "the larger of that and 3; vktr/vksub: none"))
    p_verify.add_argument("--precision", default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    p_suite = sub.add_parser("suite", help="run the full verification table")
    p_suite.add_argument("--manifest", default=None)
    p_suite.add_argument("--out", default=None)
    p_suite.add_argument("--csv", default=None)
    p_suite.set_defaults(fn=cmd_suite)

    p_oracle = sub.add_parser("oracle", help="brute-force cross-checks")
    p_oracle.add_argument("--tower", required=True)
    p_oracle.add_argument("--what", choices=("h1", "linsolve", "all"), default="all")
    p_oracle.add_argument("--precision", default=None)
    p_oracle.set_defaults(fn=cmd_oracle)

    return parser


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at os.devnull, so that the
    interpreter's final flush of what is still buffered does not raise
    BrokenPipeError again; a stdout with no descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    """Run one command; the only place an outcome becomes an exit code."""
    where = ""  # a refusal by the parser names its own program
    try:
        args = build_parser().parse_args(argv)
        where = f"{args.command}: "
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_PIPE
    except _Exit as exc:
        code, line = exc.code, str(exc)
    except cohomlab.NotStabilized as exc:
        code, line = EXIT_UNDETERMINED, str(exc)
    except Exception as exc:
        code, line = EXIT_CRASH, f"crashed: {_crash_line(exc)}"
    sys.stderr.write(f"{where}{line}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
