"""Command-line front end: verification sweeps, exact evaluation, convergence tables.

Three subcommands:

* ``verify KIND`` -- run an identity check over a Cartesian parameter grid
  and emit a JSON report (or CSV rows with ``--format csv``) on stdout.
* ``eval KIND`` -- print one exact value as ``numerator/denominator`` plus a
  float rendering.
* ``converge`` -- CSV table comparing truncated star sums against the
  closed form along a growing cutoff schedule.

Exit codes: 0 all checks passed, 1 at least one exact mismatch (a bug, or a
falsified identity), and nothing else: the code comes from the checks alone.
2 malformed parameters or usage, or an input too large for the memory
(``MemoryError``) or too deep for the recursion limit (``RecursionError``).
Diagnostics go to stderr, one ``error:`` line per failure, also for what
argparse itself rejects (an unknown kind, a flag without its value); reports
go to stdout.

A call pays little around its check.  ``main`` parses with the sub-parser its
command word names (``_build_parser().commands``); only an empty argv, ``-h``
and a non-command word reach the top-level parser.  ``_emit_report`` writes
flat dicts with the C encoder, which ``json.dumps(indent=2)`` never uses.

Text crosses the boundary in two places each way.  Argument text becomes
values in ``_parse_ints`` (comma lists: ``--abc``, ``--bounds``,
``--index``, converge's ``--m``) and ``_parse_range`` (``lo..hi``).  Cases
carry exact ``Fraction`` values until ``_emit_report`` writes them as
``numerator/denominator`` for JSON and CSV alike; ``eval`` prints its one
value with the same ``_frac_str``.

Every sweep runs its cases serially in the calling process.  A gen /
symmetric sweep advances one ``series.GridSweep`` over its ascending
cutoffs, so each level is computed once and each cutoff's check reads it.  An
s/t-identity sweep is one ``ZetaCache.sweep_identities`` over its cells, with
the cache loaded from ``--cache`` when given and saved back afterwards: one
pass over the tail classes of every cell's families (star and strict
together) goes up the ascending cutoffs and yields each cutoff's
``IdentityReport``s, which are the cases.  The homomorphism sweep goes up its
cutoffs in one ``ZetaCache.sweep`` over every case's words, and each case
reads its values as the pass reaches its cutoff.  Both reports list the cases
per (p, q) or sample.  The other kinds keep no zeta values and reject ``--cache``
(exit 2).  So do an empty ``--cache`` path, one whose directory does not
exist, a cache file that cannot be read, was written by an older version
or fails a check, and a cache that cannot be written once the sweep is
done; each is reported before anything reaches stdout.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import closedform, harmonic, series, zeta
from .indices import AbcParams

VERIFY_KINDS = ("s-identity", "t-identity", "gen", "symmetric", "frs", "frt", "homomorphism")
EVAL_KINDS = ("zeta", "zeta-star", "s", "s-star", "t", "t-star", "bernoulli", "beta", "closed")

class UsageError(ValueError):
    """Bad parameters: reported on stderr, exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one-line ``UsageError``s; subparsers share the class."""

    def error(self, message):
        raise UsageError(message)


def _parse_ints(text: str, flag: str, count: int | None = None) -> tuple[int, ...]:
    """Comma-separated integers ('' gives ()); ``count``, when given, is the required length."""
    try:
        values = tuple(int(piece) for piece in text.split(",")) if text.strip() else ()
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated integers, got {text!r}") from None
    if count is not None and len(values) != count:
        raise UsageError(f"{flag}: expected {count} comma-separated integers, got {text!r}")
    return values


def _parse_range(text: str, name: str) -> list[int]:
    """Inclusive 'lo..hi' or a single value; always non-negative."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"{name}: expected 'lo..hi' or an integer, got {text!r}") from None
    if lo < 0 or hi < lo:
        raise UsageError(f"{name}: need 0 <= lo <= hi, got {text!r}")
    return list(range(lo, hi + 1))


def _parse_abc(text: str) -> AbcParams:
    values = _parse_ints(text, "--abc", 3)
    try:
        return AbcParams(*values)
    except ValueError as exc:
        raise UsageError(f"--abc: {exc}") from None


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _range_str(values: list[int]) -> str:
    return f"{values[0]}..{values[-1]}" if len(values) > 1 else str(values[0])


def _series_case(check, params, bounds, sweep, m) -> dict:
    rep = check(m, params, bounds, sweep=sweep)
    return {"m": m, "equal": rep.equal, "mismatches": rep.mismatches}


def _word_case(check, params, p, q) -> dict:
    rep = check(p, q, params)
    return {"p": p, "q": q, "lhs_terms": rep.lhs_terms, "rhs_terms": rep.rhs_terms, "equal": rep.equal}


def _homomorphism_case(u, v, product, cache, m) -> dict:
    lhs = harmonic.z_eval(product, m, cache)
    rhs = harmonic.z_eval(u, m, cache) * harmonic.z_eval(v, m, cache)
    return {"m": m, "u": repr(u), "v": repr(v), "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


def _map_cases(worker, arglist) -> list[dict]:
    """``worker(*args)`` for each argument tuple, in order."""
    return [worker(*args) for args in arglist]


def _run_verify(ns) -> tuple[dict, int]:
    params = _parse_abc(ns.abc)
    kind = ns.kind
    ps = _parse_range(ns.p, "--p")
    qs = _parse_range(ns.q, "--q")
    ms = _parse_range(ns.m, "--m")
    report_params = {
        "a": params.a, "b": params.b, "c": params.c,
        "p": None, "q": None, "m": None,
    }
    if ns.cache is not None and kind not in ("s-identity", "t-identity"):
        raise UsageError(f"--cache: only s-identity and t-identity use a zeta cache, not {kind}")
    t0 = time.perf_counter()

    if kind in ("s-identity", "t-identity"):
        report_params.update(p=_range_str(ps), q=_range_str(qs), m=_range_str(ms))
        cache = _load_cache(ns.cache)
        family = zeta.index_family_I if kind == "s-identity" else zeta.index_family_J
        by_cutoff = cache.sweep_identities(family, tuple(itertools.product(ps, qs)), params, ms)
        cases = [{"p": r.p, "q": r.q, "m": r.m, "lhs": r.lhs, "rhs": r.rhs, "equal": r.equal}
                 for cell in zip(*by_cutoff) for r in cell]
        _save_cache(ns.cache, cache)
    elif kind in ("gen", "symmetric"):
        bx, by = _parse_ints(ns.bounds, "--bounds", 2)
        if bx < 0 or by < 0:
            raise UsageError("--bounds: bounds must be non-negative")
        report_params.update(m=_range_str(ms), bounds=f"{bx},{by}")
        check = series.check_star_factorization if kind == "gen" else series.check_symmetric_form
        sweep = series.GridSweep(params.as_tuple(), (bx, by))  # advanced once over the ascending cutoffs
        cases = _map_cases(_series_case, [(check, params, (bx, by), sweep, m) for m in ms])
    elif kind in ("frs", "frt"):
        report_params.update(p=_range_str(ps), q=_range_str(qs))
        check = harmonic.verify_identity_s_symbolic if kind == "frs" else harmonic.verify_identity_t_symbolic
        cases = _map_cases(_word_case, [(check, params, p, q) for p in ps for q in qs])
    else:  # homomorphism
        if ns.count < 1:
            raise UsageError(f"--count: expected an integer >= 1, got {ns.count}")
        report_params.update(m=_range_str(ms), count=ns.count, seed=ns.seed)
        rng = random.Random(ns.seed)
        samples = []
        for _ in range(ns.count):
            u = harmonic.HPoly.word(tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 4))))
            v = harmonic.HPoly.word(tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 4))))
            samples.append((u, v, harmonic.harmonic_mul(u, v)))
        words = [w for sample in samples for poly in sample for w in poly.terms]
        cache = zeta.ZetaCache()
        by_cutoff = [[_homomorphism_case(u, v, product, cache, m) for u, v, product in samples]
                     for m in cache.sweep(words, False, ms)]
        cases = [case for sample in zip(*by_cutoff) for case in sample]

    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    all_passed = all(case["equal"] for case in cases)
    report = {
        "command": f"verify {kind}",
        "params": report_params,
        "cases": cases,
        "all_passed": all_passed,
        "elapsed_ms": elapsed_ms,
    }
    return report, (0 if all_passed else 1)


def _load_cache(path) -> zeta.ZetaCache:
    if path is None:
        return zeta.ZetaCache()
    if not path:
        raise UsageError("--cache: expected a file path, got ''")
    if os.path.exists(path):
        try:
            return zeta.ZetaCache.load(path)
        except Exception as exc:  # unpickling can fail in any way a bad file allows
            raise UsageError(f"--cache: cannot read {path}: {type(exc).__name__}: {exc}") from None
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"--cache: the directory of {path} does not exist")
    return zeta.ZetaCache()


def _save_cache(path, cache) -> None:
    if path:
        try:
            cache.save(path)
        except OSError as exc:
            raise UsageError(f"--cache: cannot write {path}: {type(exc).__name__}: {exc}") from None


# Line break and indentation as item separator: the C encoder writes a flat dict one item per line.
_FLAT_JSON = {pad: json.JSONEncoder(separators=(",\n" + pad, ": ")).encode for pad in ("  ", "    ", "      ")}


def _flat_json(d: dict, pad: str) -> str:
    """``json.dumps(d, indent=2)`` of a dict of scalars whose items sit at indentation ``pad``."""
    return f"{{\n{pad}{_FLAT_JSON[pad](d)[1:-1]}\n{pad[2:]}}}" if d else "{}"


def _emit_report(report: dict, fmt: str, out) -> None:
    """Write the report; every rational in a case becomes ``numerator/denominator`` text here."""
    cases = [{key: _frac_str(value) if type(value) is Fraction else value for key, value in case.items()}
             for case in report["cases"]]
    if fmt == "json":  # json.dumps(report, indent=2) + "\n", byte for byte, in one write
        case_list = ",\n    ".join(_flat_json(case, "      ") for case in cases)
        nested = {"params": _flat_json(report["params"], "    "),
                  "cases": f"[\n    {case_list}\n  ]" if cases else "[]"}
        # The scalars in one encoder call; an encoded item holds no raw line break, so the split is exact.
        scalars = iter(_FLAT_JSON["  "]({k: v for k, v in report.items() if k not in nested})[1:-1].split(",\n  "))
        items = ",\n  ".join(f'"{key}": {nested[key]}' if key in nested else next(scalars) for key in report)
        out.write(f"{{\n  {items}\n}}\n")
    else:
        writer = csv.DictWriter(out, fieldnames=list(cases[0]) if cases else ["equal"])
        writer.writeheader()
        writer.writerows(cases)


def _run_eval(ns, out) -> int:
    kind = ns.kind
    if kind in ("zeta", "zeta-star"):
        if ns.index is None or ns.m is None:
            raise UsageError(f"eval {kind} requires --index and --m")
        fn = zeta.zeta_trunc if kind == "zeta" else zeta.zeta_star_trunc
        value = fn(_parse_ints(ns.index, "--index"), ns.m)
    elif kind in ("s", "s-star", "t", "t-star"):
        if ns.p is None or ns.q is None or ns.m is None:
            raise UsageError(f"eval {kind} requires --p, --q and --m")
        params = _parse_abc(ns.abc)
        fn = {
            "s": zeta.s_direct, "s-star": zeta.s_star_direct,
            "t": zeta.t_direct, "t-star": zeta.t_star_direct,
        }[kind]
        value = fn(ns.p, ns.q, ns.m, params)
    elif kind == "bernoulli":
        if ns.n is None:
            raise UsageError("eval bernoulli requires --n")
        value = closedform.bernoulli(ns.n)
    elif kind == "beta":
        if ns.r is None:
            raise UsageError("eval beta requires --r")
        value = closedform.beta(ns.r)
    else:  # closed
        if ns.closed_kind is None or ns.p is None or ns.q is None:
            raise UsageError("eval closed requires --kind, --p and --q")
        closedform.check_closed_letters(_parse_abc(ns.abc))
        fn = closedform.s_closed if ns.closed_kind == "s" else closedform.s_star_closed
        coeff = fn(ns.p, ns.q)
        out.write(f"{coeff}\n~ {float(coeff)!r}\n")
        return 0
    out.write(f"{_frac_str(value)}\n~ {closedform._float_or_inf(value)!r}\n")
    return 0


def _run_converge(ns, out) -> int:
    schedule = _parse_ints(ns.m, "--m")
    rows = closedform.converge_report(ns.p, ns.q, schedule, _parse_abc(ns.abc))
    writer = csv.writer(out)
    writer.writerow(["m", "truncated_over_pi_power", "closed_form", "abs_error"])
    for row in rows:
        writer.writerow([row.m, repr(row.truncated_over_pi_power), repr(row.closed_form), repr(row.abs_error)])
    return 0


@functools.cache  # built once per process: rebuilding cost more than a small sweep
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mzvsums",
        description="Exact truncated multiple zeta(-star) sums and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run an identity check over a parameter grid")
    p_verify.add_argument("kind", choices=VERIFY_KINDS)
    p_verify.add_argument("--abc", default="3,1,2", help="letter triple a,b,c with a+b=2c, a>=2")
    p_verify.add_argument("--p", default="0..2", help="p range 'lo..hi' or single value")
    p_verify.add_argument("--q", default="0..2", help="q range")
    p_verify.add_argument("--m", default="0..10", help="cutoff range")
    p_verify.add_argument("--bounds", default="4,4", help="truncation box 'bx,by' (gen/symmetric)")
    p_verify.add_argument("--count", type=int, default=25, help="sample count (homomorphism)")
    p_verify.add_argument("--seed", type=int, default=0, help="sample seed (homomorphism)")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--cache", default=None, metavar="PATH",
                          help="persist zeta tables across runs (s/t-identity only; other kinds "
                               "and an unreadable file exit 2)")

    p_eval = sub.add_parser("eval", help="print one exact value")
    p_eval.add_argument("kind", choices=EVAL_KINDS)
    p_eval.add_argument("--index", default=None, help="comma-separated index entries (zeta kinds)")
    p_eval.add_argument("--m", type=int, default=None, help="cutoff")
    p_eval.add_argument("--p", type=int, default=None)
    p_eval.add_argument("--q", type=int, default=None)
    p_eval.add_argument("--n", type=int, default=None, help="Bernoulli subscript")
    p_eval.add_argument("--r", type=int, default=None, help="beta subscript")
    p_eval.add_argument("--abc", default="3,1,2")
    p_eval.add_argument("--kind", dest="closed_kind", choices=("s", "s-star"), default=None,
                        help="which closed form (eval closed)")

    p_conv = sub.add_parser("converge", help="truncated sums vs closed form (CSV)")
    p_conv.add_argument("--p", type=int, required=True)
    p_conv.add_argument("--q", type=int, required=True)
    p_conv.add_argument("--m", required=True, help="strictly increasing cutoffs 'm1,m2,...'")
    p_conv.add_argument("--abc", default="3,1,2")

    parser.commands = {"verify": p_verify, "eval": p_eval, "converge": p_conv}
    return parser


def main(argv=None) -> int:
    out = sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = _build_parser()
        command = parser.commands.get(argv[0]) if argv else None  # None: no argv, --help, or not a command
        ns = (parser.parse_args(argv) if command is None  # else skip the top-level hop to the same sub-parser
              else command.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
        if ns.command == "verify":
            report, code = _run_verify(ns)
            _emit_report(report, ns.format, out)
            n = len(report["cases"])
            status = "all passed" if report["all_passed"] else "MISMATCH FOUND"
            print(f"verify {ns.kind}: {n} cases, {status} ({report['elapsed_ms']} ms)", file=sys.stderr)
            return code
        if ns.command == "eval":
            return _run_eval(ns, out)
        return _run_converge(ns, out)
    except ValueError as exc:  # a UsageError, or a library function refusing its arguments
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # an input too large for the memory at hand is not a mismatch
        print("error: out of memory", file=sys.stderr)
        return 2
    except RecursionError:  # nor is one too deep for the recursion limit
        print("error: input too deep for the recursion limit", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
