"""Command-line front end: verification sweeps, exact evaluation, convergence tables.

Three subcommands:

* ``verify KIND`` -- run an identity check over a Cartesian parameter grid
  and emit a JSON report (or CSV rows with ``--format csv``) on stdout.
* ``eval KIND`` -- print one exact value as ``numerator/denominator`` plus a
  float rendering.
* ``converge`` -- CSV table comparing truncated star sums against the
  closed form along a growing cutoff schedule.

Exit codes: 0 all checks passed, 1 at least one exact mismatch (a bug, or a
falsified identity), 2 malformed parameters or usage.  Diagnostics go to
stderr; reports go to stdout.

An s/t-identity sweep always runs serially on one shared ``ZetaCache``
(loaded from ``--cache`` when given): its cases reuse each other's tables.
The other kinds keep no zeta tables and reject ``--cache``; so does a cache
file that cannot be read, was written by an older version or fails its
consistency check (exit 2).
The kinds whose cases share nothing (``gen``, ``symmetric``, ``frs``,
``frt``) run in up to ``MZV_THREADS`` worker processes (default 1, serial),
capped at the CPU count and the number of cases; a value that is not an
integer >= 1 exits 2.
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
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import closedform, harmonic, series, zeta
from .indices import AbcParams

VERIFY_KINDS = ("s-identity", "t-identity", "gen", "symmetric", "frs", "frt", "homomorphism")
EVAL_KINDS = ("zeta", "zeta-star", "s", "s-star", "t", "t-star", "bernoulli", "beta", "closed")

class UsageError(Exception):
    """Bad parameters: reported on stderr, exit code 2."""


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
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--abc: expected three comma-separated integers, got {text!r}")
    try:
        a, b, c = (int(p) for p in parts)
        return AbcParams(a, b, c)
    except ValueError as exc:
        raise UsageError(f"--abc: {exc}") from None


def _parse_pair(text: str, name: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{name}: expected two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"{name}: expected integers, got {text!r}") from None


def _parse_index(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--index: expected comma-separated integers, got {text!r}") from None


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _range_str(values: list[int]) -> str:
    return f"{values[0]}..{values[-1]}" if len(values) > 1 else str(values[0])


def _threads() -> int:
    raw = os.environ.get("MZV_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise UsageError(f"MZV_THREADS: expected an integer >= 1, got {raw!r}")
    return threads


# Workers are module-level so the process pool can pickle them.

def _series_case(args) -> dict:
    kind, a, b, c, m, bx, by = args
    params = AbcParams(a, b, c)
    fn = series.check_star_factorization if kind == "gen" else series.check_symmetric_form
    rep = fn(m, params, (bx, by))
    return {"m": m, "equal": rep.equal, "mismatches": rep.mismatches}


def _word_case(args) -> dict:
    kind, a, b, c, p, q = args
    params = AbcParams(a, b, c)
    fn = harmonic.verify_identity_s_symbolic if kind == "frs" else harmonic.verify_identity_t_symbolic
    rep = fn(p, q, params)
    return {"p": p, "q": q, "lhs_terms": rep.lhs_terms, "rhs_terms": rep.rhs_terms, "equal": rep.equal}


def _map_cases(worker, arglist) -> list[dict]:
    workers = min(_threads(), os.cpu_count() or 1, len(arglist))
    if workers > 1:
        chunk = max(1, len(arglist) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, arglist, chunksize=chunk))
    return [worker(args) for args in arglist]


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
        fn = zeta.verify_identity_s if kind == "s-identity" else zeta.verify_identity_t
        cases = []
        for p, q, m in itertools.product(ps, qs, ms):
            rep = fn(p, q, m, params, cache)
            cases.append({"p": p, "q": q, "m": m, "lhs": _frac_str(rep.lhs),
                          "rhs": _frac_str(rep.rhs), "equal": rep.equal})
        _save_cache(ns.cache, cache)
    elif kind in ("gen", "symmetric"):
        bx, by = _parse_pair(ns.bounds, "--bounds")
        if bx < 0 or by < 0:
            raise UsageError("--bounds: bounds must be non-negative")
        report_params.update(m=_range_str(ms), bounds=f"{bx},{by}")
        grid = [(kind, params.a, params.b, params.c, m, bx, by) for m in ms]
        cases = _map_cases(_series_case, grid)
    elif kind in ("frs", "frt"):
        report_params.update(p=_range_str(ps), q=_range_str(qs))
        grid = [(kind, params.a, params.b, params.c, p, q) for p in ps for q in qs]
        cases = _map_cases(_word_case, grid)
    else:  # homomorphism
        if ns.count < 1:
            raise UsageError(f"--count: expected an integer >= 1, got {ns.count}")
        report_params.update(m=_range_str(ms), count=ns.count, seed=ns.seed)
        rng = random.Random(ns.seed)
        cache = zeta.ZetaCache()
        cases = []
        for _ in range(ns.count):
            u = harmonic.HPoly.word(tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 4))))
            v = harmonic.HPoly.word(tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 4))))
            product = harmonic.harmonic_mul(u, v)
            for m in ms:
                lhs = harmonic.z_eval(product, m, cache)
                rhs = harmonic.z_eval(u, m, cache) * harmonic.z_eval(v, m, cache)
                cases.append({"m": m, "u": repr(u), "v": repr(v),
                              "lhs": _frac_str(lhs), "rhs": _frac_str(rhs), "equal": lhs == rhs})

    if os.environ.get("MZV_CORRUPT_IDENTITY") and cases:
        # Test hook: falsify one case so the mismatch exit path can be
        # exercised end to end without a real bug.
        first = cases[0]
        if "lhs" in first:
            lhs_n, lhs_d = first["lhs"].split("/")
            first["lhs"] = _frac_str(Fraction(int(lhs_n) + int(lhs_d), int(lhs_d)))
            first["equal"] = first["lhs"] == first["rhs"]
        else:
            first["equal"] = False

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
    if path and os.path.exists(path):
        try:
            return zeta.ZetaCache.load(path)
        except Exception as exc:  # unpickling can fail in any way a bad file allows
            raise UsageError(f"--cache: cannot read {path}: {type(exc).__name__}: {exc}") from None
    return zeta.ZetaCache()


def _save_cache(path, cache) -> None:
    if path:
        cache.save(path)


def _emit_report(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(report, out, indent=2)
        out.write("\n")
    else:
        fields = list(report["cases"][0].keys()) if report["cases"] else ["equal"]
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(report["cases"])


def _run_eval(ns, out) -> int:
    kind = ns.kind
    if kind in ("zeta", "zeta-star"):
        if ns.index is None or ns.m is None:
            raise UsageError(f"eval {kind} requires --index and --m")
        idx = _parse_index(ns.index)
        fn = zeta.zeta_trunc if kind == "zeta" else zeta.zeta_star_trunc
        value = fn(idx, ns.m)
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
        fn = closedform.s_closed if ns.closed_kind == "s" else closedform.s_star_closed
        coeff = fn(ns.p, ns.q)
        out.write(f"{coeff}\n~ {float(coeff)!r}\n")
        return 0
    out.write(f"{_frac_str(value)}\n~ {float(value)!r}\n")
    return 0


def _run_converge(ns, out) -> int:
    try:
        schedule = [int(v) for v in ns.m.split(",")]
    except ValueError:
        raise UsageError(f"--m: expected comma-separated integers, got {ns.m!r}") from None
    params = _parse_abc(ns.abc)
    try:
        rows = closedform.converge_report(ns.p, ns.q, schedule, params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    writer = csv.writer(out)
    writer.writerow(["m", "truncated_over_pi_power", "closed_form", "abs_error"])
    for row in rows:
        writer.writerow([row.m, repr(row.truncated_over_pi_power), repr(row.closed_form), repr(row.abs_error)])
    return 0


@functools.cache  # built once per process: rebuilding cost more than a small sweep
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    out = sys.stdout
    try:
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
