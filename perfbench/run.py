"""Benchmark for mzvsums: four workloads, end-to-end metrics, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one child each
    python3 perfbench/run.py --record                  # rewrite perfbench/reference.json

Workloads are ``grid``, ``grid-pool``, ``algebra`` and ``deep`` (see
``workloads.py`` and ``README.md``).  The load is a closed loop with one
client: ops run back to back in this process, each an in-process
``mzvsums.cli.main(argv)`` call with stdout captured or, in ``deep``, a
public library call.  A round runs every op of the seed's plan once; whole
rounds run until about ``--seconds`` have passed, and at least three.

Each op's latency is the fastest of its runs, one per round, spread over
the whole run: the ops are deterministic, and a shared host's slow phases
only add time.  ``cases_per_s``, ``op_p50_s`` and ``op_tail_s`` are taken
over those per-op latencies, so the tail percentile is fixed by the plan's
size, not by how many rounds a run fits.

Every op's exact output is hashed (integers through ``int.to_bytes``) and
compared with the digest recorded in ``reference.json``; a sample of ops is
also re-derived along an independent route.  The last line of stdout is one
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``spans.py`` with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
TMP = os.path.join(ROOT, ".bench_tmp")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.GROUPS)
TAIL_LADDER = (99, 95, 90, 75, 50)
# An untraced run measures at least this many rounds, even past --seconds, so
# every op's latency is the fastest of at least this many runs.
MIN_ROUNDS = 3
SETUP_REPEATS = 9
SETUP_ROUNDS = 8
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import mzvsums, workloads; "
    "r = workloads.rounds(sys.argv[3], int(sys.argv[4])); [next(r) for _ in range(int(sys.argv[5]))]"
)


class BenchError(Exception):
    """The benchmark cannot run here: reported on stderr, exit code 2."""


def import_package():
    """Import ``mzvsums`` from ``src/`` of the checkout this file sits in, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "mzvsums", "__init__.py")):
        raise BenchError(f"no package at {os.path.relpath(SRC)}/mzvsums: run from a full checkout")
    sys.path.insert(0, SRC)
    import mzvsums
    from mzvsums import cli, closedform, harmonic, indices, series, zeta

    if os.path.dirname(os.path.dirname(os.path.abspath(mzvsums.__file__))) != SRC:
        raise BenchError(f"imported mzvsums from {mzvsums.__file__}, not from {SRC}")
    return {"indices": indices, "zeta": zeta, "series": series, "harmonic": harmonic,
            "closedform": closedform, "cli": cli, "mzvsums": mzvsums}


def clean_environment(workload: str) -> None:
    """Drop every inherited MZV_* variable and set only those the workload defines."""
    for key in [k for k in os.environ if k.startswith("MZV_")]:
        del os.environ[key]
    os.environ.update(workloads.ENV[workload])
    threads = int(os.environ.get("MZV_THREADS", "1"))
    if threads > nproc():
        raise BenchError(f"{workload} needs MZV_THREADS={threads} workers but only {nproc()} CPUs are usable")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# --- exact digests -------------------------------------------------------

def _feed(h, value) -> None:
    if isinstance(value, bool):
        h.update(b"T" if value else b"F")
    elif isinstance(value, int):
        n = (value.bit_length() + 8) // 8
        h.update(b"i" + n.to_bytes(8, "big") + value.to_bytes(n, "big", signed=True))
    elif isinstance(value, Fraction):
        h.update(b"q")
        _feed(h, value.numerator)
        _feed(h, value.denominator)
    elif isinstance(value, float):
        _feed(h, value.hex())
    elif isinstance(value, str):
        raw = value.encode()
        h.update(b"s" + len(raw).to_bytes(8, "big") + raw)
    elif isinstance(value, (tuple, list)):
        h.update(b"l" + len(value).to_bytes(8, "big"))
        for item in value:
            _feed(h, item)
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:16]


def op_key(op: tuple) -> str:
    if op[0] == "cli":
        return "cli " + " ".join(op[1])
    if op[0] == "lib":
        return f"{op[1]}{op[2]!r}"
    return op[0]


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


class OpFailure(Exception):
    """An op exited non-zero or returned a wrong value."""


# --- running ops ---------------------------------------------------------

class Runner:
    """Runs ops against the package and reduces each output to checked exact values."""

    def __init__(self, mods: dict):
        self.mods = mods
        self.cache_fixture = None
        self.cache_values = None

    def _cache_io_fixture(self):
        """A cache whose largest values pass 4300 decimal digits, filled once per process."""
        if self.cache_fixture is None:
            zeta = self.mods["zeta"]
            cache = zeta.ZetaCache()
            m = workloads.CACHE_IO_M
            self.cache_values = tuple(cache.zeta_star((2,) * r, m) for r in range(7))
            self.cache_fixture = cache
        return self.cache_fixture

    def prepare(self, op: tuple) -> None:
        """Untimed work an op needs before it can be timed."""
        if op[0] == "cache_io":
            self._cache_io_fixture()

    def run(self, op: tuple) -> tuple[float, int, tuple, int]:
        """Run one op: (wall seconds, cases, exact values, stdout bytes).  Raises OpFailure."""
        if op[0] == "cli":
            return self._run_cli(op[1])
        if op[0] == "lib":
            return self._run_lib(op[1], op[2])
        return self._run_cache_io()

    def run_cli_raw(self, argv) -> tuple[float, int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            code = self.mods["cli"].main(list(argv))
            wall = perf_counter() - t0
        return wall, code, out.getvalue(), err.getvalue()

    def _run_cli(self, argv) -> tuple[float, int, tuple, int]:
        wall, code, text, err = self.run_cli_raw(argv)
        if code != 0:
            raise OpFailure(f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}")
        if argv[0] == "verify":
            values = self._verify_values(argv[1], json.loads(text))
        elif argv[0] == "eval":
            first = text.splitlines()[0]
            rational, _, pi_power = first.partition(" * pi^")
            values = ((_frac(rational), int(pi_power or 0)),)
        else:  # converge
            rows = list(csv.reader(io.StringIO(text)))[1:]
            values = tuple(tuple(row) for row in rows)
            errors = [float(row[3]) for row in rows]
            if any(b >= a for a, b in zip(errors, errors[1:])):
                raise OpFailure("converge: errors do not shrink along the schedule")
        return wall, len(values), values, len(text)

    @staticmethod
    def _verify_values(kind: str, report: dict) -> tuple:
        cases = report["cases"]
        if not report["all_passed"] or not cases or not all(c["equal"] for c in cases):
            raise OpFailure(f"verify {kind}: not all cases passed")
        if kind in ("s-identity", "t-identity"):
            values = tuple((c["p"], c["q"], c["m"], _frac(c["lhs"]), _frac(c["rhs"])) for c in cases)
        elif kind == "homomorphism":
            values = tuple((c["m"], c["u"], c["v"], _frac(c["lhs"]), _frac(c["rhs"])) for c in cases)
        elif kind in ("gen", "symmetric"):
            values = tuple((c["m"], c["mismatches"]) for c in cases)
            if any(c["mismatches"] for c in cases):
                raise OpFailure(f"verify {kind}: mismatching coefficients")
            return values
        else:  # frs / frt
            values = tuple((c["p"], c["q"], c["lhs_terms"], c["rhs_terms"]) for c in cases)
            if any(v[2] != v[3] for v in values):
                raise OpFailure(f"verify {kind}: term counts differ")
            return values
        if any(v[-2] != v[-1] for v in values):
            raise OpFailure(f"verify {kind}: reported equal but lhs != rhs")
        return values

    def _run_lib(self, name: str, args: tuple) -> tuple[float, int, tuple, int]:
        module, _, attr = name.partition(".")
        fn = getattr(self.mods[module], attr)  # looked up per call, so trace wrappers apply
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        if isinstance(result, Fraction):
            return wall, 1, (result,), 0
        if isinstance(result, list):  # converge_report rows
            errors = [row.abs_error for row in result]
            if any(b >= a for a, b in zip(errors, errors[1:])):
                raise OpFailure(f"{name}: errors do not shrink along the schedule")
            return wall, len(result), tuple((r.m, r.truncated_over_pi_power, r.closed_form) for r in result), 0
        if not result.equal or result.lhs != result.rhs:  # IdentityReport
            raise OpFailure(f"{name}{args}: identity does not hold")
        return wall, 1, (result.lhs, result.rhs), 0

    def _run_cache_io(self) -> tuple[float, int, tuple, int]:
        cache = self._cache_io_fixture()
        zeta = self.mods["zeta"]
        os.makedirs(TMP, exist_ok=True)
        path = os.path.join(TMP, f"zeta-cache-{os.getpid()}.pkl")
        try:
            t0 = perf_counter()
            cache.save(path)
            loaded = zeta.ZetaCache.load(path)
            wall = perf_counter() - t0
        finally:
            if os.path.exists(path):
                os.remove(path)
        m = workloads.CACHE_IO_M
        values = tuple(loaded.zeta_star((2,) * r, m) for r in range(7))
        if values != self.cache_values:
            raise OpFailure("cache_io: loaded cache differs from the saved one")
        return wall, 1, values, 0

    # --- independent routes, run untimed on a sample of ops ---

    def cross_check(self, kind: str, op: tuple, values: tuple) -> None:
        """Re-derive one value of the op along a route the op did not use."""
        series, zeta, indices = self.mods["series"], self.mods["zeta"], self.mods["indices"]
        if kind == "zeta_star_trunc":
            k, m = op[2]
            got, expect = values[0], series.zeta_star_run_poly(m, 2, len(k)).coeff(len(k))
        elif kind in ("s-identity", "t-identity"):
            p, q, m, got, _ = values[0]
            params = _argv_params(op[1], indices)
            if kind == "s-identity":
                expect = series.extract_s(series.family_series_star(m, params, (2 * p, q))[0], p, q)
            else:
                expect = series.extract_t(series.family_series_star(m, params, (2 * p + 1, q))[1], p, q)
        elif kind in ("gen", "symmetric"):
            params = _argv_params(op[1], indices)
            m = values[0][0]
            f, g = series.family_series(m, params, (2, 1))
            got = (series.extract_s(f, 1, 1), series.extract_t(g, 0, 1))
            expect = (zeta.s_direct(1, 1, m, params), zeta.t_direct(0, 1, m, params))
        else:  # frs / frt
            p, q = values[0][:2]
            params = _argv_params(op[1], indices)
            family = indices.index_family_I if kind == "frs" else indices.index_family_J
            words = set()
            for word in family(p, q, params):
                words |= _merges(word)
            got, expect = values[0][2], len(words)
        if got != expect:
            raise OpFailure(f"{op_key(op)}: disagrees with the independent route")


def _argv_params(argv: tuple, indices):
    """The letter triple of a CLI op, with the CLI's default."""
    abc = argv[argv.index("--abc") + 1] if "--abc" in argv else "3,1,2"
    return indices.AbcParams(*map(int, abc.split(",")))


def _merges(word: tuple) -> set:
    """Every word made by summing runs of adjacent letters (the star expansion's support)."""
    if len(word) <= 1:
        return {word}
    return {(word[0],) + rest for rest in _merges(word[1:])} | _merges((word[0] + word[1],) + word[2:])


def _cross_check_kind(op: tuple) -> str | None:
    """The op's kind if ``Runner.cross_check`` has an independent route for it."""
    if op[0] == "cli" and op[1][0] == "verify" and op[1][1] != "homomorphism":
        return op[1][1]
    if op[0] == "lib" and op[1] == "zeta.zeta_star_trunc" and set(op[2][0]) == {2}:
        return "zeta_star_trunc"
    return None


# --- measurement ---------------------------------------------------------

def tail_percentile(n_ops: int) -> int:
    """The highest ladder percentile with at least ten of the run's ops beyond it."""
    return next((pct for pct in TAIL_LADDER if n_ops * (100 - pct) >= 1000), 50)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing mzvsums and generating the inputs."""
    argv = [sys.executable, "-I", "-c", SETUP_CODE, SRC, HERE, workload, str(seed), str(SETUP_ROUNDS)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=dict(os.environ), check=True, timeout=60)
        if i:  # the first start also writes bytecode caches
            times.append(perf_counter() - t0)
    return statistics.median(times)


def run_probe(runner: Runner) -> dict:
    wall, code, _, err = runner.run_cli_raw(workloads.PROBE_ARGV)
    lines = err.strip().splitlines()
    return {"argv": " ".join(workloads.PROBE_ARGV), "exit": code, "wall_s": round(wall, 3),
            "stderr": lines[-1] if lines else ""}


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its children (ru_maxrss is in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _timed_op(runner: Runner, tracer, op: tuple, traced_first: bool) -> tuple:
    """(wall, untraced wall, cases, values, stdout bytes) of one op.

    Traced, the op runs twice, untraced and traced, in the given order; the
    two outputs must agree and the traced wall is the op's wall.
    """
    runner.prepare(op)
    if tracer is None:
        wall, n, values, nbytes = runner.run(op)
        return wall, wall, n, values, nbytes
    results = {}
    for traced in ((True, False) if traced_first else (False, True)):
        if traced:
            with tracer.installed():
                results[traced] = runner.run(op)
        else:
            results[traced] = runner.run(op)
    if results[False][2] != results[True][2]:
        raise OpFailure("traced and untraced outputs differ")
    wall, n, values, nbytes = results[True]
    return wall, results[False][0], n, values, nbytes


def bench(workload: str, seed: int, seconds: float, traced: bool, min_rounds: int | None = None) -> dict:
    """One run.  Untraced runs measure at least MIN_ROUNDS rounds; traced runs, whose
    metrics are sums over all ops, at least one."""
    if min_rounds is None:
        min_rounds = 1 if traced else MIN_ROUNDS
    clean_environment(workload)
    mods = import_package()
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    setup_s = measure_setup(workload, seed)
    runner = Runner(mods)
    probe = run_probe(runner) if workload == "deep" else None

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer(mods)

    walls, plain_walls, round_rates, failures = [], [], [], []
    op_walls: dict[str, list[float]] = {}  # op key -> its wall in each round
    op_cases: dict[str, int] = {}
    cases = report_bytes = 0
    run_digest = hashlib.sha256()
    seen: set = set()
    start = perf_counter()
    for n_rounds, ops in enumerate(workloads.rounds(workload, seed), 1):
        round_cases, round_wall = 0, 0.0
        for i, op in enumerate(ops):
            key = op_key(op)
            try:
                wall, plain_wall, n, values, nbytes = _timed_op(runner, tracer, op, traced_first=i % 2 == 1)
                if reference.get(key) != digest(values):
                    raise OpFailure("output digest differs from reference.json")
                kind = _cross_check_kind(op)
                if kind and kind not in seen:  # the first op of each such kind in the run
                    seen.add(kind)
                    runner.cross_check(kind, op, values)
            except OpFailure as exc:
                failures.append(f"{key}: {exc}")
                continue
            except Exception as exc:  # an uncaught error in the program fails this op only
                failures.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            walls.append(wall)
            plain_walls.append(plain_wall)
            op_walls.setdefault(key, []).append(wall)
            op_cases[key] = n
            cases += n
            round_cases += n
            round_wall += wall
            report_bytes += nbytes
            _feed(run_digest, (key, values))
        if round_wall:
            round_rates.append(round_cases / round_wall)
        # Stop when the next round would end more than half a round past --seconds.
        elapsed = perf_counter() - start
        if n_rounds >= min_rounds and elapsed * (1 + 0.5 / n_rounds) > seconds:
            break

    attempted = len(walls) + len(failures)
    if not walls:
        raise BenchError(f"{workload}: every op failed; first failure: {failures[0]}")
    op_wall = sum(walls)
    latencies = [min(ws) for ws in op_walls.values()]
    tail_pct = tail_percentile(len(latencies))
    tail_s = (statistics.quantiles(latencies, n=100, method="inclusive")[tail_pct - 1]
              if len(latencies) > 1 else latencies[0])
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "python": platform.python_version(), "nproc": nproc(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "mzv_env": {k: v for k, v in os.environ.items() if k.startswith("MZV_")},
        "rounds": n_rounds, "distinct_ops": len(op_walls), "ops": attempted, "cases": cases, "op_wall_s": round(op_wall, 4),
        "round_cases_per_s": [round(r, 3) for r in round_rates], "tail_percentile": tail_pct,
        "fail_ratio": round(len(failures) / attempted, 6), "src_lines": src_lines(),
        "output_digest": run_digest.hexdigest()[:16], "probe": probe,
    }
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "cases_per_s": {"value": sum(op_cases.values()) / sum(latencies), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    else:
        overhead = statistics.median(walls) / statistics.median(plain_walls)
        metrics = tracer.metrics(op_wall, report_bytes, overhead)
        metrics["cli.probe_failed"] = {"value": int(bool(probe and probe["exit"])), "unit": "count"}
        info["layer_shares"] = {k: round(v / op_wall, 4) for k, v in tracer.layer_self_s(op_wall).items()}
    return {"info": info, "result": {"correct": not failures, "attempted": attempted,
                                     "failed": len(failures), "metrics": metrics}}


def record() -> None:
    """Recompute the digest of every op any workload can draw and rewrite reference.json."""
    mods = import_package()
    runner = Runner(mods)
    ref = {}
    for workload in WORKLOADS:
        clean_environment(workload)
        os.environ.pop("MZV_THREADS", None)  # pooled and serial sweeps give the same cases
        for op in workloads.menu(workload):
            key = op_key(op)
            if key not in ref:
                runner.prepare(op)
                ref[key] = digest(runner.run(op)[2])
        print(f"{workload}: {len(ref)} ops recorded", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Run each workload in its own child process and print their results together."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload}: exit {proc.returncode}")
        for line in lines[:-1]:
            print(f"{workload}: {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
            print(f"{workload:10s} {name:32s} {metric['value']:.6g} {metric['unit']}")
        print(f"{workload:10s} {'fail_ratio':32s} {result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json and exit")
    ns = parser.parse_args(argv)
    try:
        if ns.record:
            record()
            return 0
        if ns.workload == "all":
            return run_all(ns.seed, ns.seconds, bool(ns.trace))
        out = bench(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info = out["info"]
    print("env " + json.dumps(info))
    summary = {name: m["value"] for name, m in out["result"]["metrics"].items()}
    summary["fail_ratio"] = info["fail_ratio"]
    print("summary " + json.dumps(summary))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
