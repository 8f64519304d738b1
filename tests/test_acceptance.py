"""Acceptance suite: one test per contract criterion, one PASS/FAIL line each.

Every identity check below is exact rational arithmetic; only criterion 8
uses floats, with the loose tolerances stated inline.  Run with
``pytest -v -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from jsonschema import validate

import mzvsums as M
from mzvsums.series import star_factorization_sides, symmetric_form_sides
from mzvsums.zeta import ZetaCache

P312 = M.AbcParams(3, 1, 2)
OTHER_PARAMS = [M.AbcParams(4, 2, 3), M.AbcParams(5, 1, 3), M.AbcParams(5, 3, 4), M.AbcParams(2, 2, 2)]

# Zeta tables are keyed by index tuples alone, so one cache serves every
# params triple and criterion.
CACHE = ZetaCache()

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "cases", "all_passed", "elapsed_ms"],
    "properties": {
        "command": {"type": "string"},
        "params": {
            "type": "object",
            "required": ["a", "b", "c", "p", "q", "m"],
            "properties": {
                "a": {"type": "integer"},
                "b": {"type": "integer"},
                "c": {"type": "integer"},
                "p": {"type": ["string", "null"]},
                "q": {"type": ["string", "null"]},
                "m": {"type": ["string", "null"]},
            },
        },
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["equal"],
                "properties": {
                    "equal": {"type": "boolean"},
                    "lhs": {"type": "string", "pattern": "^-?[0-9]+/[0-9]+$"},
                    "rhs": {"type": "string", "pattern": "^-?[0-9]+/[0-9]+$"},
                },
            },
        },
        "all_passed": {"type": "boolean"},
        "elapsed_ms": {"type": "integer"},
    },
}


def _report(number: int, description: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"\n{verdict} criterion {number}: {description}")
    assert not failures, f"criterion {number} failed on {failures[:5]}"


def test_criterion_1_s_identity_reference_grid():
    failures = []
    for p, q, m in itertools.product(range(4), range(4), range(26)):
        rep = M.verify_identity_s(p, q, m, P312, CACHE)
        if not rep.equal:
            failures.append((p, q, m))
    _report(1, "s-family identity exact for (3,1,2), p,q <= 3, m <= 25 (416 cases)", failures)


def test_criterion_2_t_identity_reference_grid():
    failures = []
    for p, q, m in itertools.product(range(4), range(4), range(26)):
        rep = M.verify_identity_t(p, q, m, P312, CACHE)
        if not rep.equal:
            failures.append((p, q, m))
    _report(2, "t-family identity exact for (3,1,2), p,q <= 3, m <= 25 (416 cases)", failures)


def test_criterion_3_generality_sweep():
    failures = []
    for params in OTHER_PARAMS:
        for p, q, m in itertools.product(range(3), range(3), range(16)):
            if not M.verify_identity_s(p, q, m, params, CACHE).equal:
                failures.append(("s", params.as_tuple(), p, q, m))
            if not M.verify_identity_t(p, q, m, params, CACHE).equal:
                failures.append(("t", params.as_tuple(), p, q, m))
    _report(3, "both identities exact for 4 more letter triples, p,q <= 2, m <= 15", failures)


def test_criterion_4_triple_oracle_agreement():
    failures = []
    expanded_s = {
        (p, q): M.star_expand(M.word_sum_s(p, q, P312))
        for p, q in itertools.product(range(4), range(4))
    }
    expanded_t = {
        (p, q): M.star_expand(M.word_sum_t(p, q, P312))
        for p, q in itertools.product(range(4), range(4))
    }
    series_iter = M.iter_family_series_star(P312, (7, 3))
    for m in range(16):
        fstar, gstar = next(series_iter)
        for p, q in itertools.product(range(4), range(4)):
            values_s = {
                M.s_star_direct(p, q, m, P312, CACHE),
                M.extract_s(fstar, p, q),
                M.z_eval(expanded_s[(p, q)], m, CACHE),
            }
            if len(values_s) != 1:
                failures.append(("s", p, q, m))
            values_t = {
                M.t_star_direct(p, q, m, P312, CACHE),
                M.extract_t(gstar, p, q),
                M.z_eval(expanded_t[(p, q)], m, CACHE),
            }
            if len(values_t) != 1:
                failures.append(("t", p, q, m))
    _report(4, "direct sums, series coefficients and word evaluation agree (p,q <= 3, m <= 15)", failures)


def test_criterion_5_series_identities_and_run_inverse():
    failures = []
    for params in [P312] + OTHER_PARAMS:
        plain_iter = M.iter_family_series(params, (6, 6))
        star_iter = M.iter_family_series_star(params, (6, 6))
        for m in range(21):
            f, _ = next(plain_iter)
            fstar, _ = next(star_iter)
            h = M.zeta_run_poly(m, params.c, 12)
            hstar = M.zeta_star_run_poly(m, params.c, 12)
            lhs, rhs = star_factorization_sides(f, fstar, hstar)
            if lhs != rhs:
                failures.append(("factorization", params.as_tuple(), m))
            lhs, rhs = symmetric_form_sides(f, fstar, h)
            if lhs != rhs:
                failures.append(("symmetric", params.as_tuple(), m))
    for c in sorted({params.c for params in [P312] + OTHER_PARAMS}):
        for m in range(31):
            h = M.zeta_run_poly(m, c, 10)
            hstar = M.zeta_star_run_poly(m, c, 10)
            if hstar * h.flip() != M.UnivarPoly.one(10):
                failures.append(("run-inverse", c, m))
    _report(5, "star factorization + symmetric form (5 triples, m <= 20) and run inverse (m <= 30)", failures)


def test_criterion_6_symbolic_identities_and_randomized_algebra():
    failures = []
    for params in (P312, M.AbcParams(4, 2, 3)):
        for p, q in itertools.product(range(3), range(3)):
            if not M.verify_identity_s_symbolic(p, q, params).equal:
                failures.append(("frs", params.as_tuple(), p, q))
            if not M.verify_identity_t_symbolic(p, q, params).equal:
                failures.append(("frt", params.as_tuple(), p, q))

    rng = random.Random(20260814)

    def random_word(max_len=4):
        return M.HPoly.word(tuple(rng.randint(1, 5) for _ in range(rng.randint(0, max_len))))

    for i in range(200):
        u, v = random_word(), random_word()
        if M.harmonic_mul(u, v) != M.harmonic_mul(v, u):
            failures.append(("commutativity", i, repr(u), repr(v)))
    for i in range(200):
        u, v, x = random_word(3), random_word(3), random_word(2)
        if M.harmonic_mul(M.harmonic_mul(u, v), x) != M.harmonic_mul(u, M.harmonic_mul(v, x)):
            failures.append(("associativity", i, repr(u), repr(v), repr(x)))
    for i in range(200):
        u, v, m = random_word(), random_word(), rng.randint(0, 20)
        lhs = M.z_eval(M.harmonic_mul(u, v), m, CACHE)
        if lhs != M.z_eval(u, m, CACHE) * M.z_eval(v, m, CACHE):
            failures.append(("homomorphism", i, repr(u), repr(v), m))
    _report(6, "symbolic identities (p,q <= 2, 2 triples) + 200 randomized checks per algebra law", failures)


def test_criterion_7_closed_form_anchors():
    failures = []
    if M.s_closed(0, 1).rational != Fraction(1, 6):
        failures.append("s_closed(0,1)")
    if M.s_closed(1, 0).rational != Fraction(1, 360):
        failures.append("s_closed(1,0)")
    if M.beta(1) != Fraction(1, 6):
        failures.append("beta(1)")
    if M.beta(2) != Fraction(7, 360):
        failures.append("beta(2)")
    for n in range(41):
        if M.bernoulli(n) != M.bernoulli_via_tangent(n):
            failures.append(f"bernoulli({n})")
    _report(7, "closed-form anchors exact; Bernoulli recurrence matches tangent-number method (n <= 40)", failures)


def test_criterion_8_numeric_convergence():
    failures = []
    for p, q in [(0, 1), (0, 2), (1, 0), (1, 1)]:
        rows = M.converge_report(p, q, [400, 800], cache=CACHE)
        err_400, err_800 = rows[0].abs_error, rows[1].abs_error
        closed = abs(rows[0].closed_form)
        if not err_800 < 0.01 * closed:
            failures.append((p, q, "error above 1% of closed value", err_800, closed))
        ratio = err_800 / err_400
        if not 0.2 < ratio < 0.9:
            failures.append((p, q, "halving ratio out of range", ratio))
    _report(8, "truncated star sums within 1% of closed forms at m=800, error ratio in (0.2, 0.9)", failures)


def test_criterion_9_cli_contract():
    failures = []
    base = [sys.executable, "-m", "mzvsums"]
    sweep = ["verify", "s-identity", "--p", "0..1", "--q", "0..1", "--m", "0..6"]

    clean = subprocess.run(base + sweep, capture_output=True, text=True)
    if clean.returncode != 0:
        failures.append(("passing sweep exit", clean.returncode, clean.stderr))
    else:
        try:
            report = json.loads(clean.stdout)
            validate(report, REPORT_SCHEMA)
            if not report["all_passed"]:
                failures.append("passing sweep reported a mismatch")
            for case in report["cases"]:
                num, den = case["lhs"].split("/")
                if int(den) <= 0 or math.gcd(int(num), int(den)) != 1:
                    failures.append(("rational not in lowest terms", case["lhs"]))
        except Exception as exc:  # json or schema failure
            failures.append(("schema", repr(exc)))

    # The same sweep with a weight of identity_terms one too high (tests/faults.py) must fail its check.
    faulted = subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__), "faults.py")] + sweep,
                             capture_output=True, text=True)
    if faulted.returncode != 1:
        failures.append(("faulted sweep exit", faulted.returncode, faulted.stderr))
    elif json.loads(faulted.stdout)["all_passed"]:
        failures.append("faulted sweep still reported all_passed")

    unbalanced = subprocess.run(
        base + ["verify", "s-identity", "--abc", "3,1,1"], capture_output=True, text=True
    )
    if unbalanced.returncode != 2:
        failures.append(("unbalanced letters exit", unbalanced.returncode))
    if "a+b must equal 2c" not in unbalanced.stderr:
        failures.append(("constraint message missing", unbalanced.stderr))

    _report(9, "CLI exit codes 0/1/2 exercised end to end; JSON report validates against schema", failures)
