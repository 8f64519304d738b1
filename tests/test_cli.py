"""Command-line contract: exit codes, JSON/CSV shape, flags; exit 1 through real kernel faults."""

import csv
import io
import json
import math
import multiprocessing.process
import os
import random
import re
from fractions import Fraction

import faults
import pytest
from hypothesis import given, settings, strategies as st

from mzvsums import cli, harmonic, series, zeta
from mzvsums.indices import AbcParams


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out):
    report = json.loads(out)
    assert set(report) == {"command", "params", "cases", "all_passed", "elapsed_ms"}
    return report


# Report values as _emit_report receives them: text with quotes, backslashes, line breaks and
# non-ASCII characters, and rationals that are negative or thousands of digits long.
_TEXTS = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n", 'a "b" \\c\nd', "\u00e9\u20ac\U0001f600", ""])
_SCALARS = st.none() | st.booleans() | st.integers() | _TEXTS
_FRACTIONS = st.fractions() | st.builds(
    Fraction, st.integers(-(10 ** 3000), 10 ** 3000), st.integers(1, 10 ** 2000) | st.just(3 ** 5000))


class TestVerifyCommand:
    def test_passing_sweep_exits_zero(self, capsys):
        code, out, err = run(
            ["verify", "s-identity", "--p", "0..2", "--q", "0..2", "--m", "0..10"], capsys
        )
        assert code == 0
        report = parse_json(out)
        assert report["all_passed"] is True
        assert len(report["cases"]) == 99
        assert "all passed" in err

    def test_params_block_always_has_letter_keys(self, capsys):
        _, out, _ = run(["verify", "frs", "--p", "0..1", "--q", "0..1"], capsys)
        report = parse_json(out)
        for key in ("a", "b", "c", "p", "q", "m"):
            assert key in report["params"]
        assert report["params"]["m"] is None

    @pytest.mark.parametrize("kind", cli.VERIFY_KINDS)
    def test_json_report_is_two_space_indented_with_one_final_newline(self, capsys, kind):
        _, out, _ = run(["verify", kind, "--p", "0..1", "--q", "1", "--m", "2..3", "--count", "2"], capsys)
        assert out == json.dumps(parse_json(out), indent=2) + "\n"

    @pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="this interpreter has no C JSON encoder")
    def test_json_report_is_written_without_the_pure_python_encoder(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        code, out, _ = run(["verify", "t-identity", "--p", "0..1", "--q", "1", "--m", "2..3"], capsys)
        monkeypatch.undo()
        assert code == 0
        assert out == json.dumps(parse_json(out), indent=2) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(st.fixed_dictionaries({
        "command": _TEXTS,
        "params": st.dictionaries(_TEXTS, _SCALARS, max_size=7),
        "cases": st.lists(st.dictionaries(_TEXTS, _SCALARS | _FRACTIONS, max_size=7), max_size=5),
        "all_passed": st.booleans(),
        "elapsed_ms": st.integers(min_value=0),
    }))
    def test_json_report_equals_indented_json_dumps(self, report):
        out = io.StringIO()
        cli._emit_report(report, "json", out)
        cases = [{key: f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v for key, v in case.items()}
                 for case in report["cases"]]
        assert out.getvalue() == json.dumps({**report, "cases": cases}, indent=2) + "\n"

    def test_rationals_serialize_in_lowest_terms(self, capsys):
        _, out, _ = run(["verify", "t-identity", "--p", "0..1", "--q", "0..1", "--m", "0..6"], capsys)
        report = parse_json(out)
        for case in report["cases"]:
            for side in ("lhs", "rhs"):
                num, den = case[side].split("/")
                assert int(den) > 0
                assert math.gcd(int(num), int(den)) == 1

    def test_case_order_is_deterministic_across_thread_counts(self, capsys, monkeypatch):
        for argv in (
            ["verify", "t-identity", "--p", "0..1", "--q", "0..1", "--m", "0..5"],
            ["verify", "gen", "--m", "0..5", "--bounds", "3,3"],
            ["verify", "frs", "--p", "0..1", "--q", "0..1"],
        ):
            monkeypatch.delenv("MZV_THREADS", raising=False)
            _, serial_out, _ = run(argv, capsys)
            serial = json.loads(serial_out)
            serial.pop("elapsed_ms")
            for threads in ("3", "two", "0", "-2"):
                monkeypatch.setenv("MZV_THREADS", threads)
                code, out, _ = run(argv, capsys)
                assert code == 0
                report = json.loads(out)
                report.pop("elapsed_ms")
                assert report == serial

    def test_identity_sweeps_never_start_a_pool(self, capsys, monkeypatch, tmp_path):
        def no_process(self):
            raise AssertionError("every sweep runs in the calling process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        monkeypatch.setenv("MZV_THREADS", "4")
        for argv in (["s-identity", "--p", "0..1", "--q", "0..1", "--m", "0..4"],
                     ["s-identity", "--p", "0..1", "--q", "0..1", "--m", "0..4",
                      "--cache", str(tmp_path / "tables.pkl")],
                     ["t-identity", "--p", "0..1", "--q", "0..1", "--m", "0..4"],
                     ["gen", "--m", "0..5", "--bounds", "2,2"],
                     ["symmetric", "--m", "0..5", "--bounds", "2,2"],
                     ["frs", "--p", "0..1", "--q", "0..1"],
                     ["frt", "--p", "0..1", "--q", "0..1"],
                     ["homomorphism", "--m", "0..2", "--count", "4"]):
            code, _, _ = run(["verify", *argv], capsys)
            assert code == 0

    def test_nonpositive_count_exits_two(self, capsys):
        for count in ("0", "-3"):
            code, out, err = run(["verify", "homomorphism", "--m", "0..2", "--count", count], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: --count") and err.count("\n") == 1

    def test_gen_and_symmetric_kinds(self, capsys):
        for kind in ("gen", "symmetric"):
            code, out, _ = run(["verify", kind, "--m", "0..5", "--bounds", "3,3"], capsys)
            assert code == 0
            assert parse_json(out)["all_passed"] is True

    def test_word_identity_kinds(self, capsys):
        for kind in ("frs", "frt"):
            code, out, _ = run(["verify", kind, "--p", "0..1", "--q", "0..1"], capsys)
            assert code == 0
            assert parse_json(out)["all_passed"] is True

    def test_homomorphism_kind_samples_pairs(self, capsys):
        code, out, _ = run(
            ["verify", "homomorphism", "--m", "0..4", "--count", "10", "--seed", "7"], capsys
        )
        assert code == 0
        report = parse_json(out)
        assert len(report["cases"]) == 50
        assert report["all_passed"] is True

    def test_csv_format(self, capsys):
        _, out, _ = run(
            ["verify", "s-identity", "--p", "0", "--q", "1", "--m", "0..3", "--format", "csv"],
            capsys,
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert set(rows[0]) == {"p", "q", "m", "lhs", "rhs", "equal"}
        _, out, _ = run(["verify", "s-identity", "--p", "0", "--q", "1", "--m", "0..3"], capsys)
        assert rows == [{key: str(value) for key, value in case.items()} for case in parse_json(out)["cases"]]

    def test_unbalanced_letters_exit_two(self, capsys):
        code, _, err = run(["verify", "s-identity", "--abc", "3,1,1"], capsys)
        assert code == 2
        assert "a+b must equal 2c" in err

    def test_backwards_range_exit_two(self, capsys):
        code, _, err = run(["verify", "s-identity", "--p", "3..1"], capsys)
        assert code == 2
        assert "--p" in err

    def test_unknown_kind_exits_two(self, capsys):
        code, out, err = run(["verify", "nonsense"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: argument kind: invalid choice: 'nonsense'") and err.count("\n") == 1, err

    def test_memory_error_exits_two_with_one_line(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(harmonic, "verify_identity_s_symbolic", exhausted)
        code, out, err = run(["verify", "frs", "--p", "0", "--q", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_recursion_error_exits_two_with_one_line(self, capsys, monkeypatch):
        def too_deep(*args):
            raise RecursionError

        monkeypatch.setattr(harmonic, "verify_identity_t_symbolic", too_deep)
        code, out, err = run(["verify", "frt", "--p", "0", "--q", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: input too deep for the recursion limit\n"

    @pytest.mark.parametrize("kind, p, q", [("frs", 500, 0), ("frt", 0, 999), ("frs", 0, 1200)])
    def test_a_star_family_deeper_than_the_recursion_limit_exits_two(self, capsys, kind, p, q):
        # harmonic._star_family recurses one level per letter before it builds a word: fast, little memory.
        code, out, err = run(["verify", kind, "--p", str(p), "--q", str(q)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: input too deep for the recursion limit\n"

    def test_cache_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "tables.pkl")
        argv = ["verify", "s-identity", "--p", "0..1", "--q", "0..1", "--m", "0..8",
                "--cache", path]
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert code1 == code2 == 0
        first, second = json.loads(out1), json.loads(out2)
        assert first["cases"] == second["cases"]
        assert (tmp_path / "tables.pkl").exists()

    def _assert_cache_rejected(self, path, capsys):
        argv = ["verify", "s-identity", "--p", "0", "--q", "0", "--m", "0..3", "--cache", str(path)]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --cache") and err.count("\n") == 1

    def test_truncated_cache_exits_two(self, capsys, tmp_path):
        good, bad = tmp_path / "good.pkl", tmp_path / "bad.pkl"
        code, _, _ = run(["verify", "s-identity", "--p", "0..1", "--q", "0..1", "--m", "0..8",
                          "--cache", str(good)], capsys)
        assert code == 0
        bad.write_bytes(good.read_bytes()[:100])
        self._assert_cache_rejected(bad, capsys)

    def test_empty_cache_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "empty.pkl"
        path.write_bytes(b"")
        self._assert_cache_rejected(path, capsys)

    def test_non_pickle_cache_exits_two(self, capsys, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_bytes(b"these are not zeta tables\n")
        self._assert_cache_rejected(path, capsys)

    def test_cache_of_two_ints_exits_two(self, capsys, tmp_path):
        import pickle

        path = tmp_path / "pair.pkl"
        path.write_bytes(pickle.dumps((1, 2)))
        self._assert_cache_rejected(path, capsys)

    def test_cache_of_fraction_tables_exits_two(self, capsys, tmp_path):
        import pickle
        from fractions import Fraction

        path = tmp_path / "old.pkl"
        path.write_bytes(pickle.dumps(({(2,): [Fraction(0), Fraction(1)]}, {})))
        self._assert_cache_rejected(path, capsys)

    def _saved_sweep(self, path, capsys):
        """A cache file of both kinds' tail classes, words and families alike, saved by an identity sweep."""
        import pickle

        code, _, _ = run(["verify", "s-identity", "--p", "0..1", "--q", "0..1", "--m", "0..8",
                          "--cache", str(path)], capsys)
        assert code == 0
        tag, *kinds = pickle.loads(path.read_bytes())
        assert all(any(type(k) is frozenset for k in states) and any(type(k) is tuple for k in states)
                   for states in kinds)
        return tag, kinds

    def _assert_each_alteration_rejected(self, path, capsys, star, field):
        import pickle

        tag, kinds = self._saved_sweep(path, capsys)
        for key in kinds[star]:
            altered = [{k: list(state) for k, state in states.items()} for states in kinds]
            altered[star][key][field] += 1
            path.write_bytes(pickle.dumps((tag, *altered)))
            self._assert_cache_rejected(path, capsys)

    @pytest.mark.parametrize("star", [False, True], ids=["strict", "star"])
    def test_cache_with_altered_last_entry_exits_two(self, capsys, tmp_path, star):
        self._assert_each_alteration_rejected(tmp_path / "tables.pkl", capsys, star, -1)

    @pytest.mark.parametrize("star, field", [(False, 0), (False, 1), (False, 2), (True, 0), (True, 1), (True, 2)])
    def test_cache_with_any_altered_number_exits_two(self, capsys, tmp_path, star, field):
        # A state is [cutoff, numerator at cutoff - 1, numerator at cutoff]; load checks the last step of each.
        self._assert_each_alteration_rejected(tmp_path / "states.pkl", capsys, star, field)

    def test_cache_of_word_states_alone_loads_and_extends(self, capsys, tmp_path):
        # The states of single words, as caches saved before tail classes hold: a sweep reads on from them.
        cache, path = zeta.ZetaCache(), tmp_path / "words.pkl"
        params = AbcParams(3, 1, 2)
        words = [k for p in range(3) for q in range(3) for f in (zeta.index_family_I(p, q, params),) for k in f]
        for star in (False, True):
            cache.fill(words + [(2,) * r for r in range(7)], 8, star)
        cache.save(path)
        assert not any(type(k) is frozenset for states in cache._states for k in states)
        argv = ["verify", "s-identity", "--p", "0..2", "--q", "0..2", "--m", "8..12"]
        extended, fresh = run(argv + ["--cache", str(path)], capsys), run(argv, capsys)
        assert extended[0] == fresh[0] == 0
        assert parse_json(extended[1])["cases"] == parse_json(fresh[1])["cases"]

    def test_cache_with_a_mixed_chain_exits_two(self, capsys, tmp_path):
        # save writes no such chain: (2, 2) at cutoff 8 over a (2,) at cutoff 3 cannot be checked.
        import pickle

        path = tmp_path / "states.pkl"
        code, _, _ = run(["verify", "s-identity", "--p", "0..1", "--q", "0..1", "--m", "0..8",
                          "--cache", str(path)], capsys)
        assert code == 0
        tag, strict, star = pickle.loads(path.read_bytes())
        cache = zeta.ZetaCache()
        cache.scaled((2,), 3, True)
        star[(2,)] = cache._states[True][(2,)]
        path.write_bytes(pickle.dumps((tag, strict, star)))
        self._assert_cache_rejected(path, capsys)

    def test_cache_of_the_per_cutoff_tables_format_exits_two(self, capsys, tmp_path):
        import pickle

        path = tmp_path / "tables.pkl"
        tables = {(2,): [0, 1, 5], (): [1, 1, 1]}
        path.write_bytes(pickle.dumps(("mzvsums-zeta-cache/int-1", tables, tables)))
        self._assert_cache_rejected(path, capsys)

    def test_cache_with_another_format_tag_exits_two(self, capsys, tmp_path):
        import pickle

        path = tmp_path / "tables.pkl"
        code, _, _ = run(["verify", "s-identity", "--p", "0", "--q", "0..1", "--m", "0..4",
                          "--cache", str(path)], capsys)
        assert code == 0
        _, strict, star = pickle.loads(path.read_bytes())
        path.write_bytes(pickle.dumps(("mzvsums-zeta-cache/other", strict, star)))
        self._assert_cache_rejected(path, capsys)

    def test_unusable_cache_path_exits_two_before_any_case(self, capsys, monkeypatch, tmp_path):
        def no_case(*args):
            raise AssertionError("the cache path is checked before any case runs")

        monkeypatch.setattr(cli.zeta.ZetaCache, "sweep_identities", no_case)
        for kind in ("s-identity", "t-identity"):
            for path in ("", str(tmp_path / "missing" / "tables.pkl")):
                code, out, err = run(["verify", kind, "--p", "0", "--q", "0", "--m", "0..2",
                                      "--cache", path], capsys)
                assert code == 2
                assert out == ""
                assert err.startswith("error: --cache") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_cache_that_cannot_be_written_exits_two(self, capsys, monkeypatch, tmp_path):
        def refuse(cache, path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli.zeta.ZetaCache, "save", refuse)
        self._assert_cache_rejected(tmp_path / "tables.pkl", capsys)

    def test_kinds_without_zeta_tables_reject_cache(self, capsys, tmp_path):
        path = tmp_path / "tables.pkl"
        for argv in (["gen", "--m", "0..1", "--bounds", "1,1"],
                     ["symmetric", "--m", "0..1", "--bounds", "1,1"],
                     ["frs", "--p", "0", "--q", "0"],
                     ["frt", "--p", "0", "--q", "0"],
                     ["homomorphism", "--m", "0..1", "--count", "1"]):
            code, out, err = run(["verify", *argv, "--cache", str(path)], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: --cache") and err.count("\n") == 1
            assert not path.exists()


# One sweep per verify kind, with cases its fault in ``faults`` reaches and, where it can miss some, cases it misses.
FAULT_SWEEPS = {
    "s-identity": ["--p", "0..1", "--q", "0..1", "--m", "0..3"],
    "t-identity": ["--abc", "5,3,4", "--p", "0..1", "--q", "0..1", "--m", "0..3"],
    "gen": ["--m", "0..5", "--bounds", "2,1"],
    "symmetric": ["--abc", "4,2,3", "--m", "0..5"],
    "frs": ["--p", "0..1", "--q", "0..1"],
    "frt": ["--abc", "4,2,3", "--p", "0..1", "--q", "0..1"],
    "homomorphism": ["--m", "0..4", "--count", "6", "--seed", "4"],
}


class _EveryMzvVariableSet(dict):
    """A copy of the environment in which every ``MZV_`` name reads ``"1"``."""

    def __getitem__(self, key):
        return "1" if key.startswith("MZV_") else super().__getitem__(key)

    def get(self, key, default=None):
        return "1" if key.startswith("MZV_") else super().get(key, default)

    def __contains__(self, key):
        return key.startswith("MZV_") or super().__contains__(key)


def _masked(result):
    code, out, err = result
    return code, re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out), re.sub(r"\(\d+ ms\)", "(0 ms)", err)


class TestMismatchExit:
    """Exit 1 comes from the checks alone: reached through a real kernel fault, never through a variable."""

    @pytest.mark.parametrize("kind", cli.VERIFY_KINDS)
    def test_fault_fails_exactly_the_cases_it_reaches(self, capsys, monkeypatch, kind):
        argv = ["verify", kind, *FAULT_SWEEPS[kind]]
        code, out, _ = run(argv, capsys)
        assert code == 0
        true_cases = parse_json(out)["cases"]
        faults.install(kind, monkeypatch.setattr)
        code, out, err = run(argv, capsys)
        assert code == 1
        assert err.startswith(f"verify {kind}: {len(true_cases)} cases, MISMATCH FOUND (")
        report = parse_json(out)
        assert report["all_passed"] is False
        cases = report["cases"]
        assert [case["equal"] for case in cases] == [not faults.reaches(kind, case) for case in cases]
        # The same cases in the same order; those the fault misses keep their true values.
        assert [case.keys() for case in cases] == [case.keys() for case in true_cases]
        assert [[case.get(k) for k in ("p", "q", "m", "u", "v")] for case in cases] == [
            [case.get(k) for k in ("p", "q", "m", "u", "v")] for case in true_cases]
        assert [case for case in cases if case["equal"]] == [
            true_case for case, true_case in zip(cases, true_cases) if case["equal"]]
        code, out, _ = run([*argv, "--format", "csv"], capsys)
        assert code == 1
        assert list(csv.DictReader(io.StringIO(out))) == [{k: str(v) for k, v in case.items()} for case in cases]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("kind", cli.VERIFY_KINDS)
    def test_no_mzv_variable_changes_a_run(self, capsys, monkeypatch, kind, fmt):
        argv = ["verify", kind, *FAULT_SWEEPS[kind], "--format", fmt]
        unset = _masked(run(argv, capsys))
        assert unset[0] == 0
        monkeypatch.setattr(os, "environ", _EveryMzvVariableSet(os.environ))
        assert _masked(run(argv, capsys)) == unset


ACCEPTANCE_ABC = ("3,1,2", "4,2,3", "5,1,3", "5,3,4", "2,2,2")


class TestSweepOrder:
    """A sweep fills every case's words at each cutoff in ascending order; the report and its values are unchanged."""

    @pytest.mark.parametrize("abc", ACCEPTANCE_ABC)
    @pytest.mark.parametrize("kind", ["s-identity", "t-identity"])
    def test_identity_sweep_matches_fresh_cache_cases(self, capsys, kind, abc):
        # The cutoffs pass the rescales at 16 (2**4) and 17.
        code, out, _ = run(["verify", kind, "--abc", abc, "--p", "0..2", "--q", "0..3", "--m", "0..17"], capsys)
        assert code == 0
        cases = parse_json(out)["cases"]
        assert [(c["p"], c["q"], c["m"]) for c in cases] == [
            (p, q, m) for p in range(3) for q in range(4) for m in range(18)]
        params = AbcParams(*map(int, abc.split(",")))
        fn = zeta.verify_identity_s if kind == "s-identity" else zeta.verify_identity_t
        for case in cases:
            rep = fn(case["p"], case["q"], case["m"], params, zeta.ZetaCache())
            assert (case["lhs"], case["rhs"], case["equal"]) == (
                cli._frac_str(rep.lhs), cli._frac_str(rep.rhs), rep.equal), case

    def test_homomorphism_sweep_matches_fresh_cache_values(self, capsys):
        code, out, _ = run(["verify", "homomorphism", "--m", "0..17", "--count", "4", "--seed", "5"], capsys)
        assert code == 0
        cases = parse_json(out)["cases"]
        assert [c["m"] for c in cases] == list(range(18)) * 4
        rng = random.Random(5)  # the sweep's own draws, in its order

        def draw():
            return harmonic.HPoly.word(tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 4))))

        for sample in range(4):
            u, v = draw(), draw()
            for m, case in enumerate(cases[18 * sample: 18 * (sample + 1)]):
                lhs = harmonic.z_eval(harmonic.harmonic_mul(u, v), m, zeta.ZetaCache())
                rhs = harmonic.z_eval(u, m, zeta.ZetaCache()) * harmonic.z_eval(v, m, zeta.ZetaCache())
                assert (case["u"], case["v"]) == (repr(u), repr(v))
                assert (case["lhs"], case["rhs"], case["equal"]) == (cli._frac_str(lhs), cli._frac_str(rhs), True)

    @pytest.mark.parametrize("abc", ["3,1,2", "5,3,4"])
    @pytest.mark.parametrize("bounds", [(4, 4), (2, 6)])
    @pytest.mark.parametrize("kind", ["gen", "symmetric"])
    def test_series_sweep_matches_fresh_checks(self, capsys, monkeypatch, kind, bounds, abc):
        # One star-grid cell is off by one at m = 9 alone, in the sweep and in each fresh
        # check, so a sweep that compared a level at the wrong cutoff would differ.
        original = series._grids

        def grids(exponents, bounds_, stars):
            for t, (grids_, lcm) in enumerate(original(exponents, bounds_, stars)):
                if t == 9:
                    grids_ = tuple([row[:] for row in grid] for grid in grids_)
                    grids_[stars.index(True)][2][1] += 1
                yield grids_, lcm

        monkeypatch.setattr(series, "_grids", grids)
        code, out, _ = run(["verify", kind, "--abc", abc, "--m", "0..40", "--bounds", "%d,%d" % bounds], capsys)
        assert code == 1
        cases = parse_json(out)["cases"]
        params = AbcParams(*map(int, abc.split(",")))
        check = series.check_star_factorization if kind == "gen" else series.check_symmetric_form
        fresh = [check(m, params, bounds) for m in range(41)]
        assert cases == [{"m": m, "equal": rep.equal, "mismatches": rep.mismatches} for m, rep in enumerate(fresh)]
        assert [m for m, rep in enumerate(fresh) if not rep.equal] == [9]

    @pytest.mark.parametrize("kind, family", [("s-identity", "index_family_I"), ("t-identity", "index_family_J")])
    def test_each_level_and_family_is_computed_once_per_sweep(self, capsys, monkeypatch, kind, family):
        passes = []
        caches = set()
        original_pass = zeta.ZetaCache._pass

        def counting_pass(self, word_set, cutoffs):
            passes.append((tuple(cutoffs), tuple(bool(words) for words in word_set[1])))  # (strict, star) words
            caches.add(self)
            return original_pass(self, word_set, cutoffs)

        enumerated = []
        original_family = getattr(zeta, family)

        def counting_family(i, j, params):
            enumerated.append((i, j))
            return original_family(i, j, params)

        monkeypatch.setattr(zeta.ZetaCache, "_pass", counting_pass)
        monkeypatch.setattr(zeta, family, counting_family)
        code, _, _ = run(["verify", kind, "--abc", "4,2,3", "--p", "0..2", "--q", "0..2", "--m", "3..17"], capsys)
        assert code == 0
        [cache] = caches
        # One pass over both kinds runs every level from 0 to 17 once; no case starts another.
        assert passes == [(tuple(range(3, 18)), (True, True))]
        assert all(state[0] == 17 for states in cache._states for state in states.values())
        assert sorted(enumerated) == [(i, j) for i in range(3) for j in range(3)]


class TestCommaLists:
    """Every comma-list flag goes through one parser: bad text exits 2 with one stderr line naming the flag."""

    @pytest.mark.parametrize("argv, err_start", [
        (["verify", "s-identity", "--abc", "3,1"], "error: --abc"),
        (["verify", "s-identity", "--abc", "3,x,2"], "error: --abc"),
        (["verify", "s-identity", "--abc", "2,,1"], "error: --abc"),
        (["verify", "gen", "--bounds", "4"], "error: --bounds"),
        (["verify", "gen", "--bounds", "4,x"], "error: --bounds"),
        (["verify", "gen", "--bounds", "2,,1"], "error: --bounds"),
        (["eval", "zeta", "--index", "2,x", "--m", "3"], "error: --index"),
        (["eval", "zeta", "--index", "2,,1", "--m", "3"], "error: --index"),
        (["converge", "--p", "0", "--q", "1", "--m", ""], "error: schedule must be non-empty"),
        (["converge", "--p", "0", "--q", "1", "--m", "5,x"], "error: --m"),
        (["converge", "--p", "0", "--q", "1", "--m", "2,,1"], "error: --m"),
    ])
    def test_malformed_list_exits_two_with_one_line(self, capsys, argv, err_start):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(err_start) and err.count("\n") == 1, err


class TestArgparseErrors:
    """What argparse rejects is one stderr line and exit 2, like every other usage error."""

    @pytest.mark.parametrize("argv, err_start", [
        (["eval", "nonsense"], "error: argument kind: invalid choice: 'nonsense'"),
        (["verify", "gen", "--bounds"], "error: argument --bounds: expected one argument"),
        # argparse reads a leading minus as an option; --bounds=-1,2 reaches the bounds check
        (["verify", "gen", "--bounds", "-1,2"], "error: argument --bounds: expected one argument"),
        (["verify", "gen", "--bounds=-1,2"], "error: --bounds: bounds must be non-negative"),
        (["eval", "zeta", "--m", "x"], "error: argument --m: invalid int value: 'x'"),
        ([], "error: the following arguments are required: command"),
        (["verify"], "error: the following arguments are required: kind"),
        (["frobnicate"], "error: argument command: invalid choice: 'frobnicate' (choose from 'verify', 'eval', 'converge')"),
    ])
    def test_exits_two_with_one_line(self, capsys, argv, err_start):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(err_start) and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["eval", "--help"], ["converge", "-h"]])
    def test_help_exits_zero_with_the_full_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0
        prog = " ".join(["mzvsums", *argv[:-1]])
        assert captured.out.startswith(f"usage: {prog} ") and "show this help message and exit" in captured.out
        assert captured.err == ""


class TestParseByCommandWord:
    """``main`` hands the arguments after the command word to that command's own parser."""

    def test_abbreviations_equals_form_and_last_value_wins(self, capsys):
        code, out, _ = run(["verify", "frs", "--ab", "3,1,2", "--p=1", "--q", "1", "--q", "0"], capsys)
        assert code == 0
        report = parse_json(out)
        assert (report["params"]["p"], report["params"]["q"]) == ("1", "0")
        assert [(case["p"], case["q"]) for case in report["cases"]] == [(1, 0)]

    def test_every_command_runs_without_the_top_level_parser(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser ran")

        monkeypatch.setattr(cli._build_parser(), "parse_args", refuse)
        for argv in (["verify", "frs", "--p", "1", "--q", "0"], ["eval", "bernoulli", "--n", "12"],
                     ["converge", "--p", "0", "--q", "1", "--m", "5,10"]):
            code, out, err = run(argv, capsys)
            assert code == 0 and out, (argv, err)

    def test_no_argv_reads_the_command_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["mzvsums", "eval", "bernoulli", "--n", "12"])
        assert run(None, capsys)[:2] == (0, "-691/2730\n~ -0.2531135531135531\n")


class TestEvalCommand:
    def test_zeta_value(self, capsys):
        code, out, _ = run(["eval", "zeta", "--index", "2,1", "--m", "2"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "1/4"

    def test_zeta_star_value(self, capsys):
        _, out, _ = run(["eval", "zeta-star", "--index", "2,2", "--m", "2"], capsys)
        assert out.splitlines()[0] == "21/16"

    def test_empty_index_is_unit(self, capsys):
        _, out, _ = run(["eval", "zeta", "--index", "", "--m", "9"], capsys)
        assert out.splitlines()[0] == "1/1"

    def test_weight_zero_at_a_huge_cutoff_reads_no_lcm(self, capsys, monkeypatch):
        # Each command printed nothing for minutes: lcm(1..m)**0 built the ratio list up to m first.
        asked = []
        original = zeta.ZetaCache._ratios_to

        def recorded(cache, m):
            asked.append(m)
            return original(cache, m)

        monkeypatch.setattr(zeta.ZetaCache, "_ratios_to", recorded)
        huge = 10**20
        code, out, _ = run(["eval", "zeta", "--index", "", "--m", str(huge)], capsys)
        assert code == 0 and out.splitlines()[0] == "1/1"
        code, out, _ = run(["verify", "s-identity", "--p", "0", "--q", "0", "--m", str(huge)], capsys)
        assert code == 0
        assert parse_json(out)["cases"] == [{"p": 0, "q": 0, "m": huge, "lhs": "1/1", "rhs": "1/1", "equal": True}]
        assert not any(m > 100 for m in asked), asked

    def test_bad_index_entry_exits_two(self, capsys):
        code, _, err = run(["eval", "zeta", "--index", "0,1", "--m", "3"], capsys)
        assert code == 2
        assert "error" in err

    def test_family_sum_value(self, capsys):
        _, out, _ = run(["eval", "t", "--p", "0", "--q", "0", "--m", "2"], capsys)
        assert out.splitlines()[0] == "3/2"

    def test_bernoulli_and_beta(self, capsys):
        _, out, _ = run(["eval", "bernoulli", "--n", "12"], capsys)
        assert out.splitlines()[0] == "-691/2730"
        _, out, _ = run(["eval", "beta", "--r", "2"], capsys)
        assert out.splitlines()[0] == "7/360"

    def test_closed_form_prints_pi_power(self, capsys):
        code, out, _ = run(["eval", "closed", "--kind", "s", "--p", "1", "--q", "0"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "1/360 * pi^4"

    def test_closed_star_form(self, capsys):
        _, out, _ = run(["eval", "closed", "--kind", "s-star", "--p", "1", "--q", "0"], capsys)
        assert out.splitlines()[0] == "1/72 * pi^4"

    def test_closed_forms_refuse_other_letters(self, capsys):
        for kind in ("s", "s-star"):
            code, out, err = run(["eval", "closed", "--kind", kind, "--p", "1", "--q", "1", "--abc", "5,3,4"], capsys)
            assert code == 2
            assert out == ""
            assert err == "error: closed forms require letters (3, 1, 2), got (5, 3, 4)\n"

    @pytest.mark.parametrize(
        "argv", [["s", "--p", "1", "--q", "1", "--m", "-1"], ["s-star", "--p", "0", "--q", "0", "--m", "-3"]]
    )
    def test_negative_family_cutoff_exits_two_with_one_line(self, capsys, argv):
        code, out, err = run(["eval", *argv], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: cutoff m must be non-negative, got {argv[-1]}\n"

    def test_missing_arguments_exit_two(self, capsys):
        code, _, err = run(["eval", "zeta", "--m", "3"], capsys)
        assert code == 2
        assert "--index" in err

    def test_bernoulli_beyond_the_float_range_prints_inf(self, capsys):
        code, out, err = run(["eval", "bernoulli", "--n", "400"], capsys)
        assert (code, err) == (0, "")
        numerator, denominator = out.splitlines()[0].split("/")
        assert int(numerator) < 0 and int(denominator) > 0
        assert out.splitlines()[1] == "~ -inf"
        _, out, _ = run(["eval", "bernoulli", "--n", "12"], capsys)  # in range: unchanged
        assert out.splitlines()[1] == f"~ {-691 / 2730!r}"

    def test_closed_form_with_pi_power_beyond_the_float_range(self, capsys):
        code, out, err = run(["eval", "closed", "--kind", "s", "--p", "160", "--q", "0"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[0].endswith(" * pi^640")
        assert out.splitlines()[1] == "~ 0.0"  # the value is about 1e-1220

    def test_float_rendering_on_second_line(self, capsys):
        _, out, _ = run(["eval", "zeta", "--index", "2", "--m", "2"], capsys)
        lines = out.splitlines()
        assert lines[1].startswith("~ ")
        assert float(lines[1][2:]) == 1.25


class TestConvergeCommand:
    def test_csv_columns_and_shrinking_error(self, capsys):
        code, out, _ = run(["converge", "--p", "0", "--q", "1", "--m", "10,100,1000"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == ["m", "truncated_over_pi_power", "closed_form", "abs_error"]
        errors = [float(row["abs_error"]) for row in rows]
        assert errors[0] > errors[1] > errors[2]

    def test_trivial_case_has_zero_error(self, capsys):
        _, out, _ = run(["converge", "--p", "0", "--q", "0", "--m", "1,2"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(float(row["abs_error"]) == 0 for row in rows)

    def test_decreasing_schedule_exits_two(self, capsys):
        code, _, err = run(["converge", "--p", "1", "--q", "1", "--m", "100,50"], capsys)
        assert code == 2
        assert "increasing" in err

    def test_non_reference_letters_exit_two(self, capsys):
        code, _, err = run(
            ["converge", "--p", "0", "--q", "1", "--m", "5,10", "--abc", "4,2,3"], capsys
        )
        assert code == 2
        assert "3, 1, 2" in err

    def test_pi_power_beyond_the_float_range_exits_two_with_one_line(self, capsys):
        code, out, err = run(["converge", "--p", "160", "--q", "0", "--m", "1,2"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: pi^640 is outside the float range\n"
