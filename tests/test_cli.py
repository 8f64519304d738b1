"""Command-line contract: exit codes, JSON/CSV shape, flags, env hooks."""

import csv
import io
import json
import math
import pytest

from mzvsums import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out):
    report = json.loads(out)
    assert set(report) == {"command", "params", "cases", "all_passed", "elapsed_ms"}
    return report


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
            monkeypatch.setenv("MZV_THREADS", "3")
            _, parallel_out, _ = run(argv, capsys)
            serial, parallel = json.loads(serial_out), json.loads(parallel_out)
            serial.pop("elapsed_ms"), parallel.pop("elapsed_ms")
            assert serial == parallel

    def test_pool_is_capped_by_threads_cpus_and_cases(self, capsys, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        for threads, m_range in (("64", "0..2"), ("64", "0..9"), ("2", "0..9"), ("1", "0..9")):
            monkeypatch.setenv("MZV_THREADS", threads)
            code, _, _ = run(["verify", "gen", "--m", m_range, "--bounds", "1,1"], capsys)
            assert code == 0
        assert sizes == [3, 4, 2]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        monkeypatch.setenv("MZV_THREADS", "64")
        code, _, _ = run(["verify", "frs", "--p", "0..1", "--q", "0..1"], capsys)
        assert code == 0
        assert sizes == [3, 4, 2]

    def test_identity_sweeps_never_start_a_pool(self, capsys, monkeypatch, tmp_path):
        def no_pool(max_workers):
            raise AssertionError("identity sweeps run serially on one cache")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        monkeypatch.setenv("MZV_THREADS", "4")
        for kind in ("s-identity", "t-identity"):
            for extra in ([], ["--cache", str(tmp_path / "tables.pkl")]):
                code, _, _ = run(["verify", kind, "--p", "0..1", "--q", "0..1", "--m", "0..4", *extra], capsys)
                assert code == 0

    def test_non_integer_threads_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("MZV_THREADS", "two")
        code, out, err = run(["verify", "gen", "--m", "0..2", "--bounds", "2,2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: MZV_THREADS") and err.count("\n") == 1

    def test_threads_below_one_exit_two(self, capsys, monkeypatch):
        for value in ("0", "-2"):
            monkeypatch.setenv("MZV_THREADS", value)
            code, out, err = run(["verify", "frs", "--p", "0", "--q", "0..1"], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: MZV_THREADS") and err.count("\n") == 1

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

    def test_corrupt_hook_forces_exit_one(self, capsys, monkeypatch):
        monkeypatch.setenv("MZV_CORRUPT_IDENTITY", "1")
        code, out, err = run(["verify", "s-identity", "--p", "0", "--q", "0", "--m", "0..3"], capsys)
        assert code == 1
        report = parse_json(out)
        assert report["all_passed"] is False
        assert report["cases"][0]["equal"] is False
        assert "MISMATCH" in err

    def test_unbalanced_letters_exit_two(self, capsys):
        code, _, err = run(["verify", "s-identity", "--abc", "3,1,1"], capsys)
        assert code == 2
        assert "a+b must equal 2c" in err

    def test_backwards_range_exit_two(self, capsys):
        code, _, err = run(["verify", "s-identity", "--p", "3..1"], capsys)
        assert code == 2
        assert "--p" in err

    def test_unknown_kind_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nonsense"])
        assert exc.value.code == 2

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

    def test_cache_with_altered_last_entry_exits_two(self, capsys, tmp_path):
        import pickle

        path = tmp_path / "tables.pkl"
        code, _, _ = run(["verify", "s-identity", "--p", "0..1", "--q", "0..1", "--m", "0..8",
                          "--cache", str(path)], capsys)
        assert code == 0
        tag, strict, star = pickle.loads(path.read_bytes())
        star[(2, 2)][-1] += 1
        path.write_bytes(pickle.dumps((tag, strict, star)))
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

    def test_missing_arguments_exit_two(self, capsys):
        code, _, err = run(["eval", "zeta", "--m", "3"], capsys)
        assert code == 2
        assert "--index" in err

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
