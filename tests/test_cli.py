import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fqzeta
from fqzeta import cli
from fqzeta.errors import DualityViolationError
from fqzeta.zeta import WeilFactorization


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


def test_count_human_output(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "count", fx(fixtures_dir, "p1_f3.json"), "-n", "2")
    assert code == 0
    assert out == "4\n10\n"


def test_count_json_output(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "count", fx(fixtures_dir, "elliptic_f5.json"), "-n", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 5
    assert payload["counts"] == [9, 27]


def test_count_malformed_spec_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"label": "x"}')
    code, _, err = run_cli(capsys, "count", str(bad), "-n", "1")
    assert code == 2
    assert "malformed" in err
    bad.write_bytes(b"\xff\xfe{}")  # not UTF-8
    code, out, err = run_cli(capsys, "count", str(bad), "-n", "1")
    assert (code, out) == (2, "")
    assert err.startswith("malformed spec: ") and err.count("\n") == 1


def test_count_budget_exits_3(capsys, fixtures_dir):
    code, _, err = run_cli(
        capsys, "count", fx(fixtures_dir, "p2_f101.json"), "-n", "1", "--budget", "10"
    )
    assert code == 3
    assert "budget" in err


def test_zeta_elliptic_json(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "zeta", fx(fixtures_dir, "elliptic_f5.json"),
        "--profile", fx(fixtures_dir, "profile_curve.json"), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta"] == {"q": 5, "num": [1, 3, 5], "den": [1, -6, 5]}
    assert payload["factorization"]["factors"] == [[1, -1], [1, 3, 5], [1, -5]]
    assert payload["duality"]["ok"]
    assert payload["riemann_hypothesis"]["ok"]
    assert payload["counts"] == [9, 27]


def test_zeta_human_output(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "zeta", fx(fixtures_dir, "p2_f2.json"),
        "--profile", fx(fixtures_dir, "profile_p2.json"),
    )
    assert code == 0
    assert "zeta = (1) / (1 - 7*t + 14*t^2 - 8*t^3)" in out
    assert "P_4 = 1 - 4*t" in out


def test_zeta_tolerance_zero_passes_a_weil_curve(capsys, fixtures_dir):
    # The inverse roots of 1 + 3t + 5t^2 have modulus exactly sqrt(5), but in
    # floats |root| = 0.447213595499958 and 5^(-1/2) = 0.4472135954999579
    # differ by one ulp.  The exact certificate passes the factor unsolved.
    argv = (
        "zeta", fx(fixtures_dir, "elliptic_f5.json"),
        "--profile", fx(fixtures_dir, "profile_curve.json"),
    )
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.endswith("duality check: ok\nriemann hypothesis check: ok\n")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert '"riemann_hypothesis":{"ok":true,"violations":[]}' in out


def test_zeta_wrong_profile_exits_4(capsys, fixtures_dir):
    code, _, err = run_cli(
        capsys, "zeta", fx(fixtures_dir, "elliptic_f5.json"),
        "--profile", fx(fixtures_dir, "profile_p1.json"),
    )
    assert code == 4
    assert "no consistent zeta fit" in err


def test_zeta_fit_whose_degrees_miss_the_profile_exits_4(capsys, fixtures_dir):
    code, out, err = run_cli(
        capsys, "zeta", fx(fixtures_dir, "affine_inconsistent.json"),
        "--profile", fx(fixtures_dir, "profile_curve.json"),
    )
    assert code == 4
    assert out == ""
    assert err == (
        "no consistent zeta fit: numerator degree 0 != sum of odd betti numbers 2\n"
    )


def test_zeta_duality_violation_exit_code(capsys, fixtures_dir, monkeypatch):
    # The reconstruction of honest fixtures satisfies duality, so the exit
    # mapping is exercised by injecting the failure at the check boundary.
    def boom(_):
        raise DualityViolationError("forced failure", degrees=(0,))

    monkeypatch.setattr(cli, "check_functional_equation", boom)
    code, _, err = run_cli(
        capsys, "zeta", fx(fixtures_dir, "elliptic_f5.json"),
        "--profile", fx(fixtures_dir, "profile_curve.json"),
    )
    assert code == 5
    assert "duality" in err


def test_zeta_reports_each_degree_that_fails_the_certificate(capsys, fixtures_dir, monkeypatch):
    # No fixture's factor fails, so a split whose P_1 = 1 - 6t + 5t^2 (inverse
    # roots 1 and 5, not of modulus sqrt 5) is injected after the fit.
    split = WeilFactorization(5, 1, ((1, -1), (1, -6, 5), (1, -5)))
    monkeypatch.setattr(cli, "factor_by_weights", lambda zeta, profile: split)
    argv = (
        "zeta", fx(fixtures_dir, "elliptic_f5.json"),
        "--profile", fx(fixtures_dir, "profile_curve.json"),
    )
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith(
        "riemann hypothesis check: VIOLATED\n"
        "  degree 1: not every inverse root has modulus q^(1/2)\n"
    )
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["riemann_hypothesis"] == {"ok": False, "violations": [1]}


def test_zeta_extra_terms_verification(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "zeta", fx(fixtures_dir, "elliptic_f5.json"),
        "--profile", fx(fixtures_dir, "profile_curve.json"),
        "--extra-terms", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["counts"] == [9, 27, 108]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "elliptic_f5.json", "-n", "-2"],
        ["count", "elliptic_f5.json", "--terms", "0"],
        ["zeta", "elliptic_f5.json", "--profile", "profile_curve.json", "--extra-terms", "-5"],
    ],
)
def test_out_of_range_term_counts_are_usage_errors(capsys, fixtures_dir, argv):
    argv = [fx(fixtures_dir, a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be an integer >=" in captured.err


@pytest.mark.parametrize(
    "profile",
    [
        '{"d": 1}',
        '{"d": 1, "betti": 5}',
        '{"d": 1, "betti": [1, null, 1]}',
        '{"d": "1", "betti": [1, 2, 1]}',
        "[1, 2, 1]",
        '{"d": true, "betti": [1, 2, 1]}',
        '{"d": 1, "betti": "121"}',
        '{"d": 1, "betti": [1, 2.5, 1]}',
        '{"d": 1, "betti": [true, 2, true]}',
    ],
)
def test_malformed_profile_is_a_one_line_error(capsys, fixtures_dir, tmp_path, profile):
    path = tmp_path / "profile.json"
    path.write_text(profile)
    code, out, err = run_cli(
        capsys, "zeta", fx(fixtures_dir, "elliptic_f5.json"), "--profile", str(path)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _write_spec(tmp_path, label, p, k, kind, dim, equations):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "label": label,
                "p": p,
                "k": k,
                "ambient": {"type": kind, "dim": dim},
                "equations": equations,
            }
        )
    )
    return str(spec)


def test_count_over_a_huge_extension_exits_3(capsys, tmp_path):
    # The 2^160 + 1 points of P^1 over F_2^160 exceed the default budget,
    # which refuses them before any field is built.
    spec = _write_spec(tmp_path, "P^1 over F_2^160", 2, 160, "projective", 1, [])
    code, out, err = run_cli(capsys, "count", spec, "-n", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("budget exceeded: ")


@pytest.mark.parametrize("dim", [9100, 10**8])
def test_count_over_a_huge_projective_space_exits_3_promptly(capsys, tmp_path, dim):
    # P^9100 over F_3 has about 3^9100 points, past the 4300 digits that int
    # prints; 3^(10^8 + 1) takes a minute to build.  A bound on the size
    # refuses both before the exact size is built.
    spec = _write_spec(tmp_path, f"P^{dim} over F_3", 3, 1, "projective", dim, [])
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", spec, "-n", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (
        f"budget exceeded: term n=1: enumeration of at least 2^{dim} points "
        f"exceeds budget {10**8}\n"
    )


def test_count_refuses_a_size_too_long_to_print_by_its_bit_length(capsys, tmp_path):
    # Under a budget of 10^3000 the bound does not refuse P^9500 over F_3, and
    # its exact size (3^9501 - 1)/2 has more digits than int prints: the
    # refusal names it by floor(log2) = floor(9501 log2(3) - 1) = 15057.
    spec = _write_spec(tmp_path, "P^9500 over F_3", 3, 1, "projective", 9500, [])
    code, out, err = run_cli(capsys, "count", spec, "-n", "1", "--budget", str(10**3000))
    assert (code, out) == (3, "")
    assert err == (
        "budget exceeded: term n=1: enumeration of at least 2^15057 points "
        f"exceeds budget {10**3000}\n"
    )


def test_spaces_over_large_extensions_need_no_field(capsys, tmp_path):
    # The budget bounds the domain: P^0 has one point whatever the field.
    point = _write_spec(tmp_path, "P^0 over F_2^40", 2, 40, "projective", 0, [])
    assert run_cli(capsys, "count", point, "-n", "1") == (0, "1\n", "")
    # A space with no equations is counted without indexing F_2^80.
    plane = _write_spec(tmp_path, "A^2 over F_2^40", 2, 40, "affine", 2, [])
    code, out, _ = run_cli(capsys, "count", plane, "-n", "2", "--budget", str(10**49))
    assert code == 0
    assert out == f"{2**80}\n{2**160}\n"


def test_count_of_a_line_over_a_field_beyond_int64(capsys, tmp_path):
    # x_0 + g x_1 = 0 over F_2^70: the pure counter would find the one point
    # [1 : 1/g] in the chart x_0 = 1 and none at [0 : 1], where g != 0.  Its
    # one free coordinate is counted by a gcd over F_2^70, with no index.
    one, g = [1] + [0] * 69, [0, 1] + [0] * 68
    spec = _write_spec(
        tmp_path, "x_0 + g x_1 = 0 over F_2^70", 2, 70, "projective", 1,
        [[[one, [1, 0]], [g, [0, 1]]]],
    )
    code, out, err = run_cli(capsys, "count", spec, "-n", "1", "--budget", str(10**24))
    assert (code, out, err) == (0, "1\n", "")


def test_count_over_a_field_beyond_int64_exits_3(capsys, tmp_path):
    # The budget admits P^2 over F_{2^70}, but the conic's chart x_0 = 1 has
    # two free coordinates, whose element indices do not fit in int64.
    one = [1] + [0] * 69
    spec = _write_spec(
        tmp_path, "x_0^2 + x_1 x_2 = 0 over F_2^70", 2, 70, "projective", 2,
        [[[one, [2, 0, 0]], [one, [0, 1, 1]]]],
    )
    code, out, err = run_cli(capsys, "count", spec, "-n", "1", "--budget", str(10**43))
    assert code == 3
    assert out == ""
    assert err.startswith("budget exceeded: ") and "int64" in err
    assert err.count("\n") == 1


def test_compare_equal_self(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "compare",
        fx(fixtures_dir, "elliptic_f5.json"), fx(fixtures_dir, "elliptic_f5.json"),
        "--profile", fx(fixtures_dir, "profile_curve.json"),
    )
    assert code == 0
    assert out.startswith("EQUAL")


def test_compare_differ_reports_first_divergence(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "compare",
        fx(fixtures_dir, "elliptic_f5.json"), fx(fixtures_dir, "p1_f5.json"),
        "--profile", fx(fixtures_dir, "profile_curve.json"), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "DIFFER"
    assert payload["first_divergence"] == {"n": 1, "count_a": 9, "count_b": 6}


def test_compare_field_mismatch_exits_6(capsys, fixtures_dir):
    code, _, err = run_cli(
        capsys, "compare",
        fx(fixtures_dir, "p1_f3.json"), fx(fixtures_dir, "p1_f5.json"),
        "--profile", fx(fixtures_dir, "profile_p1.json"),
    )
    assert code == 6
    assert "field mismatch" in err


def test_find_pair_json(capsys):
    code, out, _ = run_cli(
        capsys, "find-pair", "--p-min", "5", "--p-max", "7", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 10
    assert payload[0]["p"] == 5
    assert payload[0]["counts"] == [4, 32]


def test_find_pair_pairs_compare_equal(capsys, fixtures_dir, tmp_path):
    from fqzeta.pairsearch import find_pairs, weierstrass_spec

    for i, r in enumerate(find_pairs(5, 7)):
        spec_a = tmp_path / f"a{i}.json"
        spec_b = tmp_path / f"b{i}.json"
        spec_a.write_text(json.dumps(weierstrass_spec(r.p, r.curve_a.a, r.curve_a.b).to_dict()))
        spec_b.write_text(json.dumps(weierstrass_spec(r.p, r.curve_b.a, r.curve_b.b).to_dict()))
        code, out, _ = run_cli(
            capsys, "compare", str(spec_a), str(spec_b),
            "--profile", fx(fixtures_dir, "profile_curve.json"),
        )
        assert code == 0
        assert out.startswith("EQUAL")


_FIND_PAIR_TO_97 = {
    "json": "092e56e821e710f425fd3418f02d8283d85f837d8e92931b4608476a15b66b68",
    "human": "7475159a69078fac2f0b690a695896710c32ecd17d81cc1c2e0d1084ed5a7a3e",
}


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "f8a1bc9ad97a9cd4392aae1a9406d74f928ee5f36ad20792fd5d3797364b111d"),
        ("human", "307fc01e880d05179853a3579cd2e2c28b01096a35526b78cfad8b37685bf214"),
    ],
)
def test_find_pair_output_is_pinned(capsys, fmt, digest):
    # The sha256 of find-pair's stdout over the benchmark's primes 5..47,
    # as the pair search printed it while it summed over tuple-keyed tables,
    # and over 5..97, taken while it still summed N_2 over F_{p^2} for every
    # class and N_1 for every model.
    for p_max, want in (("47", digest), ("97", _FIND_PAIR_TO_97[fmt])):
        code, out, err = run_cli(
            capsys, "find-pair", "--p-min", "5", "--p-max", p_max, "--format", fmt
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "faad74f30accb895b8bd1836a96d5b69c8b8e400629da34225ea5281ccb45c4c"),
        ("human", "c12088ada53edd96d9e159acc0bcc70e368faddf06fb67548a4703b3585ce12c"),
    ],
)
def test_solve_output_is_pinned(capsys, fmt, digest):
    # The sha256 of solve's exit codes and stdout for d = 1..16 under all 8
    # flag sets, taken while the solver still built its rows over Q(q).
    h = hashlib.sha256()
    for d in range(1, 17):
        for flags in itertools.product(
            ("--albanese", "--no-albanese"),
            ("--hard-lefschetz", "--no-hard-lefschetz"),
            ("--trivial", "--no-trivial"),
        ):
            code, out, err = run_cli(
                capsys, "solve", "-d", str(d), "--max-d", "16", *flags, "--format", fmt
            )
            assert err == ""
            h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "5e2ca03885bdea99ef8b9603578a7ecc507ce02665eef7e65558ef5eb6f3be69"),
        ("human", "31423fb5c700f2e7709ea34318a220018000afa768c7693f84367a91685f349a"),
    ],
)
def test_solve_output_is_pinned_large_d(capsys, fmt, digest):
    # The sha256 of solve's exit codes and stdout for d = 64 with all flags
    # on and with --no-albanese, taken while the solver still reduced its
    # rows by rref in Fraction arithmetic.
    h = hashlib.sha256()
    for flags in (("--albanese", "--hard-lefschetz", "--trivial"), ("--no-albanese",)):
        code, out, err = run_cli(
            capsys, "solve", "-d", "64", "--max-d", "64", *flags, "--format", fmt
        )
        assert err == ""
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == digest


def test_find_pair_empty_range(capsys):
    code, out, _ = run_cli(capsys, "find-pair", "--p-min", "24", "--p-max", "28")
    assert code == 0
    assert "no pairs found" in out


def test_solve_d3_full(capsys):
    code, out, _ = run_cli(capsys, "solve", "-d", "3")
    assert code == 0
    assert "forced degrees: 0 1 2 3 4 5 6 (all)" in out
    assert "residual relations: (none)" in out


def test_solve_d3_no_albanese(capsys):
    code, out, _ = run_cli(capsys, "solve", "-d", "3", "--no-albanese")
    assert code == 1
    assert "forced degrees: 0 2 4 6" in out
    assert "2*q*D_1 + D_3 = 0" in out


def test_solve_d4_with_albanese(capsys):
    code, out, _ = run_cli(capsys, "solve", "-d", "4", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["forced"] == [0, 1, 3, 5, 7, 8]
    coeff_sets = [rel["coeffs"] for rel in payload["residual_relations"]]
    assert {"D_2": "2*q/1", "D_4": "1/1"} in coeff_sets


def test_solve_output_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "solve", "-d", "5", "--no-albanese", "--format", "json")
    _, out2, _ = run_cli(capsys, "solve", "-d", "5", "--no-albanese", "--format", "json")
    assert out1 == out2
    assert "\n" == out1[-1]
    assert json.dumps(json.loads(out1), sort_keys=True, separators=(",", ":")) + "\n" == out1


def test_solve_d_out_of_range(capsys):
    for d in ("0", "9"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "-d", d])
        assert exc.value.code == 2  # a usage error
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fqzeta: error: argument -d: must be in 1..8, got {d}\n"
    code2, _, _ = run_cli(capsys, "solve", "-d", "9", "--max-d", "9")
    assert code2 == 1  # runs, but d=9 leaves residuals


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "-d", "3", "--budget", "-1", "--tolerance", "5"],
        ["solve", "-d", "3", "--budget", "100"],
        ["solve", "-d", "3", "--tolerance", "5"],
        ["find-pair", "--tolerance", "99"],
        ["count", "p1_f3.json", "-n", "1", "--tolerance", "1"],
        ["compare", "p1_f3.json", "p1_f3.json", "--profile", "profile_p1.json", "--tolerance", "1"],
        ["zeta", "elliptic_f5.json", "--profile", "profile_curve.json", "--tolerance", "0"],
    ],
)
def test_options_a_subcommand_ignores_are_usage_errors(capsys, fixtures_dir, argv):
    argv = [fx(fixtures_dir, a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fqzeta: error: unrecognized arguments: --")
    assert captured.err.count("\n") == 1


def _run_python(*args, timeout=None):
    # The child imports the same fqzeta as this process, installed or not.
    src = str(pathlib.Path(fqzeta.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def _run_module(*argv, timeout=None):
    return _run_python("-m", "fqzeta", *argv, timeout=timeout)


_ALGEBRA_WITHOUT_NUMPY = """
import contextlib, io, sys
from fqzeta import cli, zeta

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["solve", "-d", "3"]) == 0
# E x P^1 over F_5, E of trace -3: counts -> zeta -> split -> traces -> checks.
q, profile = 5, zeta.CohomologyProfile(2, (1, 2, 2, 2, 1))
source = zeta.ZetaFunction(q, (1, 18, 175, 450, 625), (1, -36, 310, -900, 625))
series = zeta.counts_from_zeta(source, 8)
fitted = zeta.zeta_from_counts(
    series,
    profile.odd_total,
    profile.even_total,
    known_denominator=zeta.connected_denominator(q, 2),
)
assert fitted == source
split = zeta.factor_by_weights(fitted, profile)
zeta.traces_from_factorization(split, 3)
assert zeta.check_functional_equation(split)["ok"]
assert zeta.check_riemann_hypothesis(split)["ok"]
# A failing certificate: 1 - 11t + 25t^2 at degree 2 over F_5 is not Weil.
non_weil = zeta.WeilFactorization(5, 2, ((1, -1), (1,), (1, -11, 25), (1,), (1, -25)))
assert zeta.check_riemann_hypothesis(non_weil) == {"ok": False, "violations": [2]}
print("numpy" in sys.modules)
"""


def test_algebra_path_imports_no_numpy():
    proc = _run_python("-c", _ALGEBRA_WITHOUT_NUMPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_find_pair_imports_no_numpy():
    # The pair search sums N_1 over its own table of the quadratic character
    # of F_p instead of calling count_points, which imports numpy.  That
    # import alone took 135-197 ms (python -X importtime, Python 3.11.7 on
    # 2 Xeon CPUs), about twice a whole normalized find_pair benchmark pass,
    # and would cost the find-pair run about 70 % more resident memory.
    script = (
        "import contextlib, io, sys\n"
        "from fqzeta import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['find-pair', '--p-min', '5', '--p-max', '47']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_console_entry_point_subprocess():
    proc = _run_module("solve", "-d", "3", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["forced"] == [0, 1, 2, 3, 4, 5, 6]


# Malformed spec JSON: a valid curve spec with one field replaced by a value
# of the wrong type or shape.  Every such spec must exit 2 with a one-line
# message, before any counting starts.

_VALID_SPEC = {
    "label": "y^2 z = x^3 + z^3 over F_5",
    "p": 5,
    "k": 1,
    "ambient": {"type": "projective", "dim": 2},
    "equations": [[[1, [0, 2, 1]], [-1, [3, 0, 0]], [-1, [0, 0, 3]]]],
}


def test_composite_p_exits_2_without_traceback(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**_VALID_SPEC, "p": 6}))
    proc = _run_module("count", str(spec), "-n", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "malformed spec: 6 is not prime\n"


_scalars = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4))
_not_int = st.one_of(
    _scalars,
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_not_list = st.one_of(
    _scalars, st.integers(), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
)
_not_prime = st.one_of(
    st.integers(max_value=1),
    st.tuples(st.integers(2, 10**4), st.integers(2, 10**4)).map(lambda t: t[0] * t[1]),
    st.integers(min_value=2**31),
)
_bad_exponents = st.one_of(
    _not_list,
    st.lists(st.integers(0, 3), max_size=5).filter(lambda e: len(e) != 3),
    st.tuples(st.integers(0, 2), _not_int).map(lambda t: [t[0], t[1], 3 - t[0]]),
    st.integers(max_value=-1).map(lambda e: [0, 3 - e, e]),
)
_bad_term = st.one_of(
    _not_list,
    st.lists(st.integers(), max_size=4).filter(lambda t: len(t) != 2),
    _not_int.map(lambda c: [c, [3, 0, 0]]),
    _bad_exponents.map(lambda e: [1, e]),
)


def _with_term(term):
    return {**_VALID_SPEC, "equations": [[[1, [0, 2, 1]], term]]}


_malformed_specs = st.one_of(
    _not_int.map(lambda v: {**_VALID_SPEC, "p": v}),
    _not_prime.map(lambda v: {**_VALID_SPEC, "p": v}),
    _not_int.map(lambda v: {**_VALID_SPEC, "k": v}),
    st.integers(max_value=0).map(lambda v: {**_VALID_SPEC, "k": v}),
    st.one_of(_not_list, st.lists(st.integers(), max_size=2)).map(
        lambda v: {**_VALID_SPEC, "ambient": v}
    ),
    st.one_of(_not_int, st.text(max_size=10)).map(
        lambda v: {**_VALID_SPEC, "ambient": {"type": v, "dim": 2}}
    ),
    st.one_of(_not_int, st.integers(max_value=-1)).map(
        lambda v: {**_VALID_SPEC, "ambient": {"type": "affine", "dim": v}}
    ),
    _not_list.map(lambda v: {**_VALID_SPEC, "equations": v}),
    _not_list.map(lambda v: {**_VALID_SPEC, "equations": [v]}),
    _bad_term.map(_with_term),
)


@given(_malformed_specs)
def test_malformed_spec_json_exits_2_with_one_line(spec):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["count", str(path), "-n", "1"])
    assert code == 2
    assert out.getvalue() == ""
    message = err.getvalue()
    assert message.startswith("malformed spec: ") and message.count("\n") == 1
    assert "Traceback" not in message


# Malformed profile JSON: every such profile exits 1 with a one-line error
# before any counting starts.  Integral floats such as 2.0 are valid entries.

_FIXTURES = pathlib.Path(__file__).parent / "fixtures"
_bad_entry = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats().filter(lambda x: not x.is_integer()),
    st.lists(st.integers(0, 2), max_size=2),
)
_malformed_profiles = st.one_of(
    st.one_of(_bad_entry, st.floats()).map(lambda d: {"d": d, "betti": [1, 2, 1]}),
    st.one_of(_bad_entry, st.integers()).map(lambda b: {"d": 1, "betti": b}),
    st.tuples(_bad_entry, st.sampled_from([0, 1, 2])).map(
        lambda t: {"d": 1, "betti": [t[0] if i == t[1] else b for i, b in enumerate([1, 2, 1])]}
    ),
    st.lists(st.integers(0, 3), max_size=6)
    .filter(lambda b: len(b) != 3 or b[0] != 1 or b[2] != 1)
    .map(lambda b: {"d": 1, "betti": b}),
    st.integers(-3, 3).filter(lambda d: d != 1).map(lambda d: {"d": d, "betti": [1, 2, 1]}),
    st.sampled_from(["d", "betti"]).map(lambda k: {k: 1}),
    st.one_of(st.none(), st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=3)),
)


@given(_malformed_profiles)
def test_malformed_profile_json_exits_1_with_one_line(profile):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "profile.json"
        path.write_text(json.dumps(profile))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["zeta", str(_FIXTURES / "elliptic_f5.json"), "--profile", str(path)])
    assert code == 1
    assert out.getvalue() == ""
    message = err.getvalue()
    assert message.startswith("error: ") and message.count("\n") == 1
    assert "Traceback" not in message


def _run_captured(argv):
    """(exit code, stdout, stderr) of cli.main, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    message = err.getvalue()
    assert message.count("\n") <= 1
    assert "Traceback" not in message
    if code == 2:
        assert out.getvalue() == ""
    return code, out.getvalue(), message


def test_reused_parser_matches_fresh_processes(fixtures_dir):
    # main builds its parser once per process; a command run after others
    # must print and exit exactly as in a process of its own.
    runs = [
        ["solve", "-d", "4", "--no-trivial"],
        ["solve", "-d", "4"],
        ["solve", "-d", "9"],
        ["count", fx(fixtures_dir, "elliptic_f5.json"), "-n", "3", "--format", "json"],
    ]
    results = [_run_captured(argv) for argv in runs]
    assert cli.build_parser() is cli.build_parser()
    for argv, (code, out, err) in zip(runs, results):
        fresh = _run_module(*argv, timeout=60)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    # d = 4 leaves a residual family (exit 1); --no-trivial must not leak
    # into the next solve.
    assert [code for code, _, _ in results] == [1, 1, 2, 0]
    assert "trivial=off" in results[0][1] and "trivial=on" in results[1][1]


# find-pair arguments: any integers for the prime range and the budget end in
# a result (0), a usage error (2) or a budget refusal (3), never a traceback.
# Budgets stay small, so every admitted sweep is short.


@given(
    st.integers(),
    st.one_of(st.integers(), st.integers(min_value=2**31)),
    st.integers(max_value=10**5),
)
def test_find_pair_arguments_exit_0_2_or_3(p_min, p_max, budget):
    argv = ["find-pair", f"--p-min={p_min}", f"--p-max={p_max}", f"--budget={budget}"]
    code, out, message = _run_captured(argv)
    assert code in (0, 2, 3)
    if code == 3:
        assert out == "" and message.startswith("budget exceeded: ")


# count, zeta, compare and solve arguments: numbers in and out of range, and
# text where a number belongs, on the committed fixtures.  Every run ends in
# one of the subcommand's documented exit codes, with at most one line on
# stderr and no traceback.  Budgets stay small, so every admitted count is
# short.

_SPECS = sorted(p.name for p in _FIXTURES.glob("*.json") if not p.name.startswith("profile"))
_PROFILES = sorted(p.name for p in _FIXTURES.glob("profile*.json"))


def _value(numbers):
    # Text where a number belongs in about one draw of eight, so that most
    # runs get past argument parsing.
    return st.tuples(st.integers(0, 7), numbers, st.text(max_size=4)).map(
        lambda t: t[2] if t[0] == 7 else t[1]
    )


def _budget():
    return _value(st.one_of(st.just(10**5), st.integers(-10, 10**5)))


@given(st.sampled_from(_SPECS), _value(st.sampled_from([1, 2, 3, 4, 0, -1])), _budget(), st.booleans())
def test_count_arguments_exit_0_2_or_3(spec, terms, budget, as_json):
    argv = ["count", str(_FIXTURES / spec), f"--terms={terms}", f"--budget={budget}"]
    code, out, message = _run_captured(argv + ["--format=json"] * as_json)
    assert code in (0, 2, 3)
    if code == 0:
        assert out.count("\n") == (1 if as_json else terms)
    elif code == 3:
        assert message.startswith("budget exceeded: ")


@given(
    st.sampled_from(_SPECS),
    st.sampled_from(_PROFILES),
    _value(st.sampled_from([0, 1, 2, -1])),
    _budget(),
)
def test_zeta_arguments_exit_with_a_documented_code(spec, profile, extra, budget):
    argv = [
        "zeta", str(_FIXTURES / spec), f"--profile={_FIXTURES / profile}",
        f"--extra-terms={extra}", f"--budget={budget}",
    ]
    code, _, _ = _run_captured(argv)
    assert code in (0, 2, 3, 4, 5)


@given(
    st.sampled_from(_SPECS), st.sampled_from(_SPECS), st.sampled_from(_PROFILES), _budget()
)
def test_compare_arguments_exit_with_a_documented_code(spec_a, spec_b, profile, budget):
    argv = [
        "compare", str(_FIXTURES / spec_a), str(_FIXTURES / spec_b),
        f"--profile={_FIXTURES / profile}", f"--budget={budget}",
    ]
    code, out, _ = _run_captured(argv)
    assert code in (0, 2, 3, 4, 5, 6)
    if code == 0:
        assert out.splitlines()[0] in ("EQUAL", "DIFFER")


@given(
    _value(st.sampled_from([*range(1, 11), 0, -1])),
    st.one_of(st.none(), _value(st.sampled_from([*range(1, 7), 0, -1]))),
    st.lists(st.sampled_from(["--no-albanese", "--no-hard-lefschetz", "--no-trivial"])),
)
def test_solve_arguments_exit_0_1_or_2(d, max_d, flags):
    argv = ["solve", f"-d{d}", *flags] + ([] if max_d is None else [f"--max-d={max_d}"])
    code, out, message = _run_captured(argv)
    assert code in (0, 1, 2)
    if code != 2:
        assert message == "" and out.startswith("d=")


def test_find_pair_up_to_the_largest_prime_exits_3_promptly():
    proc = _run_module("find-pair", "--p-max", "2147483647", timeout=30)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: ") and proc.stderr.count("\n") == 1


def test_find_pair_budget_admits_or_refuses_the_sweep(capsys):
    # 5 and 7 visit (3*5+6)*5 + (3*7+6)*7 = 294 models and points at most:
    # p^2 models in the class map and p points for each of 2p + 6 classes.
    argv = ("find-pair", "--p-min", "5", "--p-max", "7", "--budget")
    code, out, _ = run_cli(capsys, *argv, "294")
    assert code == 0 and out.startswith("p=5")
    code, out, err = run_cli(capsys, *argv, "293")
    assert code == 3 and out == ""
    assert err == (
        "budget exceeded: the class maps and N_1 sums for primes 5..7 visit up to "
        "294 models and points, exceeds budget 293\n"
    )
