import json
import math

import mpmath as mp
import pytest

from zetakit import (AsymExpansion, bernoulli_poly_row, classify_poles, cli, log_coeffs,
                     zeta_int_leq_alpha)
from zetakit.catalog import RIEMANN_PSI
from zetakit.cli import build_parser, main

from conftest import CATALOG_SPECS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestValues:
    def test_riemann_negative(self, capsys):
        code, doc, _ = run_json(capsys, "values", "--model", "riemann", "--n=-1")
        assert code == 0
        assert doc["command"] == "values"
        entry = doc["results"][0]
        assert entry["method"] == "continuation"
        assert entry["value"]["re"] == pytest.approx(-1.0 / 12.0, rel=1e-12)

    def test_airy_range_matches_closed_forms(self, capsys):
        code, doc, _ = run_json(capsys, "values", "--model", "airy", "--n", "1..5")
        assert code == 0
        g = math.gamma
        expect = {
            1: -3 ** (1 / 3) * g(2 / 3) / g(1 / 3),
            2: 3 ** (2 / 3) * g(2 / 3) ** 2 / g(1 / 3) ** 2,
            3: 0.5 - 3 * g(2 / 3) ** 3 / g(1 / 3) ** 3,
            4: 3 ** (4 / 3) * g(2 / 3) ** 4 / g(1 / 3) ** 4
               - g(2 / 3) / (3 ** (2 / 3) * g(1 / 3)),
            5: -3 ** (5 / 3) * g(2 / 3) ** 5 / g(1 / 3) ** 5
               + 1.25 * g(2 / 3) ** 2 / (3 ** (1 / 3) * g(1 / 3) ** 2),
        }
        for entry in doc["results"]:
            assert entry["value"]["re"] == pytest.approx(expect[entry["n"]], rel=1e-11)

    def test_chf_value_with_check(self, capsys):
        code, doc, _ = run_json(capsys, "values", "--model", "chf",
                                "--a", "0.5", "--b", "1.5", "--n", "2", "--check")
        assert code == 0
        entry = doc["results"][0]
        a, b = 0.5, 1.5
        assert entry["value"]["re"] == pytest.approx(a * (a - b) / (b * b * (b + 1)),
                                                     rel=1e-12)
        assert entry["check_discrepancy"] < 1e-9

    def test_check_at_zero_below_first_order(self, capsys):
        # a one-sided check at s = h would read |zeta'(0)| h = 9.2e-7 here
        code, doc, _ = run_json(capsys, "values", "--model", "riemann", "--n", "0", "--check")
        assert code == 0
        assert doc["results"][0]["check_discrepancy"] < 1e-9

    def test_check_passes_ray_options(self, capsys):
        # pcf knows no zero-free radius: the check route needs the given --R
        code, doc, err = run_json(capsys, "values", "--model", "pcf", "--a", "1",
                                  "--n=-2..3", "--check", "--R", "0.9",
                                  "--tmax", "300", "--tol", "1e-11")
        assert code == 0 and err == ""
        assert [e["n"] for e in doc["results"]] == [-2, -1, 0, 1, 2, 3]
        for e in doc["results"]:
            assert e["check_discrepancy"] < (1e-5 if e["n"] == 0 else 1e-9)

    def test_pole_row(self, capsys):
        code, doc, _ = run_json(capsys, "values", "--model", "riemann", "--n", "1")
        assert code == 0
        assert doc["results"][0]["method"] == "pole"
        assert doc["results"][0]["residue"]["re"] == pytest.approx(1.0)

    def test_structural_zero_tag(self, capsys):
        code, doc, _ = run_json(capsys, "values", "--model", "airy", "--n=-1")
        assert code == 0
        assert doc["results"][0]["method"] == "structural-zero"
        assert doc["results"][0]["value"]["re"] == 0.0

    def test_inline_json_model_spec(self, capsys):
        code, doc, _ = run_json(capsys, "values", "--model",
                                '{"model": "hurwitz", "a": 0.25}', "--n", "0")
        assert code == 0
        assert doc["results"][0]["value"]["re"] == pytest.approx(0.25)

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["values", "--model", "riemann"])
        assert exc.value.code == 2

    def test_unknown_model_exit_one(self, capsys):
        code, out, err = run(capsys, "values", "--model", "bessel", "--n", "2")
        assert code == 1
        assert "bessel" in err

    @pytest.mark.parametrize("argv", [("--model", json.dumps(spec)) for spec in CATALOG_SPECS]
                             + [("--model", "hurwitz", "--a", "0.4+0.7i")], ids=" ".join)
    def test_every_integer_reads_the_old_rule(self, capsys, argv):
        # zeta_int_leq_alpha now answers n = 0 and n > alpha too; the old
        # branches were -n b_n right of alpha and classify_poles' zeta(0) at 0
        code, doc, _ = run_json(capsys, "values", *argv, "--n=-8..12")
        assert code == 0
        model = cli._build_model(build_parser().parse_args(["values", *argv, "--n=0"]))
        report, logc = classify_poles(model.asym), log_coeffs(model.series)
        for e in doc["results"]:
            n = e["n"]
            if e["method"] == "pole":
                assert report.pole_at(float(n)) is not None
                continue
            if n > model.asym.alpha:
                want = -n * logc[n]
            elif n == 0:
                want = report.zeta0
            else:
                want = zeta_int_leq_alpha(model.asym, logc if n >= 1 else None, n)
            assert complex(e["value"]["re"], e["value"]["im"]) == want, n

    def test_partial_failure_lists_items_on_stderr(self, capsys):
        # -25 lies outside the airy table's strip; -1 succeeds
        code, out, err = run(capsys, "values", "--model", "airy", "--n=-25..-24")
        assert code == 1
        assert "-25" in err and "-24" in err
        code2, out2, err2 = run(capsys, "values", "--model", "airy", "--n=-1")
        assert code2 == 0 and err2 == ""


class TestPoles:
    def test_airy_json_schema(self, capsys):
        code, doc, _ = run_json(capsys, "poles", "--model", "airy")
        assert code == 0
        assert set(doc) == {"command", "model", "params", "poles",
                            "zeta0", "zeta_prime0"}
        first = doc["poles"][0]
        assert set(first) == {"location", "order", "residue"}
        assert first["location"] == pytest.approx(1.5)
        assert first["residue"]["re"] == pytest.approx(1 / math.pi, rel=1e-12)
        assert doc["zeta0"]["re"] == pytest.approx(-0.25)

    @pytest.mark.parametrize("spec", [
        '{bad', '{"model": "airy", "depth": "x"}', '{"model": "hurwitz", "a": "x"}',
        '{"model": "hurwitz", "a": NaN}', '{"model": "user"}', '{"model": "pcf", "a": null}'])
    def test_malformed_inline_spec_is_an_error_line(self, capsys, spec):
        code, out, err = run(capsys, "poles", "--model", spec)
        assert code == 1
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1

    def test_check_flag(self, capsys):
        code, doc, _ = run_json(capsys, "poles", "--model", "riemann", "--check")
        assert code == 0
        assert doc["poles"][0]["check_discrepancy"] < 1e-3

    def test_check_reads_the_residue_at_a_double_pole(self, capsys):
        # d_{1,1} z^(1/2) ln z gives a pole of order 2 at 1/2 with residue -1/2 + i/pi
        asym = AsymExpansion(alpha=1.5, m=1, M=1, N=3, psi=2.0,
                             d={(0, 0): 0.5, (1, 1): 1.0})
        spec = json.dumps({"model": "user", "series": {"coeffs": [{"re": 1.0}, {"re": 0.5}]},
                           "asym": json.loads(asym.to_json())})
        code, doc, _ = run_json(capsys, "poles", "--model", spec, "--check")
        assert code == 0
        pole = next(p for p in doc["poles"] if p["location"] == 0.5)
        assert pole["order"] == 2
        assert complex(pole["residue"]["re"], pole["residue"]["im"]) \
            == pytest.approx(-0.5 + 1j / math.pi, rel=1e-14)
        assert all(p["check_discrepancy"] <= 1e-13 for p in doc["poles"])

    @pytest.mark.parametrize("spec", CATALOG_SPECS + [{"model": "airy", "depth": 13}],
                             ids=json.dumps)
    def test_check_reads_every_residue_to_roundoff(self, capsys, spec):
        # the trapezoid rule on the pole's own row; the residues of airy at
        # depth 13 reach 1.1e7
        code, doc, _ = run_json(capsys, "poles", "--model", json.dumps(spec), "--check")
        assert code == 0
        for p in doc["poles"]:
            residue = complex(p["residue"]["re"], p["residue"]["im"])
            assert p["check_discrepancy"] <= 1e-13 * max(1.0, abs(residue)), p


class TestShift:
    def test_hurwitz_report(self, capsys):
        code, doc, _ = run_json(capsys, "shift", "--model", "riemann",
                                "--A", "1", "--B", "-0.75")
        assert code == 0
        assert doc["zeta0"]["re"] == pytest.approx(0.25)
        ref = -0.5 * math.log(2 * math.pi) + math.lgamma(0.25)
        assert doc["zeta_prime0"]["re"] == pytest.approx(ref, rel=1e-10)
        bern = bernoulli_poly_row(0.25, 7)
        for n in range(1, 7):
            got = doc["values"][str(-n)]["re"]
            ref_n = -bern[n + 1].real / (n + 1)
            assert got == pytest.approx(ref_n, rel=1e-9, abs=1e-12)
        assert doc["poles"][0]["location"] == pytest.approx(1.0)

    @pytest.mark.parametrize("argv", [
        ("--model", "riemann", "--A", "1", "--B", "-0.75"),
        ("--model", "hurwitz", "--a", "0.3", "--A", "2", "--B", "0.5")])
    def test_check_against_hurwitz_closed_form(self, capsys, argv):
        code, doc, _ = run_json(capsys, "shift", *argv, "--check")
        assert code == 0
        assert doc["check_discrepancy"] < 1e-12

    def test_check_sees_a_corrupted_table(self, capsys, monkeypatch):
        # Omega[3, 0] feeds zeta(-2), Omega[1, 0] only zeta'(0)
        import dataclasses
        import zetakit.shift
        orig = zetakit.shift.omega_table
        for key in ((3, 0), (1, 0)):
            def corrupted(*args, **kwargs):
                om = orig(*args, **kwargs)
                return dataclasses.replace(om, d={**om.d, key: om.d[key] + 1e-3})

            monkeypatch.setattr(zetakit.shift, "omega_table", corrupted)
            code, doc, _ = run_json(capsys, "shift", "--model", "riemann",
                                    "--A", "1", "--B", "-0.75", "--check")
            assert code == 0
            assert doc["check_discrepancy"] > 1e-4, key

    def test_zeta_prime0_branch_follows_the_scale(self, capsys):
        # zeta'_A(0) = zeta'_mu(0) - ln A zeta_mu(0) for A a_n + B = A (a_n + mu)
        _, one, _ = run_json(capsys, "shift", "--model", "riemann", "--A", "1", "--B=-1.5")
        code, two, _ = run_json(capsys, "shift", "--model", "riemann", "--A", "2", "--B=-3")
        assert code == 0
        want = (complex(one["zeta_prime0"]["re"], one["zeta_prime0"]["im"])
                - math.log(2.0) * complex(one["zeta0"]["re"], one["zeta0"]["im"]))
        got = complex(two["zeta_prime0"]["re"], two["zeta_prime0"]["im"])
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("argv", [
        ("--model", "riemann", "--A", "2", "--B=-2"),
        ("--model", "riemann", "--A", "1", "--B=-1"),
        ("--model", "hurwitz", "--a", "0.5", "--A", "1", "--B=-2.5")])
    def test_sequence_with_zero_fails_cleanly(self, capsys, recwarn, argv):
        code, out, err = run(capsys, "shift", *argv)
        assert code == 1
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
        assert len(recwarn) == 0

    @pytest.mark.parametrize("a", ["0.3", "0.8"])
    def test_trivial_zeros_exact(self, capsys, a):
        # a + B/A is 1/2 or 1: zeta(-2k) = 0 exactly, not the roundoff of Omega
        code, doc, _ = run_json(capsys, "shift", "--model", "hurwitz", "--a", a,
                                "--A", "1", "--B", "0.2")
        assert code == 0
        for n in ("-2", "-4", "-6"):
            assert doc["values"][n] == {"re": 0.0, "im": 0.0}

    @pytest.mark.parametrize("a", ["0.3", "0.8"])
    def test_no_cancellation_notes_on_exact_zeros(self, capsys, a):
        # the Omega entries behind the trivial zeros are roundoff below 1e-14
        code, out, _ = run(capsys, "shift", "--model", "hurwitz", "--a", a,
                           "--A", "1", "--B", "0.2")
        assert code == 0
        assert "zeta(-6) = 0\n" in out and "note:" not in out

    @pytest.mark.parametrize("A, B", [("4", "-2"), ("10", "-5"), ("0.1", "-0.05")])
    def test_scaled_trivial_zeros_exact_without_notes(self, capsys, A, B):
        # A n + B = A (n - 1/2): the scale stays out of the table, so the
        # 1e-14 threshold still sees the trivial zeros as exact
        code, doc, _ = run_json(capsys, "shift", "--model", "riemann", "--A", A, "--B", B)
        assert code == 0 and doc["flags"] == []
        for n in ("-2", "-4", "-6"):
            assert doc["values"][n] == {"re": 0.0, "im": 0.0}
        code, out, _ = run(capsys, "shift", "--model", "riemann", "--A", A, "--B", B)
        assert code == 0
        assert "zeta(-6) = 0\n" in out and "note:" not in out

    @pytest.mark.parametrize("model", [("airy",), ("pcf", "--a", "1")])
    def test_check_without_route_fails_cleanly(self, capsys, model):
        code, out, err = run(capsys, "shift", "--model", *model,
                             "--A", "2", "--B", "0.5", "--check")
        assert code == 1
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


class TestPointCommands:
    def test_series(self, capsys):
        code, doc, _ = run_json(capsys, "series", "--model", "riemann",
                                "--s", "2", "--nterms", "2000")
        assert code == 0
        assert doc["value"]["re"] == pytest.approx(math.pi ** 2 / 6, rel=1e-12)

    def test_contour_with_check(self, capsys):
        code, doc, _ = run_json(capsys, "contour", "--model", "airy",
                                "--s", "3", "--R", "1.0", "--check")
        assert code == 0
        assert doc["check_discrepancy"] < 1e-8

    def test_continue_left_of_strip(self, capsys):
        code, doc, _ = run_json(capsys, "continue", "--model", "airy", "--s=-0.5")
        assert code == 0
        assert doc["value"]["re"] == pytest.approx(-0.1394, abs=2e-4)

    def test_continue_at_pole_fails_cleanly(self, capsys):
        code, out, err = run(capsys, "continue", "--model", "airy", "--s", "1.5")
        assert code == 1
        assert "pole" in err

    @pytest.mark.parametrize("argv, flag", [
        (("values", "--model", "pcf", "--n", "3"), "--a"),
        (("continue", "--model", "hurwitz", "--s", "0.5"), "--a"),
        (("poles", "--model", "chf", "--a", "0.5"), "--b")])
    def test_missing_parameter_fails_cleanly(self, capsys, argv, flag):
        # main returns instead of raising, so the shell shows no traceback
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == "" and err.startswith("error:") and flag in err

    @pytest.mark.parametrize("model", [("pcf", "--a", "1"), ("chf", "--a", "0.5", "--b", "1.5")])
    def test_series_without_zeros_fails_cleanly(self, capsys, model):
        code, out, err = run(capsys, "series", "--model", *model, "--s", "3")
        assert code == 1
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_series_negative_nterms_fails_cleanly(self, capsys):
        code, out, err = run(capsys, "series", "--model", "airy", "--s", "3", "--nterms", "-5")
        assert code == 1
        assert out == "" and err == "error: n_terms must be >= 0\n"

    def test_series_tail_alone(self, capsys):
        # --nterms 0 asks for no direct terms: the Euler-Maclaurin tail's estimate
        # refuses n = 1, so the direct sum grows until it accepts a later start
        code, doc, _ = run_json(capsys, "series", "--model", "riemann",
                                "--s", "3", "--nterms", "0")
        assert code == 0
        assert doc["value"]["re"] == pytest.approx(1.2020569031595942, rel=0.05)

    def test_series_tail_start_below_one(self, capsys):
        # a_3 = 0.7 < 1: the head sums the first n_exact = 5 elements, and grows
        # while the tail's estimate refuses its start
        code, doc, err = run_json(capsys, "series", "--model", "hurwitz", "--a", "-1.3",
                                  "--s", "3", "--nterms", "2")
        assert code == 0 and err == ""
        ref = complex(mp.zeta(3, mp.mpf("-1.3")))
        assert abs(complex(doc["value"]["re"], doc["value"]["im"]) - ref) <= 1e-14 * abs(ref)

    def test_series_check_off_integers(self, capsys):
        code, doc, _ = run_json(capsys, "series", "--model", "airy", "--s", "2.5", "--check")
        assert code == 0
        assert doc["check_discrepancy"] < 1e-10

    @pytest.mark.parametrize("cmd", ["series", "continue"])
    def test_check_on_the_cut_of_the_contour_routes(self, capsys, cmd):
        # hurwitz(-1.3) has negative elements; the direct sum takes their
        # powers on the model's cut, as contour and continue do
        code, doc, _ = run_json(capsys, cmd, "--model", "hurwitz", "--a", "-1.3",
                                "--s", "2.5", "--check")
        assert code == 0
        assert doc["check_discrepancy"] < 1e-9
        assert doc["value"]["im"] == pytest.approx(20.80499, abs=1e-5)

    def test_every_direct_sum_takes_the_model_cut(self, capsys, monkeypatch):
        seen = []
        real = cli.zeta_series

        def spy(zeros, s, n_terms):
            seen.append(zeros.psi)
            return real(zeros, s, n_terms)

        monkeypatch.setattr(cli, "zeta_series", spy)
        hurwitz = ("--model", "hurwitz", "--a", "-1.3")
        for argv in (("series", *hurwitz, "--s", "2.5"),
                     ("continue", *hurwitz, "--s", "2.5", "--check"),
                     ("aaa", *hurwitz, "--npoints", "20", "--nterms", "200")):
            before = len(seen)
            assert run(capsys, *argv)[0] == 0
            assert len(seen) > before, argv
        assert set(seen) == {RIEMANN_PSI}

    def test_tolerance_override(self, capsys):
        code, doc, _ = run_json(capsys, "continue", "--model", "airy", "--s", "0",
                                "--tol", "1e-6")
        assert code == 0
        assert doc["value"]["re"] == pytest.approx(-0.25, abs=1e-4)


class TestAaa:
    def test_reduced_pipeline(self, capsys):
        code, doc, _ = run_json(capsys, "aaa", "--model", "airy",
                                "--npoints", "60", "--nterms", "4000")
        assert code == 0
        assert set(doc) == {"command", "model", "params", "degree",
                            "max_residual", "converged", "features",
                            "verification"}
        assert doc["converged"]
        assert doc["verification"]["zeta0"]["re"] == pytest.approx(-0.25, abs=1e-4)
        assert any(-1.05 <= z <= -0.95 for z in doc["features"]["zeros"])


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ("poles", "--model", "airy", "--tmax", "50"),
        ("poles", "--model", "airy", "--tol", "1e-6"),
        ("shift", "--model", "riemann", "--A", "2", "--B", "0.5", "--R", "0.5"),
        ("shift", "--model", "riemann", "--A", "2", "--B", "0.5", "--tmax", "50"),
        ("shift", "--model", "riemann", "--A", "2", "--B", "0.5", "--tol", "1e-6"),
        ("aaa", "--model", "airy", "--R", "5"),
        ("aaa", "--model", "airy", "--tmax", "50"),
        ("aaa", "--model", "airy", "--check"),
        ("poles", "--model", "airy", "--R", "0.5")])
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: zetakit {argv[0]} ") and "unrecognized arguments" in err

    VALID = {
        "values": ("--model", "riemann", "--n=-1"),
        "poles": ("--model", "riemann"),
        "shift": ("--model", "riemann", "--A", "2", "--B", "0.5"),
        "series": ("--model", "riemann", "--s", "2"),
        "contour": ("--model", "riemann", "--s", "2"),
        "continue": ("--model", "riemann", "--s", "2"),
        "aaa": ("--model", "airy"),
        "catalog": (),
    }

    @pytest.mark.parametrize("cmd", sorted(VALID))
    def test_undeclared_flag_shows_the_subcommand_usage(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, *self.VALID[cmd], "--bogus", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: zetakit {cmd} [-h]")
        assert err.rstrip().endswith(f"zetakit {cmd}: error: unrecognized arguments: --bogus 1")

    def test_aaa_lists_the_flags_it_takes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["aaa", "--model", "airy", "--check", "--R", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: zetakit aaa ") and "--npoints NPOINTS" in err
        assert "unrecognized arguments: --check --R 5" in err


    @pytest.mark.parametrize("argv", [
        ("values", "--model", "riemann", "--n", "1..x"),
        ("values", "--model", "riemann", "--n", "1..2..3"),
        ("series", "--model", "riemann", "--s", "1x"),
        ("contour", "--model", "hurwitz", "--a", "0.4+0.7x", "--s", "2"),
        ("continue", "--model", "chf", "--a", "0.5", "--b", "1..5", "--s", "2"),
        ("shift", "--model", "riemann", "--A", "2", "--B", "half")])
    def test_malformed_number_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: zetakit {argv[0]} ") and "Traceback" not in err
        assert f"zetakit {argv[0]}: error: argument --" in err

    @pytest.mark.parametrize("argv", [
        ("values", "--model", "hurwitz", "--a", "nan", "--n", "0"),
        ("values", "--model", "hurwitz", "--a", "inf", "--n", "0"),
        ("continue", "--model", "riemann", "--s", "nan"),
        ("continue", "--model", "chf", "--a", "0.5", "--b", "nan", "--s", "2"),
        ("shift", "--model", "riemann", "--A", "2", "--B", "nan+1i"),
        ("continue", "--model", "riemann", "--s", "0.5", "--tol", "nan"),
        ("contour", "--model", "riemann", "--s", "2", "--tmax", "inf"),
        ("values", "--model", "riemann", "--n=5..3")])
    def test_non_finite_number_or_empty_range_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: zetakit {argv[0]} ") and "Traceback" not in err
        assert f"zetakit {argv[0]}: error: argument --" in err

    def test_number_types(self):
        def parse(*argv):
            return build_parser().parse_args(list(argv))
        args = parse("values", "--model", "hurwitz", "--a", "0.4+0.7i", "--n=-2..1")
        assert args.a == 0.4 + 0.7j and args.n == [-2, -1, 0, 1]
        args = parse("values", "--model", "pcf", "--a", "1", "--n", "3")
        assert type(args.a) is float and args.n == [3]
        args = parse("shift", "--model", "riemann", "--A", "1+2i", "--B", "-0.5")
        assert (args.A, args.B) == (1 + 2j, -0.5)
        assert parse("series", "--model", "airy", "--s", "2 - 1i").s == 2 - 1j

    def test_complex_parameter_with_i(self, capsys):
        code, doc, err = run_json(capsys, "values", "--model", "hurwitz",
                                  "--a", "0.4+0.7i", "--n", "0")
        assert code == 0 and err == ""
        assert doc["results"][0]["value"] == {"re": pytest.approx(0.1), "im": pytest.approx(-0.7)}


class TestCatalog:
    def test_lists_models(self, capsys):
        code, doc, _ = run_json(capsys, "catalog")
        assert code == 0
        names = {e["model"] for e in doc["models"]}
        assert names == {"riemann", "hurwitz", "airy", "pcf", "chf"}
        assert [e["spec"] for e in doc["models"]] == CATALOG_SPECS
