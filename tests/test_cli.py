import hashlib
import json
import math
import time

import numpy as np
import pytest

from conftest import decimal_entropy
from ncphase import cli
from ncphase import params as params_module
from ncphase.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEntropyCommand:
    def test_commutative_renyi_two(self, capsys):
        code, out, _ = run(capsys, "entropy", "--mu", "0", "--nu", "0",
                           "--kind", "renyi", "--order", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"kind": "renyi", "order": 2, "lambda": 1.0,
                           "value": 0.0, "method": "closed-form"}

    def test_von_neumann_position_deformation(self, capsys):
        code, out, _ = run(capsys, "entropy", "--mu", "1", "--nu", "0",
                           "--kind", "von-neumann")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.1940324, abs=1e-6)
        assert payload["lambda"] == pytest.approx(math.sqrt(5 / 6), rel=1e-12)

    def test_numeric_method_agrees(self, capsys):
        base = ["entropy", "--mu", "0.8", "--nu", "-0.3", "--kind", "renyi",
                "--order", "3"]
        _, closed_out, _ = run(capsys, *base)
        _, numeric_out, _ = run(capsys, *base, "--method", "numeric")
        closed = json.loads(closed_out)
        numeric = json.loads(numeric_out)
        assert numeric["method"] == "star-power-numeric"
        assert numeric["value"] == pytest.approx(closed["value"], abs=1e-9)

    @pytest.mark.parametrize("kind,want", [(["von-neumann"], 0.1582),
                                           (["renyi", "--order", "2"], 0.0706)])
    def test_numeric_method_at_an_anisotropic_point(self, capsys, kind, want):
        # (u, v) = (1, 0.1) far from unit scales: the reduced exponent's
        # eigenvalues are 1.5e-11 apart in ratio, and both squares count
        base = ["entropy", "--mass", "1000", "--omega", "1000", "--mu", "1e-6",
                "--nu", "1e5", "--kind", *kind]
        code, closed_out, _ = run(capsys, *base)
        assert code == 0
        code, numeric_out, _ = run(capsys, *base, "--method", "numeric")
        assert code == 0
        closed = json.loads(closed_out)["value"]
        assert closed == pytest.approx(want, abs=5e-5)
        assert json.loads(numeric_out)["value"] == pytest.approx(closed, abs=1e-9)

    def test_fractional_order_unsupported(self, capsys):
        code, _, err = run(capsys, "entropy", "--kind", "renyi",
                           "--order", "2.5")
        assert code == 3
        assert "unsupported order" in err

    def test_integer_order_is_taken_exactly(self, capsys):
        # 2^53 + 1 has no double; the order must not be rounded to 2^53
        assert_closed_form_matches_decimal(capsys, "renyi", 2**53 + 1)

    def test_invalid_physics_exit_code(self, capsys):
        code, _, err = run(capsys, "entropy", "--mu", "2", "--nu", "1",
                           "--kind", "renyi", "--order", "2")
        assert code == 2
        assert "hbar^2" in err

    @pytest.mark.parametrize("flag", ["--hbar=inf", "--mu=nan", "--nu=-inf",
                                      "--mass=nan", "--omega=inf"])
    def test_non_finite_parameter_exit_code(self, capsys, flag):
        code, out, err = run(capsys, "entropy", flag, "--kind", "renyi",
                             "--order", "2")
        assert code == 2
        assert out == ""
        assert "must be a finite number" in err
        assert len(err.strip().splitlines()) == 1

    def test_near_singular_warning(self, capsys):
        code, _, err = run(capsys, "entropy", "--mu", "1", "--nu",
                           str(1 - 1e-10), "--kind", "renyi", "--order", "2")
        assert code == 0
        assert "singularity" in err

    def test_config_file_with_override(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mu = 0.5\nnu = 0.5\n")
        code, out, _ = run(capsys, "entropy", "--config", str(cfg),
                           "--kind", "renyi", "--order", "2")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-15)
        code, out, _ = run(capsys, "entropy", "--config", str(cfg),
                           "--nu", "0", "--kind", "renyi", "--order", "2")
        assert json.loads(out)["value"] > 0.0

    def test_flags_mend_an_invalid_config_point(self, capsys, tmp_path, monkeypatch):
        # mu*nu = 2 > hbar^2 in the file; --nu 0 makes the point valid, and
        # the scalars are derived once, for the point the flags and file make
        cfg = tmp_path / "p.cfg"
        cfg.write_text("mu = 2\nnu = 1\n")
        calls = []
        original = params_module._derive
        monkeypatch.setattr(params_module, "_derive",
                            lambda p: calls.append(p) or original(p))
        code, out, err = run(capsys, "entropy", "--config", str(cfg), "--nu", "0",
                             "--kind", "renyi", "--order", "2")
        assert code == 0, err
        assert json.loads(out)["value"] > 0.0
        assert [(p.mu, p.nu) for p in calls] == [(2.0, 0.0)]
        code, out, err = run(capsys, "entropy", "--config", str(cfg),
                             "--kind", "renyi", "--order", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name", ["missing.cfg", "."])
    def test_unreadable_config_file_exit_code(self, capsys, tmp_path, name):
        # a missing file, or a directory: one error line, exit 2, no traceback
        code, out, err = run(capsys, "entropy", "--config", str(tmp_path / name),
                             "--kind", "renyi", "--order", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text", ["mu = abc\n", "mu =\n", "mu = 0.1\nmu = 0.2\n"])
    def test_bad_config_value_exit_code(self, capsys, tmp_path, text):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "entropy", "--config", str(cfg),
                             "--kind", "renyi", "--order", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {cfg}:")
        assert len(err.strip().splitlines()) == 1


class TestDispatch:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_verify_derives_the_scalars_once(self, capsys, monkeypatch):
        # the point is checked and derived when it is built; every later
        # reader, main included, takes the stored scalars
        calls = []
        original = params_module._derive
        monkeypatch.setattr(params_module, "_derive",
                            lambda p: calls.append(p) or original(p))
        assert main(["verify"]) == 0
        assert len(calls) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command, name", [
        (["spectrum", "--imax", "0"], "cmd_spectrum"),
        (["verify"], "cmd_verify"),
    ])
    def test_commands_are_looked_up_at_call_time(self, capsys, monkeypatch,
                                                 command, name):
        # the cached parser binds no function, so a wrapper set after the
        # first call is the one that runs
        assert main(command) in (0, 1)
        seen = []
        monkeypatch.setattr(cli, name, lambda args: seen.append(args.command) or 7)
        assert main(command) == 7
        assert seen == [command[0]]
        capsys.readouterr()


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--out", "{tmp}/missing/x.csv"],  # FileNotFoundError
        ["figure", "--figure", "3", "--out", "{tmp}"],  # IsADirectoryError
    ])
    def test_one_error_line_and_exit_2(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err
        assert len(err.splitlines()) == 1


class TestOverflow:
    """Parameters or orders past double range end with exit 2 or 3 and one
    line on stderr, never with a traceback."""

    @pytest.mark.parametrize("argv", [
        ("entropy", "--kind", "renyi", "--order", "2"),
        ("verify",),
        ("spectrum",),
    ])
    def test_derived_scalar_overflow(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--mu", "1e200", "--nu", "1e-300")
        assert code == 2
        assert out == ""
        assert "overflow" in err
        assert len(err.strip().splitlines()) == 1

    def test_derived_scalar_division_by_zero(self, capsys):
        # a point where the derivation divides by a zero that rounding made
        code, out, err = run(capsys, "entropy", "--hbar", "7.607880939073406e-103",
                             "--mass", "1.3934693779598466e+89",
                             "--omega", "4.268010897836484e-109",
                             "--mu", "7.008624504449331e-99",
                             "--nu", "1.9399340176629578e-107",
                             "--kind", "renyi", "--order", "2")
        assert code == 2
        assert out == ""
        assert "parameters out of range" in err
        assert len(err.strip().splitlines()) == 1

    def test_hbar_square_overflow(self, capsys):
        code, out, err = run(capsys, "verify", "--hbar", "1e300")
        assert code == 2
        assert out == ""
        assert "hbar^2 overflows" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("method", ["closed", "numeric"])
    @pytest.mark.parametrize("kind", ["renyi", "tsallis"])
    def test_order_overflow(self, capsys, kind, method):
        # the star-power route scales by (2 pi hbar)^1999, past double range;
        # the closed form has the value
        if method == "closed":
            assert_closed_form_matches_decimal(capsys, kind, 2000)
            return
        code, out, err = run(capsys, "entropy", "--kind", kind, "--order",
                             "2000", "--method", method)
        assert code == 3
        assert out == ""
        assert "unsupported order 2000" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind", ["renyi", "tsallis"])
    def test_huge_closed_form_order_fails_fast(self, capsys, kind):
        # no O(n^2) coefficient table: order 100000 answers at once, and only
        # an order past float range is refused
        start = time.perf_counter()
        assert_closed_form_matches_decimal(capsys, kind, 100000)
        assert time.perf_counter() - start < 1.0
        code, out, err = run(capsys, "entropy", "--kind", kind, "--order",
                             str(10**400), "--method", "closed")
        assert code == 3
        assert out == ""
        assert "unsupported order" in err
        assert len(err.strip().splitlines()) == 1

    def test_huge_numeric_order_takes_log_many_products(self, capsys,
                                                        monkeypatch):
        from ncphase import starcalc
        calls = []
        real = starcalc.gaussian_star
        monkeypatch.setattr(starcalc, "gaussian_star",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        code, out, err = run(capsys, "entropy", "--kind", "renyi", "--order",
                             "200000", "--method", "numeric")
        assert code == 3
        assert out == ""
        assert "unsupported order 200000: the result overflows" in err
        assert len(err.strip().splitlines()) == 1
        assert 0 < len(calls) <= 2 * math.floor(math.log2(200000))

    @pytest.mark.parametrize("hbar", ["1e100", "1e-100", "1e79"])
    def test_verify_past_the_gaussian_weight_range(self, capsys, hbar):
        # accepted points whose Gaussian weights (or, at 1e79, whose moments)
        # leave double range: the request is refused, not answered with a
        # traceback or a RuntimeWarning (an error under this suite's filter)
        code, out, err = run(capsys, "verify", "--hbar", hbar)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_verify_refuses_an_exponent_that_is_not_negative_definite(self, capsys):
        # the derived scalars lose their digits here and W's exponent comes
        # out with positive eigenvalues: the request is refused before the
        # residual grid is evaluated, where np.exp overflowed with two
        # RuntimeWarnings (errors under this suite's filter) before the refusal
        code, out, err = run(capsys, "verify", "--mu", "5e-6", "--nu", "199999.99")
        assert code == 3
        assert out == ""
        assert err == "error: exponent matrix must be negative definite\n"

    def test_hbar_square_underflow(self, capsys):
        code, out, err = run(capsys, "entropy", "--hbar", "1e-200", "--kind",
                             "renyi", "--order", "2")
        assert code == 2
        assert out == ""
        assert "hbar^2 underflows" in err
        assert len(err.strip().splitlines()) == 1

    def test_order_at_the_edge_of_double_range(self, capsys):
        # beta_gamma(1026)'s coefficients fit a double, but summed at
        # lam = 0.99999 they pass 2^1024; the log sum has the value
        assert_closed_form_matches_decimal(capsys, "renyi", 1026)

    def test_underflowing_star_power_trace(self, capsys):
        # int W^380 underflows to 0.0 here: Renyi has no logarithm to take,
        # Tsallis (1 - trace)/(q-1) keeps the closed-form value
        argv = ["entropy", "--mu", "3", "--nu", "-0.3", "--order", "380"]
        code, out, err = run(capsys, *argv, "--kind", "renyi",
                             "--method", "numeric")
        assert code == 3
        assert out == ""
        assert "unsupported order 380: the star-power trace underflows" in err
        assert len(err.strip().splitlines()) == 1
        _, closed, _ = run(capsys, *argv, "--kind", "tsallis")
        code, numeric, _ = run(capsys, *argv, "--kind", "tsallis",
                               "--method", "numeric")
        assert code == 0
        assert json.loads(numeric)["value"] == pytest.approx(
            json.loads(closed)["value"], abs=1e-15)


def assert_closed_form_matches_decimal(capsys, kind, order):
    """The CLI's closed form at (mu, nu) = (0.01, 0), lam = 0.99999, within
    1e-15 of the 60-digit decimal beta_n formula, on a clean exit."""
    code, out, err = run(capsys, "entropy", "--mu", "0.01", "--nu", "0", "--kind",
                         kind, "--order", str(order), "--method", "closed")
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["order"] == order
    want = decimal_entropy(kind, order, payload["lambda"])
    assert abs(payload["value"] - want) <= 1e-15


class TestSpectrumCommand:
    def test_commutative_levels(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--mu", "0", "--nu", "0",
                           "--imax", "1", "--jmax", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,energy"
        table = {(int(a), int(b)): float(e)
                 for a, b, e in (row.split(",") for row in lines[1:])}
        assert table[(0, 0)] == pytest.approx(1.0)
        assert table[(0, 1)] == pytest.approx(2.0)
        assert table[(1, 0)] == pytest.approx(2.0)
        assert table[(1, 1)] == pytest.approx(3.0)

    def test_degeneracy_splitting(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--mu", "0.2", "--nu", "0.1",
                           "--imax", "1", "--jmax", "1")
        lines = out.strip().splitlines()[1:]
        table = {(int(a), int(b)): float(e)
                 for a, b, e in (row.split(",") for row in lines)}
        assert table[(1, 0)] - table[(0, 1)] == pytest.approx(0.3, abs=1e-9)

    def test_sorted_output(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--mu", "0.2", "--nu", "0.1",
                           "--imax", "2", "--jmax", "2", "--sort")
        energies = [float(r.split(",")[2])
                    for r in out.strip().splitlines()[1:]]
        assert energies == sorted(energies)

    def test_si_units_scale(self, capsys):
        _, nat, _ = run(capsys, "spectrum", "--hbar", "2", "--imax", "0",
                        "--jmax", "0")
        _, si, _ = run(capsys, "spectrum", "--hbar", "2", "--imax", "0",
                       "--jmax", "0", "--units", "si")
        nat_e = float(nat.strip().splitlines()[1].split(",")[2])
        si_e = float(si.strip().splitlines()[1].split(",")[2])
        assert si_e == pytest.approx(2.0 * nat_e, rel=1e-12)

    def test_index_range_error(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--imax", "13")
        assert code == 3

    def test_index_range_follows_max_index(self, capsys):
        from ncphase.wigner import MAX_INDEX
        code, out, _ = run(capsys, "spectrum", "--imax", str(MAX_INDEX),
                           "--jmax", "0")
        assert code == 0
        assert len(out.strip().splitlines()) == MAX_INDEX + 2
        code, _, err = run(capsys, "spectrum", "--jmax=-1")
        assert code == 3
        assert f"0..{MAX_INDEX}" in err


# SHA-256 of each figure's CSV at its default grid, as first published
FIGURE_SHA256 = {
    1: "ff672d10c56439e1dca03b35fe70c285e08798e0fc211ed89348faecb16290c9",
    2: "100692942dc0d2fe853d493c2a77f14b00f66db7d9fd58a20e210e32caafc347",
    3: "6b924edf468558dfe969c1d58a1f2f8896661383c46896e24c49d05a62eb4541",
    4: "4439e1057cd785dd631c1cc217a0208ccb5b46f551d6fe32954a5b092595beb5",
    5: "6f257be306d79dd9b81e7d15d9c029f742eda6f8fbe7c65fecfb841c2410b302",
}


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [row.split(",") for row in lines[1:]]


class TestFigureCommand:
    def test_deterministic_regeneration(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code = main(["figure", "--figure", "3", "--out", str(target)])
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("figure", sorted(FIGURE_SHA256))
    def test_default_grid_digest(self, capsys, figure):
        code, out, _ = run(capsys, "figure", "--figure", str(figure), "--out", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == FIGURE_SHA256[figure]

    @pytest.mark.parametrize("figure", [1, 2])
    @pytest.mark.parametrize("grid", [1, 2, 7])
    def test_surface_rows_match_pointwise(self, figure, grid):
        # every cell as the scalar formulas give it, masked cells left empty
        from ncphase.cli import _fmt, figure_csv
        from ncphase.entropy import _von_neumann_of
        if figure == 1:
            a_axis = b_axis = np.linspace(-5.0, 5.0, grid)
            valid = lambda u, v: -1.0 < u * v < 1.0
            lam_of = lambda u, v: math.sqrt(
                (4.0 + (u - v) ** 2) / (4.0 + (2.0 - u * v) * (u - v) ** 2))
        else:
            a_axis, b_axis = np.linspace(0.0, 10.0, grid), np.linspace(-1.0, 1.0, grid)
            valid = lambda d2, th: -1.0 < th < 1.0
            lam_of = lambda d2, th: math.sqrt((1.0 + d2) / (1.0 + (2.0 - th) * d2))
        want = ["a,b,E1"]
        for a in a_axis:
            for b in b_axis:
                cell = (_fmt(_von_neumann_of(lam_of(a, b)))
                        if valid(a, b) else "")
                want.append(f"{_fmt(a)},{_fmt(b)},{cell}")
        assert figure_csv(figure, grid) == "\n".join(want) + "\n"

    def test_fig3_endpoint_rows(self, capsys, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["figure", "--figure", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        header, rows = read_rows(out)
        assert header == ["lambda", "E1", "E2", "E3", "E4"]
        first, last = rows[0], rows[-1]
        assert float(first[0]) == pytest.approx(0.578)
        for got, want in zip(first[1:], (0.794, 0.549, 0.458, 0.414)):
            assert float(got) == pytest.approx(want, abs=2e-3)
        assert [float(v) for v in last] == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_fig5_endpoints(self, capsys, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(["figure", "--figure", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        header, rows = read_rows(out)
        assert header == ["lambda", "Ep1", "Ep2", "Ep3", "Ep4"]
        assert [float(v) for v in rows[-1]] == [1.0, 0.0, 0.0, 0.0, 0.0]
        # q = 3 lower endpoint sits near 0.3
        assert float(rows[0][3]) == pytest.approx(0.3, abs=2e-3)

    def test_fig4_monotone_in_abs_u(self, capsys, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["figure", "--figure", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        _, rows = read_rows(out)
        u = np.array([float(r[0]) for r in rows])
        e1 = np.array([float(r[1]) for r in rows])
        assert e1[np.argmin(np.abs(u))] == 0.0
        right = e1[u >= 0.0]
        assert (np.diff(right) >= -1e-12).all()
        left = e1[u <= 0.0]
        assert (np.diff(left) <= 1e-12).all()

    def test_fig1_masks_invalid_cells(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "--figure", "1", "--out", str(out),
                     "--grid", "21"]) == 0
        capsys.readouterr()
        header, rows = read_rows(out)
        assert header == ["a", "b", "E1"]
        assert len(rows) == 21 * 21
        masked = [r for r in rows if r[2] == ""]
        filled = [r for r in rows if r[2] != ""]
        assert masked and filled
        for r in masked:
            assert not -1.0 < float(r[0]) * float(r[1]) < 1.0
        for r in filled:
            assert -1.0 < float(r[0]) * float(r[1]) < 1.0
            assert 0.0 <= float(r[2]) < 0.794

    def test_fig2_masks_theta_endpoints(self, capsys, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "--figure", "2", "--out", str(out),
                     "--grid", "11"]) == 0
        capsys.readouterr()
        _, rows = read_rows(out)
        for r in rows:
            if abs(float(r[1])) >= 1.0:
                assert r[2] == ""
            else:
                assert r[2] != ""

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_non_positive_grid_rejected(self, capsys, tmp_path, grid):
        out = tmp_path / "fig.csv"
        code, _, err = run(capsys, "figure", "--figure", "1", "--grid=" + grid,
                           "--out", str(out))
        assert code == 3
        assert err == "error: grid must be a positive integer\n"
        assert not out.exists()

    def test_grid_too_large_to_allocate(self, capsys, tmp_path):
        # a 10^7 x 10^7 surface needs 800 TB per mesh, more than any 64-bit
        # address space holds, so numpy's allocation fails at once (the 80 MB
        # axis is the most it takes): one error line and exit 3, as for any
        # refused request, where it ended in a MemoryError traceback and exit 1
        out = tmp_path / "fig.csv"
        code, stdout, err = run(capsys, "figure", "--figure", "1", "--grid", "10000000",
                                "--out", str(out))
        assert code == 3
        assert stdout == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_unknown_figure(self, capsys):
        code, _, err = run(capsys, "figure", "--figure", "9")
        assert code == 3
        assert "unknown figure" in err


class TestVerifyCommand:
    def test_default_point_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"]
        assert {c["name"] for c in report["checks"]} >= {
            "genvalue-residual", "orthogonality-normalization",
            "reduced-marginal", "star-exp-group-law", "star-log-round-trip",
            "entropy-closed-vs-numeric", "darboux-identities",
            "trace-property",
        }
        for check in report["checks"]:
            assert check["error"] <= check["tolerance"]

    @pytest.mark.parametrize("point", [
        ("--mu", "0.3", "--nu", "0.1"),
        # far from unit scales: the star series keeps every nonzero term
        ("--mass", "1000", "--omega", "1000", "--mu", "1e-6", "--nu", "1e5"),
        # the star-exp, star-log and Darboux checks compare entries relative
        # to their reference's largest, which scales as hbar or 1/hbar
        ("--hbar", "1e-10"),
        ("--hbar", "1e-20"),
        ("--hbar", "1e5", "--mu", "3", "--nu", "-0.3"),
    ], ids=["unit-scales", "far-from-unit-scales", "hbar-1e-10", "hbar-1e-20",
            "hbar-1e5-negative-theta"])
    def test_deformed_point_passes(self, capsys, point):
        code, out, _ = run(capsys, "verify", *point)
        assert code == 0
        assert json.loads(out)["all_passed"]

    def test_energy_fault_detected(self, capsys):
        code, out, _ = run(capsys, "verify", "--perturb-energy", "0.01")
        assert code == 1
        report = json.loads(out)
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failing == {"genvalue-residual"}

    def test_nan_energy_fault_detected(self, capsys):
        # a NaN error fails its check: the reduction does not drop it
        code, out, _ = run(capsys, "verify", "--perturb-energy", "nan")
        assert code == 1
        report = {c["name"]: c for c in json.loads(out)["checks"]}
        assert math.isnan(report["genvalue-residual"]["error"])
        assert not report["genvalue-residual"]["passed"]

    @pytest.mark.parametrize("mu, nu", [("0", "0"), ("0.3", "0.1")])
    def test_state_checks_match_fresh_states(self, capsys, monkeypatch, mu, nu):
        """Building the four states once leaves the report as it was when
        every check built its own states."""
        import ncphase.cli as cli
        from ncphase import ModelParams, marginalize, integrate, cell_size
        from ncphase import genvalue_residual, reduce, wigner_state
        from ncphase.moments import gram
        from ncphase.starcalc import grid_values
        from ncphase.wigner import _residual_axes

        built = []
        monkeypatch.setattr(cli, "wigner_state",
                            lambda *a: built.append(a) or wigner_state(*a))
        code, out, _ = run(capsys, "verify", "--mu", mu, "--nu", nu)
        assert code == 0
        assert len(built) == 4

        params = ModelParams(mu=float(mu), nu=float(nu))
        pairs = [(i, j) for i in range(2) for j in range(2)]
        worst = 0.0
        for i, j in pairs:
            state = wigner_state(i, j, params)
            res = genvalue_residual(state, params, energy=state.energy * 1.0)
            w_vals = grid_values([state.function], _residual_axes(state.function))[0]
            worst = max(worst, res / np.abs(w_vals).max())
        want = {"genvalue-residual": worst}
        cell = cell_size(params)
        states = {ij: wigner_state(*ij, params) for ij in pairs}
        funcs = [s.function for s in states.values()]
        overlaps = gram(funcs, funcs)
        worst = 0.0
        for a, b in np.ndindex(overlaps.shape):
            target = (1.0 / cell) if a == b else 0.0
            worst = max(worst, abs(overlaps[a, b] - target) * cell)
        for sij in states.values():
            worst = max(worst, abs(integrate(sij.function) - 1.0))
        want["orthogonality-normalization"] = worst
        closed = reduce(states[(0, 0)], 1).function
        marg = marginalize(states[(0, 0)].function, keep=1)
        axes = _residual_axes(closed)
        closed_vals = grid_values([closed], axes)[0]
        marg_vals = grid_values([marg], axes)[0]
        want["reduced-marginal"] = (abs(closed_vals - marg_vals).max()
                                    / abs(closed_vals).max())

        report = {c["name"]: c for c in json.loads(out)["checks"]}
        for name, error in want.items():
            assert json.dumps(report[name]["error"]) == json.dumps(float(error))

    def test_near_singular_genvalue_passes(self, capsys):
        # orthonormality still misses its gate here, so the exit code is
        # left open
        _, out, _ = run(capsys, "verify", "--mu", "0.999", "--nu", "1")
        report = {c["name"]: c for c in json.loads(out)["checks"]}
        assert report["genvalue-residual"]["passed"]

    def test_invalid_parameters_gate(self, capsys):
        code, _, _ = run(capsys, "verify", "--mu", "2", "--nu", "1")
        assert code == 2

    def test_non_finite_parameter_gate(self, capsys):
        code, out, err = run(capsys, "verify", "--hbar", "inf")
        assert code == 2
        assert out == ""
        assert "hbar must be a finite number" in err
