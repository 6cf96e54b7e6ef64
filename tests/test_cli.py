"""Command-line front end: CSV round trips, determinism, exit codes."""

import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from alphasine.cli import (
    gaussian_noise,
    main,
    parse_args,
    read_config,
    read_csv,
    sampled_from_csv,
)
from alphasine.errors import NonConvergence
from alphasine.examples import watson_density
from alphasine.sphere import k_sphere_grid

from conftest import t2_f1


def write_samples(path, xs, vals, header="x,value"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}\n")
        for x, v in zip(xs, vals):
            fh.write(f"{x:.17g},{v:.17g}\n")


@pytest.fixture
def t2f1_csv(tmp_path):
    path = tmp_path / "t2f1.csv"
    xs = np.linspace(0.0, 20.0, 1601)
    write_samples(path, xs, t2_f1(xs), header="y,value")
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCoeffs:
    def test_alpha_two_rows(self, capsys):
        rc, out, _ = run(capsys, "coeffs", "--alpha", "2", "--count", "2")
        assert rc == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "j,c_j"
        assert [l.split(",")[1] for l in lines[1:]] == ["0.5", "-0.25", "0"]

    def test_alpha_one_leading(self, capsys):
        rc, out, _ = run(capsys, "coeffs", "--alpha", "1", "--count", "1")
        first = [l for l in out.splitlines() if not l.startswith("#")][1]
        assert math.isclose(float(first.split(",")[1]), 2.0 / math.pi, rel_tol=1e-15)

    def test_comment_records_parameters(self, capsys):
        _, out, _ = run(capsys, "coeffs", "--alpha", "0", "--count", "1", "--kind", "cosine")
        assert out.splitlines()[0].startswith("# alphasine coeffs")
        assert "kind=cosine" in out.splitlines()[0]


class TestForward:
    def test_builtin_closed_form(self, capsys, tmp_path):
        out_path = tmp_path / "g.csv"
        rc, _, _ = run(capsys, "forward", "--f", "f1", "--alpha", "2",
                       "--grid", "0:2:5", "--out", str(out_path))
        assert rc == 0
        _, data = read_csv(str(out_path))
        assert np.allclose(data[:, 1], t2_f1(data[:, 0]), atol=1e-8)

    def test_zero_y_with_positive_alpha(self, capsys):
        rc, out, _ = run(capsys, "forward", "--f", "f2", "--alpha", "1.5", "--grid", "0:1:2")
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert float(rows[0].split(",")[1]) == 0.0

    def test_series_matches_quad(self, capsys, tmp_path):
        a, b = tmp_path / "q.csv", tmp_path / "s.csv"
        run(capsys, "forward", "--f", "f1", "--alpha", "1.5", "--grid", "0.5:2:4",
            "--method", "quad", "--out", str(a))
        run(capsys, "forward", "--f", "f1", "--alpha", "1.5", "--grid", "0.5:2:4",
            "--method", "series", "--out", str(b))
        _, qa = read_csv(str(a))
        _, qb = read_csv(str(b))
        assert np.max(np.abs(qa[:, 1] - qb[:, 1])) <= 1e-4

    def test_csv_input(self, capsys, tmp_path, t2f1_csv):
        out_path = tmp_path / "fwd.csv"
        rc, _, _ = run(capsys, "forward", "--in", t2f1_csv, "--alpha", "0.5",
                       "--grid", "0.5:1:2", "--out", str(out_path))
        assert rc == 0

    def test_missing_function_is_validation_error(self, capsys):
        rc, _, err = run(capsys, "forward", "--alpha", "2")
        assert rc == 2 and "one of the arguments --f --in is required" in err

    def test_builtin_and_csv_function_exclude_each_other(self, capsys, t2f1_csv):
        rc, out, err = run(capsys, "forward", "--f", "f1", "--in", t2f1_csv, "--alpha", "2")
        assert rc == 2 and "not allowed with argument --f" in err and out == ""

    def test_terms_recorded_under_series_only(self, capsys):
        base = ["forward", "--f", "f1", "--alpha", "1.5", "--grid", "0:1:3"]
        rc, out, _ = run(capsys, *base, "--method", "series")
        assert rc == 0 and "terms=10000" in out.splitlines()[0]
        rc, out, _ = run(capsys, *base, "--method", "series", "--terms", "50")
        assert rc == 0 and "terms=50" in out.splitlines()[0]
        rc, out, _ = run(capsys, *base)
        assert rc == 0 and "terms" not in out.splitlines()[0]
        rc, out, err = run(capsys, *base, "--terms", "5")
        assert rc == 2 and "--terms" in err and out == ""


class TestInvert:
    def test_fourier_round_trip(self, capsys, tmp_path, t2f1_csv):
        truth = tmp_path / "truth.csv"
        xs = np.linspace(0.0, 3.0, 301)
        write_samples(truth, xs, np.exp(-xs * xs))
        out_path = tmp_path / "rec.csv"
        rc, _, err = run(capsys, "invert", "--method", "fourier", "--in", t2f1_csv,
                         "--alpha", "2", "--n", "100", "--r", "10",
                         "--grid", "0:3:301", "--truth", str(truth), "--out", str(out_path))
        assert rc == 0
        assert "tail_flatness" in err and "l2_error" in err
        header, data = read_csv(str(out_path))
        assert header == ["x", "value", "truth"]
        err_l2 = np.linalg.norm(data[:, 1] - data[:, 2]) / np.linalg.norm(data[:, 2])
        assert err_l2 <= 1e-4

    def test_sphere_round_trip(self, capsys, tmp_path):
        f = watson_density(-2.5, 1.0, m=128)
        kf = k_sphere_grid(f, 1.5)
        src = tmp_path / "kf.csv"
        write_samples(src, kf.xs, kf.values)
        out_path = tmp_path / "rec.csv"
        rc, _, err = run(capsys, "invert", "--method", "sphere", "--in", str(src),
                         "--alpha", "1.5", "--n", "10", "--out", str(out_path))
        assert rc == 0 and "clipped_mass" in err
        _, data = read_csv(str(out_path))
        assert np.max(np.abs(data[:, 1] - f.values.values)) <= 0.02

    def test_even_alpha_is_validation_error(self, capsys, tmp_path):
        f = watson_density(0.0, 1.0, m=128)
        kf = k_sphere_grid(f, 1.5)
        src = tmp_path / "kf.csv"
        write_samples(src, kf.xs, kf.values)
        rc, _, _ = run(capsys, "invert", "--method", "sphere", "--in", str(src),
                       "--alpha", "2", "--n", "10")
        assert rc == 2

    def test_sphere_input_off_the_circle_grid(self, capsys, tmp_path):
        # the same transform samples, labelled as covering [-pi/2, 3pi/2)
        kf = k_sphere_grid(watson_density(-2.5, 1.0, m=128), 1.5)
        src = tmp_path / "kf.csv"
        write_samples(src, kf.xs + 0.5 * math.pi, kf.values)
        rc, _, err = run(capsys, "invert", "--method", "sphere", "--in", str(src),
                         "--alpha", "1.5", "--n", "10")
        assert rc == 2 and "[-pi, pi)" in err

    def test_sphere_grid_too_coarse_for_n(self, capsys, tmp_path):
        # harmonic 2n = 40 needs 8n + 4 = 164 samples without aliasing
        kf = k_sphere_grid(watson_density(-2.5, 1.0, m=128), 1.5)
        src = tmp_path / "kf.csv"
        write_samples(src, kf.xs, kf.values)
        rc, out, err = run(capsys, "invert", "--method", "sphere", "--in", str(src),
                           "--alpha", "1.5", "--n", "20")
        assert rc == 2 and out == ""
        assert "need at least 164 grid points for n=20, got 128" in err

    def test_sphere_n_names_the_flag(self, capsys, tmp_path):
        kf = k_sphere_grid(watson_density(-2.5, 1.0, m=128), 1.5)
        src = tmp_path / "kf.csv"
        write_samples(src, kf.xs, kf.values)
        rc, out, err = run(capsys, "invert", "--method", "sphere", "--in", str(src),
                           "--alpha", "1.5", "--n", "0")
        assert (rc, out, err) == (2, "", "error: n must be >= 1, got 0\n")

    @pytest.mark.parametrize("xs", [[1.0, 0.5, 0.0], [0.0, 0.0, 0.0]])
    def test_abscissae_must_increase(self, capsys, tmp_path, xs):
        src = tmp_path / "desc.csv"
        write_samples(src, xs, [1.0, 2.0, 3.0])
        rc, out, err = run(capsys, "invert", "--method", "fourier", "--in", str(src),
                           "--alpha", "1.5")
        assert (rc, out, err) == (2, "", f"error: {src}: abscissae must increase\n")


    @pytest.mark.parametrize("method, flags", [
        ("fourier", ["--epsilon", "0.5"]),
        ("direct", ["--n", "10"]),
        ("direct", ["--r", "3"]),
        ("direct", ["--mollifier", "triangle"]),
        ("sphere", ["--grid", "0:1:3"]),
        ("sphere", ["--epsilon", "0.5"]),
        ("sphere", ["--mollifier", "triangle", "--r", "3", "--epsilon", "0.5"]),
    ])
    def test_flag_of_another_method(self, capsys, t2f1_csv, method, flags):
        rc, out, err = run(capsys, "invert", "--method", method, "--in", t2f1_csv,
                           "--alpha", "2", *flags)
        assert rc == 2 and "unrecognized arguments: " + " ".join(flags) in err and out == ""

    def test_config_line_of_another_method(self, capsys, tmp_path, t2f1_csv):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"method = fourier\nin = {t2f1_csv}\nalpha = 2\nepsilon = 0.5\n")
        rc, out, err = run(capsys, "invert", "--config", str(cfgfile))
        assert rc == 2 and "unrecognized arguments: --epsilon=0.5" in err and out == ""

    def test_method_with_equals_sign(self, capsys, tmp_path):
        kf = k_sphere_grid(watson_density(-2.5, 1.0, m=128), 1.5)
        src = tmp_path / "kf.csv"
        write_samples(src, kf.xs, kf.values)
        spaced = run(capsys, "invert", "--method", "sphere", "--in", str(src), "--alpha", "1.5")
        joined = run(capsys, "invert", "--method=sphere", "--in", str(src), "--alpha", "1.5")
        assert spaced[0] == 0 and joined == spaced

    def test_method_flag_overrides_config(self, capsys, tmp_path, t2f1_csv):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"method = direct\nin = {t2f1_csv}\nalpha = 2\n")
        flagged = run(capsys, "invert", "--config", str(cfgfile), "--method", "fourier",
                      "--grid", "0:3:7")
        plain = run(capsys, "invert", "--method", "fourier", "--in", t2f1_csv, "--alpha", "2",
                    "--grid", "0:3:7")
        assert flagged[0] == 0 and "method=fourier" in flagged[1] and flagged == plain

    def test_missing_method(self, capsys, t2f1_csv):
        rc, out, err = run(capsys, "invert", "--in", t2f1_csv, "--alpha", "2")
        assert rc == 2 and "--method" in err and out == ""

    def test_gamma_needs_a_mollifier(self, capsys, t2f1_csv):
        base = ["invert", "--method", "fourier", "--in", t2f1_csv, "--alpha", "2",
                "--grid", "0:3:7"]
        rc, out, err = run(capsys, *base, "--gamma", "0.9")
        assert rc == 2 and "--gamma" in err and out == ""
        rc, out, _ = run(capsys, *base, "--mollifier", "triangle")
        assert rc == 0 and "gamma=0.5 " in out.splitlines()[0]
        rc, out, _ = run(capsys, *base, "--mollifier", "gaussian", "--gamma", "0.9")
        assert rc == 0 and "gamma=0.9 " in out.splitlines()[0]
        rc, out, _ = run(capsys, *base)
        assert rc == 0 and "gamma" not in out.splitlines()[0]

    def test_method_help_lists_its_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invert", "--method", "fourier", "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and "(default: 100)" in out and "--epsilon" not in out
        assert "(default: None)" not in out


class TestNoise:
    def test_zero_sigma_identity(self, capsys, tmp_path, t2f1_csv):
        out_path = tmp_path / "n0.csv"
        run(capsys, "noise", "--in", t2f1_csv, "--sigma", "0", "--seed", "3",
            "--out", str(out_path))
        _, orig = read_csv(t2f1_csv)
        _, noised = read_csv(str(out_path))
        assert np.array_equal(orig[:, 1], noised[:, 1])

    def test_seed_reproducibility(self, capsys, tmp_path, t2f1_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "noise", "--in", t2f1_csv, "--sigma", "0.1", "--seed", "42", "--out", str(a))
        run(capsys, "noise", "--in", t2f1_csv, "--sigma", "0.1", "--seed", "42", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        run(capsys, "noise", "--in", t2f1_csv, "--sigma", "0.1", "--seed", "43", "--out", str(c))
        assert a.read_bytes() != c.read_bytes()

    def test_sample_std_in_band(self):
        for seed in (1, 2, 3):
            draws = 0.1 * gaussian_noise(seed, 400)
            assert 0.08 <= float(np.std(draws, ddof=1)) <= 0.12

    def test_per_index_keying(self):
        # draw i is a pure function of (seed, i): prefixes agree
        a = gaussian_noise(9, 10)
        b = gaussian_noise(9, 4)
        assert np.array_equal(a[:4], b)


class TestSas:
    def test_round_trip(self, capsys, tmp_path):
        from alphasine.forward import t_sine
        from alphasine.specfun import lambda_alpha

        sigma, alpha = 1.3, 1.5
        ts = np.linspace(0.2, 8.0, 40)
        transform = t_sine(lambda x: np.exp(-x * x), alpha, ts / 2.0)
        tau = 2.0 * sigma**alpha - 2.0 ** (alpha + 1.0) * lambda_alpha(alpha) * transform
        src = tmp_path / "tau.csv"
        write_samples(src, ts, tau, header="t,tau")
        out_path = tmp_path / "g.csv"
        rc, _, _ = run(capsys, "sas", "--in", str(src), "--sigma", str(sigma),
                       "--alpha", str(alpha), "--out", str(out_path))
        assert rc == 0
        _, data = read_csv(str(out_path))
        assert np.allclose(data[:, 0], ts / 2.0)
        assert np.max(np.abs(data[:, 1] - transform)) <= 1e-12
        comments = [l for l in out_path.read_text().splitlines() if l.startswith("#")]
        assert any("f0 =" in c for c in comments)

    def test_constant_tau_gives_zero(self, capsys, tmp_path):
        ts = np.linspace(0.5, 5.0, 10)
        src = tmp_path / "tau.csv"
        write_samples(src, ts, np.full(10, 2.0 * 1.0**1.5), header="t,tau")
        out_path = tmp_path / "g.csv"
        run(capsys, "sas", "--in", str(src), "--sigma", "1", "--alpha", "1.5",
            "--out", str(out_path))
        _, data = read_csv(str(out_path))
        assert np.max(np.abs(data[:, 1])) <= 1e-15

    @pytest.mark.parametrize("t0, shown", [(0.0, "0.0"), (-1.0, "-1.0")])
    def test_non_positive_t_names_the_file(self, capsys, tmp_path, t0, shown):
        src = tmp_path / "tau0.csv"
        write_samples(src, [t0, 1.0, 2.0], [2.0, 1.5, 1.0], header="t,tau")
        rc, out, err = run(capsys, "sas", "--in", str(src), "--sigma", "1", "--alpha", "1.5")
        assert (rc, out, err) == (2, "", f"error: {src}: t must be positive, got {shown}\n")


class TestConfigAndErrors:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha = 2\ncount = 1\nkind = cosine\n")
        rc, out, _ = run(capsys, "coeffs", "--config", str(cfgfile))
        assert rc == 0 and "kind=cosine" in out.splitlines()[0]

    def test_flags_override_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha = 2\ncount = 1\nkind = cosine\n")
        rc, out, _ = run(capsys, "coeffs", "--config", str(cfgfile), "--kind", "sine")
        assert rc == 0 and "kind=sine" in out.splitlines()[0]

    def test_unknown_config_key(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("frobnicate = 1\n")
        rc, _, err = run(capsys, "coeffs", "--config", str(cfgfile), "--alpha", "2", "--count", "1")
        assert rc == 2 and "frobnicate" in err

    def test_config_value_checked_like_a_flag(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha = 2\ncount = 1\nkind = sinus\n")
        rc, out, err = run(capsys, "coeffs", "--config", str(cfgfile))
        assert rc == 2 and "sinus" in err and out == ""

    def test_bad_flag_value_returns_exit_code(self, capsys):
        rc, _, err = run(capsys, "coeffs", "--alpha", "x")
        assert rc == 2 and err.startswith("error:") and "--alpha" in err

    def test_config_value_that_looks_like_an_option(self, capsys, tmp_path, t2f1_csv):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"method = fourier\nin = {t2f1_csv}\nalpha = 2\ngrid = -3:3:7\n")
        rc, out, _ = run(capsys, "invert", "--config", str(cfgfile))
        assert rc == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 7 and float(rows[0].split(",")[0]) == -3.0

    def test_config_line_without_equals_names_file_and_line(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# comment\nalpha = 2\ncount 1\n")
        with pytest.raises(ValueError, match=r"run\.cfg, line 3"):
            read_config(str(cfgfile))

    def test_nonuniform_csv_rejected(self, tmp_path):
        src = tmp_path / "bad.csv"
        write_samples(src, [0.0, 1.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            sampled_from_csv(str(src))

    def test_nonconvergence_exit_code(self, capsys, monkeypatch, tmp_path, t2f1_csv):
        import alphasine.cli as cli_mod

        def boom(*args, **kwargs):
            raise NonConvergence("forced")

        monkeypatch.setattr(cli_mod, "t_sine", boom)
        rc, _, err = run(capsys, "forward", "--f", "f1", "--alpha", "2", "--grid", "1:2:2")
        assert rc == 3 and "forced" in err

    def test_missing_input_file(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "noise", "--in", str(tmp_path / "nope.csv"), "--sigma", "0.1")
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["invert", "--method", "fourier", "--alpha", "2", "--in", "{bad}"],
        ["forward", "--alpha", "0.5", "--in", "{bad}"],
        ["noise", "--sigma", "0.1", "--in", "{bad}"],
        ["sas", "--sigma", "1", "--alpha", "1.5", "--in", "{bad}"],
        ["invert", "--method", "fourier", "--alpha", "2", "--in", "{good}", "--truth", "{bad}"],
    ], ids=["invert", "forward", "noise", "sas", "truth"])
    def test_one_column_csv_is_validation_error(self, capsys, tmp_path, t2f1_csv, argv):
        bad = tmp_path / "one.csv"
        bad.write_text("x\n0.5\n1.0\n1.5\n")
        argv = [a.format(bad=bad, good=t2f1_csv) for a in argv]
        rc, _, err = run(capsys, *argv)
        assert rc == 2 and "error:" in err and str(bad) in err

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--alpha", "1", "--in", "{missing}"],
        ["noise", "--alpha", "7", "--in", "{good}", "--sigma", "0.1"],
    ], ids=["coeffs-in", "noise-alpha"])
    def test_option_the_command_does_not_use(self, capsys, tmp_path, t2f1_csv, argv):
        argv = [a.format(missing=tmp_path / "nope.csv", good=t2f1_csv) for a in argv]
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and "unrecognized arguments" in err and out == ""

    def test_non_finite_value_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "inf.csv"
        write_samples(bad, [0.0, 1.0, 2.0], [1.0, math.inf, 3.0])
        rc, _, err = run(capsys, "noise", "--in", str(bad), "--sigma", "0.1")
        assert rc == 2 and "line 3" in err

    def test_non_numeric_value_names_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "abc.csv"
        bad.write_text("x,value\n0,1\n# comment\n1,abc\n2,3\n", encoding="utf-8")
        rc, out, err = run(capsys, "noise", "--in", str(bad), "--sigma", "0.1")
        assert rc == 2 and out == ""
        assert f"{bad}, line 4: could not convert string to float: 'abc'" in err

    @pytest.mark.parametrize("text, suffix", [
        ("x,value\n0,1\n1,2,3\n2,abc\n", ", line 3: 3 fields, the header has 2"),
        ("x,value\n0,1\n1,abc\n2,3,4\n", ", line 3: could not convert string to float: 'abc'"),
        ("x,value\n0,inf\n1,2,3\n", ", line 3: 3 fields, the header has 2"),
        ("x,value\n1\n", ", line 2: 1 fields, the header has 2"),
        ("x,value\n0,\n", ", line 2: could not convert string to float: ''"),
        ("# only\nx,value\n\n", ": no data rows"),
        ("", ": no data rows"),
        ("x\n", ", line 1: need at least two columns"),
    ], ids=["width-first", "number-first", "width-before-finite", "short", "empty-field",
            "header-only", "empty", "one-column"])
    def test_csv_error_names_first_fault(self, tmp_path, text, suffix):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_csv(str(bad))
        assert str(exc.value) == f"{bad}{suffix}"

    def test_csv_rows_parse_as_floats(self, tmp_path):
        src = tmp_path / "ok.csv"
        src.write_text("# c\r\nx , y\r\n\r\n 0.5 ,-1e-3\r\n2,3\r\n", encoding="utf-8")
        header, data = read_csv(str(src))
        assert header == ["x", "y"] and data.tolist() == [[0.5, -1e-3], [2.0, 3.0]]


def readme_commands():
    """The alphasine commands of the README's CLI examples, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI examples", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("alphasine ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        parse_args(argv)
