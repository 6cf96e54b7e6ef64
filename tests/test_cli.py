"""Command-line front end: CSV round trips, determinism, exit codes."""

import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import alphasine.cli as cli_mod
from alphasine import oscsum
from alphasine.cli import (
    _method_first,
    _read_csv_rows,
    build_parser,
    gaussian_noise,
    main,
    parse_args,
    parse_grid,
    read_config,
    read_csv,
    sampled_from_csv,
)
from alphasine.direct_inv import DirectConfig, invert_direct
from alphasine.errors import NonConvergence
from alphasine.examples import watson_density
from alphasine.sphere import k_sphere_grid

from conftest import f1, t2_f1
from noise_oracle import gaussian_noise_per_draw


def write_samples(path, xs, vals, header="x,value"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}\n")
        for x, v in zip(xs, vals):
            fh.write(f"{x:.17g},{v:.17g}\n")


def _rows_with(bad, field, ragged, count=1500):
    """A two-column CSV of count data rows, row i on line i + 1: row bad
    holds field as its value and row ragged has three fields."""
    rows = [f"{i},{field}" if i == bad else f"{i},{i},{i}" if i == ragged else f"{i},{i}"
            for i in range(1, count + 1)]
    return "x,value\n" + "\n".join(rows) + "\n"


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

    def test_even_alpha_past_1022_gives_a_table(self, capsys):
        # 4.0**512 overflowed the exact branch here; the recurrence takes it
        rc, out, err = run(capsys, "coeffs", "--alpha", "1024", "--count", "3")
        rows = [l.split(",") for l in out.splitlines()[2:]]
        assert (rc, err, len(rows)) == (0, "", 4)
        assert math.isclose(float(rows[0][1]), math.comb(1024, 512) / 4**512, rel_tol=1e-11)

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

    def test_one_point_grid(self, capsys):
        # start:stop:1 samples y = start alone
        rc, out, _ = run(capsys, "forward", "--f", "f1", "--alpha", "2", "--grid", "1:2:1")
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert rc == 0 and len(rows) == 1 and float(rows[0][0]) == 1.0
        assert math.isclose(float(rows[0][1]), float(t2_f1(1.0)), rel_tol=1e-9)

    def test_csv_input(self, capsys, tmp_path, t2f1_csv):
        out_path = tmp_path / "fwd.csv"
        rc, _, _ = run(capsys, "forward", "--in", t2f1_csv, "--alpha", "0.5",
                       "--grid", "0.5:1:2", "--out", str(out_path))
        assert rc == 0

    def test_csv_input_records_the_tail_cut_it_used(self, capsys, tmp_path, t2f1_csv):
        # the integral of sampled input stops at the last sample, 20 here,
        # below the default tail_cut of 30; the comment line records that
        # cut, and a rerun with it reproduces the file
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        base = ["forward", "--in", t2f1_csv, "--alpha", "0.5", "--grid", "0.5:1:2"]
        assert run(capsys, *base, "--out", str(first))[0] == 0
        cut = first.read_text().splitlines()[0].split("tail_cut=")[1].split()[0]
        assert cut == repr(sampled_from_csv(t2f1_csv).grid.last) and float(cut) == 20.0
        assert run(capsys, *base, "--tail-cut", cut, "--out", str(again))[0] == 0
        assert again.read_text() == first.read_text()

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

    def test_direct_readme_pipeline(self, capsys, tmp_path):
        g2 = tmp_path / "g2.csv"
        ys = np.linspace(0.0, 20.0, 20001)
        write_samples(g2, ys, t2_f1(ys), header="y,value")
        truth = tmp_path / "truth.csv"
        xs = np.linspace(0.2, 3.0, 281)
        write_samples(truth, xs, f1(xs))
        # the first run builds the chirp-z plan of the mu grid, the second
        # takes it from the cache; the two files must not differ by a byte
        oscsum._chirp_plan.cache_clear()
        outs = []
        for name in ("rec2_cold.csv", "rec2_warm.csv"):
            outs.append(tmp_path / name)
            rc, _, err = run(capsys, "invert", "--method", "direct", "--in", str(g2),
                             "--alpha", "2", "--epsilon", "0.025", "--grid", "0.2:3:281",
                             "--truth", str(truth), "--out", str(outs[-1]))
            assert rc == 0
        assert oscsum._chirp_plan.cache_info().hits >= 1
        assert outs[0].read_bytes() == outs[1].read_bytes()
        out_path = outs[1]
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# alphasine invert alpha=2.0 c=3.0 epsilon=0.025 method=direct"
        assert lines[1].startswith("# l2_error = ") and float(lines[1].split("=")[1]) <= 1e-3
        assert err == lines[1][2:] + "\n"
        header, data = read_csv(str(out_path))
        assert header == ["x", "value", "truth"] and data.shape == (281, 3)
        rec = invert_direct(sampled_from_csv(str(g2)), DirectConfig(alpha=2.0, epsilon=0.025),
                            parse_grid("0.2:3:281"))
        assert np.array_equal(data[:, 1], rec.values)

    def test_f0_without_tail_samples_has_nan_flatness(self, capsys, t2f1_csv):
        # --f0 spares the tail estimate of F f(0); with R at the last abscissa
        # no sample lies beyond it, so the tail-flatness measure is undefined
        rc, out, err = run(capsys, "invert", "--method", "fourier", "--in", t2f1_csv,
                           "--alpha", "2", "--r", "20", "--f0", "1.7724538509055159",
                           "--grid", "0:3:7")
        assert rc == 0 and err == "tail_flatness = nan\n"
        assert out.splitlines()[1] == "# tail_flatness = nan"

    @pytest.mark.parametrize("xs", [np.linspace(3.0, 0.0, 301), [0.0, 1.0, 1.0, 2.0]],
                             ids=["reversed", "repeated"])
    def test_truth_abscissae_must_increase(self, capsys, tmp_path, t2f1_csv, xs):
        # np.interp reads abscissae that do not increase without an error
        truth = tmp_path / "truth.csv"
        write_samples(truth, xs, np.exp(-np.square(xs)))
        out_path = tmp_path / "rec.csv"
        rc, out, err = run(capsys, "invert", "--method", "fourier", "--in", t2f1_csv,
                           "--alpha", "2", "--grid", "0:3:301", "--truth", str(truth),
                           "--out", str(out_path))
        assert (rc, out, err) == (2, "", f"error: {truth}: abscissae must increase\n")
        assert not out_path.exists()

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
        assert (rc, out, err) == (2, "", "error: n must be an integer >= 1, got 0\n")

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

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 300), m=st.integers(0, 299))
    @example(seed=9, n=10, m=4)
    def test_per_index_keying(self, seed, n, m):
        # draw i is a pure function of (seed, i): prefixes agree
        m = min(m, n - 1)
        assert np.array_equal(gaussian_noise(seed, n)[:m].view(np.int64),
                              gaussian_noise(seed, m).view(np.int64))

    @pytest.mark.parametrize("seed", [0, 1, 101, 2**63, 2**64 - 1])
    def test_matches_per_draw_generators(self, seed):
        reference = gaussian_noise_per_draw(seed, 100_000)
        for count in (0, 1, 400, 100_000):
            draws = gaussian_noise(seed, count)
            assert np.array_equal(draws.view(np.int64), reference[:count].view(np.int64))

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_the_key_range(self, capsys, tmp_path, t2f1_csv, seed):
        out_path = tmp_path / "n.csv"
        rc, out, err = run(capsys, "noise", "--in", t2f1_csv, "--seed", seed,
                           "--out", str(out_path))
        assert (rc, out, err) == (2, "", f"error: --seed must be in [0, 2**64), got {seed}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "-0.1"])
    def test_sigma_not_finite_and_non_negative(self, capsys, tmp_path, t2f1_csv, sigma):
        out_path = tmp_path / "n.csv"
        rc, out, err = run(capsys, "noise", "--in", t2f1_csv, f"--sigma={sigma}",
                           "--out", str(out_path))
        shown = float(sigma)
        assert (rc, out, err) == (
            2, "", f"error: --sigma must be finite and non-negative, got {shown}\n")
        assert not out_path.exists()


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

    def test_config_not_utf8_names_the_line(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"alpha = 2\n# \xff\ncount = 1\n")
        rc, out, err = run(capsys, "coeffs", "--config", str(cfgfile))
        assert (rc, out) == (2, "")
        assert err == (f"error: {cfgfile}, line 2: not UTF-8 text ('utf-8' codec can't "
                       "decode byte 0xff in position 2: invalid start byte)\n")

    def test_nonuniform_csv_rejected(self, tmp_path):
        # below a step of 1e-8 a check of the steps against an absolute 1e-8
        # passed the last two, and their samples moved onto a grid, by up to 60% of a step
        src = tmp_path / "bad.csv"
        for xs in ([0.0, 1.0, 3.0], [0.0, 1e-9, 5e-9], [0.0, 1e-9, 2e-9, 3.5e-9]):
            write_samples(src, xs, np.ones(len(xs)))
            with pytest.raises(ValueError) as exc:
                sampled_from_csv(str(src))
            assert str(exc.value) == f"{src}: abscissae are not uniformly spaced"

    @pytest.mark.parametrize("start, stop, count", [(0.0, 1e-9, 11), (1e6, 1e6 + 1.0, 1001),
                                                    (0.0, 20.0, 2001)])
    def test_uniform_csv_accepted(self, tmp_path, start, stop, count):
        # abscissae written at 17 digits sit on their grid up to rounding,
        # which at 1e6 is more than ten times 1e-8 of a step of 1e-3
        src = tmp_path / "ok.csv"
        xs = np.linspace(start, stop, count)
        write_samples(src, xs, np.ones(count))
        grid = sampled_from_csv(str(src)).grid
        assert (grid.start, grid.count) == (start, count)
        assert np.max(np.abs(grid.points() - xs)) <= 4.0 * np.spacing(stop)

    def test_nonconvergence_exit_code(self, capsys, monkeypatch, tmp_path, t2f1_csv):
        import alphasine.cli as cli_mod

        def boom(*args, **kwargs):
            raise NonConvergence("forced")

        monkeypatch.setattr(cli_mod, "t_sine", boom)
        rc, _, err = run(capsys, "forward", "--f", "f1", "--alpha", "2", "--grid", "1:2:2")
        assert rc == 3 and "forced" in err

    @pytest.mark.parametrize("argv, message", [
        (["forward", "--f", "f1", "--alpha", "2", "--grid", "0:5"],
         "grid must be start:stop:count, got '0:5'"),
        (["forward", "--f", "f1", "--alpha", "2", "--grid", "5:0:10"],
         "bad grid specification '5:0:10'"),
        (["invert", "--method", "fourier", "--alpha", "2", "--in", "{one_row}"],
         "{one_row}: need at least two samples"),
        (["forward", "--alpha", "2", "--in", "{good}", "--method", "series"],
         "needs a builtin f"),
    ], ids=["grid-two-fields", "grid-reversed", "one-sample", "series-of-csv"])
    def test_refusal_names_its_cause(self, capsys, tmp_path, t2f1_csv, argv, message):
        one_row = tmp_path / "one_row.csv"
        write_samples(one_row, [0.0], [1.0])
        names = {"one_row": one_row, "good": t2f1_csv}
        rc, out, err = run(capsys, *[a.format(**names) for a in argv])
        assert (rc, out) == (2, "") and message.format(**names) in err

    @pytest.mark.parametrize("argv, message", [
        (["forward", "--f", "f1", "--alpha", "1.5", "--grid", "1:2:2", "--tail-cut", "inf"],
         "tail_cut must be finite and positive, got inf"),
        (["invert", "--method", "fourier", "--alpha", "2", "--in", "{good}",
          "--mollifier", "triangle", "--gamma", "inf"], "gamma must be finite and positive, got inf"),
        (["invert", "--method", "fourier", "--alpha", "2", "--in", "{good}", "--f0", "inf"],
         "f0 must be finite, got inf"),
        (["sas", "--in", "{tau}", "--sigma", "inf", "--alpha", "1.5"],
         "sigma must be finite and positive, got inf"),
        (["forward", "--f", "f1", "--alpha", "1.5", "--grid", "0:inf:5"],
         "step must be finite and positive, got inf"),
    ], ids=["tail-cut", "gamma", "f0", "sas-sigma", "grid-step"])
    def test_infinite_parameter_is_refused_by_name(self, capsys, tmp_path, t2f1_csv, argv,
                                                   message):
        # pytest turns a RuntimeWarning into an error, so none is raised first
        tau = tmp_path / "tau.csv"
        write_samples(tau, [0.5, 1.0], [1.0, 1.0], header="t,tau")
        rc, out, err = run(capsys, *[a.format(good=t2f1_csv, tau=tau) for a in argv])
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["sas", "--in", "{tau}", "--sigma", "1e300", "--alpha", "1.5"],
         "sigma = 1e+300 overflows 2 sigma**alpha at alpha = 1.5"),
        (["invert", "--method", "direct", "--in", "{good}", "--alpha", "200.5"],
         "alpha = 200.5 is too large"),
        (["coeffs", "--alpha", "1e300", "--count", "3"], "alpha = 1e+300 is too large"),
        (["coeffs", "--alpha", "1e12", "--count", "3"], "alpha = 1000000000000.0 is too large"),
        # 8 PB of int64 is beyond a 47-bit address space: the allocation
        # fails at once on any host
        (["forward", "--f", "f1", "--alpha", "1.5", "--grid", "0:1:1000000000000000"],
         "Unable to allocate"),
    ], ids=["sas-sigma", "direct-mu", "coeffs-comb", "coeffs-1e12", "forward-grid"])
    def test_overflow_and_memory_exit_2(self, capsys, tmp_path, t2f1_csv, argv, message):
        tau = tmp_path / "tau.csv"
        write_samples(tau, [0.5, 1.0], [1.0, 1.0], header="t,tau")
        rc, out, err = run(capsys, *[a.format(good=t2f1_csv, tau=tau) for a in argv])
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("xs", [[-2.0, -1.5, -1.0], [0.0, 1e-10, 2e-10]],
                             ids=["negative", "below-e-20"])
    def test_direct_refuses_samples_ending_near_zero(self, capsys, tmp_path, xs):
        # H g's u = ln y grid runs from -ln x_last to 20: it needs x_last > e^-20
        g = tmp_path / "g.csv"
        write_samples(g, xs, [1.0, 1.0, 1.0])
        rc, out, err = run(capsys, "invert", "--method", "direct", "--alpha", "2",
                           "--in", str(g), "--grid", "0.2:3:5")
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {g}: H g needs samples of g beyond x = e^-20")
        assert f"the last abscissa is {xs[-1]:.6g}\n" in err

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
        (_rows_with(5, "abc", 1400), ", line 6: could not convert string to float: 'abc'"),
        (_rows_with(1300, "abc", 1400), ", line 1301: could not convert string to float: 'abc'"),
        (_rows_with(1400, "abc", 5), ", line 6: 3 fields, the header has 2"),
        # "\udcff" is written as the byte 0xff, which is not UTF-8
        ("x,value\n0,abc\n1,2\n2,\udcff3\n", ", line 2: could not convert string to float: 'abc'"),
    ], ids=["width-first", "number-first", "width-before-finite", "short", "empty-field",
            "header-only", "empty", "one-column", "number-then-width-far",
            "number-then-width-near", "width-then-number-far", "number-before-not-utf8"])
    def test_csv_error_names_first_fault(self, tmp_path, text, suffix):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError) as exc:
            read_csv(str(bad))
        assert str(exc.value) == f"{bad}{suffix}"

    @pytest.mark.parametrize("command", ["noise", "truth"])
    @pytest.mark.parametrize("lines, number, detail", [
        (b"x,value\n0,1\n1,\xff2\n2,3\n", 3,
         "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
        (b"x,value\n0,1\n# caf\xe9\n1,2\n2,3\n", 3,
         "'utf-8' codec can't decode byte 0xe9 in position 5: invalid continuation byte"),
    ], ids=["data-row", "comment"])
    def test_csv_not_utf8_names_the_line(self, capsys, tmp_path, t2f1_csv, command,
                                         lines, number, detail):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(lines)
        out_path = tmp_path / "out.csv"
        if command == "noise":
            argv = ["noise", "--in", str(bad), "--sigma", "0.1"]
        else:
            argv = ["invert", "--method", "fourier", "--in", t2f1_csv, "--alpha", "2",
                    "--grid", "0:3:301", "--truth", str(bad)]
        rc, out, err = run(capsys, *argv, "--out", str(out_path))
        assert (rc, out) == (2, "") and not out_path.exists()
        assert err == f"error: {bad}, line {number}: not UTF-8 text ({detail})\n"

    def test_csv_rows_parse_as_floats(self, tmp_path):
        src = tmp_path / "ok.csv"
        src.write_text("# c\r\nx , y\r\n\r\n 0.5 ,-1e-3\r\n2,3\r\n", encoding="utf-8")
        header, data = read_csv(str(src))
        assert header == ["x", "y"] and data.tolist() == [[0.5, -1e-3], [2.0, 3.0]]

    @pytest.mark.parametrize("text", ["x,value\n", "# a\nx,value\n# b\n\n", "# only\n"])
    def test_no_data_rows_without_a_warning(self, tmp_path, text):
        src = tmp_path / "empty.csv"
        src.write_text(text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as exc:
                read_csv(str(src))
        assert str(exc.value) == f"{src}: no data rows" and caught == []

    def test_plain_file_is_one_numpy_pass(self, monkeypatch, tmp_path):
        src = tmp_path / "ok.csv"
        write_samples(src, [0.0, 0.5, 1.0], [1.0, -2.5, 1e-300])

        def row_parser(path):
            raise AssertionError("read row by row")

        monkeypatch.setattr(cli_mod, "_read_csv_rows", row_parser)
        header, data = read_csv(str(src))
        assert header == ["x", "value"] and data.tolist() == [[0.0, 1.0], [0.5, -2.5],
                                                              [1.0, 1e-300]]


# fields float() reads that loadtxt refuses or reads otherwise, fields
# neither reads, and padding either may strip; the readers must agree on all
_ODD_FIELDS = ["1_0", " 1.5 ", "nan", "-inf", "1e400", "", "0x10", "\u0661", "2 # c",
               "\t4\x0b", "1\xa0", "\x1d2", "3\x1f", "+.5", "1e", "--1"]
_FILLER = st.sampled_from(["", "   ", "# note", "\t", "#"])


@st.composite
def _csv_texts(draw):
    """Mostly well-formed files, so that many take the loadtxt pass: an odd
    field is drawn one time in twenty, a filler line after the header or a
    ragged row one time in eight."""
    def rare(n=8):
        return draw(st.integers(0, n - 1)) == 0

    def field():
        if rare(20):
            return draw(st.sampled_from(_ODD_FIELDS))
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))

    width = draw(st.sampled_from([1, 2, 2, 3]))
    lines = draw(st.lists(_FILLER, max_size=2))
    lines.append(",".join(["x", "value", "truth"][:width]))
    for _ in range(draw(st.integers(0, 4))):
        if rare():
            lines.append(draw(_FILLER))
        ragged = draw(st.sampled_from([-1, 1])) if rare() else 0
        lines.append(",".join(field() for _ in range(max(width + ragged, 1))))
    if rare():
        lines.append(draw(_FILLER))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def _read_outcome(reader, path):
    try:
        header, data = reader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return header, data.shape, data.view(np.int64).tolist()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_texts())
@example(text="x,value\n")
@example(text="# a\n\n# b")
@example(text="x,value\n0,1\n   \n2,3")
@example(text="x,value\n0,1\n# mid\n2,3\n")
@example(text="x,value\r\n1_0,2\r\n")
@example(text="x,value\n0,1\n1,2,3")
@example(text="x,value\n0,1")
@example(text="x,value\n0\x1d,1\n")
def test_numpy_pass_agrees_with_row_parser(tmp_path, text):
    src = tmp_path / "gen.csv"
    src.write_bytes(text.encode("utf-8"))
    assert _read_outcome(read_csv, str(src)) == _read_outcome(_read_csv_rows, str(src))


def readme_commands():
    """The alphasine commands of the README's CLI examples, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI examples", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("alphasine ")]


class TestParserPerProcess:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_are_independent(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha = 2\ncount = 1\nkind = cosine\n")
        rc, out, _ = run(capsys, "coeffs", "--config", str(cfgfile))
        assert rc == 0 and "kind=cosine" in out.splitlines()[0]
        rc, out, _ = run(capsys, "coeffs", "--alpha", "2", "--count", "1")
        assert rc == 0 and out.splitlines()[0] == "# alphasine coeffs alpha=2.0 count=1 kind=sine"
        base = ["forward", "--f", "f1", "--alpha", "1.5", "--grid", "0:1:3"]
        rc, out, _ = run(capsys, *base, "--method", "series", "--terms", "50",
                         "--tail-cut", "12")
        assert rc == 0 and "terms=50" in out.splitlines()[0]
        rc, out, _ = run(capsys, *base)
        first = out.splitlines()[0]
        assert rc == 0 and "terms" not in first and "method=quad" in first
        assert "tail_cut=30.0" in first

    @pytest.mark.parametrize("argv", [
        [], ["coeffs"], ["forward"], ["invert"], ["invert", "--method", "fourier"],
        ["invert", "--method", "direct"], ["invert", "--method", "sphere"], ["noise"], ["sas"],
    ])
    def test_help_matches_a_fresh_parser(self, capsys, argv):
        run(capsys, "coeffs", "--alpha", "2", "--count", "1", "--kind", "cosine")
        helps = []
        for parser in (build_parser(), build_parser.__wrapped__()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(_method_first(argv + ["--help"]))
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] and "usage: alphasine" in helps[0]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        parse_args(argv)
