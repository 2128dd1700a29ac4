import json
import os
import sys

import numpy as np
import pytest

from superkrylov.cli import main
from superkrylov.experiments import parse_config
from superkrylov.errors import ConfigParse


SMALL_CONFIG = """\
# four-qubit chain, tiny sweep
model = heisenberg
n = 4
model_seed = 42
gamma0 = 0.25
m_values = 2,4,6
theta_values = 0.001
D = 10
d_values = 5,10
M = 3
trials = 2
master_seed = 11
"""


def _config_text(extra: str) -> str:
    """SMALL_CONFIG with each line of extra replacing the line of the same
    key, or appended when SMALL_CONFIG has none (a key may appear once)."""
    overrides = [line for line in extra.splitlines() if line.strip()]
    keys = {line.partition("=")[0].strip() for line in overrides}
    kept = [line for line in SMALL_CONFIG.splitlines()
            if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept + overrides) + "\n"


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_CONFIG + f"out = {tmp_path / 'out'}\n")
    return str(path)


class TestConfigParsing:
    def test_roundtrip(self, config_file):
        cfg = parse_config(config_file)
        assert cfg.n == 4
        assert cfg.m_values == [2, 4, 6]
        assert cfg.theta_values == [0.001]
        assert cfg.trials == 2

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mystery = 3\n")
        with pytest.raises(ConfigParse):
            parse_config(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n = many\n")
        with pytest.raises(ConfigParse):
            parse_config(str(path))

    def test_bad_gamma(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("gamma0 = 0.9\n")
        with pytest.raises(ConfigParse):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigParse):
            parse_config("/nonexistent/cfg.txt")

    def test_undecodable_bytes(self, tmp_path, capsys):
        # used to escape as a UnicodeDecodeError traceback, exit 1
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"n = 4\nmodel = heisenberg \xff\n")
        with pytest.raises(ConfigParse, match="cannot read config"):
            parse_config(str(path))
        assert main(["gram", "--config", str(path)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_largest_chain_order_validates(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(_config_text("M = 99\n"))
        assert parse_config(str(path)).M == 99

    def test_line_without_equals_sign(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("n = 4\nmodel heisenberg\n")
        with pytest.raises(ConfigParse, match=r":2: expected 'key = value'"):
            parse_config(str(path))
        assert main(["gram", "--config", str(path)]) == 2
        assert ":2: expected 'key = value'" in capsys.readouterr().err

    def test_repeated_key(self, tmp_path):
        # the second value used to override the first without a word
        path = tmp_path / "cfg.txt"
        path.write_text("n = 4\n# a comment\nn = 5\n")
        with pytest.raises(ConfigParse, match=r":3: key 'n' repeats line 1"):
            parse_config(str(path))


class TestExitCodes:
    def test_success(self, config_file, capsys):
        assert main(["convergence", "--config", config_file]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("convergence.csv")

    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("model = tetrahedral\n")
        assert main(["convergence", "--config", str(bad)]) == 2

    def test_missing_config(self):
        assert main(["gram", "--config", "/nonexistent.txt"]) == 2

    def test_numerical_failure(self, tmp_path, capsys):
        # eps far above every Gram eigenvalue kills all modes -> exit 3, and
        # the message names the first cell, where the sweep stopped
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL_CONFIG + f"out = {tmp_path}\n"
                        "eps_rule = fixed\neps_fixed = 1e6\n")
        assert main(["convergence", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: theta=0.001 trial=0 m=2: eps = " in err

    @pytest.mark.parametrize("M, message", [
        # gap 23's forcing bound 2.6e307 makes the budget weight q subnormal
        (70, "gap=23 M=70: bounds (2.6"),
        # gap 13's forcing norm g^(2M-1) int F^(M)^2 overflows
        (80, "gap=13 M=80: forcing norm at j=0 k=13 order=80 is inf"),
    ])
    def test_large_chain_order_names_the_gap(self, tmp_path, capsys, M, message):
        path = tmp_path / "cfg.txt"
        path.write_text(f"model = heisenberg\nn = 4\ntheta_values = 0.001\n"
                        f"D = 15\nM = {M}\nout = {tmp_path}\n")
        assert main(["convergence", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        # the forcing norm's checks raise InvalidInput: exit 3, its own label
        assert f"invalid input: theta=0.001 trial=0: {message}" in err

    @pytest.mark.parametrize("line, command", [
        ("m_values = 1,2,4", "convergence"),
        ("d_values = 1,5", "deriv-scaling"),
        ("theta_values = -0.001", "convergence"),
        ("theta_values = nan", "deriv-scaling"),
        ("theta_values = nan", "convergence"),
        ("delta_t_fraction = 1.0", "convergence"),
        ("n = 0", "gram"),
        ("n = 1", "convergence"),
        ("master_seed = -3", "convergence"),
        ("eps_rule = fixed\neps_fixed = -1", "convergence"),
        # a zero threshold keeps the null Gram modes
        ("eps_rule = fixed\neps_fixed = 0", "convergence"),
        # below the noise-free floor 1e-12 * max(m_values)
        ("eps_rule = fixed\neps_fixed = 1e-300", "convergence"),
        # an unknown rule: noise-free equalled auto wherever it was valid
        ("eps_rule = noise-free", "convergence"),
        ("eps_rule = m-theta\ntheta_values = 0,0.001", "convergence"),
        # past the 12-qubit dense cap
        ("n = 13", "convergence"),
        ("model = bipartite\nn = 7", "gram"),
        ("", "convergence --seed -1"),  # the runner's own validation
        # repeated entries would write copies that read as independent rows
        ("m_values = 2,3,3", "convergence"),
        ("theta_values = 0.001,0.001", "convergence"),
        ("d_values = 5,5", "deriv-scaling"),
        # with no noise the three fits share one budget: identical traces
        ("theta_values = 0", "minimax-demo"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, line, command):
        path = tmp_path / "cfg.txt"
        path.write_text(_config_text(f"out = {tmp_path / 'out'}\n{line}\n"))
        assert main(command.split() + ["--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["convergence", "deriv-scaling",
                                         "minimax-demo", "gram"])
    def test_chain_order_past_the_limit_is_config_error(self, tmp_path, capsys,
                                                        command):
        # ((M-1)!)^2 overflows float64 at M = 100 (minimax.MAX_CHAIN_ORDER)
        path = tmp_path / "cfg.txt"
        path.write_text(_config_text(f"out = {tmp_path / 'out'}\nM = 100\n"))
        assert main([command, "--config", str(path)]) == 2
        assert "M must lie in [2, 99], not 100" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["convergenc", "--config", "cfg.txt"],  # unknown command
        ["convergence"],  # no --config
        ["convergence", "--config", "cfg.txt", "--seed", "x"],
    ])
    def test_bad_command_line_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage: superkrylov" in capsys.readouterr().err

    def test_options_may_precede_the_command(self, config_file, tmp_path):
        out = tmp_path / "before"
        assert main(["--config", config_file, "--out", str(out), "gram"]) == 0
        assert (out / "gram.csv").exists()

    def test_repeated_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL_CONFIG + f"out = {tmp_path / 'out'}\nn = 5\n")
        assert main(["convergence", "--config", str(path)]) == 2
        assert "key 'n' repeats line 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["", "file"])
    def test_unusable_output_dir_is_config_error(self, tmp_path, capsys, out):
        # an empty name, or one taken by a file, fails before any cell runs
        if out:
            out = tmp_path / out
            out.write_text("")
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL_CONFIG + f"out = {out}\n")
        assert main(["convergence", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot write output directory" in err
        assert "Traceback" not in err


class TestOutputs:
    def test_convergence_schema(self, config_file, tmp_path):
        out = str(tmp_path / "o1")
        assert main(["convergence", "--config", config_file, "--out", out]) == 0
        with open(os.path.join(out, "convergence.csv")) as fh:
            header = fh.readline().strip().split(",")
            rows = fh.readlines()
        assert header == ["m", "theta", "gamma0", "trial", "delta0_prime",
                          "estimate", "rel_error", "omega", "kept_dim"]
        assert len(rows) == 3 * 2  # three m values, two trials

    def test_deriv_scaling_schema(self, config_file, tmp_path):
        out = str(tmp_path / "o2")
        assert main(["deriv-scaling", "--config", config_file, "--out", out]) == 0
        with open(os.path.join(out, "deriv_scaling.csv")) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.split(",") for line in fh]
        assert header == ["D", "theta", "trial", "abs_error", "sigma_certificate"]
        summaries = [r for r in rows if r[2] == "-1"]
        assert len(summaries) == 2  # one per (D, theta)

    def test_minimax_demo_schema(self, config_file, tmp_path):
        out = str(tmp_path / "o3")
        assert main(["minimax-demo", "--config", config_file, "--out", out]) == 0
        with open(os.path.join(out, "minimax_demo.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["t", "exact_R", "exact_dR", "xhat0_rlow", "xhat0_r0",
                          "xhat0_rhigh", "xhat1", "sigma"]
        assert os.path.exists(os.path.join(out, "minimax_demo_points.csv"))

    def test_gram_schema(self, config_file, tmp_path):
        out = str(tmp_path / "o4")
        assert main(["gram", "--config", config_file, "--out", out]) == 0
        with open(os.path.join(out, "gram.csv")) as fh:
            header = fh.readline().strip().split(",")
            rows = fh.readlines()
        # R_hat is real and J_hat imaginary, so each has one column
        assert header == ["source", "row", "col", "R_re", "J_im"]
        assert len(rows) == 2 * 6 * 6  # exact + minimax, m=6

    def test_largest_theta_used_whatever_its_position(self, tmp_path):
        outputs = []
        for i, thetas in enumerate(["0, 0.001, 0.01", "0.001, 0, 0.01"]):
            path = tmp_path / f"cfg{i}.txt"
            out = tmp_path / f"out{i}"
            path.write_text(_config_text(f"theta_values = {thetas}\nout = {out}\n"))
            for command in ("gram", "minimax-demo"):
                assert main([command, "--config", str(path)]) == 0
            outputs.append([(out / name).read_bytes() for name in
                            ("gram.csv", "minimax_demo.csv", "minimax_demo_points.csv")])
        assert outputs[0] == outputs[1]
        assert b"\nminimax," in outputs[0][0]

    def test_manifest_echoes_config(self, config_file, tmp_path):
        out = str(tmp_path / "o5")
        main(["convergence", "--config", config_file, "--out", out])
        with open(os.path.join(out, "convergence_manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["config"]["n"] == 4
        assert manifest["config"]["master_seed"] == 11
        assert manifest["schema_version"] == 1

    def test_manifest_records_environment(self, config_file, tmp_path):
        out = str(tmp_path / "o7")
        assert main(["convergence", "--config", config_file, "--out", out]) == 0
        with open(os.path.join(out, "convergence_manifest.json")) as fh:
            manifest = json.load(fh)
        environment = manifest.pop("environment")
        blas = environment.pop("blas")
        assert environment == {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__}
        try:  # numpy >= 1.25
            built = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except TypeError:
            assert blas is None
        else:
            assert blas == {"name": built["name"], "version": built["version"]}
        assert manifest["schema_version"] == 1

    @pytest.mark.parametrize("model, atoms", [
        ("model = bipartite\nn = 3", 64),  # 64 distinct eigenvalues
        ("model = heisenberg", 6),  # the SU(2) levels of the 16 eigenvalues
    ])
    def test_manifest_records_spectral_atoms(self, tmp_path, model, atoms):
        path = tmp_path / "cfg.txt"
        out = tmp_path / "out"
        path.write_text(_config_text(f"theta_values = 0\nout = {out}\n{model}\n"))
        assert main(["convergence", "--config", str(path)]) == 0
        manifest = json.loads((out / "convergence_manifest.json").read_text())
        assert manifest["spectral_atoms"] == atoms

    @pytest.mark.parametrize("model, weights", [
        # distinct extremal eigenvalues carry gamma0 = 0.25 each
        ("model = bipartite\nn = 3", [0.25, 0.25]),
        # the top level is the spin-2 quintet: sqrt(gamma0) sits on one of
        # its eigenvectors, and each of the other four carries the interior
        # weight 0.5 / 14
        ("model = heisenberg", [0.25, 0.25 + 4 * 0.5 / 14]),
    ])
    def test_manifest_records_extremal_level_weights(self, tmp_path, model,
                                                     weights):
        path = tmp_path / "cfg.txt"
        out = tmp_path / "out"
        path.write_text(_config_text(f"theta_values = 0\nout = {out}\n{model}\n"))
        assert main(["convergence", "--config", str(path)]) == 0
        manifest = json.loads((out / "convergence_manifest.json").read_text())
        assert manifest["extremal_level_weights"] == pytest.approx(weights,
                                                                   rel=1e-14)

    def test_manifest_times_each_stage(self, config_file, tmp_path):
        out = str(tmp_path / "o6")
        assert main(["convergence", "--config", config_file, "--out", out]) == 0
        with open(os.path.join(out, "convergence_manifest.json")) as fh:
            manifest = json.load(fh)
        stages = manifest["stage_s"]
        assert set(stages) == {"build_context", "cells", "write"}
        assert all(s >= 0 for s in stages.values())
        # each of the four values is rounded to 1 ms
        assert abs(sum(stages.values()) - manifest["wall_time_s"]) <= 2e-3 + 1e-9

    @pytest.mark.parametrize("model, factor_qubits", [
        ("model = bipartite\nn = 3", [2, 2, 2]),  # qubit i couples to 3 + i
        ("model = heisenberg", [4]),
    ])
    def test_manifest_records_factor_qubits(self, tmp_path, model, factor_qubits):
        path = tmp_path / "cfg.txt"
        out = tmp_path / "out"
        path.write_text(_config_text(f"theta_values = 0\nout = {out}\n{model}\n"))
        assert main(["convergence", "--config", str(path)]) == 0
        manifest = json.loads((out / "convergence_manifest.json").read_text())
        assert manifest["factor_qubits"] == factor_qubits

    def test_seed_override(self, config_file, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        main(["convergence", "--config", config_file, "--out", out_a,
              "--seed", "99"])
        main(["convergence", "--config", config_file, "--out", out_b])
        with open(os.path.join(out_a, "convergence.csv")) as fh:
            a = fh.read()
        with open(os.path.join(out_b, "convergence.csv")) as fh:
            b = fh.read()
        assert a != b
