import json
import os

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

    def test_numerical_failure(self, tmp_path):
        # eps far above every Gram eigenvalue kills all modes -> exit 3
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL_CONFIG + f"out = {tmp_path}\n"
                        "eps_rule = fixed\neps_fixed = 1e6\n")
        assert main(["convergence", "--config", str(path)]) == 3

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
        # the noise-free floor with theta > 0 keeps noise-dominated modes
        ("eps_rule = noise-free", "convergence"),
        ("eps_rule = m-theta\ntheta_values = 0,0.001", "convergence"),
        # past the 12-qubit dense cap
        ("n = 13", "convergence"),
        ("model = bipartite\nn = 7", "gram"),
        ("", "convergence --seed -1"),  # the runner's own validation
    ])
    def test_bad_value_is_config_error(self, tmp_path, line, command):
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL_CONFIG + f"out = {tmp_path / 'out'}\n{line}\n")
        assert main(command.split() + ["--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()


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
        assert header == ["source", "row", "col", "R_re", "R_im", "J_re", "J_im"]
        assert len(rows) == 2 * 6 * 6  # exact + minimax, m=6

    def test_largest_theta_used_whatever_its_position(self, tmp_path):
        outputs = []
        for i, thetas in enumerate(["0, 0.001, 0.01", "0.001, 0, 0.01"]):
            path = tmp_path / f"cfg{i}.txt"
            out = tmp_path / f"out{i}"
            path.write_text(SMALL_CONFIG + f"theta_values = {thetas}\nout = {out}\n")
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
