import json
import math
import os
import subprocess
import sys

import pytest

from emscan import Pose, load_points, make_scene, save_points, wrap_angle


def run_cli(*args, env_extra=None, cwd=None):
    env = os.environ.copy()
    env.pop("EMSCAN_MAX_ITERS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "emscan", *map(str, args)],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def write_scene(tmp_path, name="scene", **kwargs):
    defaults = dict(shape="rectangle", n_points=200,
                    pose=Pose(0.3, -0.2, math.radians(5.0)),
                    noise_sigma=0.02, seed=13)
    defaults.update(kwargs)
    model, scan, truth = make_scene(
        defaults["shape"], defaults["n_points"], defaults["pose"],
        noise_sigma=defaults["noise_sigma"], seed=defaults["seed"])
    model_path = tmp_path / f"{name}_model.txt"
    scan_path = tmp_path / f"{name}_scan.txt"
    save_points(model_path, model)
    save_points(scan_path, scan)
    return scan_path, model_path, defaults["pose"]


class TestRegisterCommand:
    def test_identical_files_exit_zero(self, tmp_path):
        pts = make_scene("circle", 64, Pose.identity())[0]
        path = tmp_path / "pts.txt"
        save_points(path, pts)
        proc = run_cli("register", path, path, "--sigma", "0.02", "--w", "1.0")
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["schema_version"] == 1
        assert abs(record["pose"]["tx"]) < 1e-9
        assert abs(record["pose"]["ty"]) < 1e-9
        assert record["converged"] is True

    def test_rectangle_scene_recovers_truth(self, tmp_path):
        scan_path, model_path, truth = write_scene(tmp_path)
        proc = run_cli("register", scan_path, model_path,
                       "--sigma", "0.02", "--w", "1.0")
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert math.hypot(record["pose"]["tx"] - truth.tx,
                          record["pose"]["ty"] - truth.ty) < 0.02
        assert abs(wrap_angle(record["pose"]["theta"] - truth.theta)) < math.radians(1.0)
        assert record["n_inliers"] == 200
        assert record["angle_unit"] == "radians"

    def test_empty_model_exits_one(self, tmp_path):
        scan_path, _, _ = write_scene(tmp_path)
        empty = tmp_path / "empty.txt"
        empty.write_text("# no points\n")
        proc = run_cli("register", scan_path, empty)
        assert proc.returncode == 1
        assert "empty model" in proc.stderr

    def test_missing_file_exits_one(self, tmp_path):
        scan_path, _, _ = write_scene(tmp_path)
        proc = run_cli("register", scan_path, tmp_path / "nope.txt")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_non_convergence_exits_two_with_record(self, tmp_path):
        scan_path, model_path, _ = write_scene(tmp_path)
        proc = run_cli("register", scan_path, model_path,
                       "--sigma", "0.02", "--w", "1.0",
                       "--max-iters", "2", "--epsilon", "1e-30")
        assert proc.returncode == 2
        record = json.loads(proc.stdout)
        assert record["converged"] is False
        assert record["iterations"] == 2

    def test_oracle_matches_default(self, tmp_path):
        for seed, shape in ((7, "rectangle"), (8, "circle"), (9, "l-shape")):
            scan_path, model_path, _ = write_scene(
                tmp_path, name=f"s{seed}", shape=shape, seed=seed,
                pose=Pose(0.1, -0.05, math.radians(2.0)))
            fast = run_cli("register", scan_path, model_path,
                           "--sigma", "0.02", "--w", "0.8", "--epsilon", "0.01")
            slow = run_cli("register", scan_path, model_path,
                           "--sigma", "0.02", "--w", "0.8", "--epsilon", "0.01",
                           "--oracle")
            assert fast.returncode == 0 and slow.returncode == 0
            a = json.loads(fast.stdout)["pose"]
            b = json.loads(slow.stdout)["pose"]
            assert abs(a["tx"] - b["tx"]) < 1e-9
            assert abs(a["ty"] - b["ty"]) < 1e-9
            assert abs(a["theta"] - b["theta"]) < 1e-9

    def test_deterministic_output_modulo_walltime(self, tmp_path):
        scan_path, model_path, _ = write_scene(tmp_path)
        records = []
        for _ in range(2):
            proc = run_cli("register", scan_path, model_path,
                           "--sigma", "0.02", "--w", "1.0")
            record = json.loads(proc.stdout)
            record.pop("wall_time_s")
            records.append(record)
        assert records[0] == records[1]

    def test_degrees_flag_converts_at_boundary(self, tmp_path):
        scan_path, model_path, truth = write_scene(tmp_path)
        proc = run_cli("register", scan_path, model_path,
                       "--sigma", "0.02", "--w", "1.0", "--degrees",
                       "--pose0", "0", "0", "0")
        record = json.loads(proc.stdout)
        assert record["angle_unit"] == "degrees"
        assert abs(record["pose"]["theta"] - 5.0) < 1.0

    def test_pose0_flag(self, tmp_path):
        scan_path, model_path, truth = write_scene(tmp_path)
        proc = run_cli("register", scan_path, model_path,
                       "--sigma", "0.02", "--w", "0.3", "--epsilon", "0.5",
                       "--pose0", truth.tx, truth.ty, truth.theta)
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["iterations"] <= 3
        assert math.hypot(record["pose"]["tx"] - truth.tx,
                          record["pose"]["ty"] - truth.ty) < 0.02

    def test_full_gamma_flag(self, tmp_path):
        scan_path, model_path, _ = write_scene(tmp_path)
        proc = run_cli("register", scan_path, model_path,
                       "--gamma", "2500", "0", "2500", "--w", "1.0")
        assert proc.returncode == 0

    def test_default_window_is_three_sigma(self, tmp_path):
        scan_path, model_path, _ = write_scene(
            tmp_path, pose=Pose(0.05, -0.03, 0.01))
        proc = run_cli("register", scan_path, model_path, "--sigma", "0.1")
        record = json.loads(proc.stdout)
        assert record["window"] == pytest.approx(0.3)

    def test_dump_graph(self, tmp_path):
        scan_path, model_path, _ = write_scene(tmp_path, n_points=50)
        dump = tmp_path / "edges.txt"
        proc = run_cli("register", scan_path, model_path,
                       "--sigma", "0.02", "--w", "1.0", "--dump-graph", dump)
        assert proc.returncode == 0
        lines = dump.read_text().strip().splitlines()
        assert lines
        for line in lines[:5]:
            j, k, pri, post = line.split()
            int(j), int(k)
            assert 0.0 <= float(pri) <= 1.0
            assert 0.0 <= float(post) <= 1.0

    def test_regate_dump_is_final_graph(self, tmp_path):
        scan_path, model_path, _ = write_scene(
            tmp_path, shape="l-shape", pose=Pose(0.15, -0.1, math.radians(4.0)),
            noise_sigma=0.01)
        dump = tmp_path / "edges.txt"
        proc = run_cli("register", scan_path, model_path, "--sigma", "0.02",
                       "--w", "0.1", "--regate", "--dump-graph", dump)
        assert proc.returncode in (0, 2), proc.stderr
        rows = {line.split()[0] for line in dump.read_text().splitlines()}
        assert len(rows) == json.loads(proc.stdout)["n_inliers"]

    def test_env_var_sets_default(self, tmp_path):
        scan_path, model_path, _ = write_scene(tmp_path)
        proc = run_cli("register", scan_path, model_path,
                       "--sigma", "0.02", "--w", "1.0", "--epsilon", "1e-30",
                       env_extra={"EMSCAN_MAX_ITERS": "2"})
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["iterations"] == 2

    def test_flag_overrides_env(self, tmp_path):
        scan_path, model_path, _ = write_scene(tmp_path)
        proc = run_cli("register", scan_path, model_path,
                       "--sigma", "0.02", "--w", "1.0", "--max-iters", "50",
                       env_extra={"EMSCAN_MAX_ITERS": "1"})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["converged"] is True

    @pytest.mark.parametrize("name, value, oracle", [
        ("EMSCAN_ORACLE", "on", True),
        ("EMSCAN_ORACLE", "1", True),
        ("EMSCAN_ORACLE", "off", False),
        ("EMSCAN_ORACLE", "", False),
        ("EMSCAN_ORACLE", "ture", None),
        ("EMSCAN_POSE0", "1 2", None),
        ("EMSCAN_GAMMA", "1,0", None),
    ])
    def test_env_parsed_by_flag_type_and_arity(self, tmp_path, name, value, oracle):
        scan_path, model_path, _ = write_scene(tmp_path, n_points=50)
        proc = run_cli("register", scan_path, model_path, "--sigma", "0.02", "--w", "1.0",
                       env_extra={name: value})
        if oracle is None:
            assert proc.returncode == 1
            assert name in proc.stderr
        else:
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["oracle"] is oracle

    @pytest.mark.parametrize("flag, value", [("--sigma", "1e-200"), ("--w", "inf")])
    def test_unusable_scale_exits_one(self, tmp_path, flag, value):
        scan_path, model_path, _ = write_scene(tmp_path, n_points=50)
        proc = run_cli("register", scan_path, model_path, flag, value)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [
        ("--sigma", "1e-154", "--w", "1.0"),
        ("--gamma", "1.7e308", "0", "1e-10", "--w", "10"),
        ("--gamma", "1.7e308", "0", "1e-10", "--w", "10", "--oracle"),
    ])
    def test_overflowing_precision_exits_one(self, tmp_path, args):
        scan_path, model_path, _ = write_scene(tmp_path)
        proc = run_cli("register", scan_path, model_path, *args)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("gamma", [("1e20", "0", "1e-3"), ("1e300", "0", "1e-10")])
    def test_default_window_of_far_anisotropic_precision(self, tmp_path, gamma):
        scan_path, model_path, _ = write_scene(tmp_path, n_points=50)
        proc = run_cli("register", scan_path, model_path, "--gamma", *gamma)
        assert "Traceback" not in proc.stderr
        assert proc.returncode in (0, 2), proc.stderr
        record = json.loads(proc.stdout)
        assert record["window"] == pytest.approx(3.0 / math.sqrt(float(gamma[2])))
        assert all(math.isfinite(v) for v in record["loglik_trace"])


class TestSynthCommand:
    def test_deterministic_files(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            proc = run_cli("synth", "--shape", "rectangle", "--n", "50",
                           "--pose", "0.2", "-0.1", "0.05",
                           "--noise-sigma", "0.01", "--seed", "7",
                           "--out", d / "scene")
            assert proc.returncode == 0, proc.stderr
            outs.append(tuple((d / f"scene_{suffix}").read_bytes()
                              for suffix in ("model.txt", "scan.txt", "truth.json")))
        assert outs[0] == outs[1]

    def test_invalid_shape_exits_one(self, tmp_path):
        proc = run_cli("synth", "--shape", "hexagon", "--out", tmp_path / "x")
        assert proc.returncode == 1
        assert "unknown shape" in proc.stderr

    def test_files_are_usable(self, tmp_path):
        proc = run_cli("synth", "--shape", "circle", "--n", "64",
                       "--pose", "0.1", "0.0", "0.02", "--seed", "3",
                       "--out", tmp_path / "scene")
        assert proc.returncode == 0
        model = load_points(tmp_path / "scene_model.txt")
        scan = load_points(tmp_path / "scene_scan.txt")
        assert model.shape == (64, 2) and scan.shape == (64, 2)
        truth = json.loads((tmp_path / "scene_truth.json").read_text())
        assert truth["pose"]["tx"] == 0.1
        assert truth["model_file"] == "scene_model.txt"

    def test_outlier_fraction_recorded(self, tmp_path):
        proc = run_cli("synth", "--shape", "rectangle", "--n", "200",
                       "--outlier-fraction", "0.1", "--seed", "5",
                       "--out", tmp_path / "o")
        assert proc.returncode == 0
        truth = json.loads((tmp_path / "o_truth.json").read_text())
        assert truth["n_outliers"] == 20

    def test_degrees_flag_for_pose(self, tmp_path):
        proc = run_cli("synth", "--shape", "circle", "--n", "32",
                       "--pose", "0", "0", "90", "--degrees",
                       "--out", tmp_path / "deg")
        assert proc.returncode == 0
        truth = json.loads((tmp_path / "deg_truth.json").read_text())
        assert truth["pose"]["theta"] == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_exits_one(self, tmp_path, noise):
        proc = run_cli("synth", "--noise-sigma", noise, "--out", tmp_path / "x")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: noise_sigma must be finite")
        assert not list(tmp_path.iterdir())

    def test_out_read_from_env(self, tmp_path):
        proc = run_cli("synth", "--n", "20",
                       env_extra={"EMSCAN_OUT": str(tmp_path / "env")})
        assert proc.returncode == 0, proc.stderr
        assert load_points(tmp_path / "env_scan.txt").shape == (20, 2)

    def test_missing_out_exits_one(self, monkeypatch, capsys):
        from emscan.cli import main
        monkeypatch.delenv("EMSCAN_OUT", raising=False)
        assert main(["synth", "--n", "20"]) == 1
        assert "--out" in capsys.readouterr().err


class TestBenchCommand:
    def test_single_size_no_slope(self):
        proc = run_cli("bench", "--sizes", "100", "--repeats", "1")
        assert proc.returncode == 0, proc.stderr
        assert "slope" not in proc.stdout
        assert len([l for l in proc.stdout.splitlines() if l.strip()]) == 2

    def test_two_sizes_print_slope(self):
        proc = run_cli("bench", "--sizes", "200", "400", "--repeats", "1")
        assert proc.returncode == 0
        assert "log-log slope:" in proc.stdout

    def test_descending_sizes_exit_one(self):
        proc = run_cli("bench", "--sizes", "400", "200")
        assert proc.returncode == 1
        assert "ascending" in proc.stderr

    def test_repeated_sizes_exit_one(self):
        proc = run_cli("bench", "--sizes", "500", "500", "--repeats", "1")
        assert proc.returncode == 1
        assert "strictly ascending" in proc.stderr
        assert proc.stdout == ""

    def test_zero_repeats_exit_one(self):
        proc = run_cli("bench", "--sizes", "100", "200", "--repeats", "0")
        assert proc.returncode == 1
        assert "repeats must be >= 1" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("density", ["0", "-5", "nan", "inf"])
    def test_bad_density_exit_one(self, density):
        proc = run_cli("bench", "--sizes", "100", "--repeats", "1", "--density", density)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: density must be finite and > 0")

    def test_infinite_window_exits_one(self):
        proc = run_cli("bench", "--sizes", "100", "--repeats", "1", "--w", "inf")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: window_w must be finite and > 0")


class TestUsageErrors:
    def test_unknown_command_exits_one(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 1

    def test_missing_argument_exits_one(self):
        proc = run_cli("register")
        assert proc.returncode == 1

    def test_bad_env_value_exits_one(self, tmp_path, monkeypatch, capsys):
        # In process, so an exception escaping main() fails the test
        from emscan.cli import main
        scan_path, model_path, _ = write_scene(tmp_path)
        monkeypatch.setenv("EMSCAN_MAX_ITERS", "abc")
        assert main(["register", str(scan_path), str(model_path)]) == 1
        assert "EMSCAN_MAX_ITERS" in capsys.readouterr().err

    def test_env_values_do_not_leak_between_calls(self, tmp_path, monkeypatch, capsys):
        # The parser is built once per process, so each in-process call must
        # read its own environment and nothing that an earlier call read.
        from emscan import cli
        scan_path, model_path, _ = write_scene(tmp_path)
        argv = ["register", str(scan_path), str(model_path), "--sigma", "0.02", "--w", "0.3"]
        envs = [{}, {"EMSCAN_MAX_ITERS": "2", "EMSCAN_REGATE": "on"},
                {"EMSCAN_DEGREES": "1", "EMSCAN_POSE0": "0.1, 0, 2"}]
        for name in [k for k in os.environ if k.startswith("EMSCAN_")]:
            monkeypatch.delenv(name)

        def record(env):
            for name in {k for e in envs for k in e}:
                monkeypatch.delenv(name, raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            code = cli.main(argv)
            out = json.loads(capsys.readouterr().out)
            out.pop("wall_time_s")
            return code, out

        firsts = []
        for env in envs:
            cli.build_parser.cache_clear()
            firsts.append(record(env))
        assert firsts[0] != firsts[1] != firsts[2] != firsts[0]
        order = [1, 2, 0, 2, 1, 0]
        assert [record(envs[k]) for k in order] == [firsts[k] for k in order]

    def test_bad_env_value_stops_only_its_subcommand(self, tmp_path):
        env = {"EMSCAN_SIZES": ""}
        synth = run_cli("synth", "--n", "10", "--out", tmp_path / "x", env_extra=env)
        assert synth.returncode == 0, synth.stderr
        bench = run_cli("bench", "--sizes", "100", "--repeats", "1", env_extra=env)
        assert bench.returncode == 1
        assert "EMSCAN_SIZES" in bench.stderr
