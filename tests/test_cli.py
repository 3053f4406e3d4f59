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
