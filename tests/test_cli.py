"""Command-line behavior: outputs, reruns, and exit codes."""

import csv
import io

import numpy as np
import pytest

import noiselab.sweep as sweep_mod
from conftest import read_pgm
from noiselab.cli import main
from noiselab.config import parse_config
from noiselab.denoiser import load_params
from noiselab.io import read_loss_csv, read_samples_csv, read_sweep_csv

ORACLE_SWEEP = """
[dataset]
kind = gaussian_ar1
n_train = 2
seed = 0
dim = 4
rho = 0.5

[sampler]
steps = 10
seed = 0

[sweep]
schedules = linear cosine:0,1,1
scales = 0.5 1.0
metric = covariance_error
oracle = true
base_seed = 7
n_eval = 400
"""

TRAIN_SAMPLE = """
[dataset]
kind = mixture2d
n_train = 512
seed = 3
modes = 2
radius = 1.0
std = 0.2

[compound]
schedule = linear
input_scale = 1.0
normalize = off

[train]
steps = 40
batch_size = 32
lr = 0.003
seed = 11
log_every = 20
hidden = 16
time_embed = 4

[sampler]
steps = 8
seed = 2
signal_clamp = 3.0
"""


def run(args):
    buf = io.StringIO()
    rc = main(args, stdout=buf)
    return rc, buf.getvalue()


def fail_every_cell(monkeypatch):
    """Make every sweep cell raise."""
    def fail(*args):
        raise RuntimeError("injected cell failure")

    monkeypatch.setattr(sweep_mod, "_cell", fail)


@pytest.fixture
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.txt"
    path.write_text(ORACLE_SWEEP)
    return path


@pytest.fixture
def train_cfg(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text(TRAIN_SAMPLE)
    return path


class TestScheduleCommand:
    def test_stdout_table(self):
        rc, out = run(["schedule", "--spec", "cosine:0,1,1", "--points", "5"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,gamma,logsnr"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert first[2] == "inf"
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(1e-9)

    def test_scale_shifts_logsnr(self):
        _, full = run(["schedule", "--spec", "linear", "--points", "3"])
        _, half = run(["schedule", "--spec", "linear", "--points", "3",
                       "--scale", "0.5"])
        mid_full = float(full.strip().splitlines()[2].split(",")[2])
        mid_half = float(half.strip().splitlines()[2].split(",")[2])
        assert mid_half - mid_full == pytest.approx(2.0 * np.log(0.5), abs=1e-12)

    def test_writes_file(self, tmp_path):
        rc, out = run(["schedule", "--spec", "linear", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "schedule.csv").exists()
        assert out == ""

    def test_bad_spec_is_config_error(self):
        rc, _ = run(["schedule", "--spec", "warp:1,2,3"])
        assert rc == 1

    def test_bad_points(self):
        rc, _ = run(["schedule", "--spec", "linear", "--points", "1"])
        assert rc == 1


class TestTrainCommand:
    def test_writes_artifacts(self, train_cfg, tmp_path):
        out_dir = tmp_path / "run"
        rc, out = run(["train", "--config", str(train_cfg), "--out-dir", str(out_dir)])
        assert rc == 0
        assert "trained 40 steps" in out
        for name in ("params.bin", "ema.bin", "loss.csv", "config.txt"):
            assert (out_dir / name).exists()
        history = read_loss_csv(out_dir / "loss.csv")
        assert [h[0] for h in history] == [20, 40]
        p = load_params(out_dir / "params.bin")
        assert p.arch.in_dim == 2
        resolved = parse_config(out_dir / "config.txt")
        assert resolved.train.steps == 40

    def test_zero_steps_prints_no_loss(self, tmp_path):
        cfg = tmp_path / "zero.txt"
        cfg.write_text(TRAIN_SAMPLE.replace("steps = 40", "steps = 0"))
        out_dir = tmp_path / "run"
        rc, out = run(["train", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 0
        assert out == "trained 0 steps\n"
        assert read_loss_csv(out_dir / "loss.csv") == []

    def test_seed_override_lands_in_config_copy(self, train_cfg, tmp_path):
        out_dir = tmp_path / "run"
        rc, _ = run(["train", "--config", str(train_cfg), "--out-dir", str(out_dir),
                     "--seed", "99"])
        assert rc == 0
        assert parse_config(out_dir / "config.txt").train.seed == 99

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_runtime_error(self, tmp_path):
        cfg = tmp_path / "diverge.txt"
        text = TRAIN_SAMPLE.replace("lr = 0.003", "lr = 1e154").replace(
            "[train]", "[train]\noptimizer = adam\nweight_decay = 0.0"
        )
        cfg.write_text(text)
        rc, _ = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "d")])
        assert rc == 2

    def test_one_dim_data_with_empirical_normalize_is_config_error(self, tmp_path, capsys):
        # [compound] defaults to normalize = empirical, which a single
        # coordinate cannot support; that must fail before training starts
        cfg = tmp_path / "dim1.txt"
        cfg.write_text(
            "[dataset]\nkind = gaussian_ar1\nn_train = 64\nseed = 0\ndim = 1\nrho = 0.0\n"
            "[compound]\nschedule = linear\n"
            "[train]\nsteps = 5\nbatch_size = 8\nlr = 0.003\nseed = 0\n"
        )
        rc, _ = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert "data_dim 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_label_dropout_is_config_error(self, tmp_path, capsys):
        # no command passes class labels, so label dropout would do nothing
        cfg = tmp_path / "dropout.txt"
        cfg.write_text(TRAIN_SAMPLE.replace("[train]", "[train]\nlabel_dropout = 0.1"))
        rc, _ = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert "label_dropout" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["3", "1", "0"])
    def test_bad_time_embed_is_config_error(self, tmp_path, capsys, value):
        # before, train made the out dir and then failed in the network's
        # constructor with exit 2, quoting a field name no config file has
        cfg = tmp_path / "embed.txt"
        cfg.write_text(TRAIN_SAMPLE.replace("time_embed = 4", f"time_embed = {value}"))
        rc, _ = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"time_embed must be even and >= 2, got {value}" in err
        assert "time_embed_dim" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("b", ["1e-9", "5e-324"])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_tiny_analytic_scale_is_config_error(self, tmp_path, capsys, command, b):
        # before, the input variance (b^2 - 1) gamma + 1 rounded to 0 at
        # gamma = 1 and normalize_input divided by it mid-run
        cfg = tmp_path / "tiny.txt"
        if command == "train":
            key = "[compound]: input_scale"
            cfg.write_text(TRAIN_SAMPLE.replace("input_scale = 1.0\nnormalize = off",
                                                f"input_scale = {b}\nnormalize = analytic"))
        else:
            key = "[sweep]: scales"
            cfg.write_text(ORACLE_SWEEP.replace("oracle = true", "normalize = analytic")
                           .replace("scales = 0.5 1.0", f"scales = 0.5 {b}"))
        rc, _ = run([command, "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert f"{key} {float(b)!r} is too small for normalize = analytic" \
            in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section, line", [
        ("[train]", "weight_decay = nan"),
        ("[train]", "lr = inf"),
        ("[compound]", "schedule = sigmoid:-3,3,nan"),
        ("[dataset]", "radius = nan"),
        ("[dataset]", "std = inf"),
    ])
    def test_non_finite_setting_is_config_error(self, tmp_path, capsys, section, line):
        # before, nan reached the first step and failed mid-run as a
        # non-finite mlp or diffuse output, leaving an empty out dir
        cfg = tmp_path / "bad.txt"
        key = line.partition(" =")[0]
        text = TRAIN_SAMPLE.replace(f"\n{key} = ", f"\n# {key} = ")
        cfg.write_text(text.replace(section, f"{section}\n{line}"))
        rc, _ = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert key in err and "finite" in err
        assert not (tmp_path / "x").exists()

    def test_missing_section_is_config_error(self, tmp_path):
        cfg = tmp_path / "short.txt"
        cfg.write_text("[dataset]\nkind = checkerboard\nn_train = 64\nseed = 0\n")
        rc, _ = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 1


class TestSampleCommand:
    def checkpoint(self, train_cfg, tmp_path):
        out_dir = tmp_path / "run"
        rc, _ = run(["train", "--config", str(train_cfg), "--out-dir", str(out_dir)])
        assert rc == 0
        return out_dir / "ema.bin"

    def test_writes_csv_samples(self, train_cfg, tmp_path):
        ckpt = self.checkpoint(train_cfg, tmp_path)
        out_dir = tmp_path / "samples"
        rc, out = run(["sample", "--config", str(train_cfg), "--checkpoint", str(ckpt),
                       "--n", "25", "--out-dir", str(out_dir)])
        assert rc == 0
        samples = read_samples_csv(out_dir / "samples.csv")
        assert samples.shape == (25, 2)
        assert np.all(np.isfinite(samples))

    def test_same_seed_bit_identical_files(self, train_cfg, tmp_path):
        ckpt = self.checkpoint(train_cfg, tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            rc, _ = run(["sample", "--config", str(train_cfg), "--checkpoint",
                         str(ckpt), "--n", "10", "--out-dir", str(out_dir)])
            assert rc == 0
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()

    def test_seed_override_changes_samples(self, train_cfg, tmp_path):
        ckpt = self.checkpoint(train_cfg, tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run(["sample", "--config", str(train_cfg), "--checkpoint", str(ckpt),
             "--n", "10", "--out-dir", str(a)])
        run(["sample", "--config", str(train_cfg), "--checkpoint", str(ckpt),
             "--n", "10", "--out-dir", str(b), "--seed", "77"])
        assert (a / "samples.csv").read_bytes() != (b / "samples.csv").read_bytes()

    def test_toy_image_writes_pgm(self, tmp_path):
        cfg = tmp_path / "img.txt"
        cfg.write_text(
            "[dataset]\nkind = toy_image\nn_train = 64\nseed = 1\n"
            "base_res = 2\nrho = 0.5\nupsample = 1\n"
            "[compound]\nschedule = linear\ninput_scale = 1.0\nnormalize = off\n"
            "[train]\nsteps = 10\nbatch_size = 16\nlr = 0.003\nseed = 0\n"
            "log_every = 10\nhidden = 8\ntime_embed = 4\n"
            "[sampler]\nsteps = 4\nseed = 3\nsignal_clamp = 3.0\n"
        )
        out_dir = tmp_path / "run"
        rc, _ = run(["train", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 0
        rc, _ = run(["sample", "--config", str(cfg), "--checkpoint",
                     str(out_dir / "ema.bin"), "--n", "9", "--out-dir",
                     str(tmp_path / "img_samples")])
        assert rc == 0
        pixels = read_pgm(tmp_path / "img_samples" / "samples.pgm")
        assert pixels.shape == (6, 6)

    def test_bad_n(self, train_cfg, tmp_path):
        ckpt = self.checkpoint(train_cfg, tmp_path)
        rc, _ = run(["sample", "--config", str(train_cfg), "--checkpoint", str(ckpt),
                     "--n", "0", "--out-dir", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize("dataset", [
        "kind = gaussian_ar1\nn_train = 64\nseed = 0\ndim = 7\nrho = 0.5\n",
        "kind = toy_image\nn_train = 64\nseed = 1\nbase_res = 2\nrho = 0.5\nupsample = 1\n",
    ], ids=["gaussian_ar1", "toy_image"])
    def test_checkpoint_width_must_match_dataset(self, train_cfg, tmp_path, capsys, dataset):
        # a 2-D mixture checkpoint under a config whose data has another width
        ckpt = self.checkpoint(train_cfg, tmp_path)
        cfg = tmp_path / "other.txt"
        cfg.write_text("[dataset]\n" + dataset + "[compound]"
                       + TRAIN_SAMPLE.partition("[compound]")[2])
        out_dir = tmp_path / "x"
        rc, _ = run(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--n", "5", "--out-dir", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "in_dim 2" in err and "data_dim" in err
        assert not out_dir.exists()

    def test_guidance_weight_is_config_error(self, train_cfg, tmp_path, capsys):
        # no command passes class labels, so guidance would do nothing
        ckpt = self.checkpoint(train_cfg, tmp_path)
        cfg = tmp_path / "guided.txt"
        cfg.write_text(TRAIN_SAMPLE.replace("[sampler]", "[sampler]\nguidance_weight = 4.0"))
        rc, _ = run(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--n", "5", "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert "guidance_weight" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_class_conditional_checkpoint_is_runtime_error(self, train_cfg, tmp_path, capsys):
        ckpt = self.checkpoint(train_cfg, tmp_path)
        ckpt.write_bytes(ckpt.read_bytes().replace(b"classes=-", b"classes=3", 1))
        out_dir = tmp_path / "x"
        rc, _ = run(["sample", "--config", str(train_cfg), "--checkpoint", str(ckpt),
                     "--n", "5", "--out-dir", str(out_dir)])
        assert rc == 2
        assert "class-conditional checkpoints are no longer supported" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_checkpoint_is_runtime_error(self, train_cfg, tmp_path):
        rc, _ = run(["sample", "--config", str(train_cfg), "--checkpoint",
                     str(tmp_path / "absent.bin"), "--out-dir", str(tmp_path / "x")])
        assert rc == 2


class TestSweepCommand:
    def test_grid_csv_and_config_copy(self, sweep_cfg, tmp_path):
        out_dir = tmp_path / "sw"
        rc, out = run(["sweep", "--config", str(sweep_cfg), "--out-dir", str(out_dir)])
        assert rc == 0
        assert "4 cells, 0 failed" in out
        rows = read_sweep_csv(out_dir / "sweep.csv")
        assert len(rows) == 4
        assert all(status == 0 for *_, status in rows)
        assert (out_dir / "config.txt").exists()
        assert not (out_dir / "sweep_errors.csv").exists()

    def test_rerun_from_resolved_copy_matches(self, sweep_cfg, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        rc, _ = run(["sweep", "--config", str(sweep_cfg), "--out-dir", str(first)])
        assert rc == 0
        rc, _ = run(["sweep", "--config", str(first / "config.txt"),
                     "--out-dir", str(second)])
        assert rc == 0
        strip = lambda rows: [(s, b, m, seed, st) for s, b, m, _, seed, st in rows]
        assert strip(read_sweep_csv(first / "sweep.csv")) == strip(
            read_sweep_csv(second / "sweep.csv")
        )

    def test_check_pass_and_fail(self, sweep_cfg, tmp_path):
        rc, out = run(["sweep", "--config", str(sweep_cfg), "--out-dir",
                       str(tmp_path / "a"), "--check", "10.0"])
        assert rc == 0
        assert "check passed" in out
        rc, out = run(["sweep", "--config", str(sweep_cfg), "--out-dir",
                       str(tmp_path / "b"), "--check", "1e-12"])
        assert rc == 3
        assert "check failed" in out

    def test_failed_cells_exit_nonzero(self, sweep_cfg, tmp_path, monkeypatch):
        fail_every_cell(monkeypatch)
        out_dir = tmp_path / "sw"
        rc, out = run(["sweep", "--config", str(sweep_cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert "4 failed" in out
        rows = read_sweep_csv(out_dir / "sweep.csv")
        assert all(status == 1 for *_, status in rows)
        assert all(np.isnan(metric) for _, _, metric, _, _, _ in rows)

    def test_failed_cells_persisted(self, sweep_cfg, tmp_path, monkeypatch):
        fail_every_cell(monkeypatch)
        out_dir = tmp_path / "sw"
        rc, out = run(["sweep", "--config", str(sweep_cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert f"wrote the failed cells to {out_dir / 'sweep_errors.csv'}" in out
        with open(out_dir / "sweep_errors.csv", newline="") as fh:
            header, *errors = list(csv.reader(fh))
        assert header == ["schedule", "scale", "seed", "error"]
        rows = read_sweep_csv(out_dir / "sweep.csv")
        assert [(e[0], float(e[1]), int(e[2])) for e in errors] == [
            (sched, scale, seed) for sched, scale, _, _, seed, _ in rows]
        message = "RuntimeError: injected cell failure"
        assert all(e[3] == message for e in errors)
        assert out.count(f"failed: {message}") == 4

        # a clean rerun into the same directory leaves no stale error file
        monkeypatch.undo()
        rc, out = run(["sweep", "--config", str(sweep_cfg), "--out-dir", str(out_dir)])
        assert rc == 0 and "sweep_errors.csv" not in out
        assert not (out_dir / "sweep_errors.csv").exists()

    def test_seed_override(self, sweep_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["sweep", "--config", str(sweep_cfg), "--out-dir", str(a)])
        run(["sweep", "--config", str(sweep_cfg), "--out-dir", str(b),
             "--seed", "1234"])
        rows_a = read_sweep_csv(a / "sweep.csv")
        rows_b = read_sweep_csv(b / "sweep.csv")
        assert [r[4] for r in rows_a] != [r[4] for r in rows_b]

    def test_guidance_weight_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "guided.txt"
        cfg.write_text(ORACLE_SWEEP.replace("[sampler]", "[sampler]\nguidance_weight = 4.0"))
        rc, _ = run(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert "guidance_weight" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_trained_sweep_label_dropout_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "dropout.txt"
        cfg.write_text(
            TRAIN_SAMPLE.replace("[train]", "[train]\nlabel_dropout = 0.1")
            + "[sweep]\nschedules = linear\nscales = 1.0\nmetric = sliced_wasserstein\n"
            "base_seed = 0\nn_eval = 50\n"
        )
        rc, _ = run(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert "label_dropout" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, key", [
        (ORACLE_SWEEP.replace("n_eval = 400", "n_eval = 4"), "n_eval"),
        (TRAIN_SAMPLE.replace("n_train = 512", "n_train = 1")
         + "[sweep]\nschedules = linear\nscales = 1.0\nmetric = sliced_wasserstein\n"
         "base_seed = 0\nn_eval = 50\n", "n_train"),
    ], ids=["n_eval", "n_train"])
    def test_unscorable_sample_count_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                     text, key):
        fail_every_cell(monkeypatch)
        cfg = tmp_path / "few.txt"
        cfg.write_text(text)
        rc, _ = run(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert f"{key} = " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_empty_schedules_rejected_before_work(self, tmp_path):
        cfg = tmp_path / "empty.txt"
        cfg.write_text(ORACLE_SWEEP.replace("schedules = linear cosine:0,1,1",
                                            "schedules ="))
        rc, _ = run(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert not (tmp_path / "x" / "sweep.csv").exists()


class TestOracleCurveCommand:
    def test_stdout_long_format(self):
        rc, out = run(["oracle-curve", "--dim", "8", "--rhos", "0 0.9",
                       "--gammas", "0.5"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,rho,mse"
        assert len(lines) == 3
        g, r, mse = lines[1].split(",")
        assert (float(g), float(r)) == (0.5, 0.0)
        assert float(mse) == pytest.approx(0.5, abs=1e-12)
        _, r2, mse2 = lines[2].split(",")
        assert float(r2) == 0.9
        assert float(mse2) < 0.5

    def test_writes_file(self, tmp_path):
        rc, _ = run(["oracle-curve", "--dim", "4", "--out-dir", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "redundancy.csv").read_text()
        assert text.splitlines()[0] == "gamma,rho,mse"
        # default grids: 5 gammas x 6 rhos
        assert len(text.strip().splitlines()) == 31

    def test_bad_rhos(self):
        rc, _ = run(["oracle-curve", "--rhos", "0 nope"])
        assert rc == 1

    def test_out_of_range_rho_is_config_error(self):
        rc, _ = run(["oracle-curve", "--rhos", "1.5"])
        assert rc == 1

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_is_config_error(self, capsys, scale):
        rc, out = run(["oracle-curve", "--scale", scale])
        assert rc == 1 and out == ""
        assert f"scale must be positive and finite, got {float(scale)}" in capsys.readouterr().err


class TestSeedRange:
    """A seed outside [0, 2**64) is a config error (exit 1) that leaves no out dir."""

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", ["train", "sample", "sweep"])
    def test_seed_flag(self, train_cfg, sweep_cfg, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        args = [command, "--config", str(sweep_cfg if command == "sweep" else train_cfg),
                "--out-dir", str(out), "--seed", str(seed)]
        if command == "sample":
            args += ["--checkpoint", str(tmp_path / "absent.bin")]
        rc, _ = run(args)
        assert rc == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_run_file_seed(self, tmp_path, capsys):
        cfg = tmp_path / "big.txt"
        cfg.write_text(TRAIN_SAMPLE.replace("seed = 11", f"seed = {2**64}"))
        out = tmp_path / "out"
        rc, _ = run(["train", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 1
        assert "[train]: seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_trains(self, train_cfg, tmp_path):
        out = tmp_path / "out"
        rc, _ = run(["train", "--config", str(train_cfg), "--out-dir", str(out),
                     "--seed", str(2**64 - 1)])
        assert rc == 0
        assert parse_config(out / "config.txt").train.seed == 2**64 - 1


class TestExitCodes:
    def test_unknown_flag_is_config_error(self):
        rc, _ = run(["schedule", "--spec", "linear", "--frobnicate"])
        assert rc == 1

    def test_unknown_subcommand(self):
        rc, _ = run(["transmogrify"])
        assert rc == 1

    def test_missing_config_file(self, tmp_path):
        rc, _ = run(["sweep", "--config", str(tmp_path / "absent.txt"),
                     "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("[dataset]\nfoo = 1\n")
        rc, _ = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 1
