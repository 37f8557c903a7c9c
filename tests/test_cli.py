"""CLI: all five subcommands end-to-end."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.io import load_lattice
from repro.nnp.model import NNPotential


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.steps == 1000

    def test_train_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_row_cache_defaults_and_validation(self):
        """The row cache follows the potential: no flag selects or sizes it."""
        for command in ("run", "parallel", "campaign"):
            args = build_parser().parse_args([command])
            assert not {"row_cache", "row_cache_mb"} & set(vars(args))
            for flag in (["--row-cache", "on"], ["--row-cache-mb", "1"]):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, *flag])


class TestRunCommand:
    def test_run_prints_summary(self, capsys, tmp_path):
        snap = str(tmp_path / "final.npz")
        xyz = str(tmp_path / "final.xyz")
        code = main([
            "run", "--box", "8", "--steps", "40", "--temperature", "800",
            "--snapshot", snap, "--xyz", xyz, "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "events = 40" in out
        assert "time_s = " in out
        # EAM, the default potential, runs the row cache too.
        assert "row_cache_hit_rate = " in out
        assert "row_cache_resident_mb = " in out
        lattice, t = load_lattice(snap)
        assert t > 0
        assert lattice.shape == (8, 8, 8)
        assert open(xyz).readline().strip() == str(lattice.n_sites)

    def test_evaluation_knob_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--evaluation", "delta"])

    def test_run_reports_row_cache(self, capsys, tmp_path, nnp_small):
        path = str(tmp_path / "nnp.npz")
        nnp_small.save(path)
        code = main([
            "run", "--box", "8", "--steps", "10", "--temperature", "800",
            "--potential", path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "row_cache_hit_rate = " in out
        assert "row_cache_resident_mb = " in out

    @pytest.mark.parametrize(
        "argv", [["--box", "2"], ["--box", "4", "--rcut", "6.5"]]
    )
    def test_box_below_the_cutoff_minimum_is_refused(self, argv, tmp_path):
        """Below ``TripleEncoding.min_box_cells`` two neighbours of a site
        are one lattice site, so the rates obey no global energy."""
        with pytest.raises(ValueError, match="too small for rcut"):
            main(["run", *argv, "--vacancies", "0.1", "--steps", "5",
                  "--snapshot", str(tmp_path / "final.npz")])


class TestImportSet:
    def test_drivers_never_import_numpy_ma(self, tmp_path):
        """``np.unique`` without index arguments imports ``numpy.ma``
        (about 1 MiB of RSS); no ``run`` or ``parallel`` path needs it."""
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "main(['run', '--box', '6', '--steps', '20', '--seed', '1'])\n"
            "main(['parallel', '--box', '16', '--ranks', '2', '--cycles', '2',"
            " '--temperature', '900', '--vacancies', '0.003'])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
            text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"


class TestParallelCommand:
    def test_parallel_conserves_species(self, capsys):
        code = main([
            "parallel", "--box", "16", "--ranks", "2", "--cycles", "8",
            "--temperature", "900", "--vacancies", "0.003",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "species_conserved = True" in out
        assert "ghosts_consistent = True" in out


class TestParallelCheckpointing:
    def _grab(self, out, key):
        for line in out.splitlines():
            if line.startswith(key):
                return line
        raise AssertionError(key)

    def test_checkpoint_restart_resume_chain(self, capsys, tmp_path):
        ck = str(tmp_path / "par.npz")
        base = ["parallel", "--ranks", "2", "--temperature", "900",
                "--vacancies", "0.003", "--seed", "2"]
        # uninterrupted reference: 8 cycles
        assert main(base + ["--cycles", "8"]) == 0
        full = capsys.readouterr().out
        # 4 cycles + checkpoint, restart for 2, resume for the last 2
        assert main(base + ["--cycles", "4", "--checkpoint", ck]) == 0
        capsys.readouterr()
        assert main(base + ["--cycles", "2", "--restart", ck,
                            "--checkpoint", ck]) == 0
        capsys.readouterr()
        assert main(["resume", ck, "--cycles", "2"]) == 0
        resumed = capsys.readouterr().out
        assert "kind = parallel" in resumed
        assert self._grab(resumed, "cycles") == "cycles = 8"
        assert self._grab(resumed, "time_s") == self._grab(full, "time_s")
        assert self._grab(resumed, "events") == self._grab(full, "events")

    def test_kill_rank_recovers(self, capsys, tmp_path):
        ck = str(tmp_path / "par.npz")
        code = main([
            "parallel", "--ranks", "2", "--cycles", "6", "--seed", "2",
            "--temperature", "900", "--vacancies", "0.003",
            "--checkpoint", ck, "--kill-rank", "0", "--kill-cycle", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "recoveries = 1" in out
        assert "species_conserved = True" in out

    def test_kill_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            main(["parallel", "--cycles", "2", "--kill-rank", "0"])

    def test_resume_serial_checkpoint(self, capsys, tmp_path):
        ck = str(tmp_path / "ser.npz")
        assert main([
            "run", "--box", "8", "--steps", "10", "--temperature", "800",
            "--seed", "3", "--checkpoint", ck,
        ]) == 0
        capsys.readouterr()
        assert main(["resume", ck, "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "kind = serial" in out
        assert "events = 15" in out


def test_executor_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parallel", "--ranks", "2", "--executor", "process"])
    assert exc.value.code == 2
    assert "--executor" in capsys.readouterr().err


class TestCampaignCommand:
    def test_seed_sweep_matches_solo_runs(self, capsys):
        # The campaign's replicas must be the same trajectories the `run`
        # subcommand produces for the same seeds (shared batching is an
        # execution detail, not a physics change) — compare the clocks.
        assert main([
            "campaign", "--box", "8", "--replicas", "2", "--steps", "25",
            "--seed", "3", "--vacancies", "0.004",
        ]) == 0
        out = capsys.readouterr().out
        assert "replicas = 2" in out
        times = {}
        for line in out.splitlines():
            if line.startswith("replica[seed"):
                name = line.split("]")[0].split("[")[1]
                times[name] = line.split("time_s=")[1].split()[0]
        assert set(times) == {"seed3", "seed4"}
        for seed in (3, 4):
            assert main([
                "run", "--box", "8", "--steps", "25", "--seed", str(seed),
                "--vacancies", "0.004",
            ]) == 0
            solo = capsys.readouterr().out
            solo_time = [
                line.split(" = ")[1] for line in solo.splitlines()
                if line.startswith("time_s")
            ][0]
            assert times[f"seed{seed}"] == solo_time

    def test_temperature_ladder_and_hot_swap(self, capsys):
        assert main([
            "campaign", "--box", "8", "--temperatures", "700", "1000",
            "--steps", "10", "--max-in-flight", "1",
            "--vacancies", "0.004",
        ]) == 0
        out = capsys.readouterr().out
        assert "replica[T700]" in out and "replica[T1000]" in out
        assert "rounds = 20" in out  # one in flight: budgets run back-to-back

    def test_sequential_mode(self):
        """There is one campaign loop; ``--mode`` is gone."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--mode", "sequential"])

    def test_seeds_and_temperatures_exclusive(self):
        with pytest.raises(SystemExit):
            main([
                "campaign", "--seeds", "1", "2", "--temperatures", "900",
            ])


class TestTrainCommand:
    def test_train_saves_loadable_model(self, capsys, tmp_path):
        path = str(tmp_path / "model.npz")
        code = main([
            "train", "--rcut", "2.87", "--structures", "14",
            "--epochs", "8", "--channels", "64", "8", "1",
            "--output", path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy_mae_ev_per_atom" in out
        model = NNPotential.load(path)
        counts = np.ones((2, model.table.n_shells, 2), dtype=np.float32)
        energies = model.energies_from_counts(np.array([0, 1]), counts)
        assert np.all(np.isfinite(energies))

    def test_trained_model_drives_run(self, capsys, tmp_path):
        path = str(tmp_path / "model.npz")
        assert main([
            "train", "--rcut", "2.87", "--structures", "12",
            "--epochs", "4", "--channels", "64", "8", "1",
            "--output", path,
        ]) == 0
        capsys.readouterr()
        code = main([
            "run", "--box", "8", "--steps", "5", "--temperature", "900",
            "--potential", path,
        ])
        assert code == 0
        assert "events = 5" in capsys.readouterr().out

    def test_shell_mismatch_detected(self, tmp_path, capsys):
        path = str(tmp_path / "model.npz")
        assert main([
            "train", "--rcut", "2.87", "--structures", "12",
            "--epochs", "2", "--channels", "64", "8", "1",
            "--output", path,
        ]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([
                "run", "--box", "8", "--steps", "5", "--rcut", "5.8",
                "--potential", path,
            ])


def _grab(out, key):
    for line in out.splitlines():
        if line.startswith(key):
            return line
    raise AssertionError(key)


class TestRestart:
    def test_run_checkpoint_restart_continues(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.npz")
        # full run: 40 steps
        assert main([
            "run", "--box", "8", "--steps", "40", "--temperature", "800",
            "--seed", "3",
        ]) == 0
        full = capsys.readouterr().out
        # split run: 20 steps + checkpoint, then restart + 20 steps
        assert main([
            "run", "--box", "8", "--steps", "20", "--temperature", "800",
            "--seed", "3", "--checkpoint", ck,
        ]) == 0
        capsys.readouterr()
        assert main([
            "run", "--box", "8", "--steps", "20", "--restart", ck,
        ]) == 0
        resumed = capsys.readouterr().out
        assert _grab(resumed, "time_s") == _grab(full, "time_s")
        assert "events = 40" in resumed  # step counter carried over

    def test_restart_keeps_the_archived_cutoff(self, capsys, tmp_path):
        """``--restart`` rebuilds the TET from the archive's cutoff, not
        from ``--rcut``'s default, like ``resume`` does."""
        ck = str(tmp_path / "ck.npz")
        run = ["run", "--box", "6", "--rcut", "4.8", "--temperature", "800",
               "--seed", "3"]
        assert main(run + ["--steps", "10"]) == 0
        full = capsys.readouterr().out
        assert main(run + ["--steps", "5", "--checkpoint", ck]) == 0
        capsys.readouterr()
        assert main(["run", "--steps", "5", "--restart", ck]) == 0
        resumed = capsys.readouterr().out
        assert _grab(resumed, "time_s") == _grab(full, "time_s")
        assert "events = 10" in resumed
