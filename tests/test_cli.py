"""Command-line interface: exit codes, printed values, artifacts."""

import os

import pytest

from sfem2d.cli import main
from sfem2d.errors import SingularSystem


class TestShapefnDemo:
    def test_parallelogram_values(self, capsys):
        rc = main(["shapefn-demo", "--quad", "parallelogram",
                   "--point", "0.25,0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.5" in out and "-0.125" in out and "0.625" in out

    def test_lagrange_failure_reported(self, capsys):
        rc = main(["shapefn-demo", "--quad", "1,0,3,0,0,2,0,1",
                   "--point", "1,1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "singular" in out


class TestPatchTestCommand:
    def test_regular_passes(self, capsys):
        rc = main(["patch-test", "--scheme", "wachspress", "--k", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_distorted_passes(self, capsys):
        rc = main(["patch-test", "--scheme", "wachspress", "--k", "2",
                   "--alpha", "0.4"])
        assert rc == 0
        assert "distorted" in capsys.readouterr().out


class TestBeamCommand:
    def test_runs_and_reports(self, capsys):
        rc = main(["beam", "--scheme", "averaged", "--k", "2",
                   "--mesh-index", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "strain energy" in out
        assert "energy-norm error" in out


class TestConvergenceCommand:
    def test_artifacts_written_and_deterministic(self, tmp_path, capsys):
        args = ["convergence", "--scheme", "wachspress,averaged", "--k", "2",
                "--alpha", "0.3", "--seeds", "2",
                "--mesh-indices", "0.5,1", "--output-dir", str(tmp_path)]
        assert main(args) == 0
        paths = [tmp_path / n for n in
                 ("convergence.csv", "convergence.svg", "meta.txt")]
        assert all(p.exists() for p in paths)
        first = [p.read_bytes() for p in paths]
        assert main(args) == 0
        assert [p.read_bytes() for p in paths] == first
        capsys.readouterr()

    def test_env_var_default_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SFEM2D_OUTPUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["convergence", "--scheme", "wachspress", "--k", "4",
                     "--mesh-indices", "0.5,1"]) == 0
        assert (tmp_path / "envout" / "convergence.csv").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["--mesh-indices", "1,1"], ["--mesh-indices", "0.5,inf"],
        ["--seeds", "0", "--alpha", "0.5"],
    ])
    def test_usage_error_creates_no_output_dir(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["convergence", *argv, "--output-dir", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        capsys.readouterr()

    def test_numerical_failure_creates_no_output_dir(self, tmp_path, capsys,
                                                     monkeypatch):
        # the directory used to be made before the first study ran
        import sfem2d.benchmarks as bench

        def fail(*args, **kwargs):
            raise SingularSystem("forced for the output-dir test")

        monkeypatch.setattr(bench, "run_convergence_study", fail)
        out = tmp_path / "out"
        assert main(["convergence", "--output-dir", str(out)]) == 1
        assert not out.exists()
        assert "forced" in capsys.readouterr().err

    def test_csv_matches_schema(self, tmp_path, capsys):
        assert main(["convergence", "--scheme", "averaged", "--k", "4",
                     "--mesh-indices", "0.5,1",
                     "--output-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == ("scheme,k,alpha_ir,seed,mesh_index,dofs,"
                            "strain_energy,energy_norm_error")
        assert len(lines) == 3
        capsys.readouterr()


class TestUsageErrors:
    def test_unknown_scheme_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["patch-test", "--scheme", "mapped-q4"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_mesh_indices_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--mesh-indices", "4,1"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("alpha", ["0", "0.5"])
    def test_zero_seeds_exit_2(self, alpha, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--seeds", "0", "--alpha", alpha])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["beam", "--mesh-index", "0"],
        ["beam", "--mesh-index", "0.05"],
        ["beam", "--mesh-index", "nan"],
        ["beam", "--mesh-index", "inf"],
        ["convergence", "--mesh-indices", "0,1"],
    ])
    def test_mesh_index_without_elements_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "gives no elements" in capsys.readouterr().err

    @pytest.mark.parametrize("indices", ["1", "1,1"])
    def test_single_distinct_mesh_index_exit_2(self, indices, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--mesh-indices", indices])
        assert exc.value.code == 2
        assert "two distinct" in capsys.readouterr().err

    def test_bad_alpha_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["beam", "--alpha", "0.9"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["--point", "nan,0.5"],
        ["--quad", "0,0,1,0,1,1,0,inf"],
        ["--quad", "nan,0,1,0,1,1,0,1"],
    ], ids=["nan-point", "inf-quad", "nan-quad"])
    def test_non_finite_shapefn_input_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["shapefn-demo", *argv])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err
