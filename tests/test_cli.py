import json
import math
import os

import numpy as np
import pytest

from steklovsvd.cli import main
from steklovsvd.meshing import read_mesh_text


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def basis_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "basis.json"
    code = run(
        ["dbs", "--domain", "disk", "--radius", "1", "--h", "0.1", "--modes", "12",
         "--out", path]
    )
    assert code == 0
    return path


class TestMeshCommand:
    def test_disk_mesh_file(self, tmp_path):
        out = tmp_path / "mesh.txt"
        assert run(["mesh", "--domain", "disk", "--radius", "1", "--h", "0.2", "--out", out]) == 0
        mesh = read_mesh_text(out.read_text())
        assert mesh.boundary_length == pytest.approx(2 * math.pi, rel=0.02)

    def test_polygon_mesh_file(self, tmp_path):
        verts = tmp_path / "verts.txt"
        verts.write_text("0 0\n1 0\n1 1\n0 1\n")
        out = tmp_path / "square.txt"
        assert run(["mesh", "--domain", "polygon", "--vertices-file", verts, "--h", "0.2",
                    "--out", out]) == 0
        mesh = read_mesh_text(out.read_text())
        assert mesh.area == pytest.approx(1.0, abs=1e-12)

    def test_bad_vertices_exit_code(self, tmp_path):
        verts = tmp_path / "bad.txt"
        verts.write_text("0 0\n1 0\n")
        assert run(["mesh", "--domain", "polygon", "--vertices-file", verts, "--h", "0.2",
                    "--out", tmp_path / "x.txt"]) == 1

    def test_unknown_command_exit_code(self):
        assert run(["frobnicate"]) == 1


class TestEigensolveCommands:
    def test_basis_schema_and_values(self, basis_file):
        data = json.loads(basis_file.read_text())
        assert list(data.keys()) == [
            "domain", "boundary_length", "M", "q", "b", "h", "w", "mesh_hash",
        ]
        assert data["M"] == 12
        assert data["q"][0] == pytest.approx(2.0, rel=0.02)
        assert data["boundary_length"] == pytest.approx(2 * math.pi, rel=0.01)

    def test_byte_determinism(self, tmp_path, basis_file):
        # Every writer, run twice in one process, writes the same bytes.
        verts = tmp_path / "verts.txt"
        verts.write_text("0 0\n2 0\n3 2\n1 3\n-1 1\n")
        polygon = ["--domain", "polygon", "--vertices-file", verts, "--h", "0.4"]
        basis = ["--basis", basis_file]
        writers = {
            "mesh_disk": ["mesh", "--h", "0.2"],
            "mesh_polygon": ["mesh", *polygon],
            "dbs_disk": ["dbs", "--h", "0.1", "--modes", "12", "--mesh-out", "{out}.mesh"],
            "dbs_polygon": ["dbs", *polygon, "--modes", "5"],
            "steklov": ["steklov", "--h", "0.2", "--modes", "5"],
            "laplace_eigs": ["laplace-eigs", "--h", "0.2", "--modes", "3"],
            "kernel_poisson": ["kernel", *basis, "--x", "0.1,0.2"],
            "kernel_bergman": ["kernel", *basis, "--x", "0.1,0.2", "--which", "bergman"],
            "extend": ["extend", *basis, "--g-const", "1.5", "--modes", "5"],
            "project": ["project", *basis, "--f-const", "2.0"],
            "verify_disk": ["verify", "--h", "0.2", "--modes", "8"],
            "verify_polygon": ["verify", *polygon, "--modes", "10"],
        }
        for name, argv in writers.items():
            files = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{name}.{attempt}"
                assert run([str(a).format(out=out) for a in argv] + ["--out", out]) == 0, name
                files.append([p.read_bytes() for p in sorted(tmp_path.glob(f"{out.name}*"))])
            assert len(files[0]) == (2 if name == "dbs_disk" else 1)
            assert files[0] == files[1], name
        assert (tmp_path / "dbs_disk.a").read_bytes() == basis_file.read_bytes()

    def test_steklov_output(self, tmp_path):
        out = tmp_path / "steklov.json"
        assert run(["steklov", "--domain", "disk", "--h", "0.1", "--modes", "5",
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert np.max(np.abs(np.array(data["delta"]) - [0, 1, 1, 2, 2])) < 0.05

    def test_laplace_output(self, tmp_path):
        out = tmp_path / "laplace.json"
        assert run(["laplace-eigs", "--domain", "disk", "--h", "0.1", "--modes", "2",
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["lambda"][0] == pytest.approx(5.7832, rel=0.02)

    def test_mesh_out_flag(self, tmp_path):
        out = tmp_path / "b.json"
        mesh_out = tmp_path / "m.txt"
        assert run(["dbs", "--domain", "disk", "--h", "0.15", "--modes", "3",
                    "--out", out, "--mesh-out", mesh_out]) == 0
        mesh = read_mesh_text(mesh_out.read_text())
        data = json.loads(out.read_text())
        assert len(data["b"][0]) == mesh.vertices.shape[0]

    def test_solver_failure_is_one_error_line(self, tmp_path, monkeypatch, capsys, recwarn):
        from steklovsvd import cli
        from steklovsvd.errors import IterationLimitError

        message = "shift-invert Lanczos did not converge; partial results refused"

        def fail(mesh, n_modes):
            raise IterationLimitError(message)

        monkeypatch.setattr(cli, "dirichlet_laplacian_eigensolve", fail)
        out = tmp_path / "eigs.json"
        code = run(["laplace-eigs", "--h", "0.3", "--modes", "3", "--out", out])
        assert assert_one_input_error(code, capsys, recwarn, out) == f"error: {message}\n"


class TestKernelCommand:
    def test_poisson_slice_near_uniform_at_center(self, tmp_path, basis_file):
        out = tmp_path / "slice.csv"
        assert run(["kernel", "--basis", basis_file, "--x", "0,0", "--out", out]) == 0
        rows = np.loadtxt(out, skiprows=1, delimiter=",")
        assert rows.shape[1] == 2
        assert np.max(np.abs(rows[:, 1] - 1 / (2 * math.pi))) < 0.05 / (2 * math.pi)

    def test_bergman_grid(self, tmp_path, basis_file):
        out = tmp_path / "grid.csv"
        assert run(["kernel", "--basis", basis_file, "--x", "0,0", "--which", "bergman",
                    "--out", out]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "x,y,value"

    def test_negative_first_coordinate(self, tmp_path, basis_file):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert run(["kernel", "--basis", basis_file, "--x", "-0.3,0.1", "--out", spaced]) == 0
        assert run(["kernel", "--basis", basis_file, "--x=-0.3,0.1", "--out", joined]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_bad_point_is_input_error(self, tmp_path, basis_file):
        assert run(["kernel", "--basis", basis_file, "--x", "zap", "--out",
                    tmp_path / "s.csv"]) == 1
        assert run(["kernel", "--basis", basis_file, "--x", "0.99,0", "--out",
                    tmp_path / "s.csv"]) == 1


class TestExtendProject:
    def test_extend_constant(self, tmp_path, basis_file):
        out = tmp_path / "ext.json"
        assert run(["extend", "--basis", basis_file, "--g-const", "1.0", "--modes", "5",
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["ratio"] <= 1 + 1e-6
        assert data["norm_convention"] == "dsigma"
        assert data["extension_norm_dsigma"] == pytest.approx(1 / math.sqrt(2), rel=0.01)
        values = np.array(data["values"])
        assert np.max(np.abs(values - 1)) < 0.05

    def test_extend_file_data_wrong_length(self, tmp_path, basis_file):
        g = tmp_path / "g.txt"
        g.write_text("1.0\n2.0\n")
        assert run(["extend", "--basis", basis_file, "--g-file", g, "--out",
                    tmp_path / "e.json"]) == 1

    def test_extend_requires_exactly_one_source(self, tmp_path, basis_file):
        assert run(["extend", "--basis", basis_file, "--out", tmp_path / "e.json"]) == 1

    def test_project_constant(self, tmp_path, basis_file):
        out = tmp_path / "proj.json"
        assert run(["project", "--basis", basis_file, "--f-const", "2.0", "--out", out]) == 0
        data = json.loads(out.read_text())
        # constants are harmonic: the projection reproduces them
        assert data["norm_projection"] == pytest.approx(data["norm_input"], rel=0.01)


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 0.15, "modes": 4}))
        out = tmp_path / "b.json"
        assert run(["dbs", "--config", cfg, "--domain", "disk", "--out", out]) == 0
        assert json.loads(out.read_text())["M"] == 4

    def test_config_flag_with_equals_sign(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 0.15, "modes": 4}))
        out = tmp_path / "b.json"
        assert run(["dbs", f"--config={cfg}", "--out", out]) == 0
        assert json.loads(out.read_text())["M"] == 4

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modes": 4}))
        out = tmp_path / "b.json"
        assert run(["dbs", "--config", cfg, "--domain", "disk", "--h", "0.15",
                    "--modes", "3", "--out", out]) == 0
        assert json.loads(out.read_text())["M"] == 3

    def test_missing_config_is_input_error(self, tmp_path):
        assert run(["dbs", "--config", tmp_path / "absent.json", "--domain", "disk",
                    "--out", tmp_path / "b.json"]) == 1


class TestVerifyCommand:
    def test_all_suites_pass_on_disk(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", "all", "--domain", "disk", "--h", "0.1",
                    "--modes", "12", "--out", out])
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS" in captured
        assert "FAIL" not in captured
        report = json.loads(out.read_text())
        assert all(check["passed"] for check in report["checks"])

    @pytest.mark.parametrize("h", ["0.1", "0.05"])
    def test_all_suites_pass_on_a_thin_rectangle(self, tmp_path, capsys, h):
        # A circle of radius 0.4 sqrt(area / pi) about the centroid leaves
        # this 6:1 rectangle, so the bergman suite shrinks it to fit.
        verts = tmp_path / "rectangle.txt"
        verts.write_text("0 0\n6 0\n6 1\n0 1\n")
        code = run(["verify", "--suite", "all", "--domain", "polygon",
                    "--vertices-file", verts, "--h", h])
        assert code == 0, capsys.readouterr().out

    def test_single_suite_selection(self, capsys):
        code = run(["verify", "--suite", "mesh,solver", "--domain", "disk", "--h", "0.15"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(l.split()[1].split(".")[0] in ("mesh", "solver") for l in lines[:-1])

    def test_few_interior_nodes_run_and_none_is_one_error_line(self, tmp_path, capsys, recwarn):
        # bergman asked for five Dirichlet modes whatever the mesh held.
        verts = tmp_path / "square.txt"
        verts.write_text("0 0\n1.25 0\n1.25 1.25\n0 1.25\n")  # 4 interior nodes at h 0.5
        code = run(["verify", "--suite", "all", "--domain", "polygon", "--vertices-file", verts,
                    "--h", "0.5", "--modes", "3"])
        assert code in (0, 2) and "error" not in capsys.readouterr().err
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", "bergman", "--domain", "polygon", "--vertices-file", verts,
                    "--h", "1.5", "--out", out])
        err = assert_one_input_error(code, capsys, recwarn, out)
        assert err == "error: M=1 exceeds the interior-node capacity 0 of this mesh\n"

    def test_unknown_suite_is_input_error(self):
        assert run(["verify", "--suite", "nonsense", "--domain", "disk", "--h", "0.2"]) == 1

    def test_failed_invariant_exits_two(self, monkeypatch, capsys):
        from steklovsvd import cli
        from steklovsvd.verify import CheckResult

        monkeypatch.setattr(
            cli,
            "run_suites",
            lambda mesh, suites, n_modes: [CheckResult("mesh.fake", 1.0, 0.5, False)],
        )
        code = run(["verify", "--suite", "mesh", "--domain", "disk", "--h", "0.2"])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL mesh.fake" in out
        assert "measured=" in out and "allowed=" in out


def assert_one_input_error(code, capsys, recwarn, out):
    """Exit 1, one ``error:`` line, no traceback or warning, and no output file.

    Returns the error output.
    """
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not recwarn.list, [str(w.message) for w in recwarn.list]
    assert not out.exists()
    return captured.err


class TestConfigAndFlagErrors:
    # case -> (config file contents or None, flags, text of the error line)
    CASES = {
        "config_h_list": ({"h": [1]}, [], "argument --h: invalid float value: '[1]'"),
        "config_modes_fraction": (
            {"modes": 2.5}, [], "argument --modes: invalid int value: '2.5'"
        ),
        "config_radius_null": (
            {"radius": None}, [], "argument --radius: invalid float value: 'null'"
        ),
        "config_domain_unknown": (
            {"domain": "square"}, [], "argument --domain: invalid choice: 'square'"
        ),
        "config_h_bool": ({"h": True}, [], "argument --h: invalid float value: 'true'"),
        "config_path_null": (
            {"mesh_out": None}, [], "config entry 'mesh_out' must be a string, got null"
        ),
        "flag_modes_word": (None, ["--modes", "abc"], "argument --modes: invalid int value: 'abc'"),
        "flag_unknown": (None, ["--frobnicate"], "unrecognized arguments: --frobnicate"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line_and_exit_one(self, tmp_path, capsys, recwarn, case):
        config, flags, message = self.CASES[case]
        argv = ["dbs", "--out", tmp_path / "b.json", *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", tmp_path / "cfg.json"]
        err = assert_one_input_error(run(argv), capsys, recwarn, tmp_path / "b.json")
        assert message in err

    def test_keys_of_other_commands_are_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 0.3, "modes": 3, "which": "bergman", "g_const": 1}))
        assert run(["dbs", "--config", cfg, "--out", tmp_path / "b.json"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["mesh", "--h", "0.3", "--out", "{bad}"],
            ["dbs", "--h", "0.3", "--modes", "3", "--out", "{ok}", "--mesh-out", "{bad}"],
        ],
        ids=["mesh_out_file", "dbs_mesh_out"],
    )
    def test_unwritable_output(self, tmp_path, capsys, recwarn, argv):
        bad = tmp_path / "absent" / "m.txt"
        argv = [a.format(bad=bad, ok=tmp_path / "b.json") for a in argv]
        err = assert_one_input_error(run(argv), capsys, recwarn, bad)
        assert err == f"error: cannot write {bad}: No such file or directory\n"

    @pytest.mark.parametrize("suite", [",", " , ,"])
    def test_empty_suite_selection(self, tmp_path, capsys, recwarn, suite):
        out = tmp_path / "report.json"
        code = run(["verify", "--suite", suite, "--h", "0.3", "--out", out])
        err = assert_one_input_error(code, capsys, recwarn, out)
        assert "names no suite" in err
        assert capsys.readouterr().out == ""


class TestNonFiniteInputs:
    # case -> (argv, contents of {data} or None, text of the error line)
    CASES = {
        "dbs_radius_nan": (
            ["dbs", "--radius", "nan"], None, "radius must be positive and finite, got nan"
        ),
        "dbs_radius_inf": (
            ["dbs", "--radius", "inf"], None, "radius must be positive and finite, got inf"
        ),
        "dbs_h_inf": (["dbs", "--h", "inf"], None, "target_h must be positive and finite, got inf"),
        "polygon_vertex_nan": (
            ["dbs", "--domain", "polygon", "--h", "0.3", "--vertices-file", "{data}"],
            "0 0\n1 0\nnan 1\n0 1\n",
            "vertices file {data} contains a non-finite value",
        ),
        "project_f_const_nan": (
            ["project", "--basis", "{basis}", "--f-const", "nan"], None,
            "--f-const must be finite, got nan",
        ),
        "extend_g_const_inf": (
            ["extend", "--basis", "{basis}", "--g-const", "inf"], None,
            "--g-const must be finite, got inf",
        ),
        "extend_g_const_nan_in_config": (
            ["extend", "--basis", "{basis}", "--config", "{data}"], '{"g_const": NaN}',
            "--g-const must be finite, got nan",
        ),
        "extend_g_file_inf": (
            ["extend", "--basis", "{basis}", "--g-file", "{data}"], "1\ninf\n2\n",
            "boundary data file {data} contains a non-finite value",
        ),
        "kernel_x_nan": (
            ["kernel", "--basis", "{basis}", "--x", "nan,0"], None,
            "expected a point 'x,y' with finite coordinates, got 'nan,0'",
        ),
        "verify_one_mode": (
            ["verify", "--h", "0.3", "--modes", "1"], None,
            "the basis suites need at least 2 modes, got 1",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line_and_exit_one(self, tmp_path, basis_file, capsys, recwarn, case):
        argv, contents, message = self.CASES[case]
        data = tmp_path / "data.txt"
        if contents is not None:
            data.write_text(contents)
        argv = [a.format(basis=basis_file, data=data) for a in argv]
        out = tmp_path / "out"
        err = assert_one_input_error(run(argv + ["--out", out]), capsys, recwarn, out)
        assert err == f"error: {message.format(data=data)}\n"
        assert capsys.readouterr().out == ""


class TestFailedWrites:
    def test_failed_mesh_out_leaves_no_basis_file(self, tmp_path, capsys, recwarn):
        out = tmp_path / "b.json"
        bad = tmp_path / "absent" / "m.txt"
        code = run(["dbs", "--h", "0.3", "--modes", "3", "--out", out, "--mesh-out", bad])
        err = assert_one_input_error(code, capsys, recwarn, out)
        assert err == f"error: cannot write {bad}: No such file or directory\n"
        assert os.listdir(tmp_path) == []

    def test_failed_mesh_out_keeps_the_old_basis_file(self, tmp_path):
        out = tmp_path / "b.json"
        out.write_text("old\n")
        bad = tmp_path / "absent" / "m.txt"
        assert run(["dbs", "--h", "0.3", "--modes", "3", "--out", out, "--mesh-out", bad]) == 1
        assert out.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["b.json"]

    @pytest.mark.parametrize("command", ["dbs", "steklov", "laplace-eigs"])
    @pytest.mark.parametrize("spelling", ["{name}", "./{name}"], ids=["same", "dot_slash"])
    def test_mesh_out_naming_the_out_file_is_refused(
        self, tmp_path, monkeypatch, capsys, recwarn, command, spelling
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "same.out").write_text("old\n")
        mesh_out = spelling.format(name="same.out")
        argv = [command, "--h", "0.3", "--modes", "3", "--out", "same.out", "--mesh-out", mesh_out]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --mesh-out names the same file as --out: {mesh_out}\n"
        assert not recwarn.list, [str(w.message) for w in recwarn.list]
        assert (tmp_path / "same.out").read_text() == "old\n"
        assert os.listdir(tmp_path) == ["same.out"]


class TestInputFileErrors:
    BAD_CONTENT = {
        "malformed": "0 0\n1 x\n",
        "wrong_length": "0 0 0\n1 0 0\n1 1 0\n",
        "empty": "",
    }

    @pytest.mark.parametrize("problem", ["missing", "malformed", "wrong_length", "empty"])
    @pytest.mark.parametrize(
        "command",
        [
            ["extend", "--basis", "{basis}", "--g-file", "{data}"],
            ["project", "--basis", "{basis}", "--f-file", "{data}"],
            ["mesh", "--domain", "polygon", "--h", "0.2", "--vertices-file", "{data}"],
        ],
        ids=["g-file", "f-file", "vertices-file"],
    )
    def test_one_error_line_and_exit_one(
        self, tmp_path, basis_file, capsys, recwarn, problem, command
    ):
        data = tmp_path / "data.txt"
        if problem != "missing":
            data.write_text(self.BAD_CONTENT[problem])
        argv = [a.format(basis=basis_file, data=data) for a in command]
        code = run(argv + ["--out", tmp_path / "out"])
        assert_one_input_error(code, capsys, recwarn, tmp_path / "out")


class TestMeshAndBasisFileErrors:
    BAD_FILES = {
        "mesh_header_without_count": ("mesh", "nodes\n"),
        "mesh_count_not_a_number": ("mesh", "nodes x\n"),
        "mesh_truncated": ("mesh", "nodes 3\n0 0 1\n1 0 1\n"),
        "mesh_count_too_large": ("mesh", "nodes 100000000000\n0 0 1\n"),
        "basis_not_json": ("basis", "{not json"),
        "basis_a_list": ("basis", "[1,2]"),
        "basis_empty_object": ("basis", "{}"),
        "basis_domain_missing_field": ("basis", '{"domain": "disk;h=0.08"}'),
        "basis_domain_field_not_a_number": ("basis", '{"domain": "disk;radius=x;h=0.08"}'),
        "basis_domain_not_a_string": ("basis", '{"domain": 3}'),
    }

    @pytest.mark.parametrize("case", sorted(BAD_FILES))
    def test_one_error_line_and_exit_one(self, tmp_path, capsys, recwarn, case):
        kind, text = self.BAD_FILES[case]
        bad = tmp_path / "bad"
        bad.write_text(text)
        out = tmp_path / "out"
        if kind == "mesh":
            argv = ["dbs", "--mesh", bad, "--modes", "3", "--out", out]
        else:
            argv = ["kernel", "--basis", bad, "--x", "0,0", "--out", out]
        assert_one_input_error(run(argv), capsys, recwarn, out)

    @pytest.mark.parametrize("command", ["dbs", "steklov"])
    def test_unfactorizable_mesh_is_one_error_line(self, tmp_path, capsys, recwarn, command):
        # Node 4 lies in no triangle, so the interior stiffness block is singular.
        mesh = tmp_path / "mesh.txt"
        mesh.write_text(
            "nodes 5\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n0.5 0.2 0\n"
            "triangles 2\n0 1 2\n0 2 3\nboundary_loops 1\nloop 4\n0 1 2 3\n"
        )
        out = tmp_path / "out.json"
        code = run([command, "--mesh", mesh, "--modes", "3", "--out", out])
        err = assert_one_input_error(code, capsys, recwarn, out)
        assert err.startswith("error: cannot factorize the interior stiffness block: ")

    def test_non_finite_mesh_coordinate_is_one_error_line(self, tmp_path, capsys, recwarn):
        mesh = tmp_path / "mesh.txt"
        mesh.write_text(
            "nodes 3\n0 0 1\n1 0 1\nnan 1 1\n"
            "triangles 1\n0 1 2\nboundary_loops 1\nloop 3\n0 1 2\n"
        )
        out = tmp_path / "out.json"
        code = run(["dbs", "--mesh", mesh, "--modes", "3", "--out", out])
        err = assert_one_input_error(code, capsys, recwarn, out)
        assert err == "error: mesh node 2 is not finite: (nan, 1.0)\n"

    def test_unused_non_finite_node_is_named(self, tmp_path, capsys, recwarn):
        mesh = tmp_path / "mesh.txt"
        mesh.write_text(
            "nodes 4\n0 0 1\n1 0 1\n0 1 1\nnan 0.2 0\n"
            "triangles 1\n0 1 2\nboundary_loops 1\nloop 3\n0 1 2\n"
        )
        out = tmp_path / "out.json"
        code = run(["dbs", "--mesh", mesh, "--modes", "2", "--out", out])
        err = assert_one_input_error(code, capsys, recwarn, out)
        assert err == "error: mesh node 3 is not finite: (nan, 0.2)\n"

    @pytest.mark.parametrize(
        "domain, detail",
        [
            ("disk;h=0.08", "has no 'radius' field"),
            ("disk;radius=x;h=0.08", "is invalid: could not convert string to float: 'x'"),
            ("square;h=0.1", "has unknown kind 'square' (known: disk, polygon, meshfile)"),
        ],
    )
    def test_bad_domain_names_the_entry(self, tmp_path, capsys, domain, detail):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"domain": domain}))
        assert run(["kernel", "--basis", bad, "--x", "0,0", "--out", tmp_path / "s.csv"]) == 1
        assert capsys.readouterr().err == (
            f"error: basis file's 'domain' entry {domain!r} {detail}\n"
        )

    @pytest.mark.parametrize(
        "what, argv",
        [
            ("basis", ["kernel", "--basis", "{bad}", "--x", "0,0"]),
            ("config", ["extend", "--basis", "{basis}", "--config", "{bad}"]),
        ],
        ids=["kernel_basis", "extend_config"],
    )
    def test_file_that_is_not_utf8_is_named(
        self, tmp_path, basis_file, capsys, recwarn, what, argv
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"g_const": "\xff"}')
        out = tmp_path / "out"
        argv = [a.format(bad=bad, basis=basis_file) for a in argv] + ["--out", out]
        err = assert_one_input_error(run(argv), capsys, recwarn, out)
        assert err.startswith(
            f"error: {what} file is not valid JSON: 'utf-8' codec can't decode byte 0xff"
        )

    def test_outside_point_prints_plain_floats(self, tmp_path, basis_file, capsys):
        out = tmp_path / "s.csv"
        assert run(["kernel", "--basis", basis_file, "--x", "5,5", "--out", out]) == 1
        assert capsys.readouterr().err == "error: point (5.0, 5.0) lies outside the mesh\n"


class TestNonFinitePointCounts:
    # A spacing too fine, or a domain too large, for the point count to be finite.
    # case -> (arguments, vertices file contents or None, spacing named)
    CASES = {
        "disk_radius_1e308": (["mesh", "--radius", "1e308", "--h", "0.2"], None, "0.2"),
        "dbs_h_1e-320": (["dbs", "--h", "1e-320"], None, "1e-320"),
        "square_h_1e-320": (
            ["mesh", "--domain", "polygon", "--h", "1e-320"], "0 0\n1 0\n1 1\n0 1\n", "1e-320"
        ),
        "corners_1e308": (
            ["mesh", "--domain", "polygon", "--h", "0.2"],
            "0 0\n1e308 0\n1e308 1e308\n0 1e308\n",
            "0.2",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line_naming_the_spacing(self, tmp_path, capsys, recwarn, case):
        argv, vertices, h = self.CASES[case]
        out = tmp_path / "out"
        if vertices is not None:
            (tmp_path / "vertices.txt").write_text(vertices)
            argv = [*argv, "--vertices-file", tmp_path / "vertices.txt"]
        err = assert_one_input_error(run([*argv, "--out", out]), capsys, recwarn, out)
        assert err == (
            f"error: the domain is too large for target_h={h}: its point count is not finite\n"
        )


class TestSpacing:
    @pytest.mark.parametrize("h", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("domain", ["disk", "polygon"])
    def test_one_error_line_from_the_builder(self, tmp_path, capsys, recwarn, domain, h):
        argv = ["dbs", "--domain", domain, "--h", h]
        if domain == "polygon":
            (tmp_path / "vertices.txt").write_text("0 0\n1 0\n1 1\n0 1\n")
            argv += ["--vertices-file", tmp_path / "vertices.txt"]
        out = tmp_path / "out.json"
        err = assert_one_input_error(run([*argv, "--out", out]), capsys, recwarn, out)
        assert err == f"error: target_h must be positive and finite, got {float(h)}\n"

    # case -> (arguments, vertices file contents or None, spacing named)
    TOO_FINE = {
        "mesh_h_1e-30": (["mesh", "--h", "1e-30"], None, "1e-30"),
        "dbs_h_1e-7": (["dbs", "--h", "1e-7"], None, "1e-07"),
        "square_h_1e-9": (
            ["mesh", "--domain", "polygon", "--h", "1e-9"], "0 0\n1 0\n1 1\n0 1\n", "1e-09"
        ),
    }

    @pytest.mark.parametrize("case", sorted(TOO_FINE))
    def test_too_many_points_is_one_error_line(self, tmp_path, capsys, recwarn, case):
        argv, vertices, h = self.TOO_FINE[case]
        out = tmp_path / "out"
        if vertices is not None:
            (tmp_path / "vertices.txt").write_text(vertices)
            argv = [*argv, "--vertices-file", tmp_path / "vertices.txt"]
        err = assert_one_input_error(run([*argv, "--out", out]), capsys, recwarn, out)
        assert err.startswith(f"error: the domain is too large for target_h={h}: it needs about ")
        assert err.endswith(" points, more than 1048576\n")


class TestLargeCoordinates:
    # Qhull sees the points scaled by a power of two, so these build and solve.
    @pytest.mark.parametrize(
        "argv, vertices",
        [
            (["dbs", "--radius", "1e100", "--h", "2e99", "--modes", "3"], None),
            (
                ["dbs", "--domain", "polygon", "--h", "2e99", "--modes", "3"],
                "0 0\n1e100 0\n1e100 1e100\n0 1e100\n",
            ),
        ],
        ids=["disk_radius_1e100", "square_corners_1e100"],
    )
    def test_builds_and_solves(self, tmp_path, capsys, recwarn, argv, vertices):
        if vertices is not None:
            (tmp_path / "vertices.txt").write_text(vertices)
            argv = [*argv, "--vertices-file", tmp_path / "vertices.txt"]
        out = tmp_path / "basis.json"
        assert run([*argv, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert not recwarn.list, [str(w.message) for w in recwarn.list]
        q = json.loads(out.read_text())["q"]
        assert len(q) == 3 and all(math.isfinite(v) and v > 0 for v in q)


class TestQhullFailures:
    def test_one_error_line_naming_the_domain(self, tmp_path, capsys, recwarn):
        # A strictly convex triangle too flat for Qhull's initial simplex.
        (tmp_path / "vertices.txt").write_text("0 0\n1 0\n0.5 1e-15\n")
        out = tmp_path / "out"
        argv = ["mesh", "--domain", "polygon", "--h", "2", "--vertices-file"]
        assert run([*argv, tmp_path / "vertices.txt", "--out", out]) == 1
        # Qhull's own text reads "precision error:", so count lines, not "error:".
        err = capsys.readouterr().err
        assert err.startswith("error: cannot triangulate the polygon: QH6154 ")
        assert err.count("\n") == 1
        assert not recwarn.list and not out.exists()


class TestOverflowingAreas:
    # Point counts that are finite, on coordinates near the float range:
    # Mesh refuses the first triangle whose area overflows.
    CASES = {
        "polygon_corners_3e200": (
            ["mesh", "--domain", "polygon", "--h", "1e200", "--vertices-file"],
            "0 0\n3e200 0\n3e200 3e200\n0 3e200\n",
        ),
        "disk_radius_1e200": (["dbs", "--radius", "1e200", "--h", "3e199"], None),
        "mesh_file_1e200": (
            ["dbs", "--modes", "3", "--mesh"],
            "nodes 3\n0 0 1\n1e200 0 1\n0 1e200 1\n"
            "triangles 1\n0 1 2\nboundary_loops 1\nloop 3\n0 1 2\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line_naming_the_triangle(self, tmp_path, capsys, recwarn, case):
        argv, text = self.CASES[case]
        out = tmp_path / "out"
        if text is not None:
            (tmp_path / "input.txt").write_text(text)
            argv = [*argv, tmp_path / "input.txt"]
        err = assert_one_input_error(run([*argv, "--out", out]), capsys, recwarn, out)
        assert err.startswith("error: triangle 0 has signed area inf: each must be finite ")
        assert "Warning" not in err


def _edit(key, change):
    def edit(data):
        change(data[key])
        return data

    return edit


def _swap_q0_q5(q):
    q[0], q[5] = q[5], q[0]


class TestMalformedBasisFiles:
    # (edit of a valid 12-mode basis on a 381-vertex disk, kernel --which, error text)
    CASES = {
        "b_one_row_short": (
            _edit("b", list.pop), "poisson",
            "basis entry 'b' has shape (11, 381), expected (M, vertices) = (12, 381)",
        ),
        "q_one_entry_short": (
            _edit("q", list.pop), "poisson",
            "basis entry 'q' has shape (11,), expected (M,) = (12,)",
        ),
        "nan_in_q0": (
            _edit("q", lambda q: q.__setitem__(0, math.nan)), "bergman",
            "basis entry 'q' holds a non-finite value",
        ),
        "infinity_in_h": (
            _edit("h", lambda h: h[3].__setitem__(5, math.inf)), "bergman",
            "basis entry 'h' holds a non-finite value",
        ),
        "w_row_short": (
            _edit("w", lambda w: w[2].pop()), "poisson",
            "basis entry 'w' is not an array of numbers",
        ),
        "w_rows_too_short": (
            lambda data: dict(data, w=[row[:-1] for row in data["w"]]), "poisson",
            "basis entry 'w' has shape (12, 62), expected (M, boundary nodes) = (12, 63)",
        ),
        "string_in_b": (
            _edit("b", lambda b: b[0].__setitem__(0, "x")), "bergman",
            "basis entry 'b' is not an array of numbers",
        ),
        "M_not_an_integer": (
            lambda data: dict(data, M=12.0), "poisson",
            "basis entry 'M' must be a positive integer, got 12.0",
        ),
        "M_missing": (
            lambda data: {k: v for k, v in data.items() if k != "M"}, "poisson",
            "basis file has no 'M' entry",
        ),
        "zero_q0": (
            _edit("q", lambda q: q.__setitem__(0, 0.0)), "bergman",
            "basis entry 'q' must be positive and nondecreasing",
        ),
        "negative_q0": (
            _edit("q", lambda q: q.__setitem__(0, -2.0)), "poisson",
            "basis entry 'q' must be positive and nondecreasing",
        ),
        "q0_q5_swapped": (
            _edit("q", _swap_q0_q5), "bergman",
            "basis entry 'q' must be positive and nondecreasing",
        ),
    }  # fmt: skip

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line_naming_the_entry(self, tmp_path, basis_file, capsys, recwarn, case):
        edit, which, message = self.CASES[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(basis_file.read_text()))))
        out = tmp_path / "out.csv"
        code = run(["kernel", "--basis", bad, "--x", "0,0", "--which", which, "--out", out])
        assert assert_one_input_error(code, capsys, recwarn, out) == f"error: {message}\n"

    def test_overflowing_number_reads_as_infinite(self, tmp_path, basis_file, capsys, recwarn):
        # Strict parsers refuse 1e400; Python's json reads it as inf.
        text = basis_file.read_text()
        q0 = text.split('"q":[', 1)[1].split(",", 1)[0]
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace(f'"q":[{q0},', '"q":[1e400,', 1))
        out = tmp_path / "out.csv"
        code = run(["kernel", "--basis", bad, "--x", "0,0", "--which", "bergman", "--out", out])
        err = assert_one_input_error(code, capsys, recwarn, out)
        assert err == "error: basis entry 'q' holds a non-finite value\n"

    def test_M_above_two_to_the_64(self, tmp_path, basis_file, capsys, recwarn):
        # The error text depends on whether the parser reads M as an integer.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(json.loads(basis_file.read_text()), M=2**64 + 1)))
        out = tmp_path / "out.csv"
        code = run(["kernel", "--basis", bad, "--x", "0,0", "--out", out])
        assert assert_one_input_error(code, capsys, recwarn, out).startswith("error: basis entry ")
