"""End-to-end command-line behavior and report determinism."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from qstitch import OperatorPair
from qstitch.cli import main

from conftest import SCHEMES, parse_ok
from test_ket_order_golden import _synth
from test_scheme import BAD_HEADERS

ONE = str(SCHEMES / "one_photon.scheme")
TWO = str(SCHEMES / "two_photon.scheme")


def test_validate_shipped_schemes_exit_zero(capsys):
    assert main(["validate", ONE]) == 0
    assert main(["validate", TWO]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_validate_missing_file_exits_two(capsys):
    assert main(["validate", "/nonexistent/x.scheme"]) == 2


def test_validate_undecodable_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.scheme"
    bad.write_bytes(b"\xff\xfe[family Z]\n")
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff "
                            "in position 0: invalid start byte\n")


def test_validate_forbidden_dipole_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.scheme"
    bad.write_text(
        "[family Z]\n"
        "S0 j=0 g=0 term=Sigma spin=1 energy=0.3\n"
        "[family E]\n"
        "S0 j=0 g=0 term=Sigma spin=1 energy=0.0\n"
        "[modes]\n"
        "w omega=0.3\n"
        "[couplings]\n"
        "dipole Z.S0 E.S0 mode=w strength=0.1\n",
        encoding="utf-8",
    )
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "selection.parity" in err


def test_basis_row_counts(capsys):
    assert main(["basis", ONE]) == 0
    table = capsys.readouterr().out.strip().splitlines()
    assert len(table) - 2 == 16  # header + rule

    assert main(["basis", ONE, "--two-photon", "push"]) == 0
    table = capsys.readouterr().out.strip().splitlines()
    assert len(table) - 2 == 17
    assert "Z.SN" in table[-1]


def test_basis_empty_scheme_header_only(tmp_path, capsys):
    empty = tmp_path / "empty.scheme"
    empty.write_text("", encoding="utf-8")
    assert main(["basis", str(empty)]) == 0
    table = capsys.readouterr().out.strip().splitlines()
    assert len(table) == 2


def test_basis_json_format(capsys):
    assert main(["basis", ONE, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == 1 and data["size"] == 16
    assert data["kets"][0]["name"] == "Z.S0+wZ01"
    assert all("energy" in row for row in data["kets"])


def test_basis_unknown_two_photon_mode_exits_one(capsys):
    assert main(["basis", ONE, "--two-photon", "NOSUCH"]) == 1
    assert capsys.readouterr().err == "error: unknown mode 'NOSUCH'\n"


def test_paths_one_photon_unreachable(capsys):
    assert main(["paths", ONE, "--from", "Z.S0+wZ01", "--to", "E.S0+wE01"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reachable"] is False
    assert report["witness"] is None
    assert report["paths"] == []


def test_paths_two_photon_reachable(capsys):
    assert main(["paths", TWO, "--from", "Z.S0+wZ01", "--to", "E.S0+wE01+wEt"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reachable"] is True
    assert report["witness"]["photon_budget"] == 2
    assert "inject" in report["witness"]["kinds"]


@pytest.mark.parametrize("argv", [
    [TWO, "--from", "Z.S0+wZ01", "--to", "E.S0+wE01", "--max-len", "12"],
    [ONE, "--from", "Z.S0+wZ01", "--to", "E.S0+wE01"],
], ids=["two_photon", "one_photon"])
def test_paths_to_a_closed_target_are_not_truncated(capsys, argv):
    assert main(["paths", *argv]) == 0
    out = capsys.readouterr().out
    assert '"reachable": false' in out and '"truncated": false' in out


@pytest.mark.parametrize("ceiling, code", [(1000, 1), (1241, 0)])
def test_paths_exit_one_only_past_the_path_ceiling(capsys, monkeypatch, ceiling, code):
    import qstitch.pathways as pathways

    monkeypatch.setattr(pathways, "MAX_PATHS", ceiling)
    argv = ["paths", TWO, "--from", "Z.S0+wZ01", "--to", "E.S0+wE01+wEt", "--max-len", "12"]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == "error: q-path enumeration exceeds 1000 paths\n"
    else:
        assert len(json.loads(captured.out)["paths"]) == 1241


def test_paths_trivial_when_from_equals_to(capsys):
    assert main(["paths", ONE, "--from", "Z.S1", "--to", "Z.S1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reachable"] is True
    assert report["witness"]["kets"] == ["Z.S1"]
    assert report["witness"]["photon_budget"] == 0


def test_paths_unknown_ket_exits_one(capsys):
    assert main(["paths", ONE, "--from", "Z.S9", "--to", "E.S0+wE01"]) == 1
    # the message is printed as is, not as a quoted KeyError repr
    assert capsys.readouterr().err == (
        "error: unknown level reference 'Z.S9' in ket spec 'Z.S9'\n"
    )


def test_paths_negative_max_len_exits_one(capsys):
    argv = ["paths", ONE, "--from", "Z.S0+wZ01", "--to", "E.S0+wE01", "--max-len", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_len must be non-negative, got -1\n"


def test_evolve_unknown_prepared_ket_exits_one(tmp_path, capsys):
    assert main(["evolve", ONE, "--prepare", "Z.S9=1", "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        "error: unknown level reference 'Z.S9' in ket spec 'Z.S9'\n"
    )


def test_evolve_prepares_an_entangled_ket(tmp_path, capsys):
    # the ';' inside an entangled name does not end the assignment
    spec = "Z.S1;0_wZ01=1; Z.S0+wZ01=0.5j"
    assert main(["evolve", TWO, "--prepare", spec, "--out", str(tmp_path / "r")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["prepared"] == {"Z.S1;0_wZ01": [1.0, 0.0], "Z.S0+wZ01": [0.0, 0.5]}
    assert report["events"][0]["kets"] == ["Z.S0+wZ01", "Z.S1;0_wZ01"]


def test_evolve_prepare_naming_a_ket_twice_exits_one(tmp_path, capsys):
    spec = "Z.S0+wZ01=1;E.S0+wE01=1; Z.S0+wZ01 =-1"
    assert main(["evolve", ONE, "--prepare", spec, "--out", str(tmp_path / "r")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --prepare assigns Z.S0+wZ01 twice\n"
    assert not (tmp_path / "r.report.json").exists()


def test_evolve_prepare_naming_a_ket_twice_in_two_spellings_exits_one(tmp_path, capsys):
    spec = "Z.S0+wZ01=1;Z.S0+1*wZ01=1"
    assert main(["evolve", ONE, "--prepare", spec, "--out", str(tmp_path / "r")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: preparation assigns Z.S0+wZ01 twice\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "scheme, flags",
    [(TWO, ["--t-end", "200"]), (ONE, ["--t-end", "1.0", "--dt", "0.4"])],
    ids=["pulse-at-t-end", "t-end-not-whole-steps"],
)
def test_evolve_rejects_runs_that_would_drop_a_pulse(tmp_path, capsys, scheme, flags):
    assert main(["evolve", scheme, "--out", str(tmp_path / "r"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "r.report.json").exists()


def test_evolve_pulse_time_too_large_for_its_boundary_exits_one(tmp_path, capsys):
    path, _ = _two_photon_with(tmp_path, "push time=1e308")
    assert main(["validate", path]) == 0
    capsys.readouterr()
    # its boundary ceil(1e308 / 0.25) would overflow; the window check comes first
    assert main(["evolve", path, "--out", str(tmp_path / "r")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: pulse times must lie within [start, start + t_end - dt] = [0, 599.75]\n"
    )
    assert not (tmp_path / "r.report.json").exists()


def test_evolve_reports_are_seed_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        code = main(
            ["evolve", TWO, "--seed", "11", "--t-end", "300", "--out", str(tmp_path / name)]
        )
        assert code == 0
        capsys.readouterr()
        outs.append((tmp_path / f"{name}.report.json").read_text(encoding="utf-8"))
    a = json.loads(outs[0])
    b = json.loads(outs[1])
    a["trajectory_csv"] = b["trajectory_csv"] = ""
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_evolve_zero_coupling_scheme_flat(tmp_path, capsys):
    flat = tmp_path / "flat.scheme"
    flat.write_text(
        "[family A]\n"
        "G j=0 g=0 term=Sigma spin=1 energy=0.0\n"
        "P j=1 g=0 term=Pi spin=1 energy=1.0\n"
        "[modes]\n"
        "w omega=1.0\n",
        encoding="utf-8",
    )
    assert main(["evolve", str(flat), "--t-end", "50", "--out", str(tmp_path / "flat")]) == 0
    capsys.readouterr()
    with (tmp_path / "flat.trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    col = header.index("A.G+w")
    values = {row[col] for row in data}
    assert values == {"1"}  # population pinned at the prepared ket


def test_evolve_csv_structure(tmp_path, capsys):
    assert main(
        ["evolve", ONE, "--t-end", "100", "--dt", "0.5", "--out", str(tmp_path / "run")]
    ) == 0
    capsys.readouterr()
    with (tmp_path / "run.trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["t", "norm", "energy"]
    assert len(rows[0]) == 3 + 16
    for row in rows[1:3]:
        float(row[0])  # parseable floats
        assert abs(float(row[1]) - 1.0) < 1e-9


def test_evolve_reports_fs_conversion_for_ev_schemes(tmp_path, capsys):
    ev = tmp_path / "ev.scheme"
    ev.write_text(
        "unit = eV\n"
        "[family A]\n"
        "G j=0 g=0 term=Sigma spin=1 energy=0.0\n"
        "P j=1 g=0 term=Pi spin=1 energy=2.1\n"
        "[modes]\n"
        "w omega=2.1\n"
        "[couplings]\n"
        "dipole A.G A.P mode=w strength=0.05\n",
        encoding="utf-8",
    )
    assert main(["evolve", str(ev), "--t-end", "20", "--out", str(tmp_path / "ev")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "ev.report.json").read_text(encoding="utf-8"))
    assert report["time_unit_fs"] == 0.6582119569
    assert report["scheme"]["unit"] == "eV"


def test_operator_dump_subcommand(capsys):
    assert main(["operator", ONE]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["dimension"] == 16
    assert len(dump["diagonal"]) == 16
    assert all(e["a"] < e["b"] for e in dump["entries"])
    assert any("transfer" in e["kinds"] for e in dump["entries"])


def _per_cell_csv(path, traj, watch):
    """Reference writer: one csv.writer row of formatted cells per sample."""
    names = traj.ket_names
    columns = [names.index(k) for k in watch] if watch else range(len(names))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "norm", "energy"] + [names[c] for c in columns])
        for i, t in enumerate(traj.times):
            row = [f"{t:.12g}", f"{traj.norms[i]:.12g}", f"{traj.energies[i]:.12g}"]
            writer.writerow(row + [f"{traj.populations[i, c]:.12g}" for c in columns])


def _run(scheme_text, **kwargs):
    """The trajectory ``qstitch evolve`` writes for a scheme, at its defaults."""
    from qstitch.cli import _default_preparation, _run_setup
    from qstitch import evolve, prepare

    s = parse_ok(scheme_text)
    b, op = _run_setup(s)
    run = {"t_end": 600.0, "dt": 0.25, "sample_every": 4, **kwargs}
    return evolve(prepare(b, {_default_preparation(s, b): 1.0}), op, pulses=s.pulses,
                  detectors=s.detectors, **run)


def _assert_csv_matches_per_cell_writer(tmp_path, traj, watch):
    from qstitch.cli import _write_csv

    _write_csv(tmp_path / "fast.csv", traj, watch)
    _per_cell_csv(tmp_path / "ref.csv", traj, watch)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("scheme", [ONE, TWO])
@pytest.mark.parametrize("watch", [None, ["Z.S1", "Z.S0+wZ01"]])
def test_csv_bytes_match_per_cell_writer(tmp_path, scheme, watch):
    from qstitch.cli import CSV_BLOCK

    traj = _run(Path(scheme).read_text(encoding="utf-8"), collapse=False)
    assert len(traj.times) > 2 * CSV_BLOCK + 1  # several blocks, the last one partial
    _assert_csv_matches_per_cell_writer(tmp_path, traj, watch)


@pytest.mark.parametrize(
    "scheme, run, watch, dead",
    [
        ("synthetic", {"t_end": 400.0}, None, 121),
        (TWO, {}, None, 31),
        (TWO, {"detect_mode": "stochastic", "seed": 7}, None, 31),
        # Z.S0+wZ02 never holds population and comes before a populated ket
        (TWO, {"collapse": False}, ["Z.S0+wZ02", "Z.S0+wZ01", "E.S1"], 31),
    ],
    ids=["synthetic-N8", "two_photon-threshold", "two_photon-stochastic-seed7",
         "two_photon-dead-ket-watched-first"],
)
def test_csv_bytes_match_per_cell_writer_on_sparse_runs(tmp_path, scheme, run, watch, dead):
    text = (_synth().synthetic_scheme(8, np.random.default_rng(0)) if scheme == "synthetic"
            else Path(scheme).read_text(encoding="utf-8"))
    traj = _run(text, **run)
    # most columns are written as the literal 0
    assert int((traj.populations == 0).all(axis=0).sum()) == dead
    if watch:
        assert not traj.populations[:, traj.ket_names.index(watch[0])].any()
    _assert_csv_matches_per_cell_writer(tmp_path, traj, watch)


def test_csv_formats_signed_zero_subnormal_and_nan_cells(tmp_path):
    from qstitch.cli import CSV_BLOCK
    from qstitch.propagator import Trajectory

    rows = 2 * CSV_BLOCK + 3
    populations = np.zeros((rows, 5))
    populations[:, 0] = 1.0
    populations[CSV_BLOCK + 1, 1] = -0.0  # == 0, yet "%.12g" writes "-0"
    populations[rows - 1, 2] = 5e-324
    populations[0, 3] = np.nan
    traj = Trajectory(["a", "b", "c", "d", "e"], np.arange(rows) * 0.5, populations,
                      np.ones(rows), np.zeros(rows))
    _assert_csv_matches_per_cell_writer(tmp_path, traj, None)
    lines = (tmp_path / "fast.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "0,1,0,1,0,0,nan,0"
    assert lines[CSV_BLOCK + 2] == f"{(CSV_BLOCK + 1) * 0.5:g},1,0,1,-0,0,0,0"
    assert lines[-1].endswith(",1,0,4.94065645841e-324,0,0")


def test_evolve_watch_restricts_csv_columns(tmp_path, capsys):
    assert main(
        ["evolve", ONE, "--t-end", "40", "--dt", "0.5",
         "--watch", "Z.S0+wZ01", "--watch", "Z.S1",
         "--out", str(tmp_path / "w")]
    ) == 0
    capsys.readouterr()
    with (tmp_path / "w.trajectory.csv").open() as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "norm", "energy", "Z.S0+wZ01", "Z.S1"]


def test_evolve_two_photon_fires_detector_once(tmp_path, capsys):
    assert main(["evolve", TWO, "--out", str(tmp_path / "tp")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "tp.report.json").read_text(encoding="utf-8"))
    emissions = [e for e in report["events"] if e["type"] == "emission"]
    assert len(emissions) == 1
    assert report["emission"]["detector"] == "emE"
    assert report["emission"]["ket"] == "E.S0+wE01+wEt"
    assert report["reachability"]["emE"][0]["reachable"] in (True, False)
    # the detector's true precursor is reported reachable
    assert any(v["reachable"] and v["ket"] == "E.S0+wE01+wEt"
               for v in report["reachability"]["emE"])


def _two_photon_with(tmp_path, header_line):
    """The shipped two-photon scheme with one header line replaced."""
    key = header_line.split("=")[0]
    lines = (SCHEMES / "two_photon.scheme").read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(key))
    lines[at] = header_line
    path = tmp_path / "bad.scheme"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path), at + 1


@pytest.mark.parametrize("line, diagnostic", BAD_HEADERS, ids=[h for h, _ in BAD_HEADERS])
def test_validate_out_of_range_header_exits_one(tmp_path, capsys, line, diagnostic):
    path, line_no = _two_photon_with(tmp_path, line)
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:{line_no}:1: {diagnostic}\n"


@pytest.mark.parametrize(
    "scheme, flags, message",
    [
        (TWO, ["--t-end", "inf"], "t_end must be finite and positive, got inf"),
        (TWO, ["--dt", "nan"], "dt must be finite and positive, got nan"),
        (ONE, ["--t-end", "-5"], "t_end must be finite and positive, got -5.0"),
        (ONE, ["--prepare", "Z.S0+wZ01=nan"],
         "preparation amplitude for Z.S0+wZ01 must be finite, got (nan+0j)"),
        (ONE, ["--prepare", "Z.S0+wZ01=abc"],
         "--prepare amplitude 'abc' for Z.S0+wZ01 is not a number"),
        (ONE, ["--prepare", "Z.S0+wZ01=1e-13"],
         "preparation amplitudes are all at or below 1e-12"),
        (ONE, ["--t-end", "1e300", "--dt", "1e-300"],
         "t_end 1e+300 / dt 1e-300 is inf steps, above the ceiling of 10,000,000"),
        (ONE, ["--t-end", "1e9", "--dt", "1e-3"],
         "t_end 1e+09 / dt 0.001 is 1e+12 steps, above the ceiling of 10,000,000"),
    ],
    ids=["t-end-inf", "dt-nan", "t-end-negative", "prepare-nan", "prepare-not-a-number",
         "prepare-tiny", "steps-overflow", "steps-above-ceiling"],
)
def test_evolve_rejects_non_finite_run_inputs(tmp_path, capsys, scheme, flags, message):
    assert main(["evolve", scheme, "--out", str(tmp_path / "r"), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "r.report.json").exists()


def test_evolve_negative_seed_exits_one_before_setup(tmp_path, capsys, monkeypatch):
    import qstitch.cli as cli

    def no_setup(scheme):
        raise AssertionError("a negative seed must be rejected before the basis is built")

    monkeypatch.setattr(cli, "_run_setup", no_setup)
    assert main(["evolve", TWO, "--seed", "-1", "--out", str(tmp_path / "r")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be non-negative, got -1\n"
    assert not (tmp_path / "r.trajectory.csv").exists()


def test_basis_two_photon_and_full_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis", ONE, "--two-photon", "push", "--full"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --full: not allowed with argument --two-photon" in captured.err


def test_basis_over_the_ket_ceiling_exits_one(tmp_path, capsys):
    path, _ = _two_photon_with(tmp_path, "max-photons-per-mode = 1e300")
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["basis", path, "--full"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scenario basis exceeds 16384 kets\n"


def test_evolve_output_in_a_missing_directory_exits_two(tmp_path, capsys):
    csv_path = tmp_path / "missing" / "run.trajectory.csv"
    assert main(["evolve", ONE, "--out", str(tmp_path / "missing" / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {csv_path}: "
                            f"[Errno 2] No such file or directory: '{csv_path}'\n")


def test_evolve_report_path_that_is_a_directory_exits_two(tmp_path, capsys):
    report_path = tmp_path / "run.report.json"
    report_path.mkdir()
    assert main(["evolve", ONE, "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {report_path}: "
                            f"[Errno 21] Is a directory: '{report_path}'\n")


def test_evolve_prepares_a_huge_amplitude(tmp_path, capsys):
    out = []
    for amp in ("1", "1e200"):
        assert main(["evolve", ONE, "--prepare", f"Z.S0+wZ01={amp}",
                     "--out", str(tmp_path / amp)]) == 0
        out.append(json.loads(capsys.readouterr().out))
    assert out[1]["final_populations"] == out[0]["final_populations"]
    assert out[1]["events"] == out[0]["events"]


def test_overflowing_coupling_weight_exits_one(tmp_path, capsys):
    # two finite strengths on one ket pair sum to an infinite weight
    text = (SCHEMES / "one_photon.scheme").read_text(encoding="utf-8").replace(
        "dipole Z.S0 Z.S1 mode=wZ01 strength=0.02",
        "dipole Z.S0 Z.S1 mode=wZ01 strength=1e308\n"
        "dipole Z.S1 Z.S0 mode=wZ01 strength=1e308")
    path = tmp_path / "overflow.scheme"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    for argv in (["operator", str(path)],
                 ["paths", str(path), "--from", "Z.S0+wZ01", "--to", "E.S0+wE01"],
                 ["evolve", str(path), "--out", str(tmp_path / "r")]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: coupling weight (inf+0j) between Z.S0+wZ01 and Z.S1 is not finite\n")


@pytest.mark.parametrize("strength, code", [("1e308", 1), ("1e200", 0)])
def test_evolve_rejects_a_spectrum_whose_phases_overflow(tmp_path, capsys, strength, code):
    # both weights are finite; at 1e308, w * t over the 600-unit run is not
    text = (SCHEMES / "one_photon.scheme").read_text(encoding="utf-8")
    path = tmp_path / "strong.scheme"
    path.write_text(text.replace("mode=wZ01 strength=0.02", f"mode=wZ01 strength={strength}"),
                    encoding="utf-8")
    assert main(["evolve", str(path), "--seed", "7", "--out", str(tmp_path / "r")]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert "nan" not in (tmp_path / "r.trajectory.csv").read_text(encoding="utf-8")
        return
    assert captured.out == ""
    assert captured.err == (
        "error: H + V is too large to propagate: its row sums reach 1e+308, "
        "so phases over t_end 600 or energies would overflow\n")
    assert not list(tmp_path.glob("r.*"))


@pytest.mark.parametrize("scheme", [ONE, TWO])
def test_subcommands_never_build_the_dense_v(tmp_path, capsys, monkeypatch, scheme):
    def refuse(op):
        raise AssertionError("dense V built")

    monkeypatch.setattr(OperatorPair, "V", property(refuse))
    for argv in (["operator", scheme],
                 ["paths", scheme, "--from", "Z.S0+wZ01", "--to", "E.S0+wE01"],
                 ["evolve", scheme, "--out", str(tmp_path / "r")]):
        assert main(argv) == 0
    capsys.readouterr()


def test_evolve_watch_accepts_every_spelling_of_a_ket(tmp_path, capsys):
    for prefix, spelling in (("canonical", "Z.S0+wZ01"), ("spelled", " Z.S0+1*wZ01 ")):
        assert main(["evolve", ONE, "--t-end", "40", "--watch", spelling, "--watch", "Z.S1",
                     "--out", str(tmp_path / prefix)]) == 0
    capsys.readouterr()
    canonical, spelled = ((tmp_path / f"{p}.trajectory.csv").read_bytes()
                          for p in ("canonical", "spelled"))
    assert spelled == canonical
    assert canonical.startswith(b"t,norm,energy,Z.S0+wZ01,Z.S1\r\n")


def test_evolve_unknown_watch_ket_exits_one_before_the_run(tmp_path, capsys, monkeypatch):
    import qstitch.propagator as propagator

    def no_run(*args, **kwargs):
        raise AssertionError("an unknown --watch ket must be rejected before the run")

    monkeypatch.setattr(propagator, "evolve", no_run)
    code = main(["evolve", ONE, "--watch", "Z.S1", "--watch", "Z.S0+2*wZ01",
                 "--out", str(tmp_path / "w")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: unknown --watch ket 'Z.S0+2*wZ01': "
                            "ket Z.S0+2*wZ01 not in basis\n")
    assert not list(tmp_path.iterdir())


def test_evolve_unknown_watch_ket_exits_one_and_writes_nothing(tmp_path, capsys):
    code = main(["evolve", ONE, "--t-end", "10", "--watch", "NOSUCH",
                 "--out", str(tmp_path / "w")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unknown --watch ket")
    assert not list(tmp_path.iterdir())


def test_evolve_sample_every_zero_exits_one(tmp_path, capsys):
    code = main(["evolve", ONE, "--sample-every", "0", "--out", str(tmp_path / "s")])
    captured = capsys.readouterr()
    assert code == 1
    assert (captured.out, captured.err) == ("", "error: sample_every must be at least 1\n")
    assert not list(tmp_path.iterdir())


def test_evolve_without_modes_prepares_the_bare_ground(tmp_path, capsys):
    bare = tmp_path / "bare.scheme"
    bare.write_text(
        "[family A]\n"
        "G j=0 g=0 term=Sigma spin=1 energy=0.0\n"
        "X j=1 g=0 term=Pi spin=1 energy=1.0\n",
        encoding="utf-8",
    )
    assert main(["evolve", str(bare), "--t-end", "10", "--out", str(tmp_path / "bare")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "bare.report.json").read_text(encoding="utf-8"))
    assert report["prepared"] == {"A.G": [1.0, 0.0]}
    assert report["final_populations"] == {"A.G": 1.0}


def test_operator_warns_about_a_dead_coupling_and_exits_zero(tmp_path, capsys):
    dead = tmp_path / "dead.scheme"
    # P and T lie 0.5 apart, far outside the gate: the mixing induces no pair
    dead.write_text(
        "[family A]\n"
        "G j=0 g=0 term=Sigma spin=1 energy=0.0\n"
        "P j=1 g=0 term=Pi spin=1 energy=1.0\n"
        "T j=2 g=0 term=Delta spin=3 energy=1.5\n"
        "[modes]\n"
        "w omega=1.0\n"
        "[couplings]\n"
        "dipole A.G A.P mode=w strength=0.05\n"
        "spinorbit A.P A.T strength=0.01\n",
        encoding="utf-8",
    )
    assert main(["operator", str(dead)]) == 0
    captured = capsys.readouterr()
    assert captured.err == (f"{dead}:9:1: warning: [dead-coupling] spinorbit A.P A.T "
                            "induces no allowed ket pair\n")
    assert json.loads(captured.out)["dimension"] > 0
