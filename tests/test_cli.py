"""End-to-end command-line behavior and report determinism."""

import csv
import json

import pytest

from qstitch.cli import main

from conftest import SCHEMES
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


@pytest.mark.parametrize("scheme", [ONE, TWO])
@pytest.mark.parametrize("watch", [None, ["Z.S1", "Z.S0+wZ01"]])
def test_csv_bytes_match_per_cell_writer(tmp_path, scheme, watch):
    from qstitch.cli import CSV_BLOCK, _default_preparation, _load, _run_setup, _write_csv
    from qstitch import evolve, prepare

    s, _, _ = _load(scheme)
    b, op = _run_setup(s)
    traj = evolve(prepare(b, {_default_preparation(s, b): 1.0}), op, pulses=s.pulses,
                  detectors=s.detectors, t_end=600.0, dt=0.25, sample_every=4,
                  collapse=False)
    assert len(traj.times) > 2 * CSV_BLOCK + 1  # several blocks, the last one partial
    _write_csv(tmp_path / "fast.csv", traj, watch)
    _per_cell_csv(tmp_path / "ref.csv", traj, watch)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
    ],
    ids=["t-end-inf", "dt-nan", "t-end-negative", "prepare-nan"],
)
def test_evolve_rejects_non_finite_run_inputs(tmp_path, capsys, scheme, flags, message):
    assert main(["evolve", scheme, "--out", str(tmp_path / "r"), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "r.report.json").exists()


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
