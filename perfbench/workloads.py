"""The benchmark's workloads: job cycles, the jobs, output checks and probes.

A job is one complete user task run in-process, from scheme text to report
bytes, through the same library calls the ``evolve`` and ``paths`` CLI
subcommands make (``qstitch.cli.cmd_evolve`` and ``cmd_paths``). Every
call into a layer goes through the tracer, so a traced run times each one.
A workload is a seeded cycle of jobs; the loop in ``run.py`` repeats it.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from qstitch import (
    assemble,
    build_graph,
    enumerate_qpaths,
    evolve,
    ket_name,
    parse_scheme,
    prepare,
    reachable,
    reachable_set,
    scenario_basis,
    validate_scheme,
)
from qstitch import cli
from qstitch.propagator import FLOOR, monitored_kets
from qstitch.scheme import HBAR_EV_FS

from synth import REFERENCE_KETS, synthetic_scheme

ROOT = Path(__file__).resolve().parents[1]

T_END, DT, SAMPLE_EVERY = 600.0, 0.25, 4
SYNTH_T_END = 400.0
EMISSION_T = 437.0  # AC4/AC8: first emE firing of the two-photon scenario
MAX_NORM_DRIFT = 1e-10
SHIPPED_KETS = {1: 57, 2: 86, 3: 115}  # two_photon basis size per photon cap
PUMPED = "Z.S0+wZ01"
OPEN_TARGET = "E.S0+wE01+wEt"
CLOSED_TARGET = "E.S0+wE01"


@dataclass
class Job:
    """One task: the scheme text, its parameters and what its output must show."""

    label: str
    scheme_path: str
    text: str
    params: dict
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    report: dict
    data: str
    scheme: object
    b: object
    op: object
    graph: object
    start: int
    traj: object = None
    csv: str = ""
    paths: Optional[list] = None


def shipped_text(name: str, cap: int = 1) -> str:
    text = (ROOT / "schemes" / f"{name}.scheme").read_text(encoding="utf-8")
    if cap != 1:
        text = text.replace("max-photons-per-mode = 1", f"max-photons-per-mode = {cap}")
    return text


def _setup(tr, text: str):
    parsed = tr.call("scheme.parse", parse_scheme, text)
    if not parsed.ok:
        raise ValueError(f"scheme does not parse: {parsed.diagnostics[0]}")
    scheme = parsed.scheme
    diags = tr.call("scheme.validate", validate_scheme, scheme)
    b = tr.call("basis.scenario", scenario_basis, scheme)
    op = tr.call("operators.assemble", assemble, b, scheme)
    return scheme, diags, b, op


# ---------------------------------------------------------------------------
# Jobs (mirror qstitch.cli.cmd_evolve and cmd_paths)
# ---------------------------------------------------------------------------


class MemoryPath:
    """Stands in for the CSV path, so ``cli._write_csv`` formats into memory.

    In-process jobs keep their output in memory, because the host's disk
    would add noise that the speed scale does not track. The CLI runs write
    their files as usual.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.text = ""

    def open(self, *args, **kwargs) -> io.StringIO:
        return _Sink(self)

    def __str__(self) -> str:
        return self.name


class _Sink(io.StringIO):
    def __init__(self, path: MemoryPath) -> None:
        super().__init__()
        self.path = path

    def close(self) -> None:
        self.path.text = self.getvalue()
        super().close()


def evolve_job(tr, job: Job) -> Outcome:
    p = job.params
    digest = hashlib.sha256(job.text.encode("utf-8")).hexdigest()
    scheme, diags, b, op = _setup(tr, job.text)
    tr.call("operators.eig", op.eig)
    graph = tr.call("pathways.build_graph", build_graph, op)
    prep_spec = {cli._default_preparation(scheme, b): 1.0}
    state = tr.call("propagator.prepare", prepare, b, prep_spec)
    start = int(state.populations().argmax())
    verdicts = {}
    for d in scheme.detectors:
        rows = []
        for ki in monitored_kets(b, d):
            ok, witness = tr.call("pathways.reachable", reachable, graph, b, start, ki,
                                  scheme.pulses)
            rows.append({"ket": ket_name(b.kets[ki]), "reachable": ok,
                         "witness": (tr.call("pathways.to_dict", witness.to_dict, b)
                                     if witness is not None else None)})
        verdicts[d.id] = rows
    traj = tr.call("propagator.evolve", evolve, state, op, pulses=scheme.pulses,
                   detectors=scheme.detectors, t_end=p["t_end"], dt=DT,
                   sample_every=SAMPLE_EVERY, detect_mode=p["detect_mode"],
                   collapse=p["collapse"] == "on", seed=p["seed"])
    with tr.span("cli.report"):
        csv_path = MemoryPath(f"{job.label}.trajectory.csv")
        cli._write_csv(csv_path, traj)
        final = traj.populations[-1]
        em = traj.emission
        report = {
            "schema": 1,
            "scheme": {"path": job.scheme_path, "sha256": digest, "unit": scheme.unit},
            "seed": p["seed"],
            "parameters": {"t_end": p["t_end"], "dt": DT, "sample_every": SAMPLE_EVERY,
                           "detect_mode": p["detect_mode"], "collapse": p["collapse"]},
            "basis_size": len(b),
            "diagnostics": [str(d) for d in diags],
            "prepared": {n: [complex(v).real, complex(v).imag] for n, v in prep_spec.items()},
            "pulses": [{"mode": u.mode.id, "time": u.time} for u in scheme.pulses],
            "reachability": verdicts,
            "events": traj.events,
            "emission": ({"time": em.time, "detector": em.detector,
                          "ket": traj.ket_names[em.ket], "mode": em.mode,
                          "population": em.population, "collapsed": em.collapse_applied}
                         if em else None),
            "final_populations": {traj.ket_names[i]: float(final[i])
                                  for i in range(len(final)) if final[i] > FLOOR},
            "trajectory_csv": str(csv_path),
        }
        if scheme.unit == "eV":
            report["time_unit_fs"] = HBAR_EV_FS
        data = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return Outcome(report, data, scheme, b, op, graph, start, traj=traj,
                   csv=csv_path.text)


def paths_job(tr, job: Job) -> Outcome:
    p = job.params
    digest = hashlib.sha256(job.text.encode("utf-8")).hexdigest()
    scheme, _, b, op = _setup(tr, job.text)
    graph = tr.call("pathways.build_graph", build_graph, op)
    start, target = b.find(p["from"]), b.find(p["to"])
    ok, witness = tr.call("pathways.reachable", reachable, graph, b, start, target,
                          scheme.pulses)
    paths, truncated = tr.call("pathways.enumerate", enumerate_qpaths, graph, b, start,
                               target, scheme.pulses, max_len=p["max_len"])
    with tr.span("cli.report"):
        report = {
            "schema": 1,
            "scheme": {"path": job.scheme_path, "sha256": digest},
            "basis_size": len(b),
            "from": ket_name(b.kets[start]),
            "to": ket_name(b.kets[target]),
            "pulses": [{"mode": u.mode.id, "time": u.time} for u in scheme.pulses],
            "reachable": ok,
            "witness": (tr.call("pathways.to_dict", witness.to_dict, b)
                        if witness is not None else None),
            "paths": [tr.call("pathways.to_dict", q.to_dict, b) for q in paths],
            "truncated": truncated,
        }
        data = json.dumps(report, sort_keys=True, indent=2)
    return Outcome(report, data, scheme, b, op, graph, start, paths=paths)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_report(job: Job, report: dict) -> list[str]:
    """Checks on a report as a user receives it; shared with the CLI runs."""
    e = job.expect
    bad = []
    if "kets" in e and report["basis_size"] != e["kets"]:
        bad.append(f"basis size {report['basis_size']} != reference {e['kets']}")
    if "prepared" in e and report["events"][0]["kets"] != [e["prepared"]]:
        bad.append(f"prepared {report['events'][0]['kets']}, expected {e['prepared']}")
    if "emission_at" in e:
        hits = [ev for ev in report["events"]
                if ev["type"] == "emission" and ev["detector"] == "emE"]
        if len(hits) != 1 or abs(hits[0]["time"] - e["emission_at"]) > 1e-9:
            bad.append(f"emE emissions {[ev['time'] for ev in hits]}, "
                       f"expected one at {e['emission_at']}")
    if e.get("silent"):
        if report["emission"] is not None:
            bad.append(f"unexpected emission at {report['emission']['time']}")
        if any(v["reachable"] for v in report["reachability"].get("emE", [])):
            bad.append("an emE precursor is reachable on the closed channel")
    if "pulse_at" in e:
        times = [ev["time"] for ev in report["events"] if ev["type"] == "pulse"]
        if times != [e["pulse_at"]]:
            bad.append(f"pulse log {times}, expected one pulse at {e['pulse_at']}")
    if "paths" in e:
        if len(report["paths"]) != e["paths"]:
            bad.append(f"{len(report['paths'])} paths != reference {e['paths']}")
        for q in report["paths"]:
            kets = q["kets"]
            if kets[0] != report["from"] or kets[-1] != report["to"]:
                bad.append(f"path {kets[0]} .. {kets[-1]} misses its end points")
                break
            if len(set(kets)) != len(kets):
                bad.append(f"path repeats a ket: {kets}")
                break
    if "reachable" in e and report["reachable"] != e["reachable"]:
        bad.append(f"reachable {report['reachable']}, expected {e['reachable']}")
    return bad


def norm_drift(traj) -> float:
    return float(np.abs(1.0 - traj.norms).max())


def energy_drift(traj) -> float:
    """Largest energy spread within one coherent segment.

    Pulses and a collapse are lab transfers that change the energy, so
    segments split at each pulse time and the collapse sample is dropped.
    """
    t, e = traj.times, traj.energies
    if traj.emission is not None and traj.emission.collapse_applied:
        t, e = t[:-1], e[:-1]
    cuts = np.array([ev["time"] for ev in traj.events if ev["type"] == "pulse"])
    seg = np.searchsorted(cuts, t, side="left")
    return max(float(np.ptp(e[seg == s])) for s in np.unique(seg))


def check_outcome(job: Job, out: Outcome, reruns: dict) -> list[str]:
    """All checks on one in-process job; ``reruns`` holds earlier report bytes."""
    bad = check_report(job, out.report)
    if out.traj is not None and norm_drift(out.traj) > MAX_NORM_DRIFT:
        bad.append(f"norm drift {norm_drift(out.traj):.3g} > {MAX_NORM_DRIFT:g}")
    key = job.expect.get("rerun_key")
    if key is not None:
        first = reruns.setdefault(key, out.data)
        if first != out.data:
            bad.append(f"report differs from an earlier run of {key}")
    return bad


# ---------------------------------------------------------------------------
# Probes: sizes recorded per job in a traced run, outside the job's span
# ---------------------------------------------------------------------------


def _components(n: int, edges) -> list[int]:
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in edges:
        parent[find(e.a)] = find(e.b)
    sizes: dict[int, int] = {}
    for i in range(n):
        sizes[find(i)] = sizes.get(find(i), 0) + 1
    return sorted(sizes.values(), reverse=True)


def probe(tr, job: Job, out: Outcome) -> dict[str, float]:
    b, op = out.b, out.op
    n = len(b)
    comps = _components(n, out.graph.edges)
    reach = tr.call("pathways.reachable_set", reachable_set, out.graph, b, out.start,
                    out.scheme.pulses)
    sizes = {
        "basis.kets": n,
        "basis.entangled_kets": sum(k.sector == "entangled" for k in b.kets),
        "operators.v_nnz": int(np.count_nonzero(op.V)),
        "operators.dense_bytes": n * n * 16,
        "pathways.components": len(comps),
        "pathways.largest_component": comps[0],
        "pathways.reach_share": len(reach) / n,
        "cli.report_bytes": len(out.data.encode("utf-8")) + len(out.csv.encode("utf-8")),
    }
    if out.paths is not None:
        sizes["pathways.paths"] = len(out.paths)
        sizes["pathways.truncated"] = float(out.report["truncated"])
    if out.traj is not None:
        steps = round((out.traj.times[-1] - out.traj.times[0]) / DT)
        sizes["propagator.steps"] = steps
        sizes["propagator.events"] = len(out.traj.events)
        sizes["propagator.norm_drift"] = norm_drift(out.traj)
        sizes["propagator.energy_drift"] = energy_drift(out.traj)
    return sizes


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _evolve_params(seed=None, detect_mode="threshold", collapse="on", t_end=T_END) -> dict:
    return {"seed": seed, "detect_mode": detect_mode, "collapse": collapse, "t_end": t_end}


class ShippedEvolve:
    name = "shipped_evolve"
    run = staticmethod(evolve_job)
    tail_pct = 80  # inside the cap-2/stochastic group; p90 falls on the cap-3 jobs
    cli_reps = 9  # the CLI run is short, so more runs are cheap

    def __init__(self) -> None:
        self.one = shipped_text("one_photon")
        self.two = {cap: shipped_text("two_photon", cap) for cap in (1, 2, 3)}

    def cycle(self, rng: np.random.Generator) -> list[Job]:
        one_path, two_path = "schemes/one_photon.scheme", "schemes/two_photon.scheme"
        fires = {"emission_at": EMISSION_T}
        seed = int(rng.integers(2**31))
        stochastic = _evolve_params(seed=seed, detect_mode="stochastic")
        jobs = [
            Job("one_photon", one_path, self.one, _evolve_params(),
                {"silent": True, "kets": 16}),
            Job("two_photon", two_path, self.two[1], _evolve_params(),
                {**fires, "kets": SHIPPED_KETS[1]}),
            Job("two_photon.nocollapse", two_path, self.two[1],
                _evolve_params(collapse="off"), {**fires, "kets": SHIPPED_KETS[1]}),
            Job("two_photon.cap2", two_path, self.two[2], _evolve_params(),
                {**fires, "kets": SHIPPED_KETS[2]}),
            Job("two_photon.cap3", two_path, self.two[3], _evolve_params(),
                {**fires, "kets": SHIPPED_KETS[3]}),
        ]
        for job in jobs:
            job.expect["rerun_key"] = job.label
        # the stochastic variant runs twice with one seed: the rerun check
        for _ in range(2):
            jobs.append(Job("two_photon.stochastic", two_path, self.two[1], stochastic,
                            {"kets": SHIPPED_KETS[1], "rerun_key": f"stochastic.{seed}"}))
        order = rng.permutation(len(jobs) - 1)
        return [jobs[i] for i in order] + [jobs[-1]]

    def cli_job(self, rng, out_dir: Path) -> tuple[list[str], Job]:
        argv = ["evolve", "schemes/two_photon.scheme", "--seed", "7",
                "--out", str(out_dir / "cli_evolve")]
        return argv, Job("cli.evolve", "", "", {}, {"emission_at": EMISSION_T,
                                                   "kets": SHIPPED_KETS[1]})


class SyntheticScale:
    name = "synthetic_scale"
    run = staticmethod(evolve_job)
    tail_pct = 90  # inside the N=8 group
    cli_reps = 9
    # Dense operators of 256 kets and more (N >= 16) outgrow a core's cache;
    # on a shared host their speed then follows other tenants' load, and
    # runs spread by 20-35% even after speed scaling.
    sizes = (2, 4, 8)

    def job(self, n: int, rng: np.random.Generator) -> Job:
        return Job(f"synthetic.N{n}", f"synthetic_N{n}.scheme", synthetic_scheme(n, rng),
                   _evolve_params(t_end=SYNTH_T_END),
                   {"kets": REFERENCE_KETS[n], "pulse_at": 200.0, "prepared": "F0.S0+w0"})

    def cycle(self, rng: np.random.Generator) -> list[Job]:
        return [self.job(int(n), rng) for n in rng.permutation(self.sizes)]

    def cli_job(self, rng, out_dir: Path) -> tuple[list[str], Job]:
        job = self.job(8, rng)
        path = out_dir / "cli_synthetic_N8.scheme"
        path.write_text(job.text, encoding="utf-8")
        argv = ["evolve", str(path), "--t-end", str(SYNTH_T_END),
                "--out", str(out_dir / "cli_synthetic")]
        return argv, job


class ShippedPaths:
    name = "shipped_paths"
    run = staticmethod(paths_job)
    tail_pct = 75  # inside the closed-query group
    cli_reps = 5

    def __init__(self) -> None:
        self.one = shipped_text("one_photon")
        self.two = shipped_text("two_photon")

    def cycle(self, rng: np.random.Generator) -> list[Job]:
        two_path = "schemes/two_photon.scheme"

        def query(label, text, path, to, max_len, expect):
            return Job(label, path, text, {"from": PUMPED, "to": to, "max_len": max_len},
                       expect)

        jobs = [
            query("open.L8", self.two, two_path, OPEN_TARGET, 8, {"paths": 5}),
            query("open.L10", self.two, two_path, OPEN_TARGET, 10, {"paths": 130}),
            query("open.L12", self.two, two_path, OPEN_TARGET, 12, {"paths": 1241}),
            query("closed.L12", self.two, two_path, CLOSED_TARGET, 12, {"paths": 0}),
            query("one_photon", self.one, "schemes/one_photon.scheme", CLOSED_TARGET, 12,
                  {"paths": 0, "reachable": False}),
        ]
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def cli_job(self, rng, out_dir: Path) -> tuple[list[str], Job]:
        argv = ["paths", "schemes/two_photon.scheme", "--from", PUMPED, "--to", OPEN_TARGET]
        return argv, Job("cli.paths", "", "", {}, {"paths": 1241, "reachable": True})


WORKLOADS = {w.name: w for w in (ShippedEvolve, SyntheticScale, ShippedPaths)}
