import json

import pytest

import sndp.cli
from sndp.cli import main
from sndp.instances import serialize_instance


@pytest.fixture
def paths(tmp_path, tri3a, tri3b):
    pa = tmp_path / "tri3a.json"
    pa.write_text(serialize_instance(tri3a))
    pb = tmp_path / "tri3b.json"
    pb.write_text(serialize_instance(tri3b))
    return pa, pb, tmp_path


def test_solve_writes_report(paths):
    pa, _, tmp = paths
    out = tmp / "out.json"
    assert main(["solve", "-i", str(pa), "--method", "dsg",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["objective"] == pytest.approx(5.0, abs=1e-6)
    assert doc["design"]["built"] == [0, 1, 2]
    assert doc["method"] == "dsg"


def test_solve_is_deterministic_outside_timings(paths):
    pa, _, tmp = paths
    outs = []
    for k in range(2):
        out = tmp / f"det{k}.json"
        assert main(["solve", "-i", str(pa), "--method", "bd",
                     "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc.pop("timings")
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_solve_each_method(paths):
    pa, pb, tmp = paths
    for method in ("ef", "bd", "dsg"):
        out = tmp / f"m_{method}.json"
        assert main(["solve", "-i", str(pb), "--method", method,
                     "-o", str(out)]) == 0
        assert json.loads(out.read_text())["objective"] \
            == pytest.approx(45.0, abs=1e-6)


def test_unknown_method_is_usage_error(paths, capsys):
    pa, _, _ = paths
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-i", str(pa), "--method", "xyz"])
    assert exc.value.code == 2


def test_missing_instance_is_usage_error(tmp_path):
    rc = main(["solve", "-i", str(tmp_path / "none.json")])
    assert rc == 2


def test_invalid_document_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [{"id": 1, "b": 3.0}], "edges": [], '
                   '"budget": 1.0}')
    assert main(["solve", "-i", str(bad)]) == 2


def test_infeasible_cap_is_solver_error(paths):
    _, pb, tmp = paths
    rc = main(["solve", "-i", str(pb), "--shed-cap", "0.0",
               "-o", str(tmp / "x.json")])
    assert rc == 1


def test_out_of_memory_is_solver_error(paths, monkeypatch, capsys):
    pa, _, tmp = paths
    def out_of_memory(inst, **kwargs):
        raise MemoryError
    monkeypatch.setattr(sndp.cli, "solve_delayed", out_of_memory)
    rc = main(["solve", "-i", str(pa), "--method", "dsg",
               "-o", str(tmp / "x.json")])
    assert rc == 1
    assert "out of memory" in capsys.readouterr().err


def test_verify_reports_failure_verdict(paths, capsys):
    _, pb, tmp = paths
    out = tmp / "sol.json"
    assert main(["solve", "-i", str(pb), "-o", str(out)]) == 0
    ver = tmp / "ver.json"
    assert main(["verify", "-i", str(pb), "--design", str(out),
                 "-o", str(ver)]) == 0
    report = json.loads(ver.read_text())
    assert report["passed"] is False
    assert report["worst_shed"] == pytest.approx(0.4, abs=1e-6)
    assert "fail, worst shed 0.4" in capsys.readouterr().err


def test_gen_round_trips_and_is_seed_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--family", "grid", "--nodes", "4", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert len(doc["nodes"]) == 4 and len(doc["edges"]) == 4


def test_sweep_csv(paths):
    _, pb, tmp = paths
    out = tmp / "sweep.csv"
    assert main(["sweep", "-i", str(pb), "--eps", "0.5,1.0",
                 "--budgets", "1", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "allowed_shed,budget,build_cost,feasible,error"
    assert lines[1].startswith("0.5,1,5")
    assert lines[2].startswith("1,1,0")


def test_bench_csv(paths):
    pa, pb, tmp = paths
    out = tmp / "bench.csv"
    assert main(["bench", "-i", str(pa), str(pb), "--methods", "ef,dsg",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[1].split(",")[4] == "ef"


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for sub in ("solve", "verify", "gen", "sweep", "bench"):
        assert sub in text


def test_subcommand_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--method", "--shed-cap", "--scenario-cap", "--timeout"):
        assert flag in text


def test_removed_flags_are_usage_errors(paths, tmp_path, capsys):
    pa, _, _ = paths
    design = tmp_path / "design.json"
    design.write_text('{"built": [0, 1, 2]}')
    commands = (
        ["solve", "-i", str(pa)],
        ["verify", "-i", str(pa), "--design", str(design)],
        ["sweep", "-i", str(pa), "--eps", "0", "--budgets", "1"],
        ["bench", "-i", str(pa)],
    )
    for base in commands:
        for extra in (["--threads", "2"], ["--oracle", "general"],
                      ["--seed", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(base + extra)
            assert exc.value.code == 2
    # flags that verify and sweep parsed but never read
    verify, sweep = commands[1], commands[2]
    for extra in (verify + ["--timeout", "5"], verify + ["--penalty", "9"],
                  sweep + ["--scenario-cap", "9"], sweep + ["--budget", "1"],
                  sweep + ["--penalty", "9"]):
        with pytest.raises(SystemExit) as exc:
            main(extra)
        assert exc.value.code == 2
    # solve and bench keep theirs
    capsys.readouterr()
    for base in (commands[0], commands[3]):
        for flag in ("--timeout", "--penalty", "--scenario-cap", "--budget"):
            with pytest.raises(SystemExit) as exc:
                main(base + [flag, "x"])
            assert exc.value.code == 2
            assert f"argument {flag}" in capsys.readouterr().err
    out = tmp_path / "gen.json"
    assert main(["gen", "--family", "grid", "--nodes", "4", "--seed", "7",
                 "-o", str(out)]) == 0
    assert json.loads(out.read_text())["edges"]


def test_iteration_log_written(paths):
    _, pb, tmp = paths
    log = tmp / "iters.jsonl"
    assert main(["solve", "-i", str(pb), "--method", "dsg",
                 "-o", str(tmp / "o.json"), "--iteration-log",
                 str(log)]) == 0
    lines = log.read_text().splitlines()
    assert lines
    assert all(json.loads(line) for line in lines)
