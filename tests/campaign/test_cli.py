"""Campaign CLI: run/resume/search with the shared exit-code convention."""

import json

import pytest

from repro.apps import campaign as campaign_cli

# Two fast jobs: enough to exercise run -> report -> resume -> search.
TINY = {
    "nprocs": 2,
    "machines": ["RoadRunner"],
    "networks": ["RoadRunner, eth-internode", "RoadRunner, myr-internode"],
    "fault_plans": ["none"],
    "workloads": [{"workload": "ring", "rounds": 3, "ndoubles": 32}],
}


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def test_run_and_resume_roundtrip(tmp_path, matrix_file, capsys):
    ledger = str(tmp_path / "RUNLOG.jsonl")
    out = tmp_path / "BENCH_campaign.json"
    art = str(tmp_path / "graphs")
    argv = [
        "run",
        "--ledger",
        ledger,
        "--matrix",
        matrix_file,
        "--artifacts",
        art,
        "--out",
        str(out),
    ]
    assert campaign_cli.main(argv) == 0
    text = capsys.readouterr().out
    assert "2 job(s), 0 skipped" in text and "2 ran, 0 failed" in text
    report = json.loads(out.read_text())
    assert report["jobs"]["completed"] == 2
    # Resume over a complete campaign: all skipped, byte-identical report.
    assert campaign_cli.main(argv) == 0
    assert "2 skipped (already complete), 0 ran" in capsys.readouterr().out
    assert json.loads(out.read_text()) == report


def test_run_failed_jobs_gate_exit(tmp_path, capsys):
    matrix = dict(TINY, fault_plans=["crash"])
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(matrix))
    rc = campaign_cli.main(
        ["run", "--ledger", str(tmp_path / "lg.jsonl"), "--matrix", str(mfile)]
    )
    assert rc == 1
    assert "failed: ring/" in capsys.readouterr().err


def test_run_without_matrix_is_usage_error(tmp_path, capsys):
    rc = campaign_cli.main(["run", "--ledger", str(tmp_path / "lg.jsonl")])
    assert rc == 2
    assert "need --matrix FILE or --smoke" in capsys.readouterr().err


def test_run_missing_matrix_file_is_usage_error(tmp_path, capsys):
    rc = campaign_cli.main(
        [
            "run",
            "--ledger",
            str(tmp_path / "lg.jsonl"),
            "--matrix",
            str(tmp_path / "nope.json"),
        ]
    )
    assert rc == 2
    assert "matrix file not found" in capsys.readouterr().err


def test_run_invalid_matrix_contents_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY, machines=["NoSuchMachine"])))
    rc = campaign_cli.main(
        ["run", "--ledger", str(tmp_path / "lg.jsonl"), "--matrix", str(bad)]
    )
    assert rc == 2
    assert "unknown machine" in capsys.readouterr().err


def test_search_over_recorded_campaign(tmp_path, matrix_file, capsys):
    ledger = str(tmp_path / "RUNLOG.jsonl")
    art = str(tmp_path / "graphs")
    assert (
        campaign_cli.main(
            [
                "run",
                "--ledger",
                ledger,
                "--matrix",
                matrix_file,
                "--artifacts",
                art,
            ]
        )
        == 0
    )
    capsys.readouterr()
    out = tmp_path / "SEARCH.json"
    rc = campaign_cli.main(
        [
            "search",
            "--ledger",
            ledger,
            "--artifacts",
            art,
            "--target",
            "inf",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "cheapest meeting" in text and "roadrunner-ethernet" in text
    result = json.loads(out.read_text())
    assert result["cheapest"]["name"] == "roadrunner-ethernet"
    # Infeasible target: the gate exit, not a usage error.
    rc = campaign_cli.main(
        ["search", "--ledger", ledger, "--artifacts", art, "--target", "0"]
    )
    assert rc == 1
    assert "no candidate meets target" in capsys.readouterr().err


def test_search_missing_inputs_are_usage_errors(tmp_path, capsys):
    rc = campaign_cli.main(
        [
            "search",
            "--ledger",
            str(tmp_path / "nope.jsonl"),
            "--artifacts",
            str(tmp_path),
            "--target",
            "1",
        ]
    )
    assert rc == 2
    ledger = tmp_path / "lg.jsonl"
    ledger.write_text("")
    rc = campaign_cli.main(
        [
            "search",
            "--ledger",
            str(ledger),
            "--artifacts",
            str(tmp_path / "noart"),
            "--target",
            "1",
        ]
    )
    assert rc == 2
    rc = campaign_cli.main(
        [
            "search",
            "--ledger",
            str(ledger),
            "--artifacts",
            str(tmp_path),
            "--target",
            "1",
        ]
    )
    assert rc == 2  # ledger exists but holds no recorded graphs
    err = capsys.readouterr().err
    assert err.count("error:") == 3


def _run_argv(ledger, matrix_file, art, out):
    return [
        "run", "--ledger", ledger, "--matrix", matrix_file,
        "--artifacts", art, "--out", str(out),
    ]


def test_torn_ledger_tail_resumes_to_the_same_report(tmp_path, matrix_file, capsys):
    ledger = tmp_path / "RUNLOG.jsonl"
    out = tmp_path / "BENCH_campaign.json"
    argv = _run_argv(str(ledger), matrix_file, str(tmp_path / "graphs"), out)
    assert campaign_cli.main(argv) == 0
    report = json.loads(out.read_text())
    capsys.readouterr()
    # A kill mid-append leaves the last record cut short.
    ledger.write_bytes(ledger.read_bytes()[:-40])
    assert campaign_cli.main(argv) == 0
    io = capsys.readouterr()
    assert "1 skipped (already complete), 1 ran, 0 failed" in io.out
    assert "skipping torn ledger record" in io.err
    assert json.loads(out.read_text()) == report


def test_corrupt_ledger_line_is_usage_error(tmp_path, matrix_file, capsys):
    ledger = tmp_path / "RUNLOG.jsonl"
    art = str(tmp_path / "graphs")
    argv = _run_argv(str(ledger), matrix_file, art, tmp_path / "B.json")
    assert campaign_cli.main(argv) == 0
    first, rest = ledger.read_text().split("\n", 1)
    ledger.write_text(first[:-1] + "\n" + rest)  # a damaged record mid-file
    capsys.readouterr()
    assert campaign_cli.main(argv) == 2
    search = ["search", "--ledger", str(ledger), "--artifacts", art, "--target", "1"]
    assert campaign_cli.main(search) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(e.startswith("error: ") and "RUNLOG.jsonl:1: corrupt" in e for e in err)
