"""CLI smoke suite: every documented ``repro`` subcommand runs end to end.

Each case invokes :func:`repro.cli.main` in-process at the smallest sizes
that still exercise the real code paths, and asserts exit code 0 plus the
stdout markers a user would look for.  This is the regression net that
keeps the README/SCENARIOS command lines from rotting: if a subcommand
grows a required flag or changes its output vocabulary, this suite fails
before the docs lie.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

#: (test id, argv, required stdout markers)
CASES = [
    (
        "keygen",
        ["keygen", "--s", "4"],
        ["s = 4", "on-chain pk footprint"],
    ),
    (
        "audit",
        ["audit", "--size", "600", "--rounds", "1", "--s", "4", "--k", "2"],
        ["contract closed", "PASS", "gas="],
    ),
    (
        "engine",
        ["checkpoint", "--owners", "1", "--files", "2", "--epochs", "1",
         "--workers", "1", "--size", "500", "--s", "4", "--k", "3"],
        ["fleet: 1 owners x 2 files", "audits/s", "batch OK"],
    ),
    (
        "engine-lanes",
        ["checkpoint", "--owners", "1", "--files", "2", "--epochs", "1",
         "--workers", "1", "--size", "500", "--s", "4", "--k", "3",
         "--lanes", "2"],
        ["lanes: 2", "batch OK"],
    ),
    (
        "checkpoint",
        ["checkpoint", "--owners", "1", "--files", "2", "--epochs", "1",
         "--workers", "1", "--size", "500", "--s", "4", "--k", "3"],
        ["1 checkpoint tx", "light client", "checkpoint log:"],
    ),
    (
        "checkpoint-fraud",
        ["checkpoint", "--owners", "1", "--files", "2", "--epochs", "1",
         "--workers", "1", "--size", "500", "--s", "4", "--k", "3",
         "--fraud"],
        ["fraud proof", "slashed"],
    ),
    (
        "shard",
        ["checkpoint", "--lanes", "2", "--owners", "1", "--files", "2",
         "--epochs", "1", "--workers", "1", "--size", "500", "--s", "4",
         "--k", "3"],
        ["fabric: 2 lanes", "super-commitment", "per-lane gas totals:"],
    ),
    (
        "attack-privacy",
        ["attack", "--s", "4", "--k", "2"],
        ["transcripts", "NON-PRIVATE"],
    ),
    (
        "attack-selective",
        ["attack", "--strategy", "selective", "--s", "4", "--k", "3",
         "--epochs", "2", "--trials", "200", "--rho", "0.3"],
        ["selective-storage sampling", "zero false accepts: True"],
    ),
    (
        "attack-onchain",
        ["attack", "--strategy", "replay", "--onchain", "--s", "4", "--k", "3",
         "--rounds", "2"],
        ["chain explorer export"],
    ),
    (
        "lifecycle",
        ["lifecycle", "--years", "0.5", "--epochs-per-year", "2",
         "--files", "1", "--size", "400", "--shards", "3", "--needed", "2",
         "--providers", "6", "--lanes", "2", "--s", "3", "--k", "2"],
        ["lifecycle:", "event trail", "fabric state_hash",
         "all files retrievable: True", "model projection"],
    ),
    (
        "congest",
        ["congest", "--storm", "--griefer", "--lanes", "2", "--blocks", "4",
         "--senders", "4", "--seed", "1"],
        ["congestion:", "priority inversions: 0", "watermark held: True",
         "decayed to floor", "griefer caught: True"],
    ),
    (
        "serve-probe",
        ["serve", "--lanes", "2", "--fleet", "2", "--epochs", "1",
         "--size", "500", "--s", "4", "--k", "3", "--probe",
         "--mine-interval", "0"],
        ["audit service on", "probe node_status", "probe fee_suggest",
         "probe checkpoint_get", "probe: OK"],
    ),
    (
        "serve-probe-concurrent",
        ["serve", "--lanes", "2", "--fleet", "2", "--epochs", "1",
         "--size", "500", "--s", "4", "--k", "3", "--probe",
         "--workers", "2", "--mine-interval", "0"],
        ["(concurrent)", "probe: OK"],
    ),
    (
        "serve-probe-metrics",
        ["serve", "--lanes", "2", "--fleet", "2", "--epochs", "1",
         "--size", "500", "--s", "4", "--k", "3", "--probe",
         "--metrics-port", "0", "--mine-interval", "0"],
        ["prometheus metrics on", "probe metrics_get", "probe /metrics",
         "probe: OK"],
    ),
    (
        "top-demo",
        ["top", "--demo", "--iterations", "1"],
        ["repro top @", "epochs", "audits", "mempool depth", "lanes",
         "verify  p50"],
    ),
    (
        "da-sample",
        ["da-sample", "--lanes", "2", "--fleet", "2", "--epochs", "1",
         "--size", "500", "--s", "4", "--k", "3", "--chunks", "16",
         "--data-chunks", "4", "--samples", "12", "--withhold", "0.25",
         "--fraud"],
        ["DA commitments for epoch 0", "available", "DETECTED",
         "reconstruction:", "replay -> consistent", "fraud proof",
         "slashed"],
    ),
    (
        "models",
        ["models", "--users", "1000"],
        ["chain throughput", "users/provider"],
    ),
]


@pytest.mark.parametrize(
    "argv,markers",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_subcommand_runs_clean(argv, markers, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    for marker in markers:
        assert marker in out, f"{argv[0]}: missing stdout marker {marker!r}"


def test_prepare_subcommand(tmp_path, capsys):
    target = tmp_path / "archive.bin"
    target.write_bytes(bytes(range(256)) * 4)
    assert main(["prepare", "--file", str(target), "--s", "4", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "chunks (s=4)" in out
    assert "public key:" in out


def test_keygen_writes_key_file(tmp_path, capsys):
    out_path = tmp_path / "keys.bin"
    assert main(["keygen", "--s", "3", "--out", str(out_path)]) == 0
    assert out_path.exists() and out_path.stat().st_size > 0
    assert "written to" in capsys.readouterr().out


def test_lifecycle_persist_and_resume(tmp_path, capsys):
    persist = str(tmp_path / "state")
    base = ["lifecycle", "--years", "0.5", "--epochs-per-year", "2",
            "--files", "1", "--size", "400", "--shards", "3", "--needed", "2",
            "--providers", "6", "--lanes", "2", "--s", "3", "--k", "2",
            "--persist", persist]
    assert main(base) == 0
    first = capsys.readouterr().out
    assert main(["lifecycle", "--persist", persist, "--resume"]) == 0
    second = capsys.readouterr().out

    def grab(text, prefix):
        return [line for line in text.splitlines() if line.startswith(prefix)]

    assert grab(first, "fabric state_hash") == grab(second, "fabric state_hash")
    assert grab(first, "event trail") == grab(second, "event trail")


def test_lifecycle_resume_on_a_damaged_directory_is_one_line_and_nonzero(
    tmp_path, capsys
):
    persist = tmp_path / "state"
    assert main(["lifecycle", "--years", "0.5", "--epochs-per-year", "2",
                 "--files", "1", "--size", "400", "--shards", "3", "--needed", "2",
                 "--providers", "6", "--lanes", "2", "--s", "3", "--k", "2",
                 "--persist", str(persist)]) == 0
    wal = persist / "lanes" / "lane-000" / "wal.log"
    data = bytearray(wal.read_bytes())
    data[len(data) // 2] ^= 0xFF
    wal.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["lifecycle", "--persist", str(persist), "--resume"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "LifecycleResumeError" in line and "corrupt at byte" in line
    # Nothing to resume from at all is the same one-line refusal.
    assert main(["lifecycle", "--persist", str(tmp_path / "absent"), "--resume"]) == 1
    assert "FileNotFoundError" in capsys.readouterr().err


def test_every_documented_subcommand_is_smoked():
    """The parser's command set and this suite must stay in sync."""
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if hasattr(action, "choices") and action.choices
    )
    smoked = {case[1][0] for case in CASES} | {"prepare"}
    assert set(subparsers.choices) == smoked


def test_bad_arguments_exit_nonzero():
    assert main(["checkpoint", "--epochs", "0"]) == 2
    assert main(["checkpoint", "--lanes", "0"]) == 2
    assert main(["lifecycle", "--years", "-1"]) == 2
    assert main(["lifecycle", "--churn", "1.0"]) == 2
    assert main(["lifecycle", "--flake", "1.0"]) == 2
    assert main(["congest", "--blocks", "0"]) == 2
    for command in ("checkpoint", "serve"):
        assert main([command, "--workers", "-1"]) == 2
        assert main([command, "--s", "0"]) == 2
        assert main([command, "--k", "0"]) == 2
    assert main(["lifecycle", "--persist", "unused", "--resume", "--workers", "-1"]) == 2


def test_bad_hazard_rate_writes_nothing_under_persist(tmp_path, capsys):
    persist = tmp_path / "run"
    assert main(["lifecycle", "--churn", "1.0", "--persist", str(persist)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "churn" in err
    assert not persist.exists() or not any(persist.rglob("*"))


def test_lifecycle_resume_without_persist_is_rejected(capsys):
    assert main(["lifecycle", "--resume"]) == 2
    assert "requires --persist" in capsys.readouterr().err
