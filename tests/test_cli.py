import re

import pytest

from rspir import build_k4_scheme, build_pairwise_scheme, parse_scheme, serialize_scheme
from rspir.cli import main


def write_scheme(tmp_path, scheme, name="scheme.txt"):
    path = tmp_path / name
    path.write_text(serialize_scheme(scheme))
    return str(path)


def test_build_to_stdout(capsys):
    assert main(["build", "pairwise-sum", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert parse_scheme(out) == build_pairwise_scheme(2)


def test_build_to_file(tmp_path):
    out = tmp_path / "k4.txt"
    assert main(["build", "k4-special", "--out", str(out)]) == 0
    assert parse_scheme(out.read_text()) == build_k4_scheme()


def test_build_rejects_bad_variant():
    with pytest.raises(SystemExit) as exc:
        main(["build", "nonesuch", "--k", "2"])
    assert exc.value.code == 2


def test_build_requires_k(capsys):
    assert main(["build", "pairwise-sum"]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_k4_passes(tmp_path, capsys):
    path = write_scheme(tmp_path, build_k4_scheme())
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "CHECK determinism PASS" in out
    assert "CHECK user-privacy-db2 PASS" in out
    assert "MEASURE rate 1/3" in out


def test_verify_flipped_coefficient_fails(tmp_path, capsys):
    s = build_pairwise_scheme(3)
    text = serialize_scheme(s)
    lines = text.splitlines()
    b3_row = lines.index("answer 2 3 1") + 1
    row = lines[b3_row].split()
    row[0] = "1" if row[0] == "0" else "0"
    lines[b3_row] = " ".join(row)
    path = tmp_path / "broken.txt"
    path.write_text("\n".join(lines) + "\n")

    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    fail_lines = [ln for ln in out.splitlines() if "FAIL" in ln]
    assert any("pair (" in ln for ln in fail_lines)


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/scheme.txt"]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("rspir 2 1 1 1 3 2\n")
    assert main(["verify", str(path)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_run_deterministic(tmp_path, capsys):
    path = write_scheme(tmp_path, build_pairwise_scheme(3))
    assert main(["run", path, "--seed", "42", "--blocks", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["run", path, "--seed", "42", "--blocks", "3"]) == 0
    assert capsys.readouterr().out == first
    assert "decoded-index" in first


def test_run_with_messages_file(tmp_path, capsys):
    path = write_scheme(tmp_path, build_pairwise_scheme(2))
    mfile = tmp_path / "messages.txt"
    mfile.write_text("1 0\n0 1\n")
    assert main(["run", path, "--seed", "1", "--blocks", "2", "--messages-file", str(mfile)]) == 0
    out = capsys.readouterr().out
    assert "messages\n1 0\n0 1\n" in out
    assert "download symbols 4 index-bits 2" in out


def test_run_rejects_bad_messages(tmp_path, capsys):
    path = write_scheme(tmp_path, build_pairwise_scheme(2))
    mfile = tmp_path / "messages.txt"
    mfile.write_text("1 0\n")
    assert main(["run", path, "--messages-file", str(mfile), "--blocks", "2"]) == 1
    assert "rows" in capsys.readouterr().err


def test_run_undecodable_drawn_pair_is_an_error(tmp_path, capsys):
    # K=2, R=1 and every answer transmits only the pad: no pair decodes anything.
    path = tmp_path / "dead.txt"
    answers = "".join(f"answer {db} {i} 1\n0 0 1\n" for db in (1, 2) for i in (1, 2))
    path.write_text("rspir 2 1 1 1 2 2\n" + answers)
    assert main(["run", str(path), "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: answer pair \([12], [12]\) decodes no message\n", captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("blocks", ["0", "-3"])
def test_run_rejects_blocks_below_one(tmp_path, capsys, blocks):
    path = write_scheme(tmp_path, build_pairwise_scheme(2))
    assert main(["run", path, "--blocks", blocks]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: blocks must be at least 1\n"
    assert captured.out == ""


def test_rate_command(tmp_path, capsys):
    path = write_scheme(tmp_path, build_k4_scheme())
    assert main(["rate", path]) == 0
    out = capsys.readouterr().out
    assert "MEASURE download-cost-symbols 6" in out
    assert "MEASURE rate 1/3" in out
    assert "MEASURE capacity-gap 0" in out

    assert main(["rate", path, "--blocks", "8"]) == 0
    out = capsys.readouterr().out
    assert "MEASURE finite-block-rate-bits 4/13" in out  # 8*2 / (8*6 + 4)


@pytest.mark.parametrize("scheme", [build_k4_scheme(), build_pairwise_scheme(5)], ids=["k4", "pairwise-k5"])
def test_rate_equals_verify_measure_lines(tmp_path, capsys, scheme):
    path = write_scheme(tmp_path, scheme)
    main(["verify", path])
    measures = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("MEASURE")]

    assert main(["rate", path]) == 0
    assert capsys.readouterr().out.splitlines() == measures

    assert main(["rate", path, "--blocks", "8"]) == 0
    with_blocks = capsys.readouterr().out.splitlines()
    assert with_blocks[:-1] == measures
    assert with_blocks[-1].startswith("MEASURE finite-block-rate-bits ")


def test_graph_command(tmp_path, capsys):
    path = write_scheme(tmp_path, build_k4_scheme())
    out_file = tmp_path / "graph.gv"
    assert main(["graph", path, "--out", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("graph rspir {")
    assert text.count(" -- ") == 16


def test_search_command_exhausted(capsys):
    code = main(["search", "--k", "2", "--r", "0", "--max-len", "2"])
    assert code == 0
    assert "exhausted: no valid scheme" in capsys.readouterr().out


def test_search_command_finds(capsys):
    code = main(["search", "--k", "2", "--r", "1", "--max-len", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "found" in out
    assert "rspir 2 1 1 1 2 2" in out


def test_search_command_budget_exceeded(capsys):
    code = main(["search", "--k", "2", "--r", "1", "--max-len", "1", "--budget", "10"])
    assert code == 1
    assert "resume cursor 10" in capsys.readouterr().out


def test_search_command_resumes_from_printed_cursor(capsys):
    flags = ["search", "--k", "2", "--r", "1", "--max-len", "1"]
    assert main(flags) == 0
    full = capsys.readouterr().out
    assert main([*flags, "--budget", "500"]) == 1
    stopped = capsys.readouterr().out
    header, _, partial = stopped.partition("\n")
    assert header == "budget exceeded: examined 500, resume cursor 500"
    assert main([*flags, "--start", "500"]) == 0
    resumed = capsys.readouterr().out
    assert resumed.startswith("found 1 scheme class(es) in 796 candidates\n")
    # the stopped run's classes and the resumed run's, in order, are the full run's
    assert partial + resumed.partition("\n")[2] == full.partition("\n")[2]


@pytest.mark.parametrize("start", ["-1", "1297"])
def test_search_rejects_out_of_range_start(capsys, start):
    assert main(["search", "--k", "2", "--r", "1", "--start", start]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: search start must be in 0..1296, got {start}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--k", "0", "--r", "1"], "K >= 2, got 0"),
        (["--k", "1", "--r", "1"], "K >= 2, got 1"),
        (["--k", "-2", "--r", "1"], "K >= 2, got -2"),
        (["--k", "2", "--r", "-1"], "R >= 0, got -1"),
        (["--k", "2", "--l", "0", "--r", "1"], "L >= 1, got 0"),
        (["--k", "2", "--r", "1", "--max-len", "0"], "max_len >= 1, got 0"),
        (["--k", "2", "--r", "1", "--m", "5"], "unsupported extension degree m=5"),
        (["--k", "2", "--r", "1", "--m1", "-2"], "M1 >= 0, got -2"),
        (["--k", "2", "--r", "1", "--m2", "-2"], "M2 >= 0, got -2"),
        (["--k", "2", "--r", "1", "--budget", "-1"], "budget must be >= 0, got -1"),
    ],
)
def test_search_rejects_bad_space(capsys, flags, message):
    assert main(["search", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "x", "--frobnicate"])
    assert exc.value.code == 2
