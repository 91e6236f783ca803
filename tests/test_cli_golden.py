"""The CLI behaviour corpus (cli_golden.json, generated by cli_golden.py),
replayed through cli.main: every argv list keeps its exit code, its stdout
byte for byte and its exact stderr."""

import json

from cli_golden import FORMATS, GOLDEN, run, write_inputs

ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_corpus_covers_every_subcommand_format_and_exit():
    argvs = [argv for argv, *_ in ENTRIES]
    assert len(argvs) >= 200
    commands = {argv[2] if argv[0] == "--config" else argv[0] for argv in argvs}
    assert commands == {"enumerate", "rank", "unrank", "qlang", "check", "search", "decide", "gap", "audit", "demo"}
    assert {argv[1] for argv in argvs if argv[0] == "qlang"} == {"eval", "nth", "table", "diagonal", "fbar"}
    assert {argv[argv.index("--format") + 1] for argv in argvs if "--format" in argv} == set(FORMATS)
    assert {code for _, code, _, _ in ENTRIES} == {0, 1, 2, 64}
    assert sum(argv[0] == "--config" for argv in argvs) >= 20


def test_every_entry_replays_unchanged(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    # in order: a search writes found.drv, and a later check reads it
    changed = [(argv, expected, got) for argv, *expected in ENTRIES if (got := run(argv)) != expected]
    assert not changed, f"{len(changed)} of {len(ENTRIES)} entries changed, the first: {changed[0]}"
