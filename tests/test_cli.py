import gc
import json
import stat
from importlib import resources
from pathlib import Path

import pytest

from makan import cli
from makan.cli import build_parser, cmd_annotate, cmd_eval, main
from makan.lexicon import LexiconError, seed_lexicon_path
from makan.rulepack import rule_pack_path, variants_path


@pytest.fixture()
def suite_texts(tmp_path, suite_gold):
    text_dir = tmp_path / "texts"
    text_dir.mkdir()
    for doc in suite_gold[:6]:
        (text_dir / f"{doc.doc_id}.txt").write_text(doc.text, encoding="utf-8")
    return text_dir


def test_annotate_writes_one_file_per_input(tmp_path, suite_texts):
    out = tmp_path / "out"
    inputs = sorted(str(p) for p in suite_texts.glob("*.txt"))
    assert main(["annotate", "--out", str(out), *inputs]) == 0
    produced = sorted(p.name for p in out.glob("*.json"))
    assert produced == sorted(Path(p).stem + ".json" for p in inputs)
    doc = json.loads((out / produced[0]).read_text(encoding="utf-8"))
    assert set(doc) == {"doc_id", "text", "annotations"}


def test_annotate_is_byte_deterministic(tmp_path, suite_texts):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    inputs = sorted(str(p) for p in suite_texts.glob("*.txt"))
    assert main(["annotate", "--out", str(out1), *inputs]) == 0
    assert main(["annotate", "--out", str(out2), *inputs]) == 0
    for p1 in sorted(out1.glob("*.json")):
        assert p1.read_bytes() == (out2 / p1.name).read_bytes()


def test_annotate_missing_lexicon_names_path(tmp_path, suite_texts, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "nowhere.tsv"
    inputs = sorted(str(p) for p in suite_texts.glob("*.txt"))
    code = main(["annotate", "--lexicon", str(missing), "--out", str(out), *inputs])
    assert code == 2
    assert str(missing) in capsys.readouterr().err
    assert not out.exists() or not list(out.glob("*.json"))


def test_annotate_empty_input_file(tmp_path):
    src = tmp_path / "empty.txt"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["annotate", "--out", str(out), str(src)]) == 0
    doc = json.loads((out / "empty.json").read_text(encoding="utf-8"))
    assert doc["annotations"] == []


def test_usage_error_exits_one():
    assert main(["annotate"]) == 1
    assert main(["definitely-not-a-command"]) == 1


def _materialize_suite(tmp_path, suite_gold):
    gold_dir = tmp_path / "gold"
    gold_dir.mkdir()
    suite = resources.files("makan").joinpath("resources/suite")
    for entry in suite.iterdir():
        (gold_dir / entry.name).write_text(entry.read_text(encoding="utf-8"), encoding="utf-8")
    return gold_dir


def test_eval_gold_vs_gold_is_all_ones(tmp_path, suite_gold, capsys):
    gold_dir = _materialize_suite(tmp_path, suite_gold)
    report_path = tmp_path / "report.json"
    code = main(["eval", "--out", str(report_path), str(gold_dir), str(gold_dir)])
    assert code == 0
    table = capsys.readouterr().out
    for line in table.splitlines()[1:]:
        assert line.split()[1:] == ["1.00", "1.00", "1.00"]
    machine = json.loads(report_path.read_text(encoding="utf-8"))
    assert machine["mode"] == "trigger-exact"
    assert machine["bruit"] == [] and machine["silence"] == []


def test_eval_span_overlap_mode(tmp_path, suite_gold, capsys):
    gold_dir = _materialize_suite(tmp_path, suite_gold)
    code = main(["eval", "--mode", "span-overlap", str(gold_dir), str(gold_dir)])
    assert code == 0
    for line in capsys.readouterr().out.splitlines()[1:]:
        assert line.split()[1:] == ["1.00", "1.00", "1.00"]


def test_eval_detects_missing_document(tmp_path, suite_gold, capsys):
    gold_dir = _materialize_suite(tmp_path, suite_gold)
    system_dir = tmp_path / "system"
    system_dir.mkdir()
    for p in list(gold_dir.glob("*.json"))[:-1]:
        (system_dir / p.name).write_text(p.read_text(encoding="utf-8"), encoding="utf-8")
    code = main(["eval", str(gold_dir), str(system_dir)])
    assert code == 3
    assert "unmatched ids" in capsys.readouterr().err


def test_eval_rejects_duplicate_doc_ids(tmp_path, suite_gold, capsys):
    gold_dir = _materialize_suite(tmp_path, suite_gold)
    first = sorted(gold_dir.glob("*.json"))[0]
    (gold_dir / "copy.json").write_text(first.read_text(encoding="utf-8"), encoding="utf-8")
    code = main(["eval", str(gold_dir), str(gold_dir)])
    assert code == 2
    assert "duplicate doc_id" in capsys.readouterr().err


def test_eval_refuses_a_report_path_that_is_an_input(tmp_path, suite_gold, capsys):
    gold_dir = _materialize_suite(tmp_path, suite_gold)
    system_dir = tmp_path / "system"
    system_dir.mkdir()
    for p in gold_dir.glob("*.json"):
        (system_dir / p.name).write_text(p.read_text(encoding="utf-8"), encoding="utf-8")
    for victim in (gold_dir / "e02.json", system_dir / "s01.json"):
        before = victim.read_bytes()
        out = victim.parent / ".." / victim.parent.name / victim.name  # a different spelling of the same path
        assert main(["eval", "--out", str(out), str(gold_dir), str(system_dir)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err and str(victim) in err
        assert victim.read_bytes() == before


def test_eval_rejects_non_directory(tmp_path, capsys):
    code = main(["eval", str(tmp_path / "nope"), str(tmp_path)])
    assert code == 2
    assert "not a directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,named",
    [
        pytest.param(["annotate", "--out", "f", "a.txt"], "f", id="annotate-out-file"),
        pytest.param(["annotate", "--out", "f/sub", "a.txt"], "f/sub", id="annotate-out-below-a-file"),
        pytest.param(["annotate", "--out", "d", "a.txt", "z.txt"], "d/z.json", id="annotate-output-file-is-a-directory"),
        pytest.param(["split", "--out", "f", "a.txt"], "f", id="split-out-file"),
        pytest.param(["eval", "--out", "d", "gold", "gold"], "d", id="eval-out-directory"),
        pytest.param(["eval", "--out", "missing/r.json", "gold", "gold"], "missing/r.json", id="eval-out-missing-parent"),
    ],
)
def test_an_output_path_of_the_wrong_kind_exits_two_naming_it(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    Path("f").write_text("keep", encoding="utf-8")
    for name in ("a.txt", "z.txt"):
        Path(name).write_text("جلست المرأة على المقعد.", encoding="utf-8")
    Path("d/z.json").mkdir(parents=True)
    Path("gold").mkdir()
    Path("gold/a.json").write_text('{"doc_id": "a", "text": "x", "annotations": []}', encoding="utf-8")
    before = sorted(map(str, Path().rglob("*")))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # `eval` prints no table before it fails
    assert len(err.splitlines()) == 1 and named in err
    assert sorted(map(str, Path().rglob("*"))) == before  # nothing written, `d/a.json` included
    assert Path("f").read_text(encoding="utf-8") == "keep"


def test_check_shipped_resources_clean(capsys):
    assert main(["check"]) == 0
    assert "ok:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "option, shipped", [("--lexicon", seed_lexicon_path), ("--rules", rule_pack_path), ("--variants", variants_path)]
)
def test_check_loads_a_resource_saved_with_a_leading_byte_order_mark(tmp_path, capsys, option, shipped):
    assert main(["check"]) == 0
    expected = capsys.readouterr().out
    path = tmp_path / "resource"
    path.write_text("\ufeff# saved with a byte-order mark\n" + shipped().read_text(encoding="utf-8"), encoding="utf-8")
    assert main(["check", option, str(path)]) == 0
    assert capsys.readouterr() == (expected, "")


def test_check_reports_bogus_sense(tmp_path, capsys):
    bad = tmp_path / "lex.tsv"
    bad.write_text("على\tPREP\tTOPOLOGICAL.BOGUS\n", encoding="utf-8")
    code = main(["check", "--lexicon", str(bad)])
    assert code == 2
    assert "TOPOLOGICAL.BOGUS" in capsys.readouterr().err


def test_check_rejects_a_lexicon_line_with_extra_columns(tmp_path, capsys):
    bad = tmp_path / "lex.tsv"
    bad.write_text("x\tNOUN_SITE\t\t\tjunk\tmore\n", encoding="utf-8")
    assert main(["check", "--lexicon", str(bad)]) == 2
    assert f"{bad}:1: expected `lemma<TAB>class" in capsys.readouterr().err


def test_check_reports_unknown_guard(tmp_path, capsys):
    bad = tmp_path / "extra.rules"
    bad.write_text(
        "RULE ghost PRIO 1: trigger=[PREP] => DIRECTIONAL.GOAL GUARD HAUNTED\n", encoding="utf-8"
    )
    code = main(["check", "--rules", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "ghost" in err and "HAUNTED" in err


def test_check_names_the_rule_file_and_its_own_line(tmp_path, capsys):
    one, two = tmp_path / "one.rules", tmp_path / "two.rules"
    one.write_text("RULE a PRIO 1: trigger=[PREP] => DIRECTIONAL.GOAL\n", encoding="utf-8")
    two.write_text("# second file\n\nRULE b PRIO 1: trigger=[PREP] => NOPE.PATH\n", encoding="utf-8")
    assert main(["check", "--rules", str(one), "--rules", str(two)]) == 2
    err = capsys.readouterr().err
    assert "NOPE.PATH" in err and f"({two}, line 3, col 1)" in err


def test_annotate_rejects_variant_that_normalizes_to_nothing(tmp_path, suite_texts, capsys):
    table = tmp_path / "variants.tsv"
    table.write_text("# comment\nسين\tَ\n", encoding="utf-8")
    out = tmp_path / "out"
    inputs = sorted(str(p) for p in suite_texts.glob("*.txt"))
    assert main(["annotate", "--variants", str(table), "--out", str(out), *inputs]) == 2
    assert f"{table}:2" in capsys.readouterr().err
    assert not out.exists()


def test_annotate_rejects_a_canonical_variant_form_of_two_words(tmp_path, suite_texts, capsys):
    table = tmp_path / "variants.tsv"
    out = tmp_path / "out"
    inputs = sorted(str(p) for p in suite_texts.glob("*.txt"))
    for row, what in (("سانجيرمان\tسان جيرمان", "canonical form"), ("سان جيرمان\tسانجيرمان", "variant")):
        table.write_text(row + "\n", encoding="utf-8")
        assert main(["annotate", "--variants", str(table), "--out", str(out), *inputs]) == 2
        assert f"{table}:1: {what} 'سان جيرمان' is not one word" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "option, content, message",
    [
        ("--variants", "سين\tسان\nسِين\tسن\n", "{path}:2: variant 'سِين' is already listed on line 1"),
        ("--lexicon", 'ب\tPREP\tTOPOLOGICAL.SUPPORT\t\t{"medium": true, "medium": false}\n',
         "{path}:1: attribute 'medium' is given twice"),
        # every lexicon fault names its row, whether the row alone or the whole lexicon shows it
        ("--lexicon", "# c\nعلى-ظهر\tPREP\tTOPOLOGICAL.SUPPORT\n", "{path}:2: its words have 'علي-ظهر', which is not one word"),
        ("--lexicon", "# c\nعلى\tPREP\n", "{path}:2: PREP requires at least one sense"),
        ("--lexicon", "# c\nعلى\tPREP\tTOPOLOGICAL.BOGUS\n", "{path}:2: unresolved sense path TOPOLOGICAL.BOGUS"),
        ("--lexicon", "# c\nعلى\tPREP\tTOPOLOGICAL.SUPPORT\tNOPE_FLAG\n", "{path}:2: unknown flag NOPE_FLAG"),
        ("--lexicon", "على\tPREP\tTOPOLOGICAL.SUPPORT\n\nعلى\tPREP\tDIRECTIONAL.GOAL\n",
         "{path}:3: duplicate entry (علي, PREP), first at {path}:1"),
        ("--variants", None, "resource file not found: {path}"),  # an empty path, never the shipped table
        ("--lexicon", None, "resource file not found: {path}"),
        ("--rules", None, "resource file not found: {path}"),
    ],
)
def test_a_refused_resource_exits_two_from_check_and_annotate_and_writes_nothing(
    tmp_path, suite_texts, capsys, option, content, message
):
    path = ""
    if content is not None:
        path = tmp_path / "resource.tsv"
        path.write_text(content, encoding="utf-8")
    message = message.format(path=path)
    assert main(["check", option, str(path)]) == 2
    assert capsys.readouterr() == ("", f"validation error: {message}\n")
    out = tmp_path / "out"
    inputs = sorted(str(p) for p in suite_texts.glob("*.txt"))
    assert main(["annotate", option, str(path), "--out", str(out), *inputs]) == 2
    assert capsys.readouterr() == ("", f"validation error: {message}\n")
    assert not out.exists()


def test_check_accepts_explicit_shipped_paths(capsys):
    code = main(
        [
            "check",
            "--lexicon",
            str(seed_lexicon_path()),
            "--rules",
            str(rule_pack_path()),
            "--variants",
            str(variants_path()),
        ]
    )
    assert code == 0


def test_split_manifests(tmp_path):
    docs = [str(tmp_path / f"d{i}.txt") for i in range(8)]
    out = tmp_path / "split"
    assert main(["split", "--seed", "1", "--out", str(out), *docs]) == 0
    work = (out / "work.txt").read_text(encoding="utf-8").splitlines()
    evalset = (out / "eval.txt").read_text(encoding="utf-8").splitlines()
    assert len(work) == 6 and len(evalset) == 2
    assert sorted(work + evalset) == sorted(docs)


def test_split_is_byte_identical(tmp_path):
    docs = [f"doc{i}" for i in range(9)]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["split", "--seed", "5", "--out", str(out1), *docs]) == 0
    assert main(["split", "--seed", "5", "--out", str(out2), *docs]) == 0
    assert (out1 / "work.txt").read_bytes() == (out2 / "work.txt").read_bytes()
    assert (out1 / "eval.txt").read_bytes() == (out2 / "eval.txt").read_bytes()


@pytest.mark.parametrize(
    "inputs, named",
    [
        pytest.param(["work.txt", "b.txt", "c.txt", "d.txt"], "would overwrite input work.txt", id="overwrite-input"),
        pytest.param(["b.txt", "./eval.txt"], "would overwrite input ./eval.txt", id="overwrite-input-by-another-name"),
        pytest.param(["b.txt", "b.txt", "c.txt", "d.txt"], "'b.txt' is listed more than once", id="repeated-input"),
        pytest.param(
            ["b.txt", "./b.txt", "c.txt", "d.txt"], "'b.txt' and './b.txt' name one file", id="input-repeated-by-another-name"
        ),
    ],
)
def test_split_that_would_overwrite_or_repeat_an_input_exits_two_and_writes_nothing(
    tmp_path, monkeypatch, capsys, inputs, named
):
    monkeypatch.chdir(tmp_path)
    for name in {Path(p).name for p in inputs}:
        Path(name).write_text("keep", encoding="utf-8")
    before = sorted(map(str, Path().rglob("*")))
    assert main(["split", "--out", ".", *inputs]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and named in err
    assert sorted(map(str, Path().rglob("*"))) == before
    assert all(Path(p).read_text(encoding="utf-8") == "keep" for p in inputs)


def test_split_without_inputs_fails(capsys):
    assert main(["split", "--seed", "1"]) == 1


def test_end_to_end_annotate_then_eval_whole_suite(tmp_path, suite_gold, capsys):
    text_dir = tmp_path / "texts"
    text_dir.mkdir()
    for doc in suite_gold:
        (text_dir / f"{doc.doc_id}.txt").write_text(doc.text, encoding="utf-8")
    system_dir = tmp_path / "system"
    inputs = sorted(str(p) for p in text_dir.glob("*.txt"))
    assert main(["annotate", "--out", str(system_dir), *inputs]) == 0
    gold_dir = _materialize_suite(tmp_path, suite_gold)
    assert main(["eval", str(gold_dir), str(system_dir)]) == 0
    table = capsys.readouterr().out
    for line in table.splitlines()[1:]:
        assert line.split()[1:] == ["1.00", "1.00", "1.00"], table


def test_annotate_rejects_inputs_sharing_a_stem(tmp_path, capsys):
    first, second = tmp_path / "a" / "x.txt", tmp_path / "b" / "x.txt"
    for path in (first, second):
        path.parent.mkdir()
        path.write_text("جلست المرأة على المقعد.", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["annotate", "--out", str(out), str(first), str(second)]) == 2
    err = capsys.readouterr().err
    assert str(first) in err and str(second) in err
    assert not out.exists()


def test_annotate_writes_new_files_with_the_umask_mode_and_keeps_an_old_files_mode(tmp_path, umask_022):
    inputs = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in inputs:
        path.write_text("جلست المرأة على المقعد.", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "b.json").write_text("old contents", encoding="utf-8")
    (out / "b.json").chmod(0o640)
    assert main(["annotate", "--out", str(out), *map(str, inputs)]) == 0
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()} == {"a.json": 0o644, "b.json": 0o640}


def test_annotate_refuses_to_overwrite_an_input(tmp_path, monkeypatch, capsys):
    src = tmp_path / "a.json"
    src.write_text("جلست المرأة على المقعد.", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["annotate", "--out", ".", "a.json"]) == 2
    err = capsys.readouterr().err
    assert "a.json would overwrite input a.json" in err
    assert src.read_text(encoding="utf-8") == "جلست المرأة على المقعد."
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


def test_annotate_rejects_non_utf8_input_before_writing(tmp_path, capsys):
    good, bad = tmp_path / "a.txt", tmp_path / "b.txt"
    good.write_text("جلست المرأة على المقعد.", encoding="utf-8")
    bad.write_bytes("على".encode("cp1256"))
    out = tmp_path / "out"
    assert main(["annotate", "--out", str(out), str(good), str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--lexicon", "--rules", "--variants"])
def test_annotate_rejects_non_utf8_resource(tmp_path, suite_texts, capsys, flag):
    bad = tmp_path / "resource"
    bad.write_bytes("على\tPREP".encode("cp1256"))
    out = tmp_path / "out"
    inputs = sorted(str(p) for p in suite_texts.glob("*.txt"))
    assert main(["annotate", flag, str(bad), "--out", str(out), *inputs]) == 2
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv, outcome, code",
    [
        (["check"], 0, 0),
        (["annotate"], None, 1),  # a usage error: no command runs
        (["check"], 1, 1),
        (["check"], LexiconError("bad lexicon"), 2),
        (["check"], ValueError("mismatch"), 3),
        (["check"], RuntimeError("not caught"), None),
    ],
)
def test_a_command_runs_with_the_collector_paused_and_leaves_it_as_it_was(
    monkeypatch, capsys, enabled, argv, outcome, code
):
    during = []

    def command(args):
        during.append(gc.isenabled())
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(cli, "cmd_check", command)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if code is None:
            with pytest.raises(RuntimeError, match="not caught"):
                main(argv)
        else:
            assert main(argv) == code
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during == ([] if outcome is None else [False])
    assert after is enabled


def test_annotate_and_eval_leave_no_cyclic_garbage_that_grows_with_their_input(tmp_path, suite_gold, capsys):
    """What the collector, paused while a command runs, would have to free: for one suite text and for all 47."""
    gold_all = _materialize_suite(tmp_path, suite_gold)
    first = sorted(gold_all.glob("*.json"))[0]
    gold_one = tmp_path / "gold_one"
    gold_one.mkdir()
    (gold_one / first.name).write_bytes(first.read_bytes())
    texts = tmp_path / "texts"
    texts.mkdir()
    for doc in suite_gold:
        (texts / f"{doc.doc_id}.txt").write_text(doc.text, encoding="utf-8")
    inputs = sorted(str(p) for p in texts.glob("*.txt"))
    one = [p for p in inputs if Path(p).stem == first.stem]
    parser = build_parser()

    def garbage(command, argv):
        args = parser.parse_args(argv)  # before the count: argparse leaves cycles of its own, as it does in `main`
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert command(args) == 0
            return gc.collect()
        finally:
            if was:
                gc.enable()

    for name, paths in (("s1", one), ("s", inputs)):
        assert garbage(cmd_annotate, ["annotate", "--out", str(tmp_path / name), *paths]) == 0
    scored = [
        garbage(cmd_eval, ["eval", "--out", str(tmp_path / f"{n}.json"), str(g), str(tmp_path / n)])
        for n, g in (("s1", gold_one), ("s", gold_all))
    ]
    assert scored[1] <= scored[0], scored
