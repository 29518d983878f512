import json
from importlib import resources
from pathlib import Path

import pytest

from makan.cli import main
from makan.lexicon import seed_lexicon_path
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
