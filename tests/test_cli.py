"""CLI argument checks that exit 2 before Ray starts."""

import pytest

from crawtext_ray.run import main


def test_incremental_from_with_curate_exits_2(tmp_path, capsys):
    """--incremental-from only feeds the extract job, so a curate run
    would skip nothing: the flag pair is refused."""
    rc = main(["--input", str(tmp_path / "pages"), "--out",
               str(tmp_path / "out"), "--curate",
               "--incremental-from", str(tmp_path / "prev")])
    assert rc == 2
    assert "--incremental-from" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dsir_from_without_curate_exits_2(tmp_path, capsys):
    rc = main(["--input", str(tmp_path / "pages"), "--out",
               str(tmp_path / "out"), "--dsir-from", str(tmp_path / "t")])
    assert rc == 2
    assert "--dsir-from requires --curate" in capsys.readouterr().err


@pytest.mark.parametrize("flag_args", [
    ["--decontaminate-from", "eval.txt"],
    ["--verify-dups", "0.8"],
    ["--max-nll", "5"],
    ["--lang-rates", "en=0.3"],
    ["--dedup-paragraphs"],
], ids=lambda a: a[0].lstrip("-"))
def test_curate_only_flag_without_curate_exits_2(tmp_path, capsys,
                                                  flag_args):
    """Only the curate chain reads these flags; without --curate the
    extract job would run and exit 0 as if the gate had applied."""
    rc = main(["--input", str(tmp_path / "pages"), "--out",
               str(tmp_path / "out")] + flag_args)
    assert rc == 2
    assert f"{flag_args[0]} requires --curate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
