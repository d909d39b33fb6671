"""CLI argument checks that exit 2 before Ray starts."""

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
