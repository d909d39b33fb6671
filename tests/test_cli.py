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


@pytest.mark.parametrize("curate", [False, True], ids=["extract", "curate"])
def test_dsir_keep_without_dsir_from_exits_2(tmp_path, capsys, curate):
    """--dsir-keep only sizes the --dsir-from selection; alone it would be
    accepted and ignored."""
    rc = main(["--input", str(tmp_path / "pages"), "--out",
               str(tmp_path / "out"), "--dsir-keep", "0.5"]
              + (["--curate"] if curate else []))
    assert rc == 2
    assert "--dsir-keep requires --dsir-from" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dsir_keep_out_of_range_exits_2(tmp_path, capsys):
    rc = main(["--input", str(tmp_path / "pages"), "--out",
               str(tmp_path / "out"), "--curate", "--dsir-from",
               str(tmp_path / "t"), "--dsir-keep", "1.5"])
    assert rc == 2
    assert "--dsir-keep must be in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("keep_args,keep", [([], 0.25),
                                            (["--dsir-keep", "0.5"], 0.5)],
                         ids=["default", "given"])
def test_dsir_keep_reaches_curate(tmp_path, monkeypatch, keep_args, keep):
    """With --dsir-from, --dsir-keep defaults to 0.25. Ray and the curate
    chain are stubbed: only the argument handling runs."""
    import ray

    from crawtext_ray.pipelines import training_data

    target = tmp_path / "target.txt"
    target.write_text("one target document\n")
    seen = {}

    class Curated:
        def count(self):
            return 0

    def fake_curate(*args, **kwargs):
        seen.update(kwargs)
        return Curated()

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "shutdown", lambda: None)
    monkeypatch.setattr(training_data, "curate", fake_curate)
    rc = main(["--input", str(tmp_path / "pages"), "--out",
               str(tmp_path / "out"), "--curate", "--dsir-from",
               str(target)] + keep_args)
    assert rc == 0
    assert seen["dsir_keep"] == keep
    assert seen["dsir_target"] == ["one target document"]
