"""tools/: reference re-verification (ref_diff) behavior."""

import json


def test_ref_diff_empty_reference_is_warning_noop(tmp_path, capsys):
    from tools.ref_diff import main

    empty = tmp_path / "ref"
    empty.mkdir()
    assert main(["--ref", str(empty)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "reference_empty"


def test_ref_diff_flags_missing_patterns(tmp_path, capsys):
    ref = tmp_path / "ref"
    ref.mkdir()
    (ref / "cleaners.py").write_text('REGEX = ["mediaarticlerelated"]\n')
    from tools.ref_diff import main

    assert main(["--ref", str(ref)]) == 1  # drift: most patterns absent
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "drift"
    assert len(out["patterns"]["missing_in_reference"]) > 0


def test_ref_diff_green_when_reference_carries_contract(tmp_path, capsys):
    import importlib.resources as ilr

    pats = (ilr.files("crawtext_ray") / "resources" /
            "boilerplate_patterns.txt").read_text()
    ref = tmp_path / "ref"
    ref.mkdir()
    (ref / "cleaners.py").write_text(
        "REGEX = " + repr(pats.split()) +
        "\n# constants: 3 5 40 5.0 0.5 0.25 1.0\n"
    )
    from tools.ref_diff import main

    assert main(["--ref", str(ref)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "ok"
    assert out["patterns"]["missing_in_reference"] == []


def test_bench_host_facts_without_ray(tmp_path, monkeypatch):
    """bench.py's host block: real CPU affinity, total memory, Ray
    version and git sha — gathered without starting a Ray session; the
    sha is null when the bench runs outside a git checkout."""
    import importlib.util
    import os
    import re
    import shutil

    import ray

    import bench

    def no_session(*a, **k):
        raise AssertionError("host_facts must not start Ray")

    monkeypatch.setattr(ray, "init", no_session)
    facts = bench.host_facts()
    assert facts["cpu_affinity"] == len(os.sched_getaffinity(0)) >= 1
    assert facts["mem_total_bytes"] > 0
    assert facts["ray_version"] == ray.__version__
    assert facts["git_sha"] is None or re.fullmatch(r"[0-9a-f]{40}",
                                                    facts["git_sha"])

    shutil.copy(bench.__file__, tmp_path / "bench_copy.py")
    spec = importlib.util.spec_from_file_location(
        "bench_copy", tmp_path / "bench_copy.py")
    outside = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outside)
    assert outside.host_facts()["git_sha"] is None
    json.dumps(facts)  # the block is plain JSON
