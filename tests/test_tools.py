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


def test_option_census_every_option_has_a_caller():
    """Every defaulted parameter of the package is varied by a caller
    outside tests/, or is on the census allowlist with a one-line
    reason; no allowlist entry outlives its option."""
    from tools.option_census import ALLOWLIST, census, stale, unlisted

    options = census()
    assert unlisted(options) == []
    assert stale(options) == []
    assert all(r.strip() and "\n" not in r for r in ALLOWLIST.values())


def test_option_census_counts_every_way_of_setting_a_value():
    """Positional, keyword, ``functools.partial``, ``*args`` and
    ``**kwargs`` calls all set an option; a name bound once to the
    default literal passes the default."""
    import ast

    from tools.option_census import Option, _calls, _passed

    opt = Option("m", "f", "k", 1, 0, ast.Constant(3))  # def f(a, k=3)
    src = ("f(1)\nf(1, 4)\nf(1, k=3)\npartial(f, 1, 5)\nf(**kw)\nf(*a)\n"
           "def g():\n    n = 3\n    f(1, k=n)\n")
    vals = [v for name, args, kws in _calls(ast.parse(src)) if name == "f"
            for v in _passed(opt, args, kws)]
    # f(1) passes nothing; f(1, 4), partial, **kw and *a another value
    assert sorted(opt.is_default(v) for v in vals) == [False] * 4 + [True] * 2


def test_option_census_fails_on_a_dead_default(capsys, monkeypatch):
    """A default that every call passes a value for is dead code: the
    census classes it "no call takes the default" and ``--check`` fails
    on it, allowlisted or not; a default one call omits is not dead."""
    import ast

    from tools import option_census as oc

    options = oc.options_of(ast.parse(
        "def f(a, k=3):\n    pass\ndef g(a, j=1):\n    pass\n"), "m")
    oc.record_calls(options, [(ast.parse(
        "f(1, k=4)\nf(1, 5)\ng(1)\ng(1, j=2)\n"), "non_test")])
    klass = {o.name: o.klass() for o in options}
    assert klass == {"m.f(k)": oc.DEAD, "m.g(j)": oc.VARIES}
    assert oc.dead(options) == ["m.f(k)"]

    planted = options[:1]
    real = oc.census()
    monkeypatch.setattr(oc, "census", lambda: real + planted)
    monkeypatch.setitem(oc.ALLOWLIST, "m.f(k)", "allowlisting does not help")
    assert oc.main(["--check"]) == 1
    assert "dead default: m.f(k)" in capsys.readouterr().err


def test_every_package_def_has_a_non_test_caller():
    """Every top-level function and class of ``crawtext_ray/``, and every
    method of its classes, is named by some file outside ``tests/`` (the
    package, ``__ray_entry__.py``, ``bench.py``, ``perfbench/``,
    ``tools/``, ``fixtures/``): code that only tests reach belongs in
    ``tests/``. A name counts wherever it appears: as a name, an
    attribute, an import or a string (``perfbench`` rebinds by string).
    Exempt: dunder methods and methods that override a base-class method
    (the ``HTMLParser`` callbacks of ``dom._TreeBuilder``), which their
    base class calls."""
    import ast
    import importlib
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    from tools.option_census import NON_TEST

    named = set()
    for prefix in NON_TEST:
        path = root / prefix
        for f in [path] if path.suffix == ".py" else sorted(path.rglob("*.py")):
            for n in ast.walk(ast.parse(f.read_text())):
                if isinstance(n, ast.Name):
                    named.add(n.id)
                elif isinstance(n, ast.Attribute):
                    named.add(n.attr)
                elif isinstance(n, ast.alias):
                    named.add(n.name.rsplit(".", 1)[-1])
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    named.add(n.value)
    unreached = []
    for f in sorted((root / "crawtext_ray").rglob("*.py")):
        module = ".".join(f.relative_to(root).with_suffix("").parts)
        for top in ast.parse(f.read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if top.name not in named:
                unreached.append(f"{module}.{top.name}")
            if not isinstance(top, ast.ClassDef):
                continue
            bases = getattr(importlib.import_module(module.removesuffix(
                ".__init__")), top.name).__mro__[1:]
            for m in top.body:
                if (isinstance(m, ast.FunctionDef) and m.name not in named
                        and not (m.name.startswith("__")
                                 and m.name.endswith("__"))
                        and not any(hasattr(b, m.name) for b in bases)):
                    unreached.append(f"{module}.{top.name}.{m.name}")
    assert unreached == []


def test_engine_keyed_steps_use_key_runs_or_tally():
    """Outside ``stages/relational.py`` (whose queries exercise Ray's own
    operators for the oracle), ``crawtext_ray/`` makes no Ray grouping
    call (``groupby``/``map_groups``/``aggregate``), no ``join(...,
    join_type=...)`` and names no hash shuffle: every keyed step is
    ``partitioning.key_runs`` or ``report.tally``. Arrow's in-block
    ``Table.group_by(...).aggregate`` (the fold under both) is allowed."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "crawtext_ray"
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "stages/relational.py":
            continue
        source = path.read_text()
        if "hash_shuffle" in source:
            found.append(f"{rel}: hash_shuffle")
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr, owner = node.func.attr, node.func.value
            arrow_fold = (attr == "aggregate" and isinstance(owner, ast.Call)
                          and isinstance(owner.func, ast.Attribute)
                          and owner.func.attr == "group_by")
            if (attr in ("groupby", "map_groups", "aggregate")
                    and not arrow_fold) or (
                    attr == "join"
                    and any(k.arg == "join_type" for k in node.keywords)):
                found.append(f"{rel}:{node.lineno}: .{attr}(")
    assert found == []


def test_only_member_join_and_paragraph_dedup_read_broadcast_rows():
    """The broadcast-or-scale choice has two owners: only
    ``partitioning.member_join`` (the exact semi-/anti-join) and
    ``dedup.dedup_paragraphs`` (its loser set) read
    ``BROADCAST_ROWS``; every other membership test calls them or
    ``member_filter`` and picks no form itself."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "crawtext_ray"
    readers = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute)
                        else None)
                if (name == "BROADCAST_ROWS"
                        and isinstance(node.ctx, ast.Load)):
                    readers.add((path.relative_to(root).as_posix(),
                                 getattr(top, "name", None)))
    assert readers == {("stages/partitioning.py", "member_join"),
                       ("stages/dedup.py", "dedup_paragraphs")}
