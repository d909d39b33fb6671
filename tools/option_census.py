"""Option census: every defaulted parameter of ``crawtext_ray/`` and the
values its callers pass.

    python -m tools.option_census           # the count, then one line per option
    python -m tools.option_census --check   # exit 1 on an option that no
                                            # caller varies and ALLOWLIST lacks

An option is a default value of a ``def`` or ``lambda`` in the package.
Calls are matched to a def by its bare name (``f(...)``, ``mod.f(...)``,
``obj.f(...)``; a class's ``__init__`` by the class name), so a method whose name collides with a builtin's (a
``get``) collects that builtin's calls too. A call sets an option when
it passes it by keyword, by position, through ``*args``/``**kwargs``, in
a ``functools.partial`` or in a Ray ``fn_args``/``fn_kwargs``. Each
option falls in the first class it meets:

- *varies across non-test callers*: a caller outside ``tests/`` passes
  a value other than the default (an expression that is not the default
  literal counts as another value, except a name its scope binds once
  to a literal, which counts as that literal);
- *passed by perfbench*: ``perfbench/`` passes it (the default only);
- *set only by tests*: a test passes another value;
- *one value in use*: every caller omits it or passes the default.

Non-test callers are the package, ``__ray_entry__.py``, ``bench.py``,
``perfbench/``, ``tools/`` and ``fixtures/``; test callers are
``tests/``. Every option outside the first class must be on
``ALLOWLIST`` with a one-line reason.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from collections import Counter, deque

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "crawtext_ray"
NON_TEST = (PACKAGE, "__ray_entry__.py", "bench.py", "perfbench", "tools",
            "fixtures")
TESTS = ("tests",)

VARIES = "varies across non-test callers"
PERFBENCH = "passed by perfbench"
TEST_ONLY = "set only by tests"
ONE_VALUE = "one value in use"
CLASSES = (VARIES, PERFBENCH, TEST_ONLY, ONE_VALUE)

UNKNOWN = object()  # a value the census cannot see (*args, **kwargs)

_PERFBENCH = "perfbench passes it; perfbench changes only with the benchmark"
_CLI = "the CLI entry point: argv is None from the console, a list from tests"

# option -> why it stays although no non-test caller varies it
ALLOWLIST: dict[str, str] = {
    # passed by perfbench
    "pipelines.flagship.build_articles(batch_size)": _PERFBENCH,
    "pipelines.training_data.curate(concurrency)": _PERFBENCH,
    # the CLIs
    "audit.main(argv)": _CLI,
    "report.main(argv)": _CLI,
    "run.main(argv)": _CLI,
    # set only by tests: each holds a behaviour only a test reaches
    "pipelines.flagship.run_extract_job(concurrency)":
        "tests cap the extract at 2 concurrent tasks",
    "pipelines.training_data.drop_near_dups(shingle_k)":
        "a test verifies near-dups at 3-word shingles",
    "stages.bpe.train_bpe(max_distinct_words)":
        "a test reaches the top-N word truncation with a bound of 5",
    "stages.dedup.simhash_duplicates(id_col)":
        "a test links string ids against the reference LSH",
    "stages.dedup.jaccard_dups_brute(threshold)":
        "a test holds the simhash verifier against the 0.8 brute truth",
    "stages.dedup.dedup_paragraphs(fp_rate)":
        "a test forces the Bloom winner map's false positives",
    "stages.frontier.bfs_crawl(max_depth)":
        "tests crawl one level; the harness crawls the default two",
    "stages.shuffle.shuffle_shards(seed)":
        "tests check that another seed gives another order",
    "stages.shuffle.pack_sequences(n_tokens_col)":
        "a test packs on BPE token counts",
    "stages.similarity.brute_force_topk(k)": "tests score small corpora",
    "stages.similarity.lsh_bucket_topk(k)": "tests score small corpora",
    "stages.similarity.embedding_dedup(canonical)":
        "tests reach the connected-components form",
    "stages.similarity.train_ivf_centroids(n_clusters)":
        "tests train on small samples",
    "stages.similarity.ivf_topk(k)": "tests score small corpora",
    "stages.similarity.ivf_topk(nprobe)":
        "tests hold each probe count against the reference",
    "stages.textops.unigram_lm_scores(model_docs)":
        "tests score against a reference-corpus model",
    "stages.textops.lm_gate(vocab_size)": "tests use a small vocabulary",
    "stages.textops.lm_gate(model_docs)":
        "a test gates against a reference-corpus model",
    "stages.textops.dsir_select(vocab_size)": "tests use a small vocabulary",
    "stages.textops.dsir_select(n_bins)":
        "a test bounds the driver collect by the bin count",
    "stages.textops.dsir_select(clip)":
        "a test reaches the weights clipped below -clip",
    "stages.textops.corpus_data_card(tokenizer)":
        "a test reaches the BPE token-count column",
}


def _files(prefixes: tuple[str, ...]) -> list[str]:
    out = []
    for prefix in prefixes:
        path = os.path.join(ROOT, prefix)
        if path.endswith(".py"):
            out.append(path)
            continue
        for dirpath, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__")))
            out += [os.path.join(dirpath, n) for n in sorted(names)
                    if n.endswith(".py")]
    return [f for f in out if os.path.exists(f)
            and not f.endswith(os.path.join("tools", "option_census.py"))]


def _parse(path: str) -> ast.Module:
    with open(path) as f:
        return ast.parse(f.read(), path)


class Option:
    def __init__(self, module: str, qualname: str, param: str, index: int,
                 offset: int, default: ast.expr):
        self.module, self.qualname, self.param = module, qualname, param
        self.index = index  # positional index, or None for keyword-only
        self.offset = offset  # 1 for a method called on its instance
        self.default = ast.dump(default)
        self.values: dict[str, list] = {"non_test": [], "perfbench": [],
                                        "tests": []}

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}({self.param})"

    def is_default(self, value) -> bool:
        return value is not UNKNOWN and ast.dump(value) == self.default

    def klass(self) -> str:
        if any(not self.is_default(v) for v in self.values["non_test"]):
            return VARIES
        if self.values["perfbench"]:
            return PERFBENCH
        if any(not self.is_default(v) for v in self.values["tests"]):
            return TEST_ONLY
        return ONE_VALUE


def collect_options() -> list[Option]:
    """Every defaulted parameter of the package, in file order."""
    options = []
    for path in _files((PACKAGE,)):
        rel = os.path.relpath(path, os.path.join(ROOT, PACKAGE))
        module = rel[:-3].replace(os.sep, ".").removesuffix(".__init__")

        def visit(node, scope: list[str], in_class: bool):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, scope + [child.name], True)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.Lambda)):
                    name = getattr(child, "name", "<lambda>")
                    qual = scope + [name]
                    add(child, ".".join(qual), in_class)
                    visit(child, qual, False)
                else:
                    visit(child, scope, in_class)

        def add(fn, qualname: str, in_class: bool):
            a = fn.args
            pos = a.posonlyargs + a.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in getattr(fn, "decorator_list", ()))
            offset = int(in_class and not static and bool(pos)
                         and pos[0].arg in ("self", "cls"))
            first = len(pos) - len(a.defaults)
            for i, d in enumerate(a.defaults):
                options.append(Option(module, qualname, pos[first + i].arg,
                                      first + i, offset, d))
            for p, d in zip(a.kwonlyargs, a.kw_defaults):
                if d is not None:
                    options.append(Option(module, qualname, p.arg, None,
                                          offset, d))

        visit(_parse(path), [], False)
    return options


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(scope: ast.AST):
    """The nodes of ``scope`` outside its nested defs, lambdas and
    classes."""
    todo = deque(ast.iter_child_nodes(scope))
    while todo:
        node = todo.popleft()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _literals(scope: ast.AST) -> dict:
    """Each name ``scope`` binds -> its literal when its one binding is
    ``name = <constant>`` (or one slot of ``a, b = 1, 2``), else None."""
    binds: Counter = Counter()
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            binds[node.id] += 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            binds[node.name] += 2  # never a literal
    found = dict.fromkeys(binds)
    for node in _own_nodes(scope):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        t, v = node.targets[0], node.value
        pairs = (zip(t.elts, v.elts) if isinstance(t, ast.Tuple)
                 and isinstance(v, ast.Tuple) and len(t.elts) == len(v.elts)
                 else [(t, v)])
        for name, value in pairs:
            if (isinstance(name, ast.Name) and binds[name.id] == 1
                    and isinstance(value, ast.Constant)):
                found[name.id] = value
    return found


def _calls(tree: ast.Module):
    """(callee name, positional args, keywords) of every call, with
    ``partial(f, ...)`` and ``map_batches(f, fn_args=, fn_kwargs=)``
    unwrapped to a call of ``f`` (positional args of a Ray UDF start
    after its batch argument), and a name the enclosing scope binds once
    to a literal replaced by that literal."""
    def visit(scope, chain):
        chain = [_literals(scope)] + chain

        def resolve(e):
            if isinstance(e, ast.Name):
                for names in chain:
                    if e.id in names:
                        return names[e.id] or e
            return e

        for node in _own_nodes(scope):
            if isinstance(node, _SCOPES):
                yield from visit(node, chain)
            elif isinstance(node, ast.Call):
                for name, args, keywords in _unwrap(node):
                    yield (name, [resolve(a) for a in args],
                           [ast.keyword(k.arg, resolve(k.value))
                            for k in keywords])

    yield from visit(tree, [])


def _unwrap(node: ast.Call):
    name = _callee(node.func)
    if name is None:
        return
    yield name, node.args, node.keywords
    if not node.args:
        return
    inner = _callee(node.args[0])
    if name == "partial" and inner:
        yield inner, node.args[1:], node.keywords
    kw = {k.arg: k.value for k in node.keywords if k.arg}
    if inner and ("fn_args" in kw or "fn_kwargs" in kw):
        args = kw.get("fn_args")
        pos = [ast.Constant(None)] + (
            list(args.elts) if isinstance(args, (ast.Tuple, ast.List))
            else [ast.Starred(args)] if args is not None else [])
        kws = kw.get("fn_kwargs")
        if isinstance(kws, ast.Dict):
            keywords = [ast.keyword(k.value if isinstance(k, ast.Constant)
                                    else None, v)
                        for k, v in zip(kws.keys, kws.values)]
        else:
            keywords = [] if kws is None else [ast.keyword(None, kws)]
        yield inner, pos, keywords


def _passed(opt: Option, args: list, keywords: list) -> list:
    """The values one call passes for ``opt`` (empty when it omits it)."""
    for k in keywords:
        if k.arg == opt.param:
            return [k.value]
    if any(k.arg is None for k in keywords):
        return [UNKNOWN]
    if opt.index is not None:
        i = opt.index - opt.offset
        for j, a in enumerate(args):
            if isinstance(a, ast.Starred):
                return [UNKNOWN] if j <= i else []
            if j == i:
                return [a]
    return []


def census() -> list[Option]:
    options = collect_options()
    by_name: dict[str, list[Option]] = {}
    for o in options:
        *owner, name = o.qualname.split(".")
        if name == "__init__":  # a class is called by its own name
            name = owner[-1]
        by_name.setdefault(name, []).append(o)
    sources = [(f, "perfbench" if os.path.relpath(f, ROOT).startswith(
        "perfbench") else "non_test") for f in _files(NON_TEST)]
    sources += [(f, "tests") for f in _files(TESTS)]
    for path, kind in sources:
        for name, args, keywords in _calls(_parse(path)):
            for o in by_name.get(name, ()):
                vals = _passed(o, args, keywords)
                o.values[kind] += vals
                if kind == "perfbench":  # perfbench is a non-test caller
                    o.values["non_test"] += vals
    return options


def report(options: list[Option]) -> list[str]:
    """The census lines: the count per class, then every option."""
    lines = [f"options: {len(options)}"]
    lines += [f"  {c}: {sum(o.klass() == c for o in options)}" for c in CLASSES]
    for c in CLASSES:
        lines.append(f"{c}:")
        lines += [f"  {o.name}" + ("" if c == VARIES or o.name in ALLOWLIST
                                   else "  [not allowlisted]")
                  for o in options if o.klass() == c]
    return lines


def unlisted(options: list[Option]) -> list[str]:
    """Options outside the first class that ALLOWLIST lacks."""
    return [o.name for o in options
            if o.klass() != VARIES and o.name not in ALLOWLIST]


def stale(options: list[Option]) -> list[str]:
    """ALLOWLIST entries that name no option outside the first class."""
    kept = {o.name for o in options if o.klass() != VARIES}
    return sorted(set(ALLOWLIST) - kept)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on an unlisted or stale allowlist option")
    args = ap.parse_args(argv)
    options = census()
    print("\n".join(report(options)))
    if args.check:
        bad = unlisted(options)
        old = stale(options)
        for name in bad:
            print(f"unlisted: {name}", file=sys.stderr)
        for name in old:
            print(f"stale allowlist entry: {name}", file=sys.stderr)
        return int(bool(bad or old))
    return 0


if __name__ == "__main__":
    sys.exit(main())
