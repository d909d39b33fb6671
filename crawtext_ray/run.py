"""CLI entrypoint (SURVEY.md §3.1): the ``ray job submit``-able driver.

    python -m crawtext_ray.run --input <pages parquet dir> --out <dir> \
        [--query '"climate" AND NOT spam'] [--partitions 64] \
        [--rules rules.txt] [--report]

Owns its Ray session (guarded init) — library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="crawtext_ray.run")
    ap.add_argument("--input", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--query", default=None)
    ap.add_argument("--rules", default=None, help="EasyList rules file")
    ap.add_argument("--partitions", type=int, default=64)
    ap.add_argument("--batch-size", type=int, default=64)
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--incremental-from", default=None,
                    help="previous run's output dir: urls already "
                         "extracted there are skipped (Bloom anti-join; "
                         "the cron-re-run model; not with --curate)")
    ap.add_argument("--report", action="store_true",
                    help="print per-language report after the run")
    ap.add_argument("--curate", action="store_true",
                    help="run the training-data curation chain (quality "
                         "gate + exact & near dedup) instead of the raw "
                         "extract job")
    ap.add_argument("--min-words", type=int, default=20)
    ap.add_argument("--decontaminate-from", default=None,
                    help="path to an eval/benchmark set (parquet with a "
                         "text column, or plain text: one document per "
                         "line); --curate drops articles sharing any "
                         "8-gram with it")
    ap.add_argument("--verify-dups", type=float, default=None,
                    help="exact-Jaccard threshold for verifying near-dup "
                         "candidates before dropping them in --curate "
                         "(default: drop all LSH candidates)")
    ap.add_argument("--max-nll", type=float, default=None,
                    help="--curate perplexity gate: drop articles whose "
                         "unigram-LM cross-entropy exceeds this (model "
                         "trained on the gated corpus)")
    ap.add_argument("--lang-rates", default=None, metavar="L=R,...",
                    help="--curate per-language quota sampling applied "
                         "after dedup, e.g. 'en=0.3,fr=1.0' (unlisted "
                         "languages keep rate 1.0)")
    ap.add_argument("--dsir-from", default=None, metavar="PATH",
                    help="with --curate: target-domain corpus (parquet "
                         "dir/file with a 'text' column, or plain text, "
                         "one doc per line) - keep the top --dsir-keep "
                         "fraction of curated docs by DSIR importance "
                         "weight (target-vs-corpus unigram LMs)")
    ap.add_argument("--dsir-keep", type=float, default=None,
                    help="fraction kept by --dsir-from (default 0.25)")
    ap.add_argument("--dedup-paragraphs", action="store_true",
                    help="--curate corpus-wide paragraph-level exact "
                         "dedup (C4/Dolma boilerplate removal: every "
                         ">=30-char paragraph keeps one occurrence)")
    ap.add_argument("--export-shards", type=int, default=None,
                    metavar="N",
                    help="after the job, deterministically shuffle-shard "
                         "the output into N training shards under "
                         "<out>_shards (stages/shuffle.py: hash decides "
                         "shard AND in-shard order, so reruns are "
                         "byte-identical and resume per shard)")
    ap.add_argument("--bpe-vocab", type=int, default=None, metavar="V",
                    help="with --export-shards: train a from-scratch "
                         "byte-level BPE tokenizer (V total tokens, "
                         ">= 256) on the exported corpus and write REAL "
                         "subword counts (n_bpe_tokens) plus GPT-style "
                         "pack assignments (pack_id/pack_offset over "
                         "seq-len windows) into the shards")
    ap.add_argument("--seq-len", type=int, default=2048,
                    help="pack window length for --bpe-vocab (tokens)")
    ap.add_argument("--bpe-ids", action="store_true",
                    help="with --bpe-vocab: also write the encoded "
                         "token-id sequence (bpe_ids, list<int32>) into "
                         "each shard row - the directly loader-"
                         "consumable tokenized export")
    args = ap.parse_args(argv)

    if args.bpe_vocab is not None:
        # fail fast pre-Ray, like the --query / --lang-rates checks
        if args.bpe_vocab < 256:
            print("error: --bpe-vocab must be >= 256 (byte-level vocab)",
                  file=sys.stderr)
            return 2
        if not args.export_shards:
            print("error: --bpe-vocab requires --export-shards",
                  file=sys.stderr)
            return 2
        if args.seq_len < 1:
            print("error: --seq-len must be >= 1", file=sys.stderr)
            return 2
    if args.bpe_ids and args.bpe_vocab is None:
        print("error: --bpe-ids requires --bpe-vocab", file=sys.stderr)
        return 2
    if not args.curate:
        # the curate chain is the only reader of these flags
        curate_only = [flag for flag, val in (
            ("--decontaminate-from", args.decontaminate_from),
            ("--verify-dups", args.verify_dups),
            ("--max-nll", args.max_nll),
            ("--lang-rates", args.lang_rates),
            ("--dsir-from", args.dsir_from),
            ("--dedup-paragraphs", args.dedup_paragraphs),
        ) if val is not None and val is not False]
        for flag in curate_only:
            print(f"error: {flag} requires --curate", file=sys.stderr)
        if curate_only:
            return 2
    if args.incremental_from and args.curate:
        print("error: --incremental-from applies to the extract job only, "
              "not --curate", file=sys.stderr)
        return 2
    if args.dsir_from is None:
        if args.dsir_keep is not None:
            print("error: --dsir-keep requires --dsir-from", file=sys.stderr)
            return 2
    elif args.dsir_keep is None:
        args.dsir_keep = 0.25
    elif not 0.0 < args.dsir_keep <= 1.0:
        print("error: --dsir-keep must be in (0, 1]", file=sys.stderr)
        return 2

    lang_rates = None
    if args.lang_rates:
        # fail fast pre-Ray on malformed rates, like the --query check
        try:
            lang_rates = {
                k.strip(): float(v) for k, v in
                (kv.split("=", 1) for kv in args.lang_rates.split(","))
            }
        except ValueError:
            print(f"error: invalid --lang-rates {args.lang_rates!r} "
                  "(expected 'lang=rate,...', e.g. 'en=0.3,fr=1.0')",
                  file=sys.stderr)
            return 2
        bad = {k: v for k, v in lang_rates.items()
               if not 0.0 <= v <= 1.0 or not k}
        if bad:
            print(f"error: --lang-rates values must be in [0, 1]: {bad}",
                  file=sys.stderr)
            return 2

    if args.query:
        # fail fast on a malformed query, before any workers spin up
        from crawtext_ray.extract.query import Query, QueryError

        try:
            Query(args.query)
        except QueryError as e:
            print(f"error: invalid --query: {e}", file=sys.stderr)
            return 2

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    try:
        from crawtext_ray.pipelines.flagship import run_extract_job

        rule_lines = None
        if args.rules:
            with open(args.rules) as f:
                rule_lines = f.read().splitlines()

        if args.curate:
            from crawtext_ray.pipelines.training_data import curate

            def load_docs_arg(p: str, flag: str):
                """Parquet dir / parquet file / plain-text file (one doc
                per line) → Dataset or list[str]; shared by the
                decontamination and DSIR corpus flags."""
                import glob as _glob

                if os.path.isdir(p):
                    # accept nested layouts (train/, test/ subdirs)
                    pq_files = sorted(_glob.glob(
                        os.path.join(p, "**", "*.parquet"), recursive=True
                    ))
                    if not pq_files:
                        print(
                            f"{flag}: no *.parquet under "
                            f"{p!r} (a directory must hold the corpus "
                            "as parquet; for plain text pass a file, "
                            "one document per line)",
                            file=sys.stderr,
                        )
                        raise SystemExit(2)
                    import ray.data as rd

                    return rd.read_parquet(pq_files)
                if p.endswith(".parquet"):
                    import ray.data as rd

                    return rd.read_parquet(p)
                with open(p) as f:
                    return [ln for ln in f.read().splitlines() if ln]

            benchmark = None
            if args.decontaminate_from:
                benchmark = load_docs_arg(args.decontaminate_from,
                                          "--decontaminate-from")
            dsir_target = None
            if args.dsir_from:
                dsir_target = load_docs_arg(args.dsir_from, "--dsir-from")

            # task-fused stages throughout: no pool sizing, no
            # multi-pool starvation (stages share the CPU pool naturally)
            curated = curate(
                args.input,
                out_dir=args.out,
                query_expression=args.query,
                rule_lines=rule_lines,
                num_partitions=args.partitions,
                concurrency="tasks",
                min_words=args.min_words,
                verify_dups=args.verify_dups,
                benchmark=benchmark,
                max_nll=args.max_nll,
                rates=lang_rates,
                dedup_paras=args.dedup_paragraphs,
                dsir_target=dsir_target,
                dsir_keep=args.dsir_keep,
            )
            print(json.dumps({"out_dir": args.out, "rows": curated.count()}))
        else:
            summary = run_extract_job(
                args.input,
                args.out,
                query_expression=args.query,
                rule_lines=rule_lines,
                num_partitions=args.partitions,
                batch_size=args.batch_size,
                incremental_from=args.incremental_from,
            )
            print(json.dumps(summary))

        if args.export_shards:
            import ray.data as rd

            from crawtext_ray.stages.shuffle import write_training_shards

            articles = rd.read_parquet(args.out, file_extensions=["parquet"])
            pack_kwargs = {}
            if args.bpe_vocab:
                from crawtext_ray.stages.bpe import (
                    add_bpe_token_counts,
                    train_bpe,
                )

                import ray as _ray

                tok_ref = _ray.put(train_bpe(
                    articles, text_col="extracted_text",
                    vocab_size=args.bpe_vocab))
                if args.bpe_ids:
                    # ONE tokenization pass emits both ids and counts
                    from crawtext_ray.stages.bpe import bpe_encode_docs

                    articles = bpe_encode_docs(
                        articles, tok_ref, text_col="extracted_text",
                        with_counts=True)
                else:
                    articles = add_bpe_token_counts(
                        articles, tok_ref, text_col="extracted_text")
                pack_kwargs = {"pack_seq_len": args.seq_len,
                               "n_tokens_col": "n_bpe_tokens"}
            manifest = write_training_shards(
                articles, args.out.rstrip("/") + "_shards",
                n_shards=args.export_shards, key="url",
                **pack_kwargs,
            )
            summary = {
                "shards_dir": args.out.rstrip("/") + "_shards",
                "n_shards": len(manifest),
                "rows": sum(m["rows"] for m in manifest),
            }
            if args.bpe_vocab:
                summary["bpe_vocab"] = args.bpe_vocab
                summary["seq_len"] = args.seq_len
            print(json.dumps(summary))

        if args.report:
            import ray.data as rd

            from crawtext_ray.stages.report import report_lang

            articles = rd.read_parquet(args.out, file_extensions=["parquet"])
            print(json.dumps({"report_lang": report_lang(articles).take_all()}))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
