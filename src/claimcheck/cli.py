"""Command-line interface: ingest, retrieve, verify, evaluate, cache.

All commands are file-driven and idempotent. verify persists per-claim
progress so an interrupted run resumes where it stopped instead of
re-spending LLM calls; output files are written atomically (temp file
plus rename).
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from .appendlog import AppendLog
from .config import AppConfig, load_app_config
from .corpus import (Claim, claim_id_field, json_record, json_type, load_dataset,
                     load_knowledge_store, repeated_ids, store_file_id)
from .dense import EmbeddingCache
from .errors import ClaimCheckError, ConfigError, ValidationError
from .generator import (
    FewshotPool,
    make_chat_provider,
    prediction_record,
    run_generation,
)
from .retriever import PoolFile, RetrievalResult, pool_key, read_pool, retrieve
from .scoring import averitec_score, load_predictions
from .verdict import ensemble, final_label, likert_softmax, load_external_probs


def _write_atomic(path: str, data: str) -> None:
    """Replace path with data; a crash leaves the old or the new content."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _select_claims(claims: list[Claim], spec: str | None) -> list[Claim]:
    if spec is None:
        return claims
    by_id = {c.id: c for c in claims}
    try:
        wanted = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --claims value {spec!r}: {exc}") from exc
    if not wanted:
        raise ValidationError(f"bad --claims value {spec!r}: names no claim id")
    unknown = [i for i in wanted if i not in by_id]
    if unknown:
        raise ValidationError(
            f"unknown claim ids {unknown}; valid ids: {sorted(by_id)}"
        )
    repeated = repeated_ids(wanted)
    if repeated:
        raise ValidationError(f"claim ids given more than once in --claims: {repeated}")
    return [by_id[i] for i in wanted]


def _retrieve_claim(cfg: AppConfig, claim: Claim) -> RetrievalResult:
    """Retrieve from the claim's documents, through its embedding cache and
    kept KNN pool if there is a cache dir.

    When a pool is kept for the claim, its store file and the settings,
    only the pool's documents are loaded, and the claim is retrieved in
    full only if the pool does not resolve.
    """
    store_path, cache_dir = cfg.paths.knowledge_store, cfg.paths.cache_dir
    if not cache_dir:
        store = load_knowledge_store(store_path, claim.id)
        return retrieve(claim, list(store.documents), cfg.retrieval, cfg.embedding)
    pool_path = os.path.join(cache_dir, f"pool_{claim.id}.pool")
    cache_path = os.path.join(cache_dir, f"emb_{claim.id}.cache")
    file_id = store_file_id(store_path, claim.id)
    kept = cache = None
    if file_id is not None:
        key = pool_key(claim, file_id, cfg.retrieval, cfg.embedding)
        kept = read_pool(pool_path, key)
    if kept is not None:
        store = load_knowledge_store(store_path, claim.id, cache_dir, kept.offsets)
        cache = EmbeddingCache(cache_path)
        if store.file_id == file_id:
            result = retrieve(claim, list(store.documents), cfg.retrieval, cfg.embedding,
                              cache, PoolFile(pool_path, key, store.offsets, kept))
            if result is not None:
                return result
    store = load_knowledge_store(store_path, claim.id, cache_dir)
    if cache is None:
        os.makedirs(cache_dir, exist_ok=True)
        cache = EmbeddingCache(cache_path)
    pool = None
    if store.file_id is not None:
        key = pool_key(claim, store.file_id, cfg.retrieval, cfg.embedding)
        pool = PoolFile(pool_path, key, store.offsets)
    return retrieve(claim, list(store.documents), cfg.retrieval, cfg.embedding, cache, pool)


def _run_claims(claims: list[Claim], jobs: int, work):
    """Run work(claim) for every claim on jobs threads.

    Yields (claim, result, error) in claim order, each as soon as that
    claim and the ones before it are done; error is the ClaimCheckError
    work raised (result None), else None. Closing the generator early
    cancels the claims not yet started and waits for the running ones.
    """
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [(claim, pool.submit(work, claim)) for claim in claims]
        try:
            for claim, future in futures:
                try:
                    yield claim, future.result(), None
                except ClaimCheckError as exc:
                    yield claim, None, exc
        finally:
            pool.shutdown(cancel_futures=True)


def cmd_ingest(args, cfg: AppConfig) -> int:
    cfg.require_paths("dataset")
    claims = load_dataset(cfg.paths.dataset)
    selected = _select_claims(claims, args.claims)
    labeled = sum(1 for c in claims if c.gold_label is not None)
    print(f"claims: {len(claims)} ({labeled} labeled)")
    if cfg.paths.knowledge_store:
        cfg.require_paths("knowledge_store")
        docs = 0
        dropped = 0
        sentences = 0
        for claim in selected:
            store = load_knowledge_store(
                cfg.paths.knowledge_store, claim.id, cfg.paths.cache_dir
            )
            docs += len(store.documents)
            dropped += store.dropped_empty
            sentences += sum(len(d.sentences) for d in store.documents)
        print(f"documents: {docs} ({dropped} dropped as empty)")
        print(f"sentences: {sentences}")
    return 0


def cmd_retrieve(args, cfg: AppConfig) -> int:
    cfg.require_paths("dataset", "knowledge_store")
    os.makedirs(cfg.paths.output_dir, exist_ok=True)
    claims = _select_claims(load_dataset(cfg.paths.dataset), args.claims)

    def work(claim: Claim) -> dict:
        return _retrieve_claim(cfg, claim).trace

    failures: list[tuple[int, str]] = []
    with contextlib.closing(_run_claims(claims, args.jobs, work)) as results:
        for claim, trace, error in results:
            if error is not None:
                if not args.keep_going:
                    print(f"claim {claim.id} failed: {error}", file=sys.stderr)
                    return 1
                failures.append((claim.id, str(error)))
                continue
            path = os.path.join(cfg.paths.output_dir, f"trace_{claim.id}.json")
            _write_atomic(path, _dump_json(trace))

    errors_path = os.path.join(cfg.paths.output_dir, "retrieve_errors.jsonl")
    if failures:
        _write_atomic(errors_path, "".join(
            json.dumps({"claim_id": claim_id, "error": message}) + "\n"
            for claim_id, message in failures
        ))
        print(f"retrieved {len(claims) - len(failures)}/{len(claims)} claims, "
              f"{len(failures)} failures recorded in {errors_path}")
    else:
        # an earlier run's failures no longer hold
        with contextlib.suppress(FileNotFoundError):
            os.remove(errors_path)
        print(f"retrieved {len(claims)}/{len(claims)} claims")
    return 0


def _load_progress(progress: AppendLog) -> dict[int, dict]:
    """Finished prediction records by claim id.

    The last status per claim wins; errored claims are retried on rerun.
    """
    last: dict[int, dict | None] = {}
    for where, obj, _payload in progress.read():
        claim_id, record = json_record(
            progress.path, f"{where}: bad progress entry", obj, _progress_entry
        )
        last[claim_id] = record
    return {claim_id: record for claim_id, record in last.items() if record is not None}


def _progress_entry(entry: dict) -> tuple[int, dict | None]:
    """The claim id of a progress line, and its record if its status is ok."""
    claim_id = claim_id_field(entry)
    if entry.get("status") != "ok":
        return claim_id, None
    record = entry["record"]
    if not isinstance(record, dict):
        raise ValidationError(f"record must be an object, got {json_type(record)}")
    return claim_id, record


def cmd_verify(args, cfg: AppConfig) -> int:
    cfg.require_paths("dataset", "knowledge_store")
    os.makedirs(cfg.paths.output_dir, exist_ok=True)
    all_claims = load_dataset(cfg.paths.dataset)
    claims = _select_claims(all_claims, args.claims)

    # indexed by the first claim that asks for few-shot examples
    fewshot_pool = FewshotPool()
    if cfg.paths.train_set and not cfg.generator.simplified:
        cfg.require_paths("train_set")
        fewshot_pool = FewshotPool(load_dataset(cfg.paths.train_set, "train set"))

    ext_probs = {}
    if cfg.ensemble.probs_path:
        ext_probs = load_external_probs(cfg.ensemble.probs_path)

    provider = make_chat_provider(cfg.generator)
    progress = AppendLog(os.path.join(cfg.paths.output_dir, "verify_progress.jsonl"))
    done = _load_progress(progress)

    pending = [c for c in claims if c.id not in done]

    def work(claim: Claim) -> dict:
        result = _retrieve_claim(cfg, claim)
        output = run_generation(
            claim, list(result.sources), fewshot_pool, cfg.generator, provider
        )
        dist = likert_softmax(output.ratings)
        if claim.id in ext_probs:
            dist = ensemble(dist, ext_probs[claim.id], cfg.ensemble)
        final = final_label(dist, output.verdict)
        return prediction_record(claim, list(result.sources), output, final)

    # progress is appended from this thread only, as each claim completes
    failures: list[tuple[int, str]] = []
    with contextlib.closing(_run_claims(pending, args.jobs, work)) as results:
        for claim, record, error in results:
            if error is not None:
                failures.append((claim.id, str(error)))
                entry = {"claim_id": claim.id, "status": "error", "error": str(error)}
            else:
                done[claim.id] = record
                entry = {"claim_id": claim.id, "status": "ok", "record": record}
            progress.append(entry)

    ordered = [done[c.id] for c in claims if c.id in done]
    out_path = os.path.join(cfg.paths.output_dir, "predictions.json")
    _write_atomic(out_path, _dump_json(ordered))

    print(
        f"verified {len(ordered)}/{len(claims)} claims, {len(failures)} failures; "
        f"predictions written to {out_path}"
    )
    for claim_id, message in failures:
        print(f"  claim {claim_id}: {message}", file=sys.stderr)
    return 1 if failures else 0


def cmd_evaluate(args, cfg: AppConfig) -> int:
    cfg.require_paths("dataset")
    preds_path = args.predictions or os.path.join(
        cfg.paths.output_dir, "predictions.json"
    )
    preds = load_predictions(preds_path)
    golds = _select_claims(load_dataset(cfg.paths.dataset), args.claims)

    report = averitec_score(preds, golds, cfg.scoring)

    os.makedirs(cfg.paths.output_dir, exist_ok=True)
    json_path = os.path.join(cfg.paths.output_dir, "report.json")
    _write_atomic(json_path, _dump_json(report.to_json_dict()))
    csv_path = os.path.join(cfg.paths.output_dir, "report.csv")
    csv_text = "\n".join(
        ",".join(row) for row in report.csv_rows(cfg.scoring.thresholds)
    )
    _write_atomic(csv_path, csv_text + "\n")

    print(f"Q only:   {report.q_score:.4f}")
    print(f"Q + A:    {report.qa_score:.4f}")
    for t in cfg.scoring.thresholds:
        print(f"AVeriTeC @ {t:g}: {report.averitec_score[t]:.4f}")
    print(f"Accuracy: {report.accuracy:.4f}")
    print(f"Macro F1: {report.macro_f1:.4f}")
    print(f"report written to {json_path} and {csv_path}")
    return 0


def cmd_cache(args, cfg: AppConfig) -> int:
    if not cfg.paths.cache_dir:
        raise ConfigError("paths.cache_dir is not configured")
    if args.action == "inspect":
        files = sorted(glob.glob(os.path.join(cfg.paths.cache_dir, "emb_*.cache")))
        total = 0
        for path in files:
            count = len(EmbeddingCache(path))
            total += count
            print(f"{path}: {count} vectors")
        print(f"{len(files)} cache files, {total} vectors total")
        return 0
    # clear: the cache files, with any older emb_{id}.jsonl and the files
    # derived from it, the kept pools, the pruned orders and token tables
    # older versions kept (never read), the store indexes and any temporary
    # file a killed writer of those left (write_derived names it
    # {path}.{pid}-{tid}.tmp); other files are not ours to remove
    def matching(*patterns: str) -> list[str]:
        return [p for pattern in patterns
                for p in glob.glob(os.path.join(cfg.paths.cache_dir, pattern))]

    caches = matching("emb_*")
    pools = matching("pool_*.pool")
    older = matching("pruned_*.order", "tokens_*.table")
    temporary = matching("store_*.index.*.tmp", "pool_*.pool.*.tmp", "pruned_*.order.*.tmp",
                         "tokens_*.table.*.tmp")
    for path in caches + pools + older + matching("store_*.index") + temporary:
        os.remove(path)
    print(f"removed {len(caches)} cache files, {len(pools)} kept pools, "
          f"{len(older)} older pruned orders and token tables and "
          f"{len(temporary)} temporary files")
    return 0


def _worker_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.FIELD=VALUE",
        help="override one config field; may repeat",
    )
    # a dedicated flag's dest is the config key it overrides (see _overrides_from)
    for flag, key, text in (
        ("--dataset", "paths.dataset", "dataset JSON file"),
        ("--knowledge-store", "paths.knowledge_store", "knowledge store file or directory"),
        ("--train-set", "paths.train_set", "training dataset for few-shot examples"),
        ("--cache-dir", "paths.cache_dir",
         "directory for embedding caches, and for the store index and kept KNN pools "
         "that speed up warm reruns"),
        ("--output-dir", "paths.output_dir", "directory for traces, predictions, reports"),
        ("--omega", "retrieval.omega", "BM25 prune size"),
        ("--k", "retrieval.k", "number of sources to retrieve"),
        ("--mock-script", "generator.script_path", "scripted responses for the mock LLM"),
        ("--probs", "ensemble.probs_path", "external classifier probabilities file"),
        ("--weight-external", "ensemble.weight_external", "ensemble weight for external probs"),
        ("--thresholds", "scoring.thresholds", "comma-separated evaluation thresholds"),
    ):
        common.add_argument(flag, dest=key, help=text)
    common.add_argument(
        "--simplified",
        dest="generator.simplified",
        action="store_const",
        const="true",
        help="disable few-shot, answer types, and Likert ratings",
    )
    common.add_argument("--verbose", action="store_true", help="debug logging")
    # every command but cache reads --claims
    with_claims = argparse.ArgumentParser(add_help=False, parents=[common])
    with_claims.add_argument("--claims", help="comma-separated claim ids to process")

    parser = argparse.ArgumentParser(
        prog="claimcheck",
        description="Retrieval-augmented claim verification and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[with_claims], help="validate and summarize input data")
    p.set_defaults(func=cmd_ingest)
    p = sub.add_parser("retrieve", parents=[with_claims], help="write per-claim retrieval traces")
    p.add_argument("--jobs", type=_worker_count, default=1, help="parallel workers")
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="record per-claim failures instead of aborting",
    )
    p.set_defaults(func=cmd_retrieve)
    p = sub.add_parser("verify", parents=[with_claims], help="run the full pipeline, write predictions")
    p.add_argument("--jobs", type=_worker_count, default=1, help="parallel workers")
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("evaluate", parents=[with_claims], help="score a prediction file")
    p.add_argument("--predictions", help="prediction file (default: output_dir/predictions.json)")
    p.set_defaults(func=cmd_evaluate)
    p = sub.add_parser("cache", parents=[common], help="inspect or clear embedding caches")
    p.add_argument("action", choices=["inspect", "clear"])
    p.set_defaults(func=cmd_cache)
    return parser


def _overrides_from(args) -> dict[str, str]:
    # dedicated flags are the only dests with a dot; --set wins over them
    overrides = {
        dest: value for dest, value in vars(args).items() if "." in dest and value is not None
    }
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects SECTION.FIELD=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = load_app_config(args.config, os.environ, _overrides_from(args))
        return args.func(args, cfg)
    except (ValidationError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClaimCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
