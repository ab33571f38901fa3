"""Command-line surface: synth, ingest, run, report.

A single JSON config document can set every knob; command-line flags
override config keys, which override built-in defaults.  Every command
writes a run.json capturing the merged config, tool version, and input
digests, and all outputs are written atomically so interrupted runs never
leave corrupt files.  Exit codes: 0 success, 1 experiment-cell failure,
2 input error.
"""

import argparse
import hashlib
import math
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__, synth
from .classifiers import Variant
from .errors import FalldetectError, ParseError
from .evaluation import (
    GridConfig,
    assemble_report,
    cell_inputs,
    fold_batches,
    report_from_dict,
    run_experiment,
    run_folds,
    save_report_json,
    summary_row,
    write_roc_csv,
)
from .features import FeatureKind, LtpParams
from .ingest import (
    COLLECTIONS,
    SUB_WINDOWS,
    _atomic_write_text,
    _read_json,
    _write_json,
    build_collection,
    collection_from_manifest,
    dataset_files,
    load_parsed,
    parse_dataset1,
    parse_dataset2,
    save_manifest,
    save_parsed,
)

FEATURE_ORDER = tuple(kind.value for kind in FeatureKind)
CLASSIFIER_ORDER = tuple(variant.value for variant in Variant)
# The keys that name a cell in a summary row, in sort order, with their
# choices.  Each key plus "s" is the config key that selects cells.
_CELL_CHOICES = {
    "collection": COLLECTIONS,
    "feature": FEATURE_ORDER,
    "window": SUB_WINDOWS,
    "classifier": CLASSIFIER_ORDER,
}


def _integer(low):
    return int, lambda x: x >= low and x.is_integer(), f"an integer >= {low}"


_POSITIVE = (float, lambda x: x > 0, "a number > 0")
_GRID = GridConfig()
_LTP = LtpParams()

# Each checked setting: its default, its cast, its test and the words of
# its error.  A grid is a non-empty list of such values.
_SETTINGS = {
    "seed": (0, *_integer(0)),
    "jobs": (1, *_integer(1)),
    "adl": (200, *_integer(0)),
    "falls": (20, *_integer(0)),
    "inner_folds": (_GRID.inner_folds, *_integer(2)),
    "svm_tol": (_GRID.svm_tol, *_POSITIVE),
    "svm_max_iter": (_GRID.svm_max_iter, *_integer(1)),
    "ltp_neighbours": (_LTP.num_neighbours, *_integer(1)),
    "ltp_step": (_LTP.step, *_POSITIVE),
    "k_grid": (_GRID.k_grid, *_integer(1)),
    "c_grid": (_GRID.c_grid, *_POSITIVE),
    "gamma_grid": (_GRID.gamma_grid, float, lambda x: x > 0, '"auto" or a number > 0'),
    "nu_grid": (_GRID.nu_grid, float, lambda x: 0 < x <= 1, "a number in (0, 1]"),
}

_CONFIG_DEFAULTS = {
    "dataset1": None,
    "dataset2": None,
    "out": "out",
    **{what + "s": list(choices) for what, choices in _CELL_CHOICES.items()},
    "collections": None,  # None: what the configured dataset paths support
    **{key: spec[0] for key, spec in _SETTINGS.items()},
}


def _checked(key, raw):
    """Setting key's value from raw, its default when raw is None;
    ValueError naming the key when raw is out of bounds.  A bool is not
    a number, and an int stays exact past 2**53, where a float rounds."""
    default, cast, ok, wanted = _SETTINGS[key]
    if raw is None:
        return default
    grid = isinstance(default, tuple)
    words = f"a non-empty list, each entry {wanted}" if grid else wanted
    if grid and (not isinstance(raw, (list, tuple)) or not raw):
        raise ValueError(f"{key} must be {words}, got {raw!r}")
    out = []
    for v in raw if grid else [raw]:
        if key == "gamma_grid" and v == "auto":
            out.append(v)
            continue
        try:
            x = math.nan if isinstance(v, bool) else float(v)
        except (TypeError, ValueError):
            x = math.nan
        if not (math.isfinite(x) and ok(x)):
            raise ValueError(f"{key} must be {words}, got {raw!r}")
        out.append(int(v) if cast is int and isinstance(v, int) else cast(x))
    return tuple(out) if grid else out[0]


def grid_config(config):
    """GridConfig from the checked settings of load_config."""
    kwargs = {f.name: config[f.name] for f in fields(GridConfig) if f.name in config}
    ltp = LtpParams(num_neighbours=config["ltp_neighbours"], step=config["ltp_step"])
    return GridConfig(**kwargs, ltp_params=ltp)


def _parse_choices(raw, universe, what):
    """Members of universe picked by raw: a name or a list of names, each
    possibly a comma- or space-separated list, case-insensitive, with "all"
    picking every member.  None passes through; an empty pick is an error."""
    if raw is None:
        return None
    items = list(raw) if isinstance(raw, (list, tuple)) else [raw]
    names = {str(u).upper(): u for u in universe}
    out = []
    for item in items:
        for piece in str(item).replace(",", " ").split():
            name = piece.upper()
            if name != "ALL" and name not in names:
                choices = ", ".join(str(u) for u in universe)
                raise ValueError(f"unknown {what} {piece!r}; choose from {choices} or all")
            if name not in out:
                out.append(name)
    if not out:
        raise ValueError(f"no {what} selected from {raw!r}")
    return list(universe) if "ALL" in out else [names[name] for name in out]


def load_config(args):
    """Merge defaults, the optional config file, and command-line flags
    into one dict; choice lists, paths and settings are checked here, and
    a null setting means its default."""
    merged = dict(_CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        doc = _read_json(args.config)
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        # a stored run.json nests the actual config under "config"
        if isinstance(doc.get("config"), dict):
            doc = doc["config"]
        unknown = set(doc) - set(_CONFIG_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update({k: v for k, v in doc.items() if v is not None})
    for key in _CONFIG_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    for key in ("dataset1", "dataset2", "out"):
        if not isinstance(merged[key], (str, type(None))):
            raise ValueError(f"{key} must be a path string, got {merged[key]!r}")
    for what, universe in _CELL_CHOICES.items():
        merged[what + "s"] = _parse_choices(merged[what + "s"], universe, what)
    for key in _SETTINGS:
        merged[key] = _checked(key, merged[key])
    return merged


# ---------------------------------------------------------------------------
# run.json and digests


def _digest_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_dataset(dataset, path):
    """sha256 over the name, relative to path, and the content digest of
    every file the parser of dataset reads there."""
    h = hashlib.sha256()
    for f in dataset_files(dataset, path):
        h.update(str(f.relative_to(path)).encode())
        h.update(_digest_file(f).encode())
    return h.hexdigest()


def _write_run_json(out_dir, command, config, inputs):
    doc = {
        "command": command,
        "version": __version__,
        "config": config,
        "inputs": {str(k): v for k, v in inputs.items()},
    }
    _write_json(Path(out_dir) / "run.json", doc)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(config):
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    manifest = synth.generate_dataset(
        out, n_adl=config["adl"], n_falls=config["falls"], seed=config["seed"]
    )
    _write_run_json(out, "synth", config, {})
    print(f"wrote {manifest['counts']['ADL']} ADL + {manifest['counts']['FALL']} FALL "
          f"windows to {out}")
    return 0


def _load_datasets(config, wanted, out=None):
    """The instances of dataset1 and of dataset2 (None unless wanted holds
    C2 or C3), and the digest of each dataset, by its configured path.
    Each dataset is digested before it is read.  With out, a dataset
    whose parse record there matches its digest is read back from the
    record; any other is parsed."""
    digests = {}

    def load(key, parse):
        path = config[key]
        if not path:
            raise FileNotFoundError(f"{key} path required but not configured")
        try:
            digest = _digest_dataset(key, path)
        except OSError:
            parse(path)  # a missing or unreadable file: the parser names it in its words
            raise
        instances = (out is not None and load_parsed(out, key, digest)) or parse(path)
        if not instances:
            raise FileNotFoundError(f"no instances found in {path}")
        digests[path] = digest
        return instances

    d1 = load("dataset1", parse_dataset1)
    d2 = load("dataset2", parse_dataset2) if {"C2", "C3"} & set(wanted) else None
    return d1, d2, digests


def _wanted_collections(config):
    wanted = config["collections"]
    if wanted is None:
        # default to what the configured dataset paths can support
        wanted = ["C1"]
        if config["dataset2"]:
            wanted = list(COLLECTIONS)
    return wanted


def cmd_ingest(config):
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    wanted = _wanted_collections(config)
    d1, d2, inputs = _load_datasets(config, wanted)
    for cid in wanted:
        collection = build_collection(cid, d1, d2, seed=config["seed"])
        save_manifest(collection, out / f"collection_{cid}.json")
        counts = collection.counts()
        parts = ", ".join(f"{label} {src}: {n}" for (label, src), n in sorted(counts.items()))
        print(f"{cid}: {len(collection)} instances ({parts})")
    for key, instances in (("dataset1", d1), ("dataset2", d2)):
        if instances is not None:
            save_parsed(out, key, instances, inputs[config[key]])
    _write_run_json(out, "ingest", config, inputs)
    return 0


def _error_row(cell, exc):
    """The summary row of a cell that raised exc.  A FalldetectError keeps
    its bare message, any other exception is named by its type."""
    text = str(exc) if isinstance(exc, FalldetectError) else f"{type(exc).__name__}: {exc}"
    cid, feature, window, classifier = cell
    return {"collection": cid, "feature": feature, "window": int(window),
            "classifier": classifier, "status": "error",
            "error": text.replace(",", ";").replace("\n", " ")}


def _cell_outcome(cell, build):
    """The summary row of cell and the report build() returns, or its
    error row and None when build raises."""
    try:
        report = build()
    except Exception as exc:  # one failed cell must not lose the others
        return _error_row(cell, exc), None
    return {**summary_row(report), "status": "ok"}, report


# The state of a process that runs cells, the main process under --jobs 1
# and each pool worker under --jobs N: the collections and grid config of
# the run, set by _init_worker, and the inputs of the one (collection id,
# feature, window) triple the process built last.
_worker = {}


def _init_worker(collections, grid_cfg):
    _worker.update(collections=collections, grid_cfg=grid_cfg, triple=None, inputs=None)


def _triple_inputs(cell):
    """The CellInputs of cell's (collection id, feature, window) triple,
    built only when the triple is not the one built last.  The last
    triple's are dropped before the build, and nothing is kept when it
    raises, so each later ask builds again."""
    if _worker["triple"] != cell[:3]:
        _worker.update(triple=None, inputs=None)
        collection = _worker["collections"][cell[0]]
        _worker["inputs"] = cell_inputs(collection, *cell[1:3], _worker["grid_cfg"])
        _worker["triple"] = cell[:3]
    return _worker["inputs"]


def _run_serial(cells, collections, grid_cfg):
    """Each cell's row and report, one run_experiment call per cell; the
    variants of one triple, which cells lists one after another, share
    the triple's inputs, as the outer folds of a pool worker do."""
    _init_worker(collections, grid_cfg)
    try:
        for cell in cells:
            yield _cell_outcome(cell, lambda: run_experiment(
                collections[cell[0]], *cell[1:], grid_cfg, inputs=_triple_inputs(cell)))
    finally:
        _worker.clear()


def _run_fold_unit(cell, folds):
    """The batch of outer folds folds of cell in a pool worker: their
    FoldResults and None, or None and the error row of whatever failed."""
    try:
        return run_folds(_triple_inputs(cell), cell[3], folds, _worker["grid_cfg"]), None
    except Exception as exc:  # the parent turns it into the cell's row
        return None, _error_row(cell, exc)


def _gather_cell(cell, batches, futures, collection, grid_cfg):
    """cell's row and report from the futures of its fold batches' units,
    read in fold order: the first batch that failed, or was lost to a dead
    worker, gives the error row, and the later batches are cancelled.  A
    lost batch is named by its first fold."""
    from concurrent.futures.process import BrokenProcessPool

    folds = []
    for b, future in enumerate(futures):
        try:
            results, row = future.result()
        except BrokenProcessPool:
            lost = BrokenProcessPool(
                f"outer fold {batches[b][0]} was lost when a pool worker process died")
            results, row = None, _error_row(cell, lost)
        if row is not None:
            for later in futures[b + 1:]:
                later.cancel()
            return row, None
        folds += results
    return _cell_outcome(cell, lambda: assemble_report(collection, *cell[1:], folds, grid_cfg))


def _run_pool(cells, collections, grid_cfg, jobs):
    """Each cell's row and report, in the order of cells, from (cell, fold
    batch) units (fold_batches) run in cell-major order on jobs worker
    processes, never more than units.  Every worker gets the collections
    and grid config once, when it starts; a cell is yielded as soon as its
    folds are in.  The pool module is imported here, so that a process
    that starts no pool does not load it."""
    from concurrent.futures import ProcessPoolExecutor

    batches = [fold_batches(collections[cell[0]].fold_plan, cell[3], grid_cfg) for cell in cells]
    # a fork pool starts all of its workers at the first submit
    pool = ProcessPoolExecutor(min(jobs, sum(map(len, batches))), initializer=_init_worker,
                               initargs=(collections, grid_cfg))
    try:
        units = [[pool.submit(_run_fold_unit, cell, batch) for batch in cell_batches]
                 for cell, cell_batches in zip(cells, batches)]
        for cell, cell_batches, futures in zip(cells, batches, units):
            yield _gather_cell(cell, cell_batches, futures, collections[cell[0]], grid_cfg)
    finally:
        pool.shutdown(cancel_futures=True)


def _cell_name(row, sep=" "):
    return sep.join(str(row[k]) for k in _CELL_CHOICES)


def _summary_lines(rows):
    header = "collection,feature,window,classifier,auc,se,sp,gm,status,error"
    lines = [header]
    for r in rows:
        if r.get("status") == "ok":
            rates = f"{r['auc']!r},{r['se']!r},{r['sp']!r},{r['gm']!r}"
            lines.append(f"{_cell_name(r, ',')},{rates},ok,")
        else:
            lines.append(f"{_cell_name(r, ',')},,,,,error,{r['error']}")
    return "\n".join(lines) + "\n"


def _sorted_rows(rows):
    return sorted(rows, key=lambda r: tuple(c.index(r[k]) for k, c in _CELL_CHOICES.items()))


def _write_summary(out, rows):
    """Write summary.csv and summary.json, print one line per row, and
    return the exit code: 1 when any cell failed."""
    rows = _sorted_rows(rows)
    _atomic_write_text(out / "summary.csv", _summary_lines(rows))
    _write_json(out / "summary.json", rows)
    for r in rows:
        if r["status"] == "ok":
            print(
                f"{_cell_name(r)}: "
                f"AUC {r['auc']:.3f} SE {r['se']:.3f} SP {r['sp']:.3f} GM {r['gm']:.3f}"
            )
        else:
            print(f"{_cell_name(r)}: ERROR {r['error']}")
    return 1 if any(r["status"] == "error" for r in rows) else 0


def cmd_run(config):
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    wanted = config["collections"]
    if wanted is None:
        wanted = [c for c in COLLECTIONS if (out / f"collection_{c}.json").is_file()]
        if not wanted:
            raise FileNotFoundError(f"no collection manifests in {out}; run ingest first")
    paths = {cid: out / f"collection_{cid}.json" for cid in wanted}
    manifests = {}
    inputs = {}
    for cid, mpath in paths.items():
        if not mpath.is_file():
            raise FileNotFoundError(f"missing manifest {mpath}; run ingest first")
        manifest = manifests[cid] = _read_json(mpath)
        inputs[str(mpath)] = _digest_file(mpath)
        # the collection is rebuilt from the id, so the id must be the file's
        if isinstance(manifest, dict) and manifest.get("id", cid) != cid:
            raise ParseError(f"id must be {cid!r}, as its file name says, got {manifest['id']!r}",
                             mpath)

    d1, d2, digests = _load_datasets(config, wanted, out)
    inputs.update(digests)
    collections = {
        cid: collection_from_manifest(manifests[cid], d1, d2, paths[cid]) for cid in wanted
    }

    cells = [
        (cid, feature, window, classifier)
        for cid in wanted
        for feature in config["features"]
        for window in config["windows"]
        for classifier in config["classifiers"]
    ]
    grid_cfg = grid_config(config)
    # the last run's summary goes before this run's first report: a run
    # that dies before its own summary leaves none, and report refuses
    for name in ("summary.json", "summary.csv"):
        (out / name).unlink(missing_ok=True)
    if config["jobs"] > 1:
        results = _run_pool(cells, collections, grid_cfg, config["jobs"])
    else:
        results = _run_serial(cells, collections, grid_cfg)
    rows = []
    for row, report in results:
        # each cell's files are written as soon as it is done
        if report is not None:
            key = _cell_name(row, "_")
            save_report_json(report, out / f"report_{key}.json")
            write_roc_csv(report.averaged_curve, out / f"roc_{key}.csv")
        rows.append(row)
    _write_run_json(out, "run", config, inputs)
    return _write_summary(out, rows)


def _summary_cells(out):
    """The rows of out's summary.json, which only run and report write:
    the cells of the last run there.  ParseError naming the file when a
    row is not one that run writes."""
    path = out / "summary.json"
    if not path.is_file():
        raise FileNotFoundError(f"no reports found in {out}: {path} is missing; run first")
    rows = _read_json(path)
    if not isinstance(rows, list):
        raise ParseError("not a list of summary rows", path=path)
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ParseError(f"row {i} is not an object", path=path)
        for key, choices in _CELL_CHOICES.items():
            value = row.get(key)
            if type(value) is not type(choices[0]) or value not in choices:
                raise ParseError(f"row {i}: {key} {value!r} is not one of {choices}", path=path)
        if row.get("status") not in ("ok", "error"):
            raise ParseError(f"row {i}: status must be 'ok' or 'error'", path=path)
        if row["status"] == "error" and not isinstance(row.get("error"), str):
            raise ParseError(f"row {i}: an error row needs its error text", path=path)
    return rows


def cmd_report(config):
    """Re-render the summary of exactly the cells the last run wrote."""
    out = Path(config["out"])
    rows = []
    for cell in _summary_cells(out):
        if cell["status"] != "ok":
            rows.append(cell)
            continue
        # a missing report raises an OSError that names its path
        path = out / f"report_{_cell_name(cell, '_')}.json"
        doc = _read_json(path)
        try:
            report = report_from_dict(doc)
        except KeyError as exc:
            raise ParseError(f"missing key {exc}", path=path) from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"not a report ({exc})", path=path) from exc
        row = {**summary_row(report), "status": "ok"}
        if _cell_name(row) != _cell_name(cell):
            raise ParseError(f"a report for {_cell_name(row)}, not {_cell_name(cell)}", path=path)
        rows.append(row)
    return _write_summary(out, rows)


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="falldetect",
        description="Fall-detection experiments on triaxial accelerometer windows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = _CONFIG_DEFAULTS

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--seed", type=int, help=f"master seed (default {defaults['seed']})")
        p.add_argument("--out", help=f"output directory (default {defaults['out']})")

    p_synth = sub.add_parser("synth", help="generate a synthetic windowed dataset")
    common(p_synth)
    p_synth.add_argument("--adl", type=int,
                         help=f"number of ADL windows (default {defaults['adl']})")
    p_synth.add_argument("--falls", type=int,
                         help=f"number of fall windows (default {defaults['falls']})")
    p_synth.set_defaults(func=cmd_synth)

    p_ingest = sub.add_parser("ingest", help="parse datasets and write collection manifests")
    common(p_ingest)
    p_ingest.add_argument("--dataset1", help="dataset1-style directory (adl/, fall/, manifest)")
    p_ingest.add_argument("--dataset2", help="dataset2-style directory (x/y/z/labels files)")
    p_ingest.add_argument("--collection", dest="collections", action="append",
                          help="collection id (C1/C2/C3 or all); repeatable")
    p_ingest.set_defaults(func=cmd_ingest)

    p_run = sub.add_parser("run", help="run experiment cells from stored manifests")
    common(p_run)
    p_run.add_argument("--dataset1", help="dataset1-style directory")
    p_run.add_argument("--dataset2", help="dataset2-style directory")
    p_run.add_argument("--collection", dest="collections", action="append",
                       help="collection id (C1/C2/C3 or all); repeatable")
    p_run.add_argument("--feature", dest="features", action="append",
                       help="feature kind (RAW/MAGNITUDE/ACCEL_FEATURES/LTP or all)")
    p_run.add_argument("--window", dest="windows", action="append",
                       help="window length (51/128 or all)")
    p_run.add_argument("--classifier", dest="classifiers", action="append",
                       help="classifier (OC_KNN/TC_KNN/OC_SVM/TC_SVM or all)")
    p_run.add_argument("--jobs", type=int,
                       help="worker processes that run the cells' outer folds in parallel "
                            f"(default {defaults['jobs']})")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="re-render the summary from stored reports")
    common(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
    except (FalldetectError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(config)
    except (FalldetectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
