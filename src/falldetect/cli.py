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
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from pathlib import Path

from . import __version__, synth
from .classifiers import Variant
from .errors import FalldetectError, ParseError
from .evaluation import (
    GridConfig,
    report_from_dict,
    run_experiment,
    save_report_json,
    summary_row,
    write_roc_csv,
)
from .features import FeatureKind, LtpParams
from .ingest import (
    COLLECTIONS,
    SUB_WINDOWS,
    _atomic_write_text,
    build_collection,
    collection_from_manifest,
    parse_dataset1,
    parse_dataset2,
    save_manifest,
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

_CONFIG_DEFAULTS = {
    "dataset1": None,
    "dataset2": None,
    "collections": None,
    "features": list(FEATURE_ORDER),
    "windows": list(SUB_WINDOWS),
    "classifiers": list(CLASSIFIER_ORDER),
    "seed": 0,
    "out": "out",
    "jobs": 1,
    "adl": 200,
    "falls": 20,
    "k_grid": None,
    "c_grid": None,
    "gamma_grid": None,
    "nu_grid": None,
    "inner_folds": 10,
    "svm_tol": None,
    "svm_max_iter": None,
    "ltp_neighbours": 6,
    "ltp_step": 1.0,
}


# Each grid's value bounds, as a test and as the words of the error.
_GRID_BOUNDS = {
    "k_grid": (lambda x: x >= 1 and x.is_integer(), "integers >= 1"),
    "c_grid": (lambda x: x > 0, "numbers > 0"),
    "gamma_grid": (lambda x: x > 0, '"auto" or numbers > 0'),
    "nu_grid": (lambda x: 0 < x <= 1, "numbers in (0, 1]"),
}


def _as_number(raw):
    """raw as a float; nan when it is not a number."""
    try:
        return float(raw)
    except (TypeError, ValueError):
        return math.nan


def _grid_values(key, raw):
    """The values of one hyperparameter grid, checked against its bounds."""
    ok, wanted = _GRID_BOUNDS[key]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ValueError(f"{key} must be a non-empty list of {wanted}, got {raw!r}")
    out = []
    for v in raw:
        if key == "gamma_grid" and v == "auto":
            out.append(v)
            continue
        x = _as_number(v)
        if not (math.isfinite(x) and ok(x)):
            raise ValueError(f"{key} must hold {wanted}, got {v!r}")
        out.append(int(x) if key == "k_grid" else x)
    return tuple(out)


# Each scalar setting's type, bounds and the words of the error.
_SETTING_BOUNDS = {
    "seed": (int, lambda x: x >= 0 and x.is_integer(), "an integer >= 0"),
    "jobs": (int, lambda x: x >= 1 and x.is_integer(), "an integer >= 1"),
    "inner_folds": (int, lambda x: x >= 2 and x.is_integer(), "an integer >= 2"),
    "svm_tol": (float, lambda x: x > 0, "a number > 0"),
    "svm_max_iter": (int, lambda x: x >= 1 and x.is_integer(), "an integer >= 1"),
    "ltp_neighbours": (int, lambda x: x >= 1 and x.is_integer(), "an integer >= 1"),
    "ltp_step": (float, lambda x: x > 0, "a number > 0"),
}


def _setting(config, key):
    """One scalar setting, checked against its bounds."""
    cast, ok, wanted = _SETTING_BOUNDS[key]
    raw = config[key]
    x = _as_number(raw)
    if not (math.isfinite(x) and ok(x)):
        raise ValueError(f"{key} must be {wanted}, got {raw!r}")
    if cast is int and isinstance(raw, int):
        return int(raw)  # exact past 2**53, where the float rounds
    return cast(x)


def grid_config(config):
    """GridConfig from the merged settings; ValueError naming the key when
    a value is out of range."""
    kwargs = {
        key: _grid_values(key, config[key]) for key in _GRID_BOUNDS if config[key] is not None
    }
    kwargs["inner_folds"] = _setting(config, "inner_folds")
    for key in ("svm_tol", "svm_max_iter"):
        if config[key] is not None:
            kwargs[key] = _setting(config, key)
    kwargs["ltp_params"] = LtpParams(
        num_neighbours=_setting(config, "ltp_neighbours"), step=_setting(config, "ltp_step")
    )
    return GridConfig(**kwargs)


def _parse_choices(raw, universe, what):
    """Members of universe picked by raw: a name or a list of names, each
    possibly a comma- or space-separated list, case-insensitive, with "all"
    picking every member.  None passes through; an empty pick is an error."""
    if raw is None:
        return None
    items = [raw] if isinstance(raw, (str, int)) else list(raw)
    names = {str(u).upper(): u for u in universe}
    out = []
    for item in items:
        for piece in str(item).replace(",", " ").split():
            name = piece.upper()
            if name == "ALL":
                return list(universe)
            if name not in names:
                choices = ", ".join(str(u) for u in universe)
                raise ValueError(f"unknown {what} {piece!r}; choose from {choices} or all")
            if names[name] not in out:
                out.append(names[name])
    if not out:
        raise ValueError(f"no {what} selected from {raw!r}")
    return out


def load_config(args):
    """Merge defaults, the optional config file, and command-line flags
    into one dict; choice lists and grid settings are checked here."""
    merged = dict(_CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        # a stored run.json nests the actual config under "config"
        if isinstance(doc.get("config"), dict):
            doc = doc["config"]
        unknown = set(doc) - set(_CONFIG_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(doc)
    for key in _CONFIG_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    for what, universe in _CELL_CHOICES.items():
        merged[what + "s"] = _parse_choices(merged[what + "s"], universe, what)
    for key in ("seed", "jobs"):
        merged[key] = _setting(merged, key)
    grid_config(merged)
    return merged


# ---------------------------------------------------------------------------
# run.json and digests


def _digest_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_tree(path):
    path = Path(path)
    if path.is_file():
        return _digest_file(path)
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
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
    _atomic_write_text(Path(out_dir) / "run.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(config):
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    manifest = synth.generate_dataset(
        out, n_adl=int(config["adl"]), n_falls=int(config["falls"]), seed=config["seed"]
    )
    _write_run_json(out, "synth", config, {})
    print(f"wrote {manifest['counts']['ADL']} ADL + {manifest['counts']['FALL']} FALL "
          f"windows to {out}")
    return 0


def _load_datasets(config, need_d1, need_d2):
    d1 = d2 = None
    if need_d1:
        if not config["dataset1"]:
            raise FileNotFoundError("dataset1 path required but not configured")
        d1 = parse_dataset1(config["dataset1"])
        if not d1:
            raise FileNotFoundError(f"no instances found in {config['dataset1']}")
    if need_d2:
        if not config["dataset2"]:
            raise FileNotFoundError("dataset2 path required but not configured")
        d2 = parse_dataset2(config["dataset2"])
        if not d2:
            raise FileNotFoundError(f"no instances found in {config['dataset2']}")
    return d1, d2


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
    need_d2 = any(c in ("C2", "C3") for c in wanted)
    d1, d2 = _load_datasets(config, need_d1=True, need_d2=need_d2)
    inputs = {config["dataset1"]: _digest_tree(config["dataset1"])}
    if need_d2:
        inputs[config["dataset2"]] = _digest_tree(config["dataset2"])
    for cid in wanted:
        collection = build_collection(cid, d1, d2, seed=config["seed"])
        save_manifest(collection, out / f"collection_{cid}.json")
        counts = collection.counts()
        parts = ", ".join(f"{label} {src}: {n}" for (label, src), n in sorted(counts.items()))
        print(f"{cid}: {len(collection)} instances ({parts})")
    _write_run_json(out, "ingest", config, inputs)
    return 0


def _references_d2(manifest):
    """Whether a manifest draws on dataset2.  A malformed one is refused,
    naming its file, once the collection is rebuilt from it."""
    entries = manifest.get("instances") if isinstance(manifest, dict) else None
    return isinstance(entries, list) and any(
        isinstance(e, dict) and e.get("source_dataset") == "D2" for e in entries
    )


def _run_cell(cell, collection, grid_cfg):
    """One experiment cell: its summary row, and its report (None when the
    cell failed and the row holds the error)."""
    try:
        report = run_experiment(collection, *cell[1:], grid_cfg)
    except Exception as exc:  # one failed cell must not lose the others
        text = str(exc) if isinstance(exc, FalldetectError) else f"{type(exc).__name__}: {exc}"
        cid, feature, window, classifier = cell
        row = {"collection": cid, "feature": feature, "window": int(window),
               "classifier": classifier, "status": "error",
               "error": text.replace(",", ";").replace("\n", " ")}
        return row, None
    return {**summary_row(report), "status": "ok"}, report


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
    rows = _sorted_rows(rows)
    _atomic_write_text(out / "summary.csv", _summary_lines(rows))
    _atomic_write_text(
        out / "summary.json", json.dumps(rows, indent=2, sort_keys=True) + "\n"
    )
    return rows


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
        manifests[cid] = _read_json(mpath)
        inputs[str(mpath)] = _digest_file(mpath)

    need_d2 = any(_references_d2(m) for m in manifests.values())
    d1, d2 = _load_datasets(config, need_d1=True, need_d2=need_d2)
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
    args = (cells, [collections[cell[0]] for cell in cells], repeat(grid_config(config)))
    if config["jobs"] > 1:
        with ProcessPoolExecutor(max_workers=config["jobs"]) as pool:
            results = list(pool.map(_run_cell, *args))
    else:
        results = list(map(_run_cell, *args))

    for row, report in results:
        if report is not None:
            key = _cell_name(row, "_")
            save_report_json(report, out / f"report_{key}.json")
            write_roc_csv(report.averaged_curve, out / f"roc_{key}.csv")
    rows = _write_summary(out, [row for row, _ in results])
    _write_run_json(out, "run", config, inputs)
    for r in rows:
        if r["status"] == "ok":
            print(f"{_cell_name(r)}: AUC {r['auc']:.3f} SE {r['se']:.3f} SP {r['sp']:.3f}")
        else:
            print(f"{_cell_name(r)}: ERROR {r['error']}")
    return 1 if any(r["status"] == "error" for r in rows) else 0


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


def _read_json(path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"not JSON ({exc})", path=path) from exc


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
        rows.append({**summary_row(report), "status": "ok"})
    rows = _write_summary(out, rows)
    for r in rows:
        if r["status"] == "ok":
            print(
                f"{_cell_name(r)}: "
                f"AUC {r['auc']:.3f} SE {r['se']:.3f} SP {r['sp']:.3f} GM {r['gm']:.3f}"
            )
        else:
            print(f"{_cell_name(r)}: ERROR {r['error']}")
    return 1 if any(r["status"] == "error" for r in rows) else 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="falldetect",
        description="Fall-detection experiments on triaxial accelerometer windows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--out", help="output directory (default ./out)")

    p_synth = sub.add_parser("synth", help="generate a synthetic windowed dataset")
    common(p_synth)
    p_synth.add_argument("--adl", type=int, help="number of ADL windows (default 200)")
    p_synth.add_argument("--falls", type=int, help="number of fall windows (default 20)")
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
    p_run.add_argument("--jobs", type=int, help="parallel experiment cells (default 1)")
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
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(config)
    except (FalldetectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
