"""Command-line surface tying the pipeline together.

Subcommands: synthesize, calibrate, estimate, sample-params, gen-dataset,
eval-kl, train.  Every command is deterministic given its flags and seeds,
embeds provenance (seed, stream index, configs) in its outputs, writes
files atomically, and reports failures as a single machine-parsable line
``CODE: message`` on stderr with exit status 2 (validation) or 3
(internal).  No output may replace a directory, an input or another output
(see ``_check_outputs``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import re
import shutil
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import calibration, metrics, oracle, synthetic
from .calibration import CameraModel
from .errors import (
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    RawNoiseError,
)
from .estimator import (
    EstimatorCheckpoint,
    EstimatorConfig,
    estimate as estimate_with_checkpoint,
    train as train_estimator,
)
from .io import Manifest, atomic_write_text, load_json, read_tensor, save_json, write_tensor
from .noise_core import NoiseParams, add_noise
from .parallel import run_units
from .records import Record
from .streams import SCENE_STREAM, derive_stream

PARAM_CSV_HEADER = ["image_id", "K", "sigma", "mu_c", "sigma_r"]
ISO_CSV_HEADER = [*PARAM_CSV_HEADER, "iso"]


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form; keeps CSV output byte-stable."""
    return repr(float(value))


def _params_path(value: str) -> Path | None:
    """The file a --params value names, or None for an inline JSON object."""
    return None if value.strip().startswith("{") else Path(value)


def _load_params_arg(value: str) -> NoiseParams:
    source = _params_path(value) or value
    return NoiseParams.from_dict(load_json(source, DomainError, "noise parameters"))


def _load_camera(path) -> CameraModel:
    return CameraModel.from_dict(load_json(Path(path), DomainError, "camera model file"))


def _params_row(image_id: str, params: NoiseParams) -> list[str]:
    return [image_id, _fmt(params.K), _fmt(params.sigma), _fmt(params.mu_c), _fmt(params.sigma_r)]


def _csv_text(header: list[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _read_estimates(path: Path) -> tuple[list[str], list[tuple]]:
    """The header and ``(image_id, params, iso or None)`` rows of a UTF-8 estimates CSV.

    The header is PARAM_CSV_HEADER or ISO_CSV_HEADER and nothing more.
    """
    try:
        reader = csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline=""))
        header = next(reader, None)
        lines = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"{path} is not a readable UTF-8 CSV file: {exc}") from exc
    if header not in (PARAM_CSV_HEADER, ISO_CSV_HEADER):
        raise DomainError(
            f"{path} must have header {','.join(PARAM_CSV_HEADER)} or {','.join(ISO_CSV_HEADER)}"
        )
    rows = []
    for line_num, row in lines:
        try:
            if not len(PARAM_CSV_HEADER) <= len(row) <= len(header):  # iso may be left out
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            image_id, k, sigma, mu_c, sigma_r = row[:5]
            params = NoiseParams(
                K=float(k), sigma=float(sigma), mu_c=float(mu_c), sigma_r=float(sigma_r)
            )
            iso = float(row[5]) if len(row) > 5 and row[5] != "" else None
            if iso is not None and not 0 < iso < math.inf:
                raise ValueError(f"iso: expected a finite number > 0, got {row[5]!r}")
        except ValueError as exc:
            raise DomainError(f"{path} row {line_num}: {exc}") from exc
        rows.append((image_id, params, iso))
    return header, rows


def _check_outputs(inputs, outputs) -> None:
    """Refuse, before anything is read, an output that would replace a directory or another path.

    Entries are ``(flag or key, path as given or None, what the file holds)``.  An output
    clashes with an existing directory, with an input or earlier output it resolves to or lies
    under, and with a file it is a hard link of.
    """
    seen = [(name, noun, Path(path).resolve()) for name, path, noun in inputs if path is not None]
    for name, path, noun in outputs:
        if path is None:
            continue
        target = Path(path).resolve()
        if target.is_dir():
            raise ConfigurationError(f"{name} {path} would replace the directory at {path}")
        for other, other_noun, prior in seen:
            if target.is_relative_to(prior) or (
                target.exists() and prior.exists() and target.samefile(prior)
            ):
                raise ConfigurationError(f"{name} {path} would replace the {other_noun} at {other}")
        seen.append((name, noun, target))


# ----------------------------------------------------------------------
# synthesize


def _cmd_synthesize(args) -> int:
    out = Path(args.out)
    manifest = out.with_suffix(".json") if out.name else None  # "." names no file to suffix
    _check_outputs(
        [("--clean", args.clean, "clean patch"), ("--params", _params_path(args.params), "params")],
        [("--out", args.out, "noisy patch"), ("--out manifest", manifest, "manifest")],
    )
    clean = read_tensor(args.clean)
    params = _load_params_arg(args.params)
    rng = derive_stream(args.seed, args.stream_index)
    noisy = add_noise(clean, params, rng)
    extensions = {}
    if args.clamp:
        if not np.isfinite(noisy).all():  # a sum that overflowed would be clipped to a level
            raise DomainError("noisy patch holds a value that is not finite; --clamp would hide it")
        noisy = np.clip(noisy, 0.0, args.white_level)
        extensions = {"clamp": True, "white_level": args.white_level}
    write_tensor(args.out, noisy)
    Manifest(
        camera_id=args.camera_id,
        params=params,
        seed=args.seed,
        stream_index=args.stream_index,
        extensions=extensions,
    ).save(manifest)
    return 0


# ----------------------------------------------------------------------
# calibrate


def _cmd_calibrate(args) -> int:
    _check_outputs([("--estimates", args.estimates, "estimates")], [("--out", args.out, "camera")])
    _, rows = _read_estimates(Path(args.estimates))
    model = calibration.fit_log_linear(p for _, p, _ in rows)
    iso_pairs = [(iso, p.K) for _, p, iso in rows if iso is not None]
    if iso_pairs:
        model = replace(model, alpha=calibration.fit_iso_gain(iso_pairs))
    save_json(args.out, model.as_dict())
    print(
        f"fit over {len(rows)} estimates: "
        f"a={model.a:.6g} b={model.b:.6g} sigma_hat={model.sigma_hat:.6g} | "
        f"a_r={model.a_r:.6g} b_r={model.b_r:.6g} sigma_r_hat={model.sigma_r_hat:.6g} | "
        f"K in [{model.K_min:.6g}, {model.K_max:.6g}]"
        + (f" | alpha={model.alpha:.6g}" if model.alpha is not None else "")
    )
    return 0


# ----------------------------------------------------------------------
# estimate


def _read_noisy_frames(directory) -> Iterator[np.ndarray]:
    """Every ``noisy_*.nraw`` tensor in ``directory``, in name order, read as it is consumed."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"frame directory {directory} does not exist")
    paths = sorted(directory.glob("noisy_*.nraw"))
    if not paths:
        raise InsufficientDataError(f"{directory} holds no noisy frames")
    return (read_tensor(p) for p in paths)


def _read_flat_series(root) -> list[tuple[float, Iterator[np.ndarray]]]:
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"flat-series directory {root} does not exist")
    series = []
    for level_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        clean_path = level_dir / "clean.nraw"
        if not clean_path.exists():
            raise InsufficientDataError(f"{level_dir} has no clean.nraw level reference")
        clean = read_tensor(clean_path)
        # An empty reference has no level; its mean would warn.
        level = float(clean.mean()) if clean.size else math.nan
        if not 0 <= level < math.inf:  # the levels gen-dataset accepts
            raise DomainError(f"{clean_path} must hold a finite, non-negative flat level")
        series.append((level, _read_noisy_frames(level_dir)))
    if not series:
        raise InsufficientDataError(f"{root} holds no level directories")
    return series


def _cmd_estimate(args) -> int:
    _check_outputs(  # --append is read, then rewritten: it clashes only with the other paths
        [("--input", args.input, "noisy patch"), ("--checkpoint", args.checkpoint, "checkpoint"),
         ("--flat-series", args.flat_series, "flat frames"), ("--dark", args.dark, "dark frames")],
        [("--out", args.out, "estimate"), ("--append", args.append, "estimates")],
    )
    header, rows = PARAM_CSV_HEADER, []
    if args.append and Path(args.append).exists():
        header, rows = _read_estimates(Path(args.append))
    if args.oracle:
        if not args.flat_series or not args.dark:
            raise ConfigurationError("oracle mode needs --flat-series and --dark")
        params = oracle.estimate_params_oracle(
            _read_flat_series(args.flat_series), _read_noisy_frames(args.dark)
        )
        source = "oracle"
    else:
        if not args.input or not args.checkpoint:
            raise ConfigurationError("checkpoint mode needs --input and --checkpoint")
        checkpoint = EstimatorCheckpoint.load(args.checkpoint)
        params = estimate_with_checkpoint(read_tensor(args.input), checkpoint)
        source = "checkpoint"
    record = {**params.as_dict(), "image_id": args.image_id, "source": source}
    save_json(args.out, record)
    if args.append:
        rows.append((args.image_id, params, None))
        table = [  # cut to the header: an iso field only under the iso header
            [*_params_row(image_id, p), "" if iso is None else _fmt(iso)][: len(header)]
            for image_id, p, iso in rows
        ]
        atomic_write_text(Path(args.append), _csv_text(header, table))
    return 0


# ----------------------------------------------------------------------
# sample-params


def _cmd_sample_params(args) -> int:
    if args.count < 1:
        raise DomainError(f"--count must be >= 1, got {args.count}")
    provenance = f"{args.out}.provenance.json"
    outputs = [("--out", args.out, "tuples"), ("--out provenance", provenance, "provenance")]
    _check_outputs([("--camera", args.camera, "camera")], outputs)
    model = _load_camera(args.camera)
    rng = derive_stream(args.seed, 0)
    rows = []
    for i in range(args.count):
        if args.iso is not None:
            params = calibration.sample_params_at_iso(model, args.iso, rng)
        else:
            params = calibration.sample_params(model, rng)
        rows.append(_params_row(f"sample_{i:05d}", params))
    atomic_write_text(Path(args.out), _csv_text(PARAM_CSV_HEADER, rows))
    save_json(
        provenance,
        {
            "command": "sample-params",
            "camera": model.as_dict(),
            "count": args.count,
            "seed": args.seed,
            "iso": args.iso,
        },
    )
    return 0


# ----------------------------------------------------------------------
# gen-dataset


def _write_noisy(stem: Path, clean, params, rng, camera_id, seed, index) -> None:
    """Corrupt ``clean``, write ``<stem>.nraw`` and its ``<stem>.json`` manifest."""
    write_tensor(stem.with_suffix(".nraw"), add_noise(clean, params, rng))
    manifest = Manifest(camera_id=camera_id, params=params, seed=seed, stream_index=index)
    manifest.save(stem.with_suffix(".json"))


def _cmd_gen_dataset(args) -> int:
    """Write the dataset tree into a new ``--out``; a refused run removes what it created.

    ``--out`` is claimed with one ``mkdir``, so an existing path is refused
    with IO_ERROR before anything is written, and of two runs on one new
    path only one proceeds.  A refused run removes ``--out`` and then each
    parent it created that is left empty.  Patches, and frames, are drawn on streams of
    their own, so they are generated in parallel (see ``parallel.run_units``)
    with the bytes of a serial run.
    """
    for flag in ("count", "height", "width"):
        if getattr(args, flag) < 1:
            raise DomainError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    if 4 * args.height * args.width * np.dtype(np.float64).itemsize > np.iinfo(np.intp).max:
        raise DomainError(
            f"--height {args.height} by --width {args.width} frames are larger than a numpy "
            "array can hold"
        )
    out = Path(args.out)
    header = {
        "command": "gen-dataset",
        "mode": args.mode,
        "seed": args.seed,
        "count": args.count,
        "height": args.height,
        "width": args.width,
        "white_level": args.white_level,
    }
    if args.mode == "train":
        if not args.camera:
            raise ConfigurationError("train mode needs at least one --camera")
        ids = [Path(p).stem for p in args.camera]
        if len(set(ids)) < len(ids):
            raise ConfigurationError(
                f"--camera file stems name the cameras and must differ, got {', '.join(ids)}"
            )
        cameras = [(name, _load_camera(p)) for name, p in zip(ids, args.camera)]
        header["cameras"] = {name: model.as_dict() for name, model in cameras}
    else:
        params = _load_params_arg(args.params) if args.params else None
        if params is None:
            raise ConfigurationError(f"{args.mode} mode needs --params")
        header["params"] = params.as_dict()
        levels = [0.0]  # dark mode: zero illumination
    if args.mode == "flat":
        try:
            levels = [float(v) for v in args.levels.split(",")] if args.levels else []
        except ValueError as exc:
            raise ConfigurationError(f"--levels must be comma-separated numbers: {exc}") from exc
        if not levels:
            raise ConfigurationError("flat mode needs --levels, e.g. --levels 2,8,32,128")
        if not all(0 <= level < math.inf for level in levels):
            raise DomainError("flat levels must be finite and non-negative")
        header["levels"] = levels

    def patch(i):
        rng = derive_stream(args.seed, i)
        scene = synthetic.make_scene(rng, args.height, args.width, args.white_level)
        camera_id, camera = cameras[rng.integers(len(cameras))]
        params = calibration.sample_params(camera, rng)
        write_tensor(out / "clean" / f"patch_{i:05d}.nraw", scene)
        _write_noisy(out / "noisy" / f"patch_{i:05d}", scene, params, rng, camera_id, args.seed, i)

    def level(j):
        """Level j's directory and its clean frame."""
        directory = out / f"level_{j:02d}" if args.mode == "flat" else out
        return directory, np.broadcast_to(levels[j], (4, args.height, args.width))

    def frame(i):
        # Frame k of level j is unit, and stream, j * count + k.
        j, k = divmod(i, args.count)
        directory, clean = level(j)
        rng = derive_stream(args.seed, i)
        _write_noisy(directory / f"noisy_{k:04d}", clean, params, rng, args.camera_id, args.seed, i)

    # Only --out is this run's own; a parent it creates may be shared by now.
    missing = [d for d in out.parents if not d.exists()]  # innermost first
    out.mkdir(parents=True)
    try:
        save_json(out / "dataset.json", header)
        if args.mode == "train":
            run_units(args.count, patch)
        else:
            for j in range(len(levels)):
                directory, clean = level(j)
                write_tensor(directory / "clean.nraw", clean)
            run_units(len(levels) * args.count, frame)
    except BaseException:
        shutil.rmtree(out, ignore_errors=True)
        for directory in missing:
            with contextlib.suppress(OSError):  # not empty: another run writes there
                directory.rmdir()
        raise
    return 0


# ----------------------------------------------------------------------
# eval-kl


def _cmd_eval_kl(args) -> int:
    real = read_tensor(args.real)
    synth = read_tensor(args.synth)
    if args.clean:
        clean = read_tensor(args.clean)
        if clean.shape != real.shape or clean.shape != synth.shape:
            raise DomainError("--clean shape must match both inputs")
        real = real - clean
        synth = synth - clean
    if args.range:
        value_range = (args.range[0], args.range[1])
    else:
        value_range = metrics.default_range(real, synth)
    hist_real = metrics.build_histogram(real, bins=args.bins, value_range=value_range)
    hist_synth = metrics.build_histogram(synth, bins=args.bins, value_range=value_range)
    print(json.dumps(metrics.score_record(hist_real, hist_synth), sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# train


@dataclass(frozen=True)
class TrainData(Record, error=ConfigurationError, ignore_unknown=True):
    """The training config's data and output keys; all other keys are EstimatorConfig fields."""

    cameras: tuple[str, ...]
    out_checkpoint: str
    scene_pool_size: int = 64
    white_level: float = synthetic.DEFAULT_WHITE_LEVEL
    out_log: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if not self.cameras:
            raise ConfigurationError("training config needs a non-empty 'cameras' list")
        if self.white_level <= 0:
            raise ConfigurationError(f"white_level must be finite and > 0, got {self.white_level}")
        if "" in (self.out_checkpoint, self.out_log):
            raise ConfigurationError("out_checkpoint and out_log must be non-empty paths")


def _cmd_train(args) -> int:
    record = load_json(Path(args.config), ConfigurationError, "training config")
    data = TrainData.from_dict(record)
    config = EstimatorConfig.from_dict(
        {k: v for k, v in record.items() if k not in TrainData.__dataclass_fields__}
    )
    log_path = data.out_log or data.out_checkpoint + ".losses.csv"
    cameras = [(f"cameras[{i}]", path, "camera") for i, path in enumerate(data.cameras)]
    outputs = [("out_checkpoint", data.out_checkpoint, "checkpoint"), ("out_log", log_path, "log")]
    _check_outputs([("--config", args.config, "config"), *cameras], outputs)

    bank = [_load_camera(path) for path in data.cameras]
    scene_rng = derive_stream(config.seed, SCENE_STREAM)
    scene_pool = synthetic.make_scene_pool(
        scene_rng, data.scene_pool_size, config.patch_height, config.patch_width, data.white_level
    )

    checkpoint = train_estimator(config, scene_pool, bank)
    checkpoint.save(data.out_checkpoint)

    parts = ("contrastive", "regression", "total")
    rows = [
        [row["stage"], row["epoch"], *(_fmt(row[part]) for part in parts)]
        for row in checkpoint.metadata.get("loss_log", [])
    ]
    atomic_write_text(Path(log_path), _csv_text(["stage", "epoch", *parts], rows))
    print(
        f"checkpoint written to {data.out_checkpoint} "
        f"(final total loss {checkpoint.metadata['final_losses']['total']:.6g})"
    )
    return 0


# ----------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Any negative decimal literal is a value, not an option: argparse's
        # own pattern misses exponent forms such as -1e3.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        print(f"USAGE: {message}", file=sys.stderr)
        raise SystemExit(2)


def _stream_int(text: str) -> int:
    """argparse type of every seed and stream index: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _white_level(text: str) -> float:
    """argparse type of every --white-level: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _out_path(text: str) -> str:
    """argparse type of every --out and --append: a non-empty path."""
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty path")
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every ``main`` call.

    Reuse is safe: each parse fills a fresh namespace and leaves the parser
    unchanged.  Each subcommand's handler is bound when the parser is first
    built, so replacing a ``_cmd_*`` function afterwards does not reach it.
    """
    parser = _Parser(prog="rawnoise", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="corrupt a clean patch with the full noise model")
    p.add_argument("--clean", required=True, help="clean NRAW tensor")
    p.add_argument("--params", required=True, help="NoiseParams JSON file or inline object")
    p.add_argument("--seed", type=_stream_int, required=True)
    p.add_argument("--stream-index", type=_stream_int, default=0, help="per-patch stream index")
    p.add_argument("--out", type=_out_path, required=True, help="noisy NRAW output")
    p.add_argument("--clamp", action="store_true", help="clamp output to [0, white level]")
    p.add_argument("--white-level", type=_white_level, default=synthetic.DEFAULT_WHITE_LEVEL)
    p.add_argument("--camera-id", default="unknown")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("calibrate", help="fit a camera model from per-image estimates")
    p.add_argument("--estimates", required=True, help="CSV: image_id,K,sigma,mu_c,sigma_r[,iso]")
    p.add_argument("--out", type=_out_path, required=True, help="camera model JSON output")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("estimate", help="estimate noise parameters for one image")
    p.add_argument("--input", help="noisy NRAW tensor (checkpoint mode)")
    p.add_argument("--checkpoint", help="NEST checkpoint (checkpoint mode)")
    p.add_argument("--oracle", action="store_true", help="statistical mode from frame sets")
    p.add_argument("--flat-series", help="directory of level_*/ flat frames (oracle mode)")
    p.add_argument("--dark", help="directory of dark frames (oracle mode)")
    p.add_argument("--out", type=_out_path, required=True, help="NoiseParams JSON output")
    p.add_argument("--append", type=_out_path, help="also append a row to this estimates CSV")
    p.add_argument("--image-id", default="image")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("sample-params", help="sample parameter tuples from a camera model")
    p.add_argument("--camera", required=True, help="camera model JSON")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=_stream_int, required=True)
    p.add_argument("--out", type=_out_path, required=True, help="CSV output")
    p.add_argument("--iso", type=float, help="pin the gain via the fitted ISO slope")
    p.set_defaults(func=_cmd_sample_params)

    p = sub.add_parser("gen-dataset", help="produce clean/noisy tensor trees with manifests")
    p.add_argument("--out", type=_out_path, required=True, help="output directory")
    p.add_argument("--seed", type=_stream_int, required=True)
    p.add_argument("--mode", choices=("train", "flat", "dark"), default="train")
    p.add_argument("--count", type=int, required=True, help="patches (train) or frames per level")
    p.add_argument("--camera", action="append", help="camera model JSON (train mode; repeatable)")
    p.add_argument("--params", help="NoiseParams JSON file or inline (flat/dark modes)")
    p.add_argument("--levels", help="comma-separated clean levels (flat mode)")
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--white-level", type=_white_level, default=synthetic.DEFAULT_WHITE_LEVEL)
    p.add_argument("--camera-id", default="synthetic")
    p.set_defaults(func=_cmd_gen_dataset)

    p = sub.add_parser("eval-kl", help="histogram KL divergence between two sample files")
    p.add_argument("--real", required=True, help="reference NRAW tensor")
    p.add_argument("--synth", required=True, help="candidate NRAW tensor")
    p.add_argument("--bins", type=int, default=metrics.DEFAULT_BINS)
    p.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--clean", help="subtract this clean tensor from both inputs")
    p.set_defaults(func=_cmd_eval_kl)

    p = sub.add_parser("train", help="train the contrastive estimator from a config JSON")
    p.add_argument("--config", required=True, help="estimator config + training data spec")
    p.set_defaults(func=_cmd_train)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RawNoiseError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"FILE_NOT_FOUND: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"IO_ERROR: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"OUT_OF_MEMORY: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"INTERNAL: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
